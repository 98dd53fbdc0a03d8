(** Output validators: every claim a solver returns alongside a value — a
    witness cut, a witness subset, an embedding — is re-verified here from
    first principles (via {!Reference}, never via the code path that
    produced it).

    A failed invariant means the solver's {e reported} value and its
    {e actual} output disagree, which a pure value-vs-value differential
    test cannot see. *)

type result = Pass | Fail of string
(** A validation verdict; [Fail] carries the first-principles discrepancy. *)

(** [is_pass r] is [true] iff [r] is [Pass]. *)
val is_pass : result -> bool

(** [message r] is [Some m] for failures. *)
val message : result -> string option

(** First failure wins; [Pass] when all pass. *)
val all : result list -> result

(** [bisection_cut ?u g ~value ~witness] checks that [witness] is a side
    set over [g]'s nodes, that it splits [u] (default: all nodes) as evenly
    as possible, and that its recounted capacity equals [value]. *)
val bisection_cut :
  ?u:Bfly_graph.Bitset.t ->
  Bfly_graph.Graph.t ->
  value:int ->
  witness:Bfly_graph.Bitset.t ->
  result

(** [bisection_interval ?u g ~lower ~upper ~witness] validates a certified
    interval from an interrupted supervised search: the interval is
    non-empty and non-negative, and [witness] is a real cut bisecting [u]
    whose recounted capacity is exactly [upper] — so [BW <= upper] holds by
    construction. (The lower end is the solver's pruning certificate and
    cannot be recomputed cheaply; the complementary soundness check —
    [lower <= BW] — is exercised by the differential oracles on instances
    small enough to solve exactly.) *)
val bisection_interval :
  ?u:Bfly_graph.Bitset.t ->
  Bfly_graph.Graph.t ->
  lower:int ->
  upper:int ->
  witness:Bfly_graph.Bitset.t ->
  result

(** [expansion_witness ~kind g ~k ~value ~witness] checks [|witness| = k]
    and that its recounted edge boundary ([`Edge]) or neighborhood size
    ([`Node]) equals [value]. *)
val expansion_witness :
  kind:[ `Edge | `Node ] ->
  Bfly_graph.Graph.t ->
  k:int ->
  value:int ->
  witness:Bfly_graph.Bitset.t ->
  result

(** [paths_are_walks g paths] checks every path is a non-empty walk in [g]
    (consecutive nodes adjacent, all nodes in range). *)
val paths_are_walks : Bfly_graph.Graph.t -> int list array -> result

(** [embedding e] re-validates an embedding end to end: node map in host
    range, each edge path a host walk connecting the images of its guest
    edge's endpoints, and the measured load/congestion/dilation equal to
    {!Reference.embedding_measures}. *)
val embedding : Bfly_embed.Embedding.t -> result
