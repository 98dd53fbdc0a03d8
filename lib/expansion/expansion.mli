(** Edge- and node-expansion functions (Section 1.3):
    [EE(G,k)] is the least [C(S,S̄)] and [NE(G,k)] the least [|N(S)|]
    over all node sets [S] of size [k].

    Exact values come from (parallel) enumeration of all k-subsets —
    exponential, intended for the small instances of experiments E5–E8;
    an annealing minimizer provides upper-bound witnesses beyond that.

    The exact minimizers persist their results in the {!Bfly_cache} store
    keyed on [(graph, k)]; cached witnesses are re-verified (cardinality
    and re-measured expansion) before being served. The annealing
    minimizers are not cached: they consume [rng] throughout their run, so
    serving a stored result would desynchronize the caller's rng stream. *)

(** [edge_expansion g s] is [C(S, S̄)]. *)
val edge_expansion : Bfly_graph.Graph.t -> Bfly_graph.Bitset.t -> int

(** [node_expansion g s] is [|N(S)|]. *)
val node_expansion : Bfly_graph.Graph.t -> Bfly_graph.Bitset.t -> int

(** [ee_exact g ~k] is [EE(G,k)] with a minimizing witness. Enumerates all
    [C(n,k)] subsets in parallel.
    @raise Invalid_argument when [C(n,k)] exceeds ~200 million. *)
val ee_exact : Bfly_graph.Graph.t -> k:int -> int * Bfly_graph.Bitset.t

(** [ne_exact g ~k] is [NE(G,k)] with a witness; same limits. *)
val ne_exact : Bfly_graph.Graph.t -> k:int -> int * Bfly_graph.Bitset.t

(** [ee_anneal ?rng ?steps g ~k] minimizes edge expansion over k-sets by
    simulated annealing (swap moves); an upper bound on [EE(G,k)]. The
    ambient cancellation token ({!Bfly_resil.Cancel.with_ambient}) is
    polled every 1,024 steps; once it fires, the best k-set found so far
    is returned, with its measured value. *)
val ee_anneal :
  ?rng:Random.State.t -> ?steps:int -> Bfly_graph.Graph.t -> k:int ->
  int * Bfly_graph.Bitset.t

(** [ne_anneal ?rng ?steps g ~k] likewise for node expansion. *)
val ne_anneal :
  ?rng:Random.State.t -> ?steps:int -> Bfly_graph.Graph.t -> k:int ->
  int * Bfly_graph.Bitset.t
