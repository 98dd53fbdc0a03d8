(** Immutable undirected multigraphs in compressed sparse row form.

    Nodes are the integers [0, n). Parallel edges are allowed (needed for the
    [2K_N] multigraph of Section 1.4); self-loops are rejected. The edge list
    is retained alongside the CSR adjacency so that cut capacities can be
    computed with correct multiplicity in O(m). *)

type t

(** [of_edges ~n edges] builds the graph. Each pair is one undirected edge;
    orientation of the pairs is irrelevant. Duplicate pairs create parallel
    edges. @raise Invalid_argument on out-of-range endpoints or self-loops. *)
val of_edges : n:int -> (int * int) array -> t

(** [of_edge_list ~n edges] is {!of_edges} on a list. *)
val of_edge_list : n:int -> (int * int) list -> t

(** [of_endpoints ~n ~m us vs] is {!of_edges} on the [m] edges
    [(us.(i), vs.(i))], without materializing the tuple array before the
    sort. The coarsener's fast path: endpoints accumulate in two flat int
    stacks and are packed straight into sort keys. Only the first [m] cells
    of each array are read. *)
val of_endpoints : n:int -> m:int -> int array -> int array -> t

(** Number of nodes. *)
val n_nodes : t -> int

(** Number of undirected edges, counting multiplicity. *)
val n_edges : t -> int

(** Degree of a node (parallel edges counted with multiplicity). *)
val degree : t -> int -> int

(** Largest degree over all nodes (0 for the empty graph). *)
val max_degree : t -> int

(** The CSR offset array itself (length [n + 1]) — not a copy. Neighbors of
    [u] occupy [csr_adj g].(o.(u) .. o.(u+1) - 1). Borrowed and read-only:
    mutating it corrupts the graph — and not only the caller's, since
    graphs from [Bfly_serve.Job.graph_of] are memoized and shared across
    requests and domains. Escape hatch for the partitioner inner loops,
    which cannot afford a closure per neighbor. *)
val csr_offsets : t -> int array

(** The CSR adjacency array itself (length [2 * n_edges g]) — not a copy.
    Same borrowing contract as {!csr_offsets}. Each row lists its
    neighbors in ascending order, with multiplicity, so the entries
    [v > u] of the rows [u = 0, 1, ...] are the normalized edge list in
    {!iter_edges} order. *)
val csr_adj : t -> int array

(** [cut_size g side] is the number of edges (with multiplicity) with exactly
    one endpoint in [side]: the capacity of the cut [(side, V - side)].
    Branch-free word-indexed test per edge against the bitset's backing
    words; equals the naive {!iter_edges} membership count exactly. O(m). *)
val cut_size : t -> Bitset.t -> int

(** [iter_neighbors g u f] applies [f] to each neighbor of [u], with
    multiplicity, in unspecified order. *)
val iter_neighbors : t -> int -> (int -> unit) -> unit

(** [fold_neighbors g u init f]. *)
val fold_neighbors : t -> int -> 'a -> ('a -> int -> 'a) -> 'a

(** Neighbors of [u] as a fresh array (with multiplicity). *)
val neighbors : t -> int -> int array

(** [iter_edges g f] applies [f u v] once per undirected edge (with
    multiplicity), with [u <= v]. *)
val iter_edges : t -> (int -> int -> unit) -> unit

(** [edge_u g e] and {!edge_v}[ g e] are the endpoints of edge [e]
    ([0 <= e < n_edges g]), normalized [u <= v], in {!iter_edges} order:
    an edge-list loop with no closure and no pair. *)
val edge_u : t -> int -> int

val edge_v : t -> int -> int

(** The edges as a fresh array of normalized pairs [(u, v)], [u <= v], in
    {!iter_edges} order. Allocates one pair per edge (the graph stores
    its edges packed, not as pairs): loops should use {!iter_edges}. *)
val edges : t -> (int * int) array

(** [mem_edge g u v] is [true] when at least one [u]–[v] edge exists. *)
val mem_edge : t -> int -> int -> bool

(** [true] when the graph has no parallel edges. *)
val is_simple : t -> bool

(** [induced g nodes] is the subgraph induced by the node set, together with
    the map from new indices to original node ids. *)
val induced : t -> Bitset.t -> t * int array

(** [relabel g p] renames node [i] to [Perm.apply p i]. The result is
    isomorphic to [g]; used to realize automorphisms concretely. *)
val relabel : t -> Perm.t -> t

(** [union_disjoint a b] is the disjoint union, [b]'s nodes shifted by
    [n_nodes a]. *)
val union_disjoint : t -> t -> t

(** Structural equality: same node count and same multiset of normalized
    edges. Compare graphs with this, not with [(=)]: a graph also carries
    its memoized {!fingerprint}. *)
val equal : t -> t -> bool

(** [fingerprint g compute] is [compute g], computed on the first call
    for [g] and read back on every later one. The slot belongs to
    [Bfly_cache.Fingerprint.graph], whose [compute] is a pure function of
    the edge list; any [compute] must be. Safe under concurrent first use:
    racing callers each compute the same value, and none waits. *)
val fingerprint : t -> (t -> int64) -> int64

(** [degree_histogram g] maps degree [d] to the number of nodes of degree
    [d], as an array of length [max_degree g + 1]. *)
val degree_histogram : t -> int array
