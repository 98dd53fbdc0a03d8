(** Breadth-first traversal, connected components, distances and diameters. *)

(** [bfs_distances g src] is the array of hop distances from [src];
    unreachable nodes get [-1]. *)
val bfs_distances : Graph.t -> int -> int array

(** [bfs_multi g srcs] is the distance to the nearest source. *)
val bfs_multi : Graph.t -> int list -> int array

(** [shortest_path g u v] is a node sequence from [u] to [v] of minimum hop
    count, or [None] when disconnected. *)
val shortest_path : Graph.t -> int -> int -> int list option

(** Connected components as a [Union_find.t] over the nodes. *)
val components : Graph.t -> Union_find.t

(** Number of connected components. *)
val component_count : Graph.t -> int

(** [is_connected g] — vacuously true for the empty graph. *)
val is_connected : Graph.t -> bool

(** Diameter: maximum eccentricity.
    @raise Invalid_argument if the graph is disconnected or empty. *)
val diameter : Graph.t -> int

(** All-pairs hop distances by repeated BFS ([-1] for unreachable);
    O(n·m). *)
val all_pairs_distances : Graph.t -> int array array

(** Mean distance over ordered reachable pairs (excluding self-pairs).
    @raise Invalid_argument on graphs with under two nodes. *)
val average_distance : Graph.t -> float

(** Minimum eccentricity. @raise Invalid_argument if disconnected/empty. *)
val radius : Graph.t -> int

(** [neighbors_of_set g s] is the set of nodes outside [s] adjacent to [s] —
    the set [N(S)] of Section 1.3. *)
val neighbors_of_set : Graph.t -> Bitset.t -> Bitset.t

(** [boundary_edges g s] counts edges with exactly one endpoint in [s]
    (with multiplicity) — the quantity [C(S, S̄)] of Section 1.2. *)
val boundary_edges : Graph.t -> Bitset.t -> int
