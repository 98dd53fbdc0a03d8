(** Certified bisection lower bounds for arbitrary connected graphs.

    The paper's [K_N]-embedding technique (Section 4.2 /
    [Bfly_embed.Lower_bounds.bw_via]), freed from closed-form guests:
    route every ordered node pair of the complete graph over the BFS tree
    of its source. Any bisection of an [n]-node graph separates
    [2·⌈n/2⌉·⌊n/2⌋] ordered pairs; each separated pair's route crosses
    the cut at least once, and a cut of capacity [w] contains at most [w]
    distinct endpoint pairs ("bundles", so parallel edges cannot inflate
    the bound), each carrying at most the worst per-bundle congestion
    [c]. Hence

    {v BW(g) >= ceil(2·⌈n/2⌉·⌊n/2⌋ / c) v}

    — a certificate that needs no search and no randomness: BFS scans
    adjacency in CSR order and the congestion totals are integer sums,
    so the bound is deterministic at any domain count, which is what the
    random-regular campaign requires of its per-instance lower bound
    (the supervised branch-and-bound's interval ends, by contrast,
    depend on cancellation timing). O(n·(n+m)) time, parallelized over
    sources; ~0.06n on random cubic graphs, exact on [K_n] and cycles.

    Metrics: counter [cuts.certificate.kn], timer span
    [cuts.certificate]. *)

val kn_congestion : Bfly_graph.Graph.t -> int option
(** [kn_congestion g] — the worst per-bundle congestion of the BFS-tree
    all-ordered-pairs routing; [None] when [g] is disconnected (some
    pairs have no route), [Some 0] for graphs with at most one node. *)

val kn_bound : Bfly_graph.Graph.t -> int
(** [kn_bound g] — the certified lower bound above; [0] for disconnected
    or trivial graphs (a disconnected graph can have a zero-capacity
    bisection). *)
