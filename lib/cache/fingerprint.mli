(** Stable structural fingerprints (64-bit FNV-1a) for cache keys.

    Every combinator is a loop over an unboxed accumulator: it allocates
    only the fingerprint it returns.

    A fingerprint is a running hash over a canonical byte stream: every
    combinator feeds a type tag plus the value's canonical encoding, so
    [int 3] and [string "3"] hash differently and concatenation ambiguity
    ([("ab","c")] vs [("a","bc")]) cannot collide. Graphs are hashed over
    their {e sorted} normalized edge list, so two structurally equal graphs
    ({!Bfly_graph.Graph.equal}) fingerprint identically no matter how they
    were built.

    The hash is stable across processes, platforms and OCaml versions — it
    never uses [Hashtbl.hash] or [Marshal] — which is what makes the
    on-disk store content-addressed rather than process-addressed. *)

type t
(** A running fingerprint. Immutable; every combinator returns a new one. *)

(** The empty-stream fingerprint (the FNV-1a offset basis). *)
val seed : t

(** Fold one integer (as its 64-bit two's-complement encoding). *)
val int : t -> int -> t

(** Fold a string, length-prefixed. *)
val string : t -> string -> t

(** Fold a string's bytes with no tag and no length prefix: the plain
    FNV-1a stream ([to_hex (bytes seed s)] is the textbook 64-bit FNV-1a
    of [s]), for digests of byte streams, never for cache keys. *)
val bytes : t -> string -> t

(** Fold an integer array, length-prefixed. *)
val int_array : t -> int array -> t

(** Fold a bitset as its capacity plus backing words, absorbed at word
    granularity (the tail-zero invariant of {!Bfly_graph.Bitset} makes the
    words canonical for the set). O(capacity/63). *)
val bitset : t -> Bfly_graph.Bitset.t -> t

(** Fold a graph canonically: node count, edge count, then the normalized
    edge multiset in sorted order — read straight off the graph's own
    ascending CSR rows, one word-granularity absorption per endpoint: no
    copy, no re-sort. Structurally equal graphs fold to equal
    fingerprints. O(m) the first time; [graph seed g] is then kept in [g]
    ({!Bfly_graph.Graph.fingerprint}), so every later call on the same
    graph value is O(1). *)
val graph : t -> Bfly_graph.Graph.t -> t

(** 16-hex-digit rendering, e.g. ["cbf29ce484222325"]. *)
val to_hex : t -> string
