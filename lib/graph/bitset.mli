(** Fixed-capacity bitsets over a universe [0, capacity).

    Used throughout the cut and expansion machinery to represent node sets
    and cut sides. All element-level operations are bounds-checked by
    assertions.

    {2 Word layout}

    Members are packed into native OCaml [int]s, 63 usable bits per word
    ({!bits_per_word}); element [i] lives at bit [i mod 63] of word
    [i / 63]. Bit 62 of a word is the native sign bit, so stored words may
    be negative — always treat them as raw 63-bit patterns (shift with
    [lsr], never [asr]). Every set maintains the invariant that bits at
    positions [>= capacity] are zero, and the backing array always holds one
    extra all-zero word past the last occupied one, so word-indexed kernels
    may read one word beyond the tail without bounds checks. *)

type t

(** Bits stored per backing word (63: native [int] minus the tag bit). *)
val bits_per_word : int

(** Largest capacity {!create} accepts: [2^30], the range on which
    {!word_index} and {!bit_index} are proven exact. *)
val max_capacity : int

(** [create n] is the empty set over universe [0, n).
    @raise Invalid_argument when [n < 0] or [n > max_capacity]. *)
val create : int -> t

(** Capacity of the universe (the [n] given to {!create}). *)
val capacity : t -> int

(** Length of the backing word array, including the trailing spare word. *)
val word_count : t -> int

(** The backing word array itself — not a copy. Read-mostly escape hatch for
    word-parallel kernels ({!Graph.cut_size}, the partitioner inner loops).
    Callers that write through it must preserve the tail-zero invariant
    described above; breaking it silently corrupts {!cardinal}, {!iter} and
    every popcount-based consumer. *)
val unsafe_words : t -> int array

(** [popcount_word w] is the number of set bits in one backing word, treated
    as a 63-bit pattern. Branch-free SWAR; safe on negative words (bit 62
    set). *)
val popcount_word : int -> int

(** [word_index i] is [i / bits_per_word] and {!bit_index}[ i] is
    [i mod bits_per_word], computed by a multiply-shift reciprocal instead
    of hardware division. Valid for [0 <= i <= 2^30] — every member of a
    set {!create} accepts, and every graph node id
    ({!Graph.max_packed_n}); out of that range the result is silently
    wrong, so these are for kernel inner loops, not general arithmetic.
    {!mem}, {!add}, {!remove} and {!flip} locate bits with them. *)
val word_index : int -> int

val bit_index : int -> int

(** [mem s i] tests membership of [i]. *)
val mem : t -> int -> bool

(** [add s i] inserts [i] (in place). *)
val add : t -> int -> unit

(** [remove s i] deletes [i] (in place). *)
val remove : t -> int -> unit

(** [set s i b] inserts [i] when [b], deletes it otherwise. *)
val set : t -> int -> bool -> unit

(** [flip s i] toggles membership of [i]. *)
val flip : t -> int -> unit

(** Number of elements in the set. Popcount over words, O(capacity/63). *)
val cardinal : t -> int

(** [inter_cardinal a b] is [cardinal (inter a b)] without allocating the
    intersection: popcount over pairwise ANDed words. Capacities must
    match. *)
val inter_cardinal : t -> t -> int

(** [copy s] is an independent copy. *)
val copy : t -> t

(** [clear s] empties the set in place. *)
val clear : t -> unit

(** [blit ~src ~dst] overwrites [dst] with the contents of [src] without
    allocating. Capacities must match. Used by the kernel arenas to reset
    scratch sides between restarts. *)
val blit : src:t -> dst:t -> unit

(** [fill s] makes [s] the full universe, in place. *)
val fill : t -> unit

(** [complement s] is a new set containing exactly the non-members. *)
val complement : t -> t

(** [union a b], [inter a b], [diff a b] are new sets; capacities must match. *)
val union : t -> t -> t

val inter : t -> t -> t
val diff : t -> t -> t

(** [equal a b] tests extensional equality (capacities must match). *)
val equal : t -> t -> bool

(** [subset a b] is [true] when every member of [a] is in [b]. *)
val subset : t -> t -> bool

(** [is_empty s] is [true] when [s] has no members. *)
val is_empty : t -> bool

(** [iter s f] applies [f] to members in increasing order (lowest-set-bit
    extraction per word; cost is proportional to members, not capacity). *)
val iter : t -> (int -> unit) -> unit

(** [fold s init f] folds over members in increasing order. *)
val fold : t -> 'a -> ('a -> int -> 'a) -> 'a

(** Members in increasing order. *)
val elements : t -> int list

(** [of_list n l] is the set over [0, n) containing exactly [l]. *)
val of_list : int -> int list -> t

(** [choose s] is the smallest member. @raise Not_found when empty. *)
val choose : t -> int

(** Pretty-printer, e.g. [{0, 3, 17}]. *)
val pp : Format.formatter -> t -> unit
