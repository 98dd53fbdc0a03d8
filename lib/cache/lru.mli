(** Bounded in-memory LRU keyed by strings.

    Three users: {!Store}'s memory tier in front of {!Disk}, holding
    decoded {!Codec.payload}s keyed by entry digest (recently served
    entries skip the filesystem and its re-parse), and the serving
    layer's memos of built networks and of finished outputs. Values are
    shared, not copied: store only immutable ones (cache payloads are;
    integration sites rebuild fresh witnesses from them on every hit).

    Exact LRU via an intrusive doubly-linked list: [find], [add] and
    [remove] are O(1). Not synchronized — every user serializes access
    under its own lock ([find] reorders the list too). *)

type 'a t

(** [create ~capacity] — an empty LRU holding at most [capacity] entries.
    [capacity = 0] makes every operation a no-op. *)
val create : capacity:int -> 'a t

(** [find t key] returns the value and marks it most recently used. *)
val find : 'a t -> string -> 'a option

(** [add t key value] inserts (or refreshes) the entry and returns how
    many entries were evicted to make room (0 or 1; more after
    {!set_capacity} shrinks). *)
val add : 'a t -> string -> 'a -> int

(** Remove one entry if present (used when a hit fails verification). *)
val remove : 'a t -> string -> unit

(** Number of live entries. *)
val length : 'a t -> int

(** Drop every entry. *)
val clear : 'a t -> unit

(** [set_capacity t k] rebounds the LRU, evicting least-recent entries
    down to the new capacity; returns the number evicted. *)
val set_capacity : 'a t -> int -> int
