(** Typed payload encoding for cache entries.

    A payload is an ordered list of named fields — integers, strings and
    node sets — with a line-oriented, fully self-describing text encoding.
    The format is deliberately {e not} [Marshal]: it is stable across OCaml
    versions, diffable, and every decoding path validates shape and ranges,
    so a truncated or bit-flipped entry decodes to [None] instead of a
    wrong value (and {!Store} then evicts and recomputes it). *)

(** One named field. Bitsets are encoded as capacity plus the sorted
    member list. *)
type field =
  | Int of int
  | Str of string
  | Bits of { capacity : int; elements : int list }

type payload = (string * field) list

(** Canonical text encoding. Injective: [decode (encode p) = Some p]. *)
val encode : payload -> string

(** Parse an encoded payload. [None] on any malformed input: unknown field
    kind, arity error, out-of-range or unsorted bitset members, trailing
    garbage. Never raises. *)
val decode : string -> payload option

(** {1 Builders and accessors}

    [get_*] return [None] when the field is absent or has the wrong
    type — integration sites treat that as a failed verification. *)

(** [bits s] is the {!Bits} field for bitset [s]. *)
val bits : Bfly_graph.Bitset.t -> field

val get_int : payload -> string -> int option

(** [get_bits p name ~capacity] rebuilds the named bitset, additionally
    checking that its stored capacity equals [capacity]. The result is a
    fresh set — callers may mutate it without corrupting the cache. *)
val get_bits : payload -> string -> capacity:int -> Bfly_graph.Bitset.t option
