(** Minimal hand-rolled JSON values, serialization and parsing.

    The observability layer ({!Metrics}, the bench harness's [--json] mode)
    emits machine-readable output without pulling in a JSON dependency; this
    module is the single shared emitter. It covers exactly the subset of
    JSON the repo produces: finite numbers, escaped strings, arrays and
    objects.

    {!of_string} is the matching parser. It exists for the two places the
    repo {e consumes} JSON it produced itself: the [bfly_serve] request
    protocol (newline-delimited request objects) and the bench harness's
    [--compare] regression gate (reading a committed [BENCH_<date>.json]
    baseline back in). It accepts standard JSON — numbers without a
    fraction or exponent parse as {!Int}, everything else as {!Float} —
    and rejects trailing garbage, so one request line is one value. *)

(** A JSON value. Objects preserve the field order they were built with. *)
type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** Non-finite floats serialize as [null]. *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_buffer : Buffer.t -> t -> unit
(** [to_buffer buf v] appends the compact serialization of [v] to [buf]. *)

val decimal : int -> string
(** [decimal n] is [string_of_int n] — the digits an [Int n] prints as —
    written by an OCaml digit loop rather than the C formatter, which
    parses its format on every call. The printer, answer lines and
    cache-key parameters render their integers with it. *)

val to_string : t -> string
(** [to_string v] is the compact (single-line) serialization of [v]. *)

val quoted_length : string -> int
(** [quoted_length s] is the length of [to_string (Str s)]: [s] between
    quotes, with quotes, backslashes and control characters escaped. *)

val blit_quoted : string -> Bytes.t -> int -> int
(** [blit_quoted s b off] writes the bytes of [to_string (Str s)] into [b]
    at [off] and returns the offset just past them. With
    {!quoted_length}, a response line is rendered into one string of its
    exact length. *)

val of_string : string -> (t, string) result
(** [of_string s] parses one JSON value (surrounding whitespace allowed;
    anything after the value is an error). Objects keep their field order;
    duplicate keys are kept as-is (lookups see the first — callers that
    must not silently drop the later values screen with {!duplicate_key}
    and reject). [\uXXXX] escapes
    decode to UTF-8, surrogate pairs included. Errors carry a byte offset,
    e.g. ["trailing garbage at byte 12"]. Nesting is capped (512 levels) so
    hostile request lines cannot overflow the stack. A parse allocates the
    returned tree and nothing else, except for strings with escapes and
    numbers that are fractional or longer than 18 digits. *)

(** {1 Accessors}

    Small total helpers for picking values out of parsed documents —
    [None] on shape mismatch, never an exception. *)

val member : string -> t -> t option
(** [member k v] is the first [k] field of object [v]. Note the parser
    {e keeps} duplicate keys ({!of_string}), so on a malformed document
    this silently ignores every later duplicate — consumers that must not
    do that (the serve request protocol) screen with {!duplicate_key}
    first. *)

val duplicate_key : t -> string option
(** [duplicate_key v] is the first object key that occurs more than once
    in the same object anywhere inside [v], or [None] when every object
    has distinct keys. "First" is depth-first, an object's own keys before
    its children's, and within one object the key whose second
    occurrence comes first. Used to {e reject} ambiguous request
    documents instead of resolving them first-key-wins.

    Cost: an object of [k] keys takes O(k log k) key comparisons in the
    worst case (pairwise up to 16 keys, a sort of the keys above), so a
    request line of [n] bytes is screened in O(n log n) byte
    comparisons. *)

val to_int_opt : t -> int option
(** [Int n] (and integral [Float]) as [Some n]. *)

val to_string_opt : t -> string option
val to_bool_opt : t -> bool option

val to_list_opt : t -> t list option
(** [List items] as [Some items]. *)
