(** Cache keys: [(solver id, solver params, instance fingerprint, salts)]
    folded into one content-addressed digest.

    A key names a {e deterministic computation}, not a stored blob: two
    calls build the same key exactly when the solver, its parameters, the
    canonical instance fingerprint, the per-solver salt and the library's
    code salt all agree — and the solvers are deterministic in all of
    those (see ARCHITECTURE.md), so equal keys imply equal results.

    Digest collisions are guarded twice: the full human-readable
    {!description} is stored inside every disk entry and compared on load
    (a mismatch is treated as a miss), and every hit is re-verified against
    its witness before being served. *)

type t

(** [make ~solver ~salt ~params ~fingerprint] builds a key.
    [solver] is the dotted call-site id (e.g. ["cuts.exact.bisection_width"]);
    [salt] versions that call site independently of the library-wide
    code salt;
    [params] are human-readable parameter pairs, order-significant;
    [fingerprint] canonically identifies the instance (graph, subset,
    derived seeds, …). *)
val make :
  solver:string ->
  salt:string ->
  params:(string * string) list ->
  fingerprint:Fingerprint.t ->
  t

(** The solver id the key was built with. *)
val solver : t -> string

(** 16-hex-digit digest over every component of the key. *)
val digest : t -> string

(** Canonical one-line rendering of the full key, e.g.
    ["cuts.exact.bisection_width?restarts=4&v=exact/1&c=2026-08-06.1#<fp>"].
    Stored inside disk entries to detect digest collisions. *)
val description : t -> string

(** The entry's base filename: sanitized solver id + digest +
    [".entry"]. *)
val filename : t -> string
