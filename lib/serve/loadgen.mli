(** Deterministic load generation and the [bfly-loadgen/1] latency
    document.

    A load run replays a request trace against a server — in-process
    (sequentially or through {!Dispatch} on the domain pool) or over a
    live socket — on a schedule that is a {e pure function} of
    [(trace, seed, clients, repeat)]: each round is a seeded permutation
    of the trace and every event is assigned to a seeded client. Two
    runs with the same parameters issue byte-identical request streams
    in the same order, so their response payloads must match too;
    everything timing-dependent (latency quantiles, achieved QPS, batch
    widths) is quarantined in fields a determinism comparison ignores.

    The resulting JSON document separates the two worlds:

    - deterministic fields — [seed], [clients], [repeat],
      [trace_fingerprint], [schedule_fingerprint], [requests],
      [responses], [ok], [errors], and [outputs_fingerprint], a 64-bit
      FNV-1a digest ({!Bfly_cache.Fingerprint.bytes}) over each
      response's [output]/[error] payload (never the whole line: the
      [batch] width reflects scheduling). These must be bit-equal across
      worker counts, modes and machines.
    - [timing] — [wall_ns], [achieved_qps], [p50_ns]/[p90_ns]/[p99_ns]/
      [max_ns] — compared only against a slack factor, and [server], the
      server's stats object, kept for inspection only.

    The latency fields cover the {e answered} requests only, each
    recorded once, when its answer arrives, into a [Bfly_obs.Metrics]
    timer of the run's own registry: from submission (in process) or
    from the write of its line (over a socket). They are the timer's
    quantiles, read from its histogram over the whole run (no sample is
    dropped or windowed): each the lower edge of its bucket, at most
    6.25% below the exact nearest-rank value; [max_ns] is exact.

    {!compare_docs} is the CI gate: deterministic drift always fails;
    timing drift fails only beyond [slack], and can be disabled entirely
    ([timing:false]) when comparing against a baseline recorded on
    different hardware. *)

type target = [ `Unix of string | `Tcp of string * int ]

type mode =
  | Concurrent  (** in-process, batches on the domain pool via {!Dispatch} *)
  | Sequential  (** in-process, every batch solved inline at submit *)
  | Connect of target
      (** against a live [bfly_tool serve] process: one real connection
          per client, a writer pacing the schedule and a reader matching
          responses positionally (the transport's per-connection
          ordering guarantee) *)

type event = { client : int; line : string }

val schedule :
  seed:int -> clients:int -> repeat:int -> trace:string list -> event array
(** The full request schedule, deterministically derived. Raises
    [Invalid_argument] when [clients] or [repeat] is [< 1]. *)

val schedule_fingerprint : event array -> string

val run :
  ?seed:int ->
  ?clients:int ->
  ?repeat:int ->
  ?qps:float ->
  ?workers:int ->
  ?queue_bound:int ->
  ?mode:mode ->
  trace:string list ->
  unit ->
  (Bfly_obs.Json.t, string) result
(** Execute one load run and return its [bfly-loadgen/1] document.
    Defaults: [seed 1], [clients 4], [repeat 10], [qps 0.] (unpaced —
    issue as fast as possible; positive values pace the global schedule
    at that rate), [workers] the configured domain count, [mode]
    [Concurrent]. [queue_bound] defaults to comfortably above the
    request count so admission control stays out of throughput runs;
    pass a small bound to exercise overload. Blank trace lines are
    dropped; an empty trace is an [Error]. Also publishes the achieved
    rate as the [serve.qps] gauge. *)

val deterministic_view : Bfly_obs.Json.t -> Bfly_obs.Json.t
(** The document minus its [timing] and [server] fields — what must be
    identical across repeated runs of the same parameters. *)

val compare_docs :
  ?slack:float ->
  ?timing:bool ->
  baseline:Bfly_obs.Json.t ->
  Bfly_obs.Json.t ->
  string list
(** Drift messages, empty when [current] is acceptable against
    [baseline]. Deterministic fields must match exactly. When [timing]
    (default [true]), [p99_ns] may not exceed baseline by more than
    [slack] (default 3.0) and [achieved_qps] may not fall below baseline
    by more than [slack]. *)

(**/**)

val fingerprint_lines : string list -> string
