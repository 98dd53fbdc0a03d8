(** The query-service engine: admission control, batching, scheduling and
    introspection, independent of any transport.

    A server owns a bounded queue of {!Batcher} batches. Transports (or
    tests) push raw request lines in with {!submit} — which parses,
    admits or rejects, and coalesces — and execute batches either
    sequentially with {!run_next}/{!run_pending} on the calling domain,
    or concurrently through {!Dispatch}, which pairs {!take_batch} with
    {!execute_batch} on the {!Bfly_graph.Parallel} pool. Every batch runs
    through {!Job.run}, so served and one-shot runs traverse identical
    code paths and return identical bytes; the single-flight batcher and
    the shared content-addressed result cache together keep the cache
    misses of a cold trace equal to the sequential replay's, whatever the
    dispatch interleaving. (The number of batches is not pinned: a
    sequential replay finds more twins already finished, see below.)

    The queue, the memo, the client handles and the count of batches in
    flight are guarded by one internal mutex: {!submit} (transport
    thread) and {!execute_batch} (pool domains) may run concurrently.
    The metrics below and the sequence behind default ids are atomic, so
    a memo answer takes the mutex once, for its admission verdict.

    {2 Admission}

    [queue_bound] caps the number of {e requests} waiting or in flight
    (coalesced ones included). A request arriving at a full queue is
    answered immediately with [{"ok":false,"error":"overloaded"}] — an
    explicit, cheap verdict the caller can retry on, instead of unbounded
    buffering. Per-client fairness rides on top: a {!client} handle caps
    one connection's outstanding requests at [client_bound], so a single
    flooding client is rejected (same ["overloaded"] verdict, separate
    [serve.rejected.client] tally) while others keep their quality of
    service. After {!drain} the verdict is ["draining"]. [stats] requests
    are answered inline and never count against either bound.

    A job request that passes those three verdicts and whose twin has
    already finished is answered inline too, from the {!Batcher}'s memo
    of finished outputs ([Ok] results of {!Job.memoizable} pairs, at most
    1,024 fingerprints, one memo per server): the same output bytes with
    ["batch":0], without queueing and holding no slot. Only this server's
    own {!Job.run} produced those bytes, after re-validating the witness,
    so the memo skips no check. [deadline], [max_nodes] and [resume]
    requests and every error are solved again on each repeat, and nothing
    is remembered while the result cache is off.

    {2 Metrics}

    Each server records every event once, into its own
    [Bfly_obs.Metrics] registry: counters [serve.requests],
    [serve.responses], [serve.batches], [serve.coalesced],
    [serve.joined_inflight] (duplicates that joined a batch already
    solving), [serve.memo_hits] (requests answered from the memo of
    finished outputs), [serve.rejected.overload], [serve.rejected.client],
    [serve.rejected.drain], [serve.parse_error], [serve.errors]; timers
    [serve.solve] (per batch) and [serve.latency] (per request, admission
    to response, memo answers included). {!stats_json} and {!summary}
    read that registry; [Bfly_obs.Metrics.snapshot] (hence [--metrics])
    adds every server's into the process-wide [serve.*] totals. Latency
    quantiles cover every request since the server was created, not a
    window of recent ones, and come from the timer's histogram: each the
    lower edge of its bucket, at most 6.25% below the exact nearest-rank
    value; [max_ns] is exact. Gauges [serve.queue_depth],
    [serve.batch_width], [serve.concurrency] (batches in flight) and
    [serve.concurrency.max] (its high-water mark) are process-wide. *)

type t

type client
(** Per-connection admission handle: counts that connection's admitted,
    not-yet-answered requests against its bound. *)

val create : ?queue_bound:int -> ?client_bound:int -> unit -> t
(** [queue_bound] defaults to [BFLY_SERVE_QUEUE] when set to a positive
    integer, else 128. [client_bound] defaults to
    [BFLY_SERVE_CLIENT_QUEUE], else to [queue_bound] (i.e. no extra
    per-client restriction until configured). *)

val client : ?name:string -> ?limit:int -> t -> client
(** A fresh admission handle for one connection ([limit] overrides the
    server's [client_bound]; [name] is not kept). Handles are cheap and
    need no teardown: a disconnected client's in-flight requests release
    their slots when their batches complete. *)

val submit : t -> ?client:client -> reply:(string -> unit) -> string -> unit
(** Parse and enqueue one request line. [reply] receives every response
    line addressed to this request (rejections, parse errors and memo
    answers immediately on the calling thread, solver output from
    whichever domain completes its batch). Never raises on bad input — malformed
    lines get an error response. [client] enables per-client admission
    control and should be one handle per connection. *)

val pending : t -> int
(** Requests currently queued or in flight. *)

val queued_batches : t -> int
(** Batches waiting to be taken (excludes running ones) — what a
    dispatcher sizes its worker fleet against. *)

val take_batch : t -> Batcher.batch option
(** Claim the oldest pending batch for execution, marking it in flight
    (its fingerprint keeps absorbing duplicates until it completes).
    Callers must pass every claimed batch to {!execute_batch}. *)

val execute_batch : t -> Batcher.batch -> unit
(** Solve a claimed batch on the calling domain and answer every waiter
    — including any that joined mid-solve. Safe to call concurrently
    from several domains (each with its own batch); solver exceptions
    become per-request error responses. *)

val run_next : t -> bool
(** [take_batch] + [execute_batch] on the calling domain; [false] when
    the queue is empty. The sequential path — and the semantics
    {!Dispatch} preserves observably when concurrency is 1. *)

val run_pending : t -> int
(** Drain the queue sequentially; returns the number of batches run. *)

val drain : t -> unit
(** Switch to draining: every later job submission is rejected with
    ["draining"]. Already-queued work still runs. Idempotent, and safe to
    call from a signal handler. *)

val draining : t -> bool

val stats_json : t -> Bfly_obs.Json.t
(** The live introspection object served to [stats] requests: this
    server's request/response/batch/memo/rejection counters and latency
    quantiles (count, p50, p99, max) from its registry, queue depth and
    bounds, batches in flight, draining flag, and the process-wide
    [cache.hit]/[cache.miss] counters. Only the queue depth and the
    batches in flight are read under the server lock. *)

val summary : t -> string
(** One human line for the drain log, e.g.
    ["served 120 requests in 17 batches (80 coalesced, 23 from memo, 0 rejected, 0 errors, p50 1.2ms, p99 210.0ms)"]. *)
