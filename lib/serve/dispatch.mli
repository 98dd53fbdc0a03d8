(** Concurrent batch dispatch: runs {!Server} batches on the
    {!Bfly_graph.Parallel} domain pool.

    A dispatcher turns queued batches into detached pool jobs
    ({!Bfly_graph.Parallel.async}); each job claims batches with
    {!Server.take_batch}, executes them with {!Server.execute_batch}, and
    retires when the queue is empty. At most [cap] jobs are alive at
    once, so [cap] batches solve concurrently while admission control
    still bounds what queues up behind them. The transport calls {!pump}
    after every read burst (cheap and idempotent) and {!wait_idle} before
    shutting down.

    {2 Determinism}

    Concurrency changes {e scheduling}, never {e answers}: batches run
    the same {!Job.run} as the sequential path, the single-flight
    {!Batcher} keeps duplicate fingerprints on one solve even mid-flight,
    and the content-addressed cache dedups across batches, so per-request
    response bytes — and, for traces of cache-disjoint jobs, the cold-run
    solve and [cache.miss] counts — match the sequential replay exactly.
    With [BFLY_DOMAINS=1], {!pump} runs every batch inline before
    returning, which {e is} the sequential path.

    Each batch may itself fan out on the pool ({!Job.run} solvers are
    internally parallel); nested submissions drain like any other pool
    work. A worker domain that steals a sibling's dispatch job while
    draining merely reorders which domain answers — answers themselves
    are fixed. *)

type t

val create : ?cap:int -> Server.t -> t
(** [cap] bounds concurrently-executing batches; defaults to
    [Bfly_graph.Parallel.domain_count ()]. Raises [Invalid_argument] when
    [< 1]. *)

val pump : t -> unit
(** Spawn enough detached workers (up to [cap]) to cover the currently
    queued batches. Non-blocking on a multi-domain pool; with one
    configured domain the work runs inline here. Idempotent — extra
    calls find nothing to do. *)

val busy : t -> bool
(** Whether any worker job is still alive (executing or retiring). *)

val wait_idle : t -> unit
(** Block until every worker job has retired. Since workers keep claiming
    batches until the queue is empty, once the transport stops submitting
    this means: every admitted request has been answered. *)
