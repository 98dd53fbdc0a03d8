(** Monotonic-clock timer spans feeding {!Metrics} timers.

    The clock is [CLOCK_MONOTONIC] (via the Bechamel stubs already used by
    the bench harness), so spans are immune to wall-clock adjustments and
    are the same time base the micro-benchmarks report in. *)

val now_ns : unit -> int
(** Nanoseconds on the monotonic clock. Only differences are meaningful. *)

val time : Metrics.timer -> (unit -> 'a) -> 'a
(** [time timer f] runs [f ()] and records its duration into [timer],
    even if [f] raises (the exception is re-raised with its backtrace).
    Callers register the timer once, at module initialisation
    ([let t_solve = Metrics.timer "area.kernel"]), so a span costs two
    clock reads and the timer update, with no registry lookup. *)
