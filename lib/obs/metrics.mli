(** Thread-safe metrics: counters, gauges and timers.

    Every hot kernel in the repo (the {!Bfly_graph.Parallel} domain pool,
    the restart loops of [Bfly_cuts.Heuristics], the branch-and-bound of
    [Bfly_cuts.Exact]) records what it did through this registry, so that
    [bench/main.exe --json] and [bfly_tool --metrics] can report a
    machine-readable account of a run. Handles are registered by name on
    first use and live for the whole process; all updates are lock-free
    ([Atomic]) and safe to call concurrently from any domain. A
    component that reports its own numbers (a [Bfly_serve.Server]
    answering [stats]) records each event once, into a {!registry} of
    its own, which {!snapshot} adds into the process view.

    Naming scheme (see ARCHITECTURE.md): [<area>.<kernel>.<metric>], e.g.
    [parallel.tasks], [heuristics.kl.restarts], [exact.bb.nodes]. Timer
    names omit the trailing [.<metric>] since a timer is itself a
    (count, total, max, quantiles) record. *)

type counter
(** A monotonically increasing integer (e.g. nodes explored, tasks run). *)

type gauge
(** A last-write-wins float (e.g. best capacity found, pool size). *)

type timer
(** An accumulator of timed spans: invocation count, total and max
    duration in nanoseconds, and a histogram of the durations with fixed
    log-linear buckets, allocated on the first record: a value below
    16 ns is its own bucket, and above that each power of two splits
    into 16 linear sub-buckets. Fed by {!Span}. *)

type registry
(** Counters and timers reported together; it lives for the whole
    process, and {!snapshot} and {!reset} cover it. *)

val registry : unit -> registry

(** {1 Registration}

    Idempotent: the same name always returns the same handle from one
    registry, from any domain. [registry] defaults to the process
    registry; gauges (last write wins, which no sum honours) live only
    there. *)

val counter : ?registry:registry -> string -> counter
val gauge : string -> gauge
val timer : ?registry:registry -> string -> timer

(** {1 Updates} *)

val incr : counter -> unit
(** [incr c] adds 1 to [c]. *)

val add : counter -> int -> unit
(** [add c n] adds [n] (which must be non-negative) to [c]. *)

val set : gauge -> float -> unit
(** [set g v] overwrites [g] with [v]. *)

val set_max : gauge -> float -> unit
(** [set_max g v] raises [g] to [v] if [v] is larger, atomically even
    against concurrent writers — the update a high-water mark (e.g.
    [serve.concurrency.max]) needs where {!set} would let a lower
    last-writer win. *)

val record : timer -> ns:int -> unit
(** [record t ~ns] folds one span of [ns] nanoseconds into [t], without
    a lock. Negative durations are clamped to 0 (a monotonic clock should
    never produce one, but a metrics layer must not crash if it does). *)

(** {1 Reads} *)

val counter_value : counter -> int
(** Current value of a counter (atomic read). *)

val gauge_value : gauge -> float
(** Last value written to a gauge. *)

type timer_stat = {
  count : int;
  total_ns : int;
  max_ns : int;  (** exact *)
  p50_ns : int;
  p90_ns : int;
  p99_ns : int;
}
(** Aggregate of every span recorded into one timer over its whole
    lifetime (since it was made or last {!reset}), not a window. A
    quantile is the nearest-rank one (sample ⌈q·n⌉ of n, so p50 of two
    samples is the smaller) read from the histogram: the lower edge of
    the bucket holding that sample, exact below 16 ns and at most 6.25%
    low above. [0] for a timer that recorded nothing. *)

val timer_stat : timer -> timer_stat
(** Current aggregate of one timer. *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  timers : (string * timer_stat) list;
}
(** A consistent-enough point-in-time copy of the process view, each
    section sorted by name. ("Consistent enough": each cell is read
    atomically, but the snapshot as a whole is not a global atomic cut —
    fine for reporting.) *)

val snapshot : unit -> snapshot
(** The process view: every registry added into the process registry at
    read time. A name in several registries reads as their sum; a timer's
    histograms add bucket by bucket, and its max is the largest. *)

val reset : unit -> unit
(** Zero every metric of every registry, keeping registrations. Used by
    tests. *)

(** {1 Serialization} *)

val to_json : unit -> Json.t
(** The snapshot as
    [{"counters":{...},"gauges":{...},"timers":{name:{"count":..,"total_ns":..,"max_ns":..,"p50_ns":..,"p90_ns":..,"p99_ns":..}}}]. *)

val to_json_string : unit -> string
