(** Latency quantiles for the serve loop.

    {!Bfly_obs.Metrics} timers keep (count, total, max) — enough for
    throughput accounting, not for tail latency. This reservoir keeps the
    most recent [capacity] request latencies in a ring and reports exact
    order statistics over that window (all samples, while fewer than
    [capacity] have been recorded). Quantiles use the nearest-rank method
    on the sorted window, so [p ~q:0.5] of a single sample is that
    sample. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] defaults to 4096 samples. *)

val record : t -> ns:int -> unit

val count : t -> int
(** Samples recorded since creation (not capped by the window). *)

val quantile : int array -> float -> int
(** [quantile sorted q] is the nearest-rank [q]-quantile of an ascending
    array: the element at index [ceil(q·n) - 1], so p50 of two samples is
    the smaller one. [0] for an empty array; [q] is clamped to [0,1]. The
    one quantile of the serve layer: {!p}, the server's [stats] and the
    [bfly-loadgen/1] document all use it. *)

val window : t -> int array
(** A fresh copy of the current window, unsorted: cheap enough to take
    under the owner's lock. Sort it outside with [Array.sort Int.compare]
    and read every {!quantile} from that one copy. *)

val p : t -> q:float -> int
(** {!quantile} of the current window, in nanoseconds: one {!window}
    copy, sorted. *)

val max_ns : t -> int
(** Maximum over the whole lifetime (not just the window). *)
