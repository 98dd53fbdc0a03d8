let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* No [Fun.protect]: a span on a cache hit wraps microseconds of work, so
   it adds two clock reads and the timer's three atomic updates, and
   nothing else. *)
let time timer f =
  let t0 = now_ns () in
  match f () with
  | v ->
      Metrics.record timer ~ns:(now_ns () - t0);
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Metrics.record timer ~ns:(now_ns () - t0);
      Printexc.raise_with_backtrace e bt
