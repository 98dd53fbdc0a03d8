(* Bfly_obs: counter atomicity under domains, gauge/timer behavior, and
   the shape of the hand-rolled JSON. *)

module Json = Bfly_obs.Json
module Metrics = Bfly_obs.Metrics
module Span = Bfly_obs.Span
open Tu

(* ---- counters are atomic across domains ---- *)

let test_counter_atomic () =
  let c = Metrics.counter "test.obs.atomic" in
  let before = Metrics.counter_value c in
  let per_domain = 25_000 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Metrics.incr c
            done))
  in
  List.iter Domain.join domains;
  check "no lost increments" (before + (4 * per_domain))
    (Metrics.counter_value c)

let test_counter_idempotent_registration () =
  let a = Metrics.counter "test.obs.same" in
  let b = Metrics.counter "test.obs.same" in
  Metrics.add a 3;
  Metrics.incr b;
  check "one cell behind one name" 4 (Metrics.counter_value a)

let test_gauge () =
  let g = Metrics.gauge "test.obs.gauge" in
  Metrics.set g 2.5;
  Alcotest.(check (float 0.0)) "last write wins" 2.5 (Metrics.gauge_value g);
  Metrics.set g 1.0;
  Alcotest.(check (float 0.0)) "overwritten" 1.0 (Metrics.gauge_value g)

let test_timer_and_span () =
  let before = (Metrics.timer_stat (Metrics.timer "test.obs.span")).count in
  let result = Span.time (Metrics.timer "test.obs.span") (fun () -> 1 + 1) in
  check "span returns the body's value" 2 result;
  (try Span.time (Metrics.timer "test.obs.span") (fun () -> failwith "x")
   with Failure _ -> ());
  let st = Metrics.timer_stat (Metrics.timer "test.obs.span") in
  check "both spans recorded (even the raising one)" (before + 2) st.count;
  checkb "total covers max" true (st.total_ns >= st.max_ns);
  checkb "durations non-negative" true (st.total_ns >= 0)

let test_reset () =
  let c = Metrics.counter "test.obs.reset" in
  Metrics.add c 7;
  ignore (Span.time (Metrics.timer "test.obs.reset_t") (fun () -> ()));
  Metrics.reset ();
  check "counter zeroed" 0 (Metrics.counter_value c);
  check "timer zeroed" 0
    (Metrics.timer_stat (Metrics.timer "test.obs.reset_t")).count

(* ---- JSON ---- *)

let test_json_serialization () =
  Alcotest.(check string)
    "escaping" "{\"a\":\"x\\\"y\\n\\\\z\"}"
    (Json.to_string (Json.Obj [ ("a", Json.Str "x\"y\n\\z") ]));
  Alcotest.(check string)
    "scalars" "[null,true,42,1.5,\"s\"]"
    (Json.to_string
       (Json.List [ Json.Null; Json.Bool true; Json.Int 42; Json.Float 1.5; Json.Str "s" ]));
  Alcotest.(check string)
    "non-finite floats become null" "[null,null]"
    (Json.to_string (Json.List [ Json.Float Float.nan; Json.Float Float.infinity ]));
  Alcotest.(check string)
    "control characters" "\"\\u0001\""
    (Json.to_string (Json.Str "\001"))

(* Key parameters and answer lines render integers with [Json.decimal];
   its digits must be [string_of_int]'s, or cache keys would move. *)
let test_json_decimal () =
  let rec powers acc p = if p > max_int / 10 then p :: acc else powers (p :: acc) (p * 10) in
  let around = List.concat_map (fun p -> [ p - 1; p; p + 1 ]) (powers [] 1) in
  List.iter
    (fun n ->
      Alcotest.(check string) (string_of_int n) (string_of_int n) (Json.decimal n))
    ([ 0; -1; -10; max_int; min_int; max_int - 1; min_int + 1 ] @ around)

let test_metrics_json_shape () =
  Metrics.add (Metrics.counter "test.obs.json_c") 11;
  Metrics.set (Metrics.gauge "test.obs.json_g") 3.25;
  ignore (Span.time (Metrics.timer "test.obs.json_t") (fun () -> ()));
  let s = Metrics.to_json_string () in
  let contains needle =
    let n = String.length needle and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  checkb "counters section" true (contains "\"counters\":{");
  checkb "gauges section" true (contains "\"gauges\":{");
  checkb "timers section" true (contains "\"timers\":{");
  checkb "counter value" true (contains "\"test.obs.json_c\":11");
  checkb "gauge value" true (contains "\"test.obs.json_g\":3.25");
  checkb "timer fields" true (contains "\"test.obs.json_t\":{\"count\":1,");
  (* the snapshot, and hence the JSON, is sorted by name *)
  let snap = Metrics.snapshot () in
  let sorted l = List.sort compare l = l in
  checkb "counters sorted" true (sorted (List.map fst snap.Metrics.counters));
  checkb "timers sorted" true (sorted (List.map fst snap.Metrics.timers))

(* ---- timer histograms ---- *)

(* The reference bucket edge: a value's top five bits, the rest cleared
   (a value below 32 is its own edge): 16 linear sub-buckets per power of
   two from 16 up. *)
let rec lower_edge ?(shift = 0) v =
  if v < 32 then v lsl shift else lower_edge ~shift:(shift + 1) (v lsr 1)

let fresh_timer () = Metrics.timer ~registry:(Metrics.registry ()) "test.obs.histogram"

let recorded samples =
  let t = fresh_timer () in
  List.iter (fun ns -> Metrics.record t ~ns) samples;
  Metrics.timer_stat t

(* Timer quantiles against a sorted-array nearest-rank reference, over
   samples mixing 0, values below 16 ns, everyday spans, values near
   max_int and one value repeated: each quantile is the lower edge of the
   exact value's bucket, hence at most 6.25% below it and exact under
   16 ns, and the count, total and max are exact. Each run records into a
   timer of its own registry. *)
let test_histogram_quantiles =
  qcheck ~count:200 "timer quantiles are the nearest rank's bucket edge"
    (seeded QCheck2.Gen.(int_range 1 300))
    (fun (n, seed) ->
      let rng = rng seed in
      let draw () =
        match Random.State.int rng 5 with
        | 0 -> 0
        | 1 -> Random.State.int rng 16
        | 2 -> Random.State.int rng 50_000_000
        | 3 -> max_int - Random.State.int rng 1_000_000
        | _ -> 4_242
      in
      let samples = List.init n (fun _ -> draw ()) in
      let st = recorded samples in
      let sorted = Array.of_list (List.sort Int.compare samples) in
      let agrees q got =
        let exact = nearest_rank sorted q in
        got = lower_edge exact
        && got <= exact
        && exact - got <= exact / 16
        && (exact >= 16 || got = exact)
      in
      st.Metrics.count = n
      && st.max_ns = sorted.(n - 1)
      && st.total_ns = List.fold_left ( + ) 0 samples (* wraps as the timer's does *)
      && agrees 0.5 st.p50_ns && agrees 0.9 st.p90_ns && agrees 0.99 st.p99_ns)

(* The cases of the ring reservoir the histogram replaced: the window
   93..100 reads p50 96 and p99 100 (one sample per 4-ns bucket edge
   there), p50 of two samples is the smaller, and an unused timer reads
   0 throughout. *)
let test_histogram_cases () =
  let st = recorded (List.init 8 (fun i -> 93 + i)) in
  check "p50 of 93..100" 96 st.Metrics.p50_ns;
  check "p99 of 93..100" 100 st.p99_ns;
  check "max of 93..100" 100 st.max_ns;
  check "count of 93..100" 8 st.count;
  let two = recorded [ 20; 10 ] in
  check "p50 of two samples" 10 two.p50_ns;
  check "p99 of two samples" 20 two.p99_ns;
  let none = Metrics.timer_stat (fresh_timer ()) in
  check "empty timer" 0 (none.count + none.max_ns + none.p50_ns + none.p99_ns)

let suite =
  [
    case "counter atomic under domains" test_counter_atomic;
    case "registration idempotent" test_counter_idempotent_registration;
    case "gauge" test_gauge;
    case "timer spans" test_timer_and_span;
    case "reset" test_reset;
    case "json serialization" test_json_serialization;
    case "metrics json shape" test_metrics_json_shape;
    case "json decimal is string_of_int" test_json_decimal;
    test_histogram_quantiles;
    case "histogram: the reservoir's cases" test_histogram_cases;
  ]
