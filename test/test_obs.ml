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
  ]
