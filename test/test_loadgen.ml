(* Tests for the deterministic load generator (lib/serve/loadgen): the
   schedule is a pure function of (trace, seed, clients, repeat); repeated
   runs agree on every deterministic field of the bfly-loadgen/1 document;
   sequential and concurrent replays produce identical output bytes; and
   compare_docs gates exactly what it should — deterministic drift always,
   timing drift only beyond the slack factor (and not at all under
   timing:false, the cross-machine mode). *)

module Loadgen = Bfly_serve.Loadgen
module Json = Bfly_obs.Json
open Tu

let trace =
  [
    {|{"job":"mos","j":2}|};
    {|{"job":"mos","j":3}|};
    {|{"job":"bw","solver":"kl","network":"butterfly","n":8,"seed":1}|};
    {|{"job":"bw","solver":"spectral","network":"butterfly","n":8}|};
    (* a deterministic error: replies are part of the fingerprint too *)
    {|{"job":"mos","j":0}|};
  ]

let run ?(seed = 3) ?(clients = 3) ?(repeat = 4) ?mode () =
  match Loadgen.run ~seed ~clients ~repeat ?mode ~trace () with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "loadgen run failed: %s" e

let str doc k =
  match Option.bind (Json.member k doc) Json.to_string_opt with
  | Some s -> s
  | None -> Alcotest.failf "document lacks string field %S" k

let int_ doc k =
  match Option.bind (Json.member k doc) Json.to_int_opt with
  | Some i -> i
  | None -> Alcotest.failf "document lacks int field %S" k

let test_schedule_deterministic () =
  let s1 = Loadgen.schedule ~seed:7 ~clients:3 ~repeat:5 ~trace in
  let s2 = Loadgen.schedule ~seed:7 ~clients:3 ~repeat:5 ~trace in
  let s3 = Loadgen.schedule ~seed:8 ~clients:3 ~repeat:5 ~trace in
  check "length = repeat * trace" (5 * List.length trace) (Array.length s1);
  Alcotest.(check string)
    "same seed, same schedule"
    (Loadgen.schedule_fingerprint s1)
    (Loadgen.schedule_fingerprint s2);
  checkb "different seed, different schedule" true
    (Loadgen.schedule_fingerprint s1 <> Loadgen.schedule_fingerprint s3);
  Array.iter
    (fun ev ->
      checkb "client in range" true Loadgen.(ev.client >= 0 && ev.client < 3))
    s1;
  (* every round replays the full trace: each line appears exactly
     [repeat] times *)
  List.iter
    (fun line ->
      check "line multiplicity" 5
        (Array.fold_left
           (fun acc ev -> if Loadgen.(ev.line) = line then acc + 1 else acc)
           0 s1))
    trace

let test_repeat_runs_identical () =
  Test_serve.with_fresh_cache @@ fun () ->
  let d1 = run ~mode:Loadgen.Sequential () in
  let d2 = run ~mode:Loadgen.Sequential () in
  Alcotest.(check string)
    "deterministic views identical"
    (Json.to_string (Loadgen.deterministic_view d1))
    (Json.to_string (Loadgen.deterministic_view d2));
  (* and the error line is visible, deterministically *)
  check "errors counted" 4 (int_ d1 "errors");
  check "every request answered" (int_ d1 "requests") (int_ d1 "responses")

let test_modes_byte_identical () =
  Test_serve.with_fresh_cache @@ fun () ->
  let seq = run ~mode:Loadgen.Sequential () in
  let conc = run ~mode:Loadgen.Concurrent () in
  Alcotest.(check string)
    "outputs fingerprint equal across modes"
    (str seq "outputs_fingerprint")
    (str conc "outputs_fingerprint");
  Alcotest.(check (list string))
    "no deterministic drift between modes" []
    (Loadgen.compare_docs ~timing:false ~baseline:seq conc)

(* rebuild the document with one timing field scaled — the shape of an
   injected performance regression *)
let with_timing doc k f =
  match doc with
  | Json.Obj fields ->
      Json.Obj
        (List.map
           (function
             | "timing", Json.Obj tf ->
                 ( "timing",
                   Json.Obj
                     (List.map
                        (function
                          | k', v when k' = k -> (k', f v)
                          | kv -> kv)
                        tf) )
             | kv -> kv)
           fields)
  | other -> other

let scale_int factor = function
  | Json.Int i -> Json.Int (i * factor)
  | v -> v

let div_float factor = function
  | Json.Float f -> Json.Float (f /. factor)
  | Json.Int i -> Json.Float (float_of_int i /. factor)
  | v -> v

let test_compare_gates_timing () =
  Test_serve.with_fresh_cache @@ fun () ->
  let doc = run ~mode:Loadgen.Sequential () in
  Alcotest.(check (list string))
    "identical doc passes with timing" []
    (Loadgen.compare_docs ~baseline:doc doc);
  let slow = with_timing doc "p99_ns" (scale_int 10) in
  checkb "p99 regression caught" true
    (Loadgen.compare_docs ~slack:3.0 ~baseline:doc slow <> []);
  let starved = with_timing doc "achieved_qps" (div_float 10.) in
  checkb "throughput regression caught" true
    (Loadgen.compare_docs ~slack:3.0 ~baseline:doc starved <> []);
  (* generous slack forgives, no-timing ignores *)
  Alcotest.(check (list string))
    "within slack passes" []
    (Loadgen.compare_docs ~slack:100.0 ~baseline:doc slow);
  Alcotest.(check (list string))
    "no-timing ignores timing entirely" []
    (Loadgen.compare_docs ~timing:false ~baseline:doc slow)

let test_compare_gates_determinism () =
  Test_serve.with_fresh_cache @@ fun () ->
  let doc = run () in
  let other_seed = run ~seed:4 () in
  checkb "seed drift always fails, even under no-timing" true
    (Loadgen.compare_docs ~timing:false ~baseline:doc other_seed <> []);
  let forged =
    match doc with
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (function
               | "outputs_fingerprint", _ ->
                   ("outputs_fingerprint", Json.Str "0000000000000000")
               | kv -> kv)
             fields)
    | other -> other
  in
  checkb "output drift always fails" true
    (Loadgen.compare_docs ~timing:false ~baseline:forged doc <> [])

(* The document's digests are plain 64-bit FNV-1a over newline-terminated
   lines, through Bfly_cache.Fingerprint's untagged stream: the textbook
   vectors pin the hash, so every committed fingerprint stays put. *)
let test_fingerprint_primitives () =
  let module Fp = Bfly_cache.Fingerprint in
  let fnv s = Fp.to_hex (Fp.bytes Fp.seed s) in
  List.iter
    (fun (s, hex) -> Alcotest.(check string) ("FNV-1a of " ^ String.escaped s) hex (fnv s))
    [ ("", "cbf29ce484222325"); ("a", "af63dc4c8601ec8c"); ("foobar", "85944171f73967e8") ];
  Alcotest.(check string)
    "lines are newline-terminated bytes" (fnv "a\nb\n")
    (Loadgen.fingerprint_lines [ "a"; "b" ]);
  checkb "fnv64 separates" true (fnv "butterfly" <> fnv "butterflz");
  checkb "line digest order-sensitive" true
    (Loadgen.fingerprint_lines [ "a"; "b" ]
    <> Loadgen.fingerprint_lines [ "b"; "a" ])

(* Quantiles cover answered requests only. A fake server on a Unix
   socket answers each connection's first line after [delay], then hangs
   up; every recorded latency is then at least [delay], while the
   unanswered requests (most of the schedule) used to enter the
   quantiles as 0 ns and pull p50 to 0. The replay is paced, so clients
   still write after the hang-up: that must cost their answers (EPIPE),
   not the process (SIGPIPE). *)
let test_connect_unanswered () =
  let delay = 0.005 in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bfly-loadgen-fake-%d" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 16;
  let stop = Atomic.make false in
  let answer_first fd =
    let ic = Unix.in_channel_of_descr fd in
    (match In_channel.input_line ic with
    | Some _ ->
        Thread.delay delay;
        let line = {|{"id":"x","ok":true,"batch":1,"output":"o"}|} ^ "\n" in
        ignore (Unix.write_substring fd line 0 (String.length line))
    | None -> ());
    Unix.close fd
  in
  let acceptor =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          match Unix.select [ lfd ] [] [] 0.02 with
          | [], _, _ -> ()
          | _ -> ignore (Thread.create answer_first (fst (Unix.accept lfd)))
        done)
      ()
  in
  let doc =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Thread.join acceptor;
        Unix.close lfd;
        try Unix.unlink path with Unix.Unix_error _ -> ())
      (fun () ->
        match
          Loadgen.run ~seed:3 ~clients:2 ~repeat:4 ~qps:200.
            ~mode:(Loadgen.Connect (`Unix path)) ~trace ()
        with
        | Ok doc -> doc
        | Error e -> Alcotest.failf "loadgen run failed: %s" e)
  in
  let answered = int_ doc "responses" in
  checkb "some requests unanswered" true (answered < int_ doc "requests");
  checkb "some answered" true (answered > 0);
  let timing k =
    match Option.bind (Json.member "timing" doc) (Json.member k) with
    | Some (Json.Int v) -> v
    | _ -> Alcotest.failf "timing lacks %s" k
  in
  let floor_ns = int_of_float (delay *. 1e9 *. 15. /. 16.) in
  List.iter
    (fun k ->
      checkb (Printf.sprintf "%s covers only answered requests" k) true
        (timing k >= floor_ns))
    [ "p50_ns"; "p90_ns"; "p99_ns"; "max_ns" ]

let suite =
  [
    case "schedule is a pure function of its parameters"
      test_schedule_deterministic;
    slow_case "repeated runs agree on every deterministic field"
      test_repeat_runs_identical;
    slow_case "sequential and concurrent replays byte-identical"
      test_modes_byte_identical;
    slow_case "compare gates p99/throughput within slack"
      test_compare_gates_timing;
    slow_case "compare fails deterministic drift unconditionally"
      test_compare_gates_determinism;
    case "fingerprint primitives" test_fingerprint_primitives;
    case "connect: quantiles cover only the answered requests"
      test_connect_unanswered;
  ]
