(* The benchmark's own tests: seeded generation is a pure function of the
   seed, the metric declarations match BENCHMARK.json in both directions,
   and the statistics helpers give hand-computed answers.

     dune exec perfbench/test/test_perfbench.exe *)

module W = Workloads
module Job = Bfly_serve.Job
module Json = Bfly_obs.Json

(* ---- seeded generation ---- *)

let lines_of_batch (b : W.batch) = Array.to_list (Array.map (fun (j : W.job) -> j.line) b.jobs)

let batch_generators = [ ("expand-exact", W.expand_exact); ("bisect-ml", W.bisect_ml) ]

let serve ~seed = W.serve_zipf ~seed ~rate:500. ~seconds:2.

let test_batch_seeded () =
  List.iter
    (fun (name, gen) ->
      let a = gen ~seed:1 and b = gen ~seed:1 and c = gen ~seed:2 in
      Alcotest.(check (list string)) (name ^ ": same seed, same jobs") (lines_of_batch a)
        (lines_of_batch b);
      Alcotest.(check string) (name ^ ": same seed, same fingerprint") (W.batch_fingerprint a)
        (W.batch_fingerprint b);
      Alcotest.(check bool) (name ^ ": other seed, other jobs") false
        (lines_of_batch a = lines_of_batch c);
      Alcotest.(check bool) (name ^ ": other seed, other fingerprint") false
        (W.batch_fingerprint a = W.batch_fingerprint c))
    batch_generators

let test_serve_seeded () =
  let a = serve ~seed:1 and b = serve ~seed:1 and c = serve ~seed:2 in
  let lines s = List.init (Array.length s.W.schedule) (W.request_line s) in
  Alcotest.(check (list string)) "same seed, same request lines" (lines a) (lines b);
  Alcotest.(check string) "same seed, same schedule fingerprint" (W.serve_fingerprint a)
    (W.serve_fingerprint b);
  Alcotest.(check bool) "other seed, other schedule" false
    (W.serve_fingerprint a = W.serve_fingerprint c);
  Alcotest.(check int) "rate x seconds requests" 1000 (Array.length a.schedule);
  Array.iteri
    (fun i (r : W.request) ->
      if i > 0 && r.due_ns < a.schedule.(i - 1).due_ns then
        Alcotest.failf "request %d is due before request %d" i (i - 1))
    a.schedule

(* Every job of a batch is distinct, so every job misses the cache. *)
let test_batch_distinct () =
  List.iter
    (fun (name, gen) ->
      let b = gen ~seed:3 in
      let fps = Array.map (fun (j : W.job) -> Job.fingerprint j.spec) b.W.jobs in
      let distinct = List.length (List.sort_uniq compare (Array.to_list fps)) in
      Alcotest.(check int) (name ^ ": distinct jobs") (Array.length fps) distinct;
      if Array.length fps < 100 then Alcotest.failf "%s: only %d jobs" name (Array.length fps);
      if Array.length fps mod b.round_len <> 0 then
        Alcotest.failf "%s: %d jobs are not whole rounds of %d" name (Array.length fps)
          b.round_len;
      (* the median over a run's rounds must fall among one round's repeats *)
      if Array.length fps / b.round_len mod 2 = 0 then
        Alcotest.failf "%s: an even count of rounds" name)
    batch_generators

(* expand-exact: exact ee/ne, one of each per work class, over 20-36-node
   graphs with C(N,k) in [10^4, 2*10^6]. *)
let test_expand_exact_shape () =
  let b = W.expand_exact ~seed:4 in
  let ee = ref 0 and ne = ref 0 in
  Array.iter
    (fun (j : W.job) ->
      match j.spec with
      | Expansion { kind; net; n; k; exact = true; _ } ->
          if kind = `Ee then incr ee else incr ne;
          let nodes =
            match Job.graph_of net n with
            | Ok (g, _) -> Bfly_graph.Graph.n_nodes g
            | Error e -> Alcotest.fail e
          in
          let c = Bfly_graph.Subset.binomial nodes k in
          if nodes < 20 || nodes > 36 || c < 10_000 || c > 2_000_000 then
            Alcotest.failf "out of range: %s (N=%d, C(N,k)=%d)" j.line nodes c
      | _ -> Alcotest.failf "not an exact expansion job: %s" j.line)
    b.jobs;
  Alcotest.(check int) "ee and ne 1:1" !ee !ne

(* bisect-ml: about 80% ml, 10% kl/fm/spectral, 10% campaigns. *)
let test_bisect_ml_shape () =
  let b = W.bisect_ml ~seed:5 in
  let ml = ref 0 and flat = ref 0 and campaign = ref 0 in
  Array.iter
    (fun (j : W.job) ->
      match j.spec with
      | Bw { solver = Ml; _ } -> incr ml
      | Bw { solver = Kl | Fm | Spectral; n; net; _ } ->
          let nodes =
            match Job.graph_of net n with
            | Ok (g, _) -> Bfly_graph.Graph.n_nodes g
            | Error e -> Alcotest.fail e
          in
          if (Job.is_fabric net && nodes > 256) || n > 256 then
            Alcotest.failf "flat heuristic too large: %s" j.line;
          incr flat
      | Campaign _ -> incr campaign
      | _ -> Alcotest.failf "unexpected job: %s" j.line)
    b.jobs;
  let total = Array.length b.jobs in
  Alcotest.(check int) "ml share, per 10" 8 (10 * !ml / total);
  Alcotest.(check int) "flat heuristics, per 10" 1 (10 * !flat / total);
  Alcotest.(check int) "campaigns, per 10" 1 (10 * !campaign / total)

let test_zipf_popularity () =
  let s = serve ~seed:6 in
  let counts = Array.make (Array.length s.catalog) 0 in
  Array.iter (fun (r : W.request) -> counts.(r.entry) <- counts.(r.entry) + 1) s.schedule;
  (* the Zipf(1.1) head: entry 0 alone takes about a fifth of the requests *)
  if counts.(0) < 150 || counts.(0) > 300 then
    Alcotest.failf "entry 0 drew %d of 1000 requests" counts.(0);
  Alcotest.(check bool) "head above tail" true (counts.(0) > counts.(Array.length counts - 1))

(* ---- declarations ---- *)

(* Under dune test the working directory is _build/default/perfbench/test;
   under dune exec it is the root. *)
let benchmark_json () =
  let path = List.find Sys.file_exists [ "../../BENCHMARK.json"; "BENCHMARK.json" ] in
  let ic = open_in_bin path in
  let text = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
  match Json.of_string text with Ok v -> v | Error e -> Alcotest.failf "BENCHMARK.json: %s" e

let declared doc key =
  match Option.bind (Json.member key doc) Json.to_list_opt with
  | None -> Alcotest.failf "BENCHMARK.json lacks %s" key
  | Some l ->
      List.map
        (fun m ->
          let field k =
            match Option.bind (Json.member k m) Json.to_string_opt with
            | Some s -> s
            | None -> Alcotest.failf "%s entry lacks %s" key k
          in
          (field "name", field "unit"))
        l

let pairs = Alcotest.(list (pair string string))

let test_declared_metrics () =
  let doc = benchmark_json () in
  Alcotest.check pairs "end_to_end" (List.sort compare Decl.end_to_end)
    (List.sort compare (declared doc "end_to_end"));
  Alcotest.check pairs "per_layer" (List.sort compare Decl.per_layer)
    (List.sort compare (declared doc "per_layer"))

(* Every declared workload runs; bisect-ml runs but is not declared (see
   README.md). *)
let test_declared_workloads () =
  let doc = benchmark_json () in
  let names =
    match Option.bind (Json.member "workloads" doc) Json.to_list_opt with
    | Some l -> List.filter_map (fun w -> Option.bind (Json.member "name" w) Json.to_string_opt) l
    | None -> Alcotest.fail "BENCHMARK.json lacks workloads"
  in
  Alcotest.(check (list string)) "workloads" (List.filter (( <> ) "bisect-ml") W.names) names

(* ---- statistics ---- *)

let one_to n = Array.init n (fun i -> float_of_int (i + 1))

let test_percentile () =
  let ten = one_to 10 in
  let p pct = Pstats.percentile ten ~pct in
  Alcotest.(check (float 0.)) "p50 of 1..10" 5. (p 50);
  (* ceil(0.9 * 10) is 9, not 10, although 0.9 *. 10. > 9. in floats *)
  Alcotest.(check (float 0.)) "p90 of 1..10" 9. (p 90);
  Alcotest.(check (float 0.)) "p99 of 1..10" 10. (p 99);
  Alcotest.(check (float 0.)) "p1 of 1..10" 1. (p 1);
  Alcotest.(check (float 0.)) "p99 of 1..1000" 990. (Pstats.percentile (one_to 1000) ~pct:99);
  Alcotest.(check (float 0.)) "median, odd" 2. (Pstats.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 0.)) "median, even" 2.5 (Pstats.median [ 4.; 1.; 3.; 2. ])

let test_ten_beyond () =
  let beyond n pct = Pstats.beyond ~n ~pct and ok n pct = Pstats.reportable ~n ~pct in
  Alcotest.(check int) "p90 of 10" 1 (beyond 10 90);
  Alcotest.(check int) "p90 of 100" 10 (beyond 100 90);
  Alcotest.(check bool) "p90 of 100 is reportable" true (ok 100 90);
  Alcotest.(check bool) "p90 of 99 is not" false (ok 99 90);
  Alcotest.(check bool) "p99 of 1000 is reportable" true (ok 1000 99);
  Alcotest.(check bool) "p99 of 999 is not" false (ok 999 99);
  Alcotest.(check bool) "p99 of 132 is not" false (ok 132 99);
  Alcotest.(check bool) "p50 of 20 is" true (ok 20 50);
  Alcotest.(check bool) "nothing of 0" false (ok 0 50)

let test_windowed () =
  (* window 0 holds 1..10 (p90 = 9), window 1 holds 100 (p90 = 100),
     window 2 holds 10..30 by 2 (p90 = 28): the median is 28 *)
  let w0 = List.init 10 (fun i -> (i, float_of_int (i + 1))) in
  let w1 = [ (15, 100.) ] in
  let w2 = List.init 11 (fun i -> (20 + (i mod 10), float_of_int (10 + (2 * i)))) in
  let v, fewest, windows = Pstats.windowed ~pct:90 ~width:10 (w2 @ w0 @ w1) in
  Alcotest.(check (float 0.)) "median of window p90s" 28. v;
  Alcotest.(check int) "fewest beyond" 0 fewest;
  Alcotest.(check (list (float 0.))) "windows in order" [ 9.; 100.; 28. ] windows

let test_fnv () =
  (* 64-bit FNV-1a of "a\000" and of "\000" *)
  Alcotest.(check string) "one string" "089be207b544f1e4" (Pstats.Fnv.of_list [ "a" ]);
  Alcotest.(check string) "empty string" "af63bd4c8601b7df" (Pstats.Fnv.of_list [ "" ]);
  Alcotest.(check string) "no strings" "cbf29ce484222325" (Pstats.Fnv.of_list []);
  Alcotest.(check bool) "separated" false
    (Pstats.Fnv.of_list [ "ab"; "c" ] = Pstats.Fnv.of_list [ "a"; "bc" ])

(* ---- tracing and checks ---- *)

let test_self_time () =
  let tr = Tracer.create () in
  let root = Tracer.add tr ~name:"job" ~id:0 ~t0:0 ~t1:100 () in
  List.iter
    (fun (t0, t1) -> ignore (Tracer.add tr ~parent:root ~name:"child" ~id:0 ~t0 ~t1 ()))
    [ (10, 30); (20, 50); (90, 120) ];
  let self = Tracer.self_times (Tracer.spans tr) in
  (* children cover [10, 50) and [90, 100) of the root: 50 of its 100 *)
  Alcotest.(check int) "root self time" 50 self.(0);
  Alcotest.(check int) "leaf self time" 20 self.(1)

let test_checks () =
  Alcotest.(check (option int)) "last marker" (Some 12)
    (Checks.int_after ~marker:"BW = " "BW = 3\nBW = 12 (exact)\n");
  Alcotest.(check (option int)) "no marker" None (Checks.int_after ~marker:"EE = " "NE = 4");
  let bw line = W.parse line in
  let check spec out = Checks.check ~reference:true spec out in
  let b8 = bw {|{"job":"bw","solver":"exact","network":"butterfly","n":8}|} in
  Alcotest.(check (option string)) "BW(B_8) = 8 passes" None (check b8 "BW = 8\n");
  Alcotest.(check bool) "below the certified bound fails" true (check b8 "BW = 1\n" <> None);
  let ee = bw {|{"job":"ee","network":"butterfly","n":4,"k":3,"exact":true}|} in
  let right =
    match Job.run ee with Ok out -> out | Error e -> Alcotest.fail e
  in
  Alcotest.(check (option string)) "exact ee agrees with the reference" None (check ee right);
  Alcotest.(check bool) "a wrong ee fails" true (check ee "EE = 999\n" <> None)

let () =
  Alcotest.run "perfbench"
    [
      ( "workloads",
        [
          Alcotest.test_case "batch generation is seeded" `Quick test_batch_seeded;
          Alcotest.test_case "serve schedule is seeded" `Quick test_serve_seeded;
          Alcotest.test_case "batch jobs are distinct whole rounds" `Quick test_batch_distinct;
          Alcotest.test_case "expand-exact shape" `Quick test_expand_exact_shape;
          Alcotest.test_case "bisect-ml shape" `Quick test_bisect_ml_shape;
          Alcotest.test_case "zipf popularity" `Quick test_zipf_popularity;
        ] );
      ( "declarations",
        [
          Alcotest.test_case "metrics match BENCHMARK.json" `Quick test_declared_metrics;
          Alcotest.test_case "workloads match BENCHMARK.json" `Quick test_declared_workloads;
        ] );
      ( "statistics",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "ten samples beyond" `Quick test_ten_beyond;
          Alcotest.test_case "windowed percentile" `Quick test_windowed;
          Alcotest.test_case "fnv digest" `Quick test_fnv;
        ] );
      ( "trace-and-checks",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "output checks" `Quick test_checks;
        ] );
    ]
