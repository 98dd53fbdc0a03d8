(* Tests for the batch query service (lib/serve): request parsing, the
   Job execution vocabulary, coalescing, admission control, per-request
   deadlines, drain semantics, and the headline guarantee — a served
   response's output field is byte-identical to the one-shot subcommand,
   warm or cold cache, whatever the concurrency. The later cases drive
   the real transports (Unix socket and TCP) from concurrent client
   threads: per-connection response ordering, single-flight coalescing
   under concurrency, disconnect/oversized/garbage fault paths, per-client
   admission, and a chaos run under injected worker faults. *)

module Server = Bfly_serve.Server
module Job = Bfly_serve.Job
module Protocol = Bfly_serve.Protocol
module Json = Bfly_obs.Json
module Metrics = Bfly_obs.Metrics
module Config = Bfly_cache.Config
module Store = Bfly_cache.Store
open Tu

(* a counter's process-wide value: the [serve.*] counters live in each
   server's registry, which the snapshot adds up *)
let counter name =
  Option.value ~default:0 (List.assoc_opt name (Metrics.snapshot ()).counters)

(* Isolate each case in its own empty cache directory (same discipline as
   test_cache.ml): serve results must not depend on what earlier suites
   happened to compute. *)
let fresh_id = ref 0

let with_fresh_cache f =
  incr fresh_id;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bfly-serve-test-%d-%d" (Unix.getpid ()) !fresh_id)
  in
  let was_enabled = Config.enabled () in
  let old_dir = Config.dir () in
  let restore () =
    Config.set_enabled true;
    Config.set_dir dir;
    ignore (Store.clear ());
    (try Unix.rmdir dir with Unix.Unix_error _ | Sys_error _ -> ());
    Config.set_enabled was_enabled;
    Config.set_dir old_dir;
    Store.reset_memory ()
  in
  Config.set_enabled true;
  Config.set_dir dir;
  Store.reset_memory ();
  match f () with
  | v ->
      restore ();
      v
  | exception e ->
      restore ();
      raise e

(* submit a line and capture every response addressed to it *)
let replay server lines =
  let responses = ref [] in
  List.iter
    (fun line ->
      Server.submit server ~reply:(fun r -> responses := r :: !responses) line)
    lines;
  ignore (Server.run_pending server);
  List.rev !responses

let parse_response line =
  match Json.of_string line with
  | Ok obj -> obj
  | Error e -> Alcotest.failf "unparseable response %s: %s" line e

let str_field obj k =
  match Option.bind (Json.member k obj) Json.to_string_opt with
  | Some s -> s
  | None -> Alcotest.failf "response lacks string field %S: %s" k (Json.to_string obj)

let int_field obj k =
  match Option.bind (Json.member k obj) Json.to_int_opt with
  | Some i -> i
  | None -> Alcotest.failf "response lacks int field %S: %s" k (Json.to_string obj)

let bool_field obj k =
  match Option.bind (Json.member k obj) Json.to_bool_opt with
  | Some b -> b
  | None -> Alcotest.failf "response lacks bool field %S: %s" k (Json.to_string obj)

(* ---- the replay trace: 12 distinct jobs, each requested 10 times ---- *)

let bw solver ?(n = 16) ?(seed = 1) ?(restarts = 4) () =
  ( Printf.sprintf
      {|{"job":"bw","solver":"%s","network":"butterfly","n":%d,"seed":%d,"restarts":%d}|}
      (Job.solver_name solver) n seed restarts,
    Job.Bw
      {
        Job.solver;
        net = Job.Butterfly;
        n;
        seed;
        restarts;
        max_nodes = None;
        resume = false;
      } )

let distinct_jobs =
  [
    bw Job.Kl ();
    bw Job.Kl ~seed:2 ();
    bw Job.Kl ~seed:3 ();
    bw Job.Fm ();
    bw Job.Sa ~n:8 ~restarts:2 ();
    bw Job.Spectral ();
    bw Job.Exact ~n:8 ();
    ( {|{"job":"mos","j":2}|}, Job.Mos { j = 2 } );
    ( {|{"job":"mos","j":3}|}, Job.Mos { j = 3 } );
    ( {|{"job":"ee","network":"butterfly","n":8,"k":4,"exact":true}|},
      Job.Expansion
        { kind = `Ee; net = Job.Butterfly; n = 8; k = 4; exact = true; seed = 1 }
    );
    ( {|{"job":"ne","network":"butterfly","n":8,"k":4,"exact":true}|},
      Job.Expansion
        { kind = `Ne; net = Job.Butterfly; n = 8; k = 4; exact = true; seed = 1 }
    );
    ( {|{"job":"expansion","network":"wrapped","n":8,"k":6,"exact":true}|},
      Job.Expansion
        { kind = `Both; net = Job.Wrapped; n = 8; k = 6; exact = true; seed = 1 }
    );
  ]

let copies = 10

(* the duplicates are interleaved, not adjacent: request i of round r is
   distinct from its neighbours, the way concurrent clients look *)
let trace_lines () =
  List.concat_map
    (fun _round -> List.map fst distinct_jobs)
    (List.init copies Fun.id)

(* ---- cases ---- *)

(* The acceptance trace: 120 requests (12 distinct jobs x 10 copies)
   through a server. Every response must be ok with the exact bytes the
   one-shot subcommand prints (Job.run IS the one-shot execution path —
   ci.sh's serve stage closes the loop through the real CLI), every batch
   must have width 10, and the whole trace must cost 12 solves. *)
let test_replay_byte_identical () =
  with_fresh_cache @@ fun () ->
  (* one-shot outputs first (cold cache); the served replay then runs
     warm, so this also proves warm/cold byte-identity *)
  let expected =
    List.map
      (fun (_, spec) ->
        match Job.run spec with
        | Ok out -> (Job.fingerprint spec, out)
        | Error e -> Alcotest.failf "one-shot job failed: %s" e)
      distinct_jobs
  in
  let server = Server.create () in
  let lines = trace_lines () in
  check "trace length" 120 (List.length lines);
  let responses = replay server lines in
  check "one response per request" 120 (List.length responses);
  (* batches run in first-arrival order and answer all their waiters
     together, so responses come grouped: 10 for job 0, then 10 for job 1,
     ... — response i belongs to distinct_jobs.(i / copies) *)
  List.iteri
    (fun i line ->
      let obj = parse_response line in
      checkb (Printf.sprintf "response %d ok" i) true (bool_field obj "ok");
      check (Printf.sprintf "response %d batch width" i) copies
        (int_field obj "batch");
      let _, spec = List.nth distinct_jobs (i / copies) in
      let want = List.assoc (Job.fingerprint spec) expected in
      Alcotest.(check string)
        (Printf.sprintf "response %d output" i)
        want (str_field obj "output"))
    responses;
  (* coalescing: 120 requests, 12 solves *)
  let stats = Server.stats_json server in
  check "requests" 120 (int_field stats "requests");
  check "responses" 120 (int_field stats "responses");
  check "batches" (List.length distinct_jobs) (int_field stats "batches");
  check "coalesced" (120 - List.length distinct_jobs)
    (int_field stats "coalesced");
  check "nothing left queued" 0 (int_field stats "queue_depth");
  (* latency accounting saw every request *)
  let latency =
    match Json.member "latency" stats with
    | Some l -> l
    | None -> Alcotest.fail "stats lacks latency object"
  in
  check "latency count" 120 (int_field latency "count");
  checkb "p99 >= p50" true
    (int_field latency "p99_ns" >= int_field latency "p50_ns");
  (* warm replay: same trace on a fresh server, same bytes, and the cache
     answers everything — no new misses anywhere in the process *)
  let server2 = Server.create () in
  let miss0 = counter "cache.miss" in
  let responses2 = replay server2 (trace_lines ()) in
  check "warm replay misses" 0 (counter "cache.miss" - miss0);
  List.iter2
    (fun a b ->
      Alcotest.(check string)
        "warm replay byte-identical"
        (str_field (parse_response a) "output")
        (str_field (parse_response b) "output"))
    responses responses2

(* A full queue answers with an explicit "overloaded" verdict instead of
   buffering without bound: 10 distinct jobs against queue_bound 2 means
   exactly 8 immediate rejections, and the 2 admitted jobs still solve. *)
let test_overload () =
  with_fresh_cache @@ fun () ->
  let server = Server.create ~queue_bound:2 () in
  let responses = ref [] in
  for j = 1 to 10 do
    Server.submit server
      ~reply:(fun r -> responses := r :: !responses)
      (Printf.sprintf {|{"id":"q%d","job":"mos","j":%d}|} j j)
  done;
  let immediate = List.rev !responses in
  check "rejections are immediate" 8 (List.length immediate);
  List.iter
    (fun line ->
      let obj = parse_response line in
      checkb "rejected" false (bool_field obj "ok");
      Alcotest.(check string) "verdict" "overloaded" (str_field obj "error"))
    immediate;
  ignore (Server.run_pending server);
  let all = List.rev !responses in
  check "every request answered" 10 (List.length all);
  let ok_count =
    List.length
      (List.filter (fun l -> bool_field (parse_response l) "ok") all)
  in
  check "admitted jobs solved" 2 ok_count;
  let stats = Server.stats_json server in
  let rejected =
    match Json.member "rejected" stats with
    | Some r -> r
    | None -> Alcotest.fail "stats lacks rejected object"
  in
  check "overload tally" 8 (int_field rejected "overload");
  (* the two admitted requests were the first two to arrive, solved in
     arrival order (rejections are replied immediately, so they lead) *)
  let admitted =
    List.filter_map
      (fun l ->
        let obj = parse_response l in
        if bool_field obj "ok" then Some (str_field obj "id") else None)
      all
  in
  Alcotest.(check (list string)) "fifo order kept" [ "q1"; "q2" ] admitted

(* A per-request deadline (or step budget) makes the exact solver degrade
   to a certified interval — the same shape `bfly_tool bw exact
   --max-nodes` prints — rather than fail or overrun. *)
let test_deadline_degrades () =
  with_fresh_cache @@ fun () ->
  let server = Server.create () in
  let shapes =
    [
      (* step budget: fires at the first supervision poll *)
      {|{"id":"steps","job":"bw","network":"butterfly","n":8,"max_nodes":1}|};
      (* 1 microsecond of wall clock: expired before the search starts *)
      {|{"id":"wall","job":"bw","network":"butterfly","n":8,"deadline":"0.000001"}|};
    ]
  in
  List.iter
    (fun line ->
      let responses = replay server [ line ] in
      check "one response" 1 (List.length responses);
      let obj = parse_response (List.hd responses) in
      checkb "degraded run still ok" true (bool_field obj "ok");
      let out = str_field obj "output" in
      checkb
        (Printf.sprintf "interval shape in %S" out)
        true
        (String.length out >= 11 && String.sub out 0 11 = "B_8: BW in "))
    shapes

(* The deadline is part of the coalescing key: the same spec with and
   without a deadline must NOT share a solve, because the deadline decides
   whether the result may degrade. *)
let test_deadline_in_fingerprint () =
  with_fresh_cache @@ fun () ->
  let server = Server.create () in
  let line = {|{"job":"bw","solver":"kl","network":"butterfly","n":16}|} in
  let with_deadline =
    {|{"job":"bw","solver":"kl","network":"butterfly","n":16,"deadline":"10s"}|}
  in
  let responses = replay server [ line; with_deadline; line ] in
  check "three responses" 3 (List.length responses);
  let stats = Server.stats_json server in
  check "two solves" 2 (int_field stats "batches");
  check "only the exact duplicate coalesced" 1 (int_field stats "coalesced")

(* After drain, job submissions are rejected with "draining" but stats
   introspection still answers — that's what makes graceful shutdown
   observable. *)
let test_drain () =
  with_fresh_cache @@ fun () ->
  let server = Server.create () in
  (* queue one job before the drain signal lands *)
  let queued = ref [] in
  Server.submit server
    ~reply:(fun r -> queued := r :: !queued)
    {|{"id":"early","job":"mos","j":2}|};
  Server.drain server;
  checkb "draining latched" true (Server.draining server);
  let late = replay server [ {|{"id":"late","job":"mos","j":3}|} ] in
  let obj = parse_response (List.hd late) in
  checkb "late job rejected" false (bool_field obj "ok");
  Alcotest.(check string) "verdict" "draining" (str_field obj "error");
  let stats_reply = replay server [ {|{"id":"s","job":"stats"}|} ] in
  let sobj = parse_response (List.hd stats_reply) in
  checkb "stats still served" true (bool_field sobj "ok");
  checkb "stats reports draining" true (bool_field sobj "draining");
  (* the queued job still ran to completion during replay's run_pending *)
  check "early job answered" 1 (List.length !queued);
  checkb "early job ok" true
    (bool_field (parse_response (List.hd !queued)) "ok")

(* Malformed input costs an error response, never the server; the
   response reuses the request's own id whenever the line parsed far
   enough to have one. *)
let test_parse_errors () =
  with_fresh_cache @@ fun () ->
  let server = Server.create () in
  let cases =
    [
      ("not json at all", None);
      ({|[1,2,3]|}, None);
      ({|{"id":"x1","job":"teleport"}|}, Some "x1");
      ({|{"id":"x2","job":"bw","network":"butterfly"}|}, Some "x2");
      ({|{"id":"x3","job":"bw","solver":"kl","network":"moebius","n":8}|},
       Some "x3");
      ({|{"id":"x4","job":"mos","j":2,"deadline":"soonish"}|}, Some "x4");
      ({|{"id":"x5","job":"mos"}|}, Some "x5");
    ]
  in
  List.iter
    (fun (line, want_id) ->
      let responses = replay server [ line ] in
      check "answered" 1 (List.length responses);
      let obj = parse_response (List.hd responses) in
      checkb (Printf.sprintf "rejected %S" line) false (bool_field obj "ok");
      match want_id with
      | Some id -> Alcotest.(check string) "echoes request id" id (str_field obj "id")
      | None ->
          (* assigned id: non-empty, server-generated *)
          checkb "assigned an id" true (String.length (str_field obj "id") > 0))
    cases;
  let stats = Server.stats_json server in
  check "parse_errors tally" (List.length cases) (int_field stats "parse_errors");
  (* the server still works afterwards *)
  let after = replay server [ {|{"job":"mos","j":2}|} ] in
  checkb "server survived" true (bool_field (parse_response (List.hd after)) "ok")

(* Solver-level failures (bad arguments reaching Job.run) come back as
   per-request errors with the same message the one-shot CLI prints. *)
let test_solver_errors () =
  with_fresh_cache @@ fun () ->
  let server = Server.create () in
  let cases =
    [
      ({|{"id":"e1","job":"bw","solver":"kl","network":"butterfly","n":7}|},
       "n must be a power of two");
      ({|{"id":"e2","job":"mos","j":0}|}, "j must be >= 1");
      ({|{"id":"e3","job":"ee","network":"butterfly","n":8,"k":999}|},
       "k out of range");
    ]
  in
  List.iter
    (fun (line, want) ->
      let responses = replay server [ line ] in
      let obj = parse_response (List.hd responses) in
      checkb "not ok" false (bool_field obj "ok");
      Alcotest.(check string) "CLI error text" want (str_field obj "error"))
    cases

(* Ambiguous request documents must be rejected outright: Json.member is
   first-key-wins, so a duplicate key would silently drop the later value
   — a malformed request, not a preference (bugfix for json.mli's
   documented first-wins lookup). The rejection is answered under the
   request's id when that id occurs once at the top level, so a client
   matching answers by id can attribute it; a repeated id gets the
   server's default, here the second request's "r2". *)
let test_duplicate_key_rejected () =
  with_fresh_cache @@ fun () ->
  let server = Server.create () in
  List.iter
    (fun (line, key, id) ->
      let obj = parse_response (List.hd (replay server [ line ])) in
      checkb (Printf.sprintf "rejected %s" line) false (bool_field obj "ok");
      Alcotest.(check string)
        "names the duplicated key"
        (Printf.sprintf "duplicate key %S in request object" key)
        (str_field obj "error");
      Alcotest.(check string) "answered under" id (str_field obj "id"))
    [
      ({|{"id":"d1","job":"bw","solver":"ml","network":"mesh:4x4","seed":1,"seed":2}|},
       "seed", "d1");
      ({|{"id":"d2","id":"d2b","job":"mos","j":2}|}, "id", "r2");
      (* nested duplicates are screened too: the scan is depth-first *)
      ({|{"id":"d3","job":"mos","j":2,"extra":{"a":1,"a":2}}|}, "a", "d3");
    ];
  (* same fields without duplication still parse *)
  let ok_line = {|{"id":"d4","job":"mos","j":2}|} in
  let obj = parse_response (List.hd (replay server [ ok_line ])) in
  checkb "distinct keys accepted" true (bool_field obj "ok")

(* Fabric jobs ride the same byte-identity contract as the classic
   families: the served output equals Job.run's text, and the [n] field
   is rejected rather than silently ignored (the spec fixes the size). *)
let test_fabric_jobs () =
  with_fresh_cache @@ fun () ->
  let server = Server.create () in
  let line =
    {|{"id":"f1","job":"bw","solver":"ml","network":"mesh:4x4","seed":1}|}
  in
  let spec =
    Job.Bw
      {
        Job.solver = Job.Ml;
        net = Job.Fabric (Bfly_networks.Fabric.Mesh [ 4; 4 ]);
        n = 0;
        seed = 1;
        restarts = 4;
        max_nodes = None;
        resume = false;
      }
  in
  let obj = parse_response (List.hd (replay server [ line ])) in
  checkb "fabric job ok" true (bool_field obj "ok");
  (match Job.run spec with
  | Ok text ->
      Alcotest.(check string)
        "served bytes = one-shot bytes" text (str_field obj "output")
  | Error e -> Alcotest.failf "one-shot run failed: %s" e);
  let with_n =
    {|{"id":"f2","job":"bw","solver":"ml","network":"mesh:4x4","n":16}|}
  in
  let obj = parse_response (List.hd (replay server [ with_n ])) in
  checkb "explicit n rejected" false (bool_field obj "ok");
  Alcotest.(check string)
    "n-rejection message"
    "field \"n\" must be omitted for fabric networks (the spec fixes the size)"
    (str_field obj "error");
  (* expansion jobs accept fabric specs through the same parser *)
  let exp_line = {|{"id":"f3","job":"ee","network":"mesh:3x3","k":4,"exact":true}|} in
  let obj = parse_response (List.hd (replay server [ exp_line ])) in
  checkb "fabric expansion ok" true (bool_field obj "ok");
  checkb "output names the canonical spec" true
    (let out = str_field obj "output" in
     String.length out >= 8 && String.sub out 0 8 = "mesh:3x3")

(* The coalescing key of every request in the committed traces: its
   fingerprint, or the message a rejected line answers with. A default
   that moved without changing any output (bw exact's [restarts], say)
   would still change which requests share a solve; these strings catch
   it. *)
let committed_keys =
  [
    ( "../bench/loadgen_trace.ndjson",
      [
        ({|kl-a|}, {|bw.kl/butterfly/16?seed=7&restarts=4&max_nodes=-&resume=false|});
        ({|kl-b|}, {|bw.kl/butterfly/16?seed=8&restarts=4&max_nodes=-&resume=false|});
        ({|kl-c|}, {|bw.kl/butterfly/8?seed=7&restarts=4&max_nodes=-&resume=false|});
        ({|fm-a|}, {|bw.fm/butterfly/16?seed=7&restarts=4&max_nodes=-&resume=false|});
        ({|spec|}, {|bw.spectral/butterfly/16?seed=1&restarts=4&max_nodes=-&resume=false|});
        ({|spec-w|}, {|bw.spectral/wrapped/16?seed=1&restarts=4&max_nodes=-&resume=false|});
        ({|mos8|}, {|mos/8|});
        ({|mos6|}, {|mos/6|});
        ({|mos4|}, {|mos/4|});
        ({|ee|}, {|exp.ee/butterfly/8?k=4&exact=true&seed=1|});
        ({|ne|}, {|exp.ne/butterfly/8?k=4&exact=true&seed=1|});
        ({|bad|}, {|mos/0|});
      ] );
    ( "../bench/loadgen_dc_trace.ndjson",
      [
        ({|dc-tor64|}, {|bw.ml/torus:4x4x4/0?seed=1&restarts=4&max_nodes=-&resume=false|});
        ({|dc-mesh64|}, {|bw.ml/mesh:2x4x8/0?seed=1&restarts=4&max_nodes=-&resume=false|});
        ({|dc-bcube|}, {|bw.ml/bcube:4x2/0?seed=1&restarts=4&max_nodes=-&resume=false|});
        ({|dc-mixed|}, {|bw.ml/product:ring4xk3xpath2/0?seed=1&restarts=4&max_nodes=-&resume=false|});
        ({|dc-tor64-dup|}, {|bw.ml/torus:4x4x4/0?seed=1&restarts=4&max_nodes=-&resume=false|});
        ({|dc-exact-mesh|}, {|bw.exact/mesh:3x3/0?seed=1&restarts=4&max_nodes=-&resume=false|});
        ({|dc-exact-torus|}, {|bw.exact/torus:3x3/0?seed=1&restarts=4&max_nodes=-&resume=false|});
        ({|dc-fm|}, {|bw.fm/mesh:4x4/0?seed=9&restarts=4&max_nodes=-&resume=false|});
        ({|dc-spec|}, {|bw.spectral/torus:3x3x3/0?seed=1&restarts=4&max_nodes=-&resume=false|});
        ({|dc-ee|}, {|exp.ee/mesh:3x3/0?k=4&exact=true&seed=1|});
        ({|dc-bad-n|}, {|error: field "n" must be omitted for fabric networks (the spec fixes the size)|});
        ({|dc-bad-ring|}, {|error: Fabric: ring dimensions must be >= 3|});
        ({|dc-bad-dup|}, {|error: duplicate key "seed" in request object|});
        ({|dc-campaign|}, {|campaign/3?sizes=16,24&seeds=2|});
        ({|dc-campaign-dup|}, {|campaign/3?sizes=16,24&seeds=2|});
        ({|dc-campaign-capped|}, {|error: served campaign sizes are capped at n <= 1024|});
      ] );
  ]

let test_committed_keys () =
  List.iter
    (fun (path, want) ->
      let key line =
        match Protocol.parse_request ~default_id:"-" line with
        | Ok { id; payload = Protocol.Job { spec; deadline } } ->
            (id, Job.fingerprint ?deadline spec)
        | Ok { id; payload = Protocol.Stats } -> (id, "stats")
        | Error (m, id) -> (id, "error: " ^ m)
      in
      let lines = In_channel.with_open_text path In_channel.input_lines in
      Alcotest.(check (list (pair string string)))
        path want
        (List.filter_map
           (fun l -> if String.trim l = "" then None else Some (key l))
           lines))
    committed_keys

(* ---- concurrency: real transports, real client threads ---- *)

module Transport = Bfly_serve.Transport
module Dispatch = Bfly_serve.Dispatch
module Fault = Bfly_resil.Fault

let tmp_name base =
  incr fresh_id;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "%s-%d-%d" base (Unix.getpid ()) !fresh_id)

(* Run [f] against a serving transport on its own thread; [f] receives
   the connect address. Drains and joins on the way out, and re-raises
   [f]'s failure (Alcotest exceptions included) from the main thread. *)
let with_server ?workers ~server ~listen f =
  let path, serve_thread, addr_of =
    match listen with
    | `Unix ->
        let path = tmp_name "bfly-serve-sock" in
        ( path,
          (fun () ->
            Transport.socket ~block_timeout:0.05 ?workers server ~path),
          fun () ->
            let deadline = Unix.gettimeofday () +. 10. in
            while
              (not (Sys.file_exists path))
              && Unix.gettimeofday () < deadline
            do
              Thread.yield ()
            done;
            `Unix path )
    | `Tcp ->
        let port_file = tmp_name "bfly-serve-port" in
        ( port_file,
          (fun () ->
            Transport.serve ~block_timeout:0.05 ?workers
              ~tcp:("127.0.0.1", 0) ~port_file server),
          fun () ->
            let deadline = Unix.gettimeofday () +. 10. in
            let rec wait () =
              let line =
                try In_channel.with_open_text port_file In_channel.input_line
                with Sys_error _ -> None
              in
              match line with
              | Some l -> (
                  match String.rindex_opt l ':' with
                  | Some i ->
                      `Tcp
                        ( String.sub l 0 i,
                          int_of_string
                            (String.sub l (i + 1) (String.length l - i - 1))
                        )
                  | None -> Alcotest.failf "bad port file line %S" l)
              | None ->
                  if Unix.gettimeofday () > deadline then
                    Alcotest.fail "server did not write its port file";
                  Thread.yield ();
                  wait ()
            in
            wait () )
  in
  let t = Thread.create serve_thread () in
  let finish () =
    Server.drain server;
    Thread.join t;
    try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ()
  in
  match f (addr_of ()) with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let connect = function
  | `Unix path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      fd
  | `Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      fd

let send_all fd lines =
  let s = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let pos = ref 0 in
  while !pos < len do
    pos := !pos + Unix.write fd b !pos (len - !pos)
  done

let read_lines ic n =
  List.init n (fun _ ->
      match In_channel.input_line ic with
      | Some l -> l
      | None -> Alcotest.fail "server closed before answering")

(* One client session: pipeline [lines], half-close, read one response
   per request. Relies on — and therefore tests — the per-connection
   ordering guarantee. *)
let client_session addr lines =
  let fd = connect addr in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      send_all fd lines;
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      read_lines (Unix.in_channel_of_descr fd) (List.length lines))

(* Each concurrent client pipelines its own seeded interleaving of the
   distinct jobs (duplicates across clients land mid-flight on purpose)
   and must get every response ok, in ITS OWN request order, with output
   bytes equal to the one-shot subcommand's. *)
let stress_over listen () =
  with_fresh_cache @@ fun () ->
  let expected =
    List.map
      (fun (line, spec) ->
        match Job.run spec with
        | Ok out -> (line, out)
        | Error e -> Alcotest.failf "one-shot job failed: %s" e)
      distinct_jobs
  in
  let n_clients = 4 and rounds = 3 in
  let client_lines ci =
    let rng = Random.State.make [| 0xc11e; ci |] in
    List.concat_map
      (fun _ ->
        let a = Array.of_list (List.map fst distinct_jobs) in
        for i = Array.length a - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let tmp = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- tmp
        done;
        Array.to_list a)
      (List.init rounds Fun.id)
  in
  (* 144 requests arrive pipelined before the first solve finishes;
     admission must stay out of this test's way (it has its own cases) *)
  let server = Server.create ~queue_bound:1000 () in
  let resp0 = counter "serve.responses" in
  with_server ~workers:4 ~server ~listen (fun addr ->
      let results = Array.make n_clients [] in
      let failed = Atomic.make None in
      let run ci () =
        try results.(ci) <- client_session addr (client_lines ci)
        with e -> Atomic.set failed (Some e)
      in
      let threads =
        List.init n_clients (fun ci -> Thread.create (run ci) ())
      in
      List.iter Thread.join threads;
      (match Atomic.get failed with Some e -> raise e | None -> ());
      Array.iteri
        (fun ci responses ->
          List.iter2
            (fun line response ->
              let obj = parse_response response in
              checkb
                (Printf.sprintf "client %d response ok" ci)
                true (bool_field obj "ok");
              Alcotest.(check string)
                (Printf.sprintf "client %d ordered byte-identical output" ci)
                (List.assoc line expected)
                (str_field obj "output"))
            (client_lines ci) responses)
        results);
  let total = n_clients * rounds * List.length distinct_jobs in
  check "every pipelined request answered" total
    (counter "serve.responses" - resp0)

let test_concurrent_clients_unix () = stress_over `Unix ()
let test_concurrent_clients_tcp () = stress_over `Tcp ()

(* Cold-cache coalescing under concurrency: splitting the duplicate-heavy
   trace across concurrent socket clients must cost exactly the solves of
   the sequential in-process replay — a duplicate either joins the
   in-flight batch (single-flight) or hits the cache, never re-solves. *)
let test_concurrent_cold_solve_count () =
  let jobs =
    [
      {|{"job":"mos","j":2}|};
      {|{"job":"mos","j":3}|};
      {|{"job":"mos","j":4}|};
      {|{"job":"bw","solver":"kl","network":"butterfly","n":8,"seed":1}|};
      {|{"job":"bw","solver":"kl","network":"butterfly","n":8,"seed":2}|};
      {|{"job":"bw","solver":"spectral","network":"butterfly","n":8}|};
    ]
  in
  let copies = 5 in
  let full_trace = List.concat_map (fun _ -> jobs) (List.init copies Fun.id) in
  let miss_seq =
    with_fresh_cache @@ fun () ->
    let server = Server.create ~queue_bound:1000 () in
    let m0 = counter "cache.miss" in
    ignore (replay server full_trace);
    counter "cache.miss" - m0
  in
  let miss_conc =
    with_fresh_cache @@ fun () ->
    let server = Server.create ~queue_bound:1000 () in
    let m0 = counter "cache.miss" in
    with_server ~workers:4 ~server ~listen:`Unix (fun addr ->
        let failed = Atomic.make None in
        let run lines () =
          try
            List.iter
              (fun r ->
                checkb "cold concurrent response ok" true
                  (bool_field (parse_response r) "ok"))
              (client_session addr lines)
          with e -> Atomic.set failed (Some e)
        in
        (* two clients, each replaying the full trace minus what the
           other sends first — together the same multiset of requests *)
        let odd, even =
          List.partition (fun (i, _) -> i mod 2 = 0)
            (List.mapi (fun i l -> (i, l)) full_trace)
        in
        let threads =
          List.map
            (fun lines -> Thread.create (run (List.map snd lines)) ())
            [ odd; even ]
        in
        List.iter Thread.join threads;
        match Atomic.get failed with Some e -> raise e | None -> ());
    counter "cache.miss" - m0
  in
  check "concurrent cold replay solves exactly the sequential count"
    miss_seq miss_conc

(* A client that vanishes mid-solve costs counters, never the server: the
   write fails (serve.write_fail), and other clients are served on. *)
let test_disconnect_mid_batch () =
  with_fresh_cache @@ fun () ->
  let server = Server.create () in
  let fail0 = counter "serve.write_fail" in
  let drop0 = counter "serve.write_drop" in
  with_server ~workers:2 ~server ~listen:`Unix (fun addr ->
      (* a supervised exact search with a 200ms deadline: long enough
         that the close below always lands first, bounded so the test
         stays fast *)
      let fd = connect addr in
      send_all fd
        [ {|{"id":"gone","job":"bw","network":"butterfly","n":16,"deadline":"0.2"}|} ];
      Unix.close fd;
      (* a second client is served while (and after) the doomed solve *)
      let responses = client_session addr [ {|{"id":"alive","job":"mos","j":2}|} ] in
      let obj = parse_response (List.hd responses) in
      checkb "other client served" true (bool_field obj "ok");
      (* wait until the doomed batch's delivery actually failed *)
      let deadline = Unix.gettimeofday () +. 10. in
      while
        counter "serve.write_fail" - fail0 = 0
        && counter "serve.write_drop" - drop0 = 0
        && Unix.gettimeofday () < deadline
      do
        Thread.yield ()
      done);
  checkb "failed write was counted, not swallowed" true
    (counter "serve.write_fail" - fail0 > 0
    || counter "serve.write_drop" - drop0 > 0);
  (* the server survived to a clean drain; a fresh in-process request
     confirms the engine state is intact *)
  let after = Server.create () in
  checkb "engine fine after disconnect" true
    (bool_field (parse_response (List.hd (replay after [ {|{"job":"mos","j":2}|} ]))) "ok")

(* Oversized and garbage lines get structured errors on the wire — in
   request order — and the connection keeps working. *)
let test_oversized_and_garbage () =
  with_fresh_cache @@ fun () ->
  let server = Server.create () in
  let over0 = counter "serve.oversized" in
  with_server ~workers:2 ~server ~listen:`Unix (fun addr ->
      let big = String.make 300_000 'x' in
      let responses =
        client_session addr
          [ big; "this is not json"; {|{"id":"ok1","job":"mos","j":2}|} ]
      in
      check "three responses" 3 (List.length responses);
      let o1 = parse_response (List.nth responses 0) in
      checkb "oversized rejected" false (bool_field o1 "ok");
      Alcotest.(check string) "oversized id" "oversized" (str_field o1 "id");
      checkb "error names the bound" true
        (let e = str_field o1 "error" in
         let rec has i =
           i + 7 <= String.length e
           && (String.sub e i 7 = "exceeds" || has (i + 1))
         in
         has 0);
      checkb "garbage rejected" false
        (bool_field (parse_response (List.nth responses 1)) "ok");
      let o3 = parse_response (List.nth responses 2) in
      checkb "valid request after junk still served" true (bool_field o3 "ok");
      Alcotest.(check string) "its id" "ok1" (str_field o3 "id"));
  check "oversized tally" 1 (counter "serve.oversized" - over0)

(* Per-client admission: a flooding client is rejected at its own bound
   while another client keeps full service; rejections are immediate, so
   they are the flooder's LAST responses in it own order. *)
let test_per_client_overload () =
  with_fresh_cache @@ fun () ->
  let server = Server.create ~queue_bound:100 ~client_bound:2 () in
  let flooder = Server.client ~name:"flood" server in
  let other = Server.client ~name:"calm" server in
  let fr = ref [] and ok_other = ref [] in
  for j = 2 to 6 do
    Server.submit server ~client:flooder
      ~reply:(fun r -> fr := r :: !fr)
      (Printf.sprintf {|{"id":"f%d","job":"mos","j":%d}|} j j)
  done;
  Server.submit server ~client:other
    ~reply:(fun r -> ok_other := r :: !ok_other)
    {|{"id":"calm","job":"mos","j":7}|};
  check "three immediate per-client rejections" 3 (List.length !fr);
  List.iter
    (fun r ->
      let obj = parse_response r in
      checkb "flooder rejected" false (bool_field obj "ok");
      Alcotest.(check string) "verdict" "overloaded" (str_field obj "error"))
    !fr;
  ignore (Server.run_pending server);
  check "flooder's admitted two solved" 5 (List.length !fr);
  check "other client served in full" 1 (List.length !ok_other);
  checkb "other client ok" true
    (bool_field (parse_response (List.hd !ok_other)) "ok");
  let stats = Server.stats_json server in
  let rejected =
    match Json.member "rejected" stats with
    | Some r -> r
    | None -> Alcotest.fail "stats lacks rejected object"
  in
  check "client rejection tally" 3 (int_field rejected "client");
  check "no global rejections" 0 (int_field rejected "overload");
  (* released slots: the flooder may submit again after completion *)
  let again = ref [] in
  Server.submit server ~client:flooder
    ~reply:(fun r -> again := r :: !again)
    {|{"id":"f-again","job":"mos","j":2}|};
  ignore (Server.run_pending server);
  checkb "slots released after completion" true
    (bool_field (parse_response (List.hd !again)) "ok")

(* Chaos: with worker crashes and spurious deadline expiries injected,
   a dispatched replay still answers every request (ok or error), and
   the engine is clean afterwards. *)
let test_chaos_dispatch () =
  with_fresh_cache @@ fun () ->
  let lines =
    List.concat_map
      (fun j ->
        [
          Printf.sprintf {|{"job":"mos","j":%d}|} j;
          Printf.sprintf
            {|{"job":"bw","solver":"kl","network":"butterfly","n":8,"seed":%d}|}
            j;
        ])
      [ 2; 3; 4; 5; 6; 7 ]
  in
  let answered = ref 0 in
  Fault.scope ~rate:0.5 ~seed:1107 [ Fault.Worker; Fault.Deadline ]
    (fun () ->
      let server = Server.create () in
      let dispatch = Dispatch.create ~cap:4 server in
      List.iter
        (fun line ->
          Server.submit server ~reply:(fun _ -> incr answered) line;
          Dispatch.pump dispatch)
        lines;
      Dispatch.pump dispatch;
      Dispatch.wait_idle dispatch);
  check "every request answered under fault injection"
    (List.length lines) !answered;
  (* the pool and engine survive: a clean replay afterwards is all ok *)
  let server = Server.create () in
  List.iter
    (fun r -> checkb "clean replay ok" true (bool_field (parse_response r) "ok"))
    (replay server [ {|{"job":"mos","j":2}|}; {|{"job":"mos","j":3}|} ])

(* ---- the graph memo behind Job.graph_of ---- *)

let graph_of net n =
  match Job.graph_of net n with Ok r -> r | Error e -> Alcotest.fail e

let net s =
  match Job.net_of_string s with Ok net -> net | Error e -> Alcotest.fail e

let same_graph what a b =
  Alcotest.(check (array int))
    (what ^ ": csr offsets") (G.csr_offsets a) (G.csr_offsets b);
  Alcotest.(check (array int)) (what ^ ": csr adjacency") (G.csr_adj a)
    (G.csr_adj b);
  Alcotest.(check (array (pair int int))) (what ^ ": edges") (G.edges a)
    (G.edges b)

(* The size cap is nodes + edges <= 4096, inclusive: a ring of 2048 sits
   on it, a ring of 2049 (4098) and B_256 (2304 + 4096) are over it. *)
let test_memo_size_cap () =
  let g1, name1 = graph_of Job.Butterfly 16 in
  let g2, name2 = graph_of Job.Butterfly 16 in
  checkb "repeated network: one shared graph" true (g1 == g2);
  checkb "and one shared name" true (name1 == name2);
  let memoized s = fst (graph_of (net s) 0) == fst (graph_of (net s) 0) in
  checkb "torus:2048 (4096) memoized" true (memoized "torus:2048");
  checkb "torus:2049 (4098) built fresh" false (memoized "torus:2049");
  let big1, _ = graph_of Job.Butterfly 256 in
  let big2, _ = graph_of Job.Butterfly 256 in
  checkb "B_256 built fresh each time" false (big1 == big2);
  same_graph "fresh builds of B_256" big1 big2

(* The key is the canonical spelling, so two numberings of one mesh are
   two entries (they are different graphs, and different cache keys). *)
let test_memo_fabric_spellings () =
  let a, name_a = graph_of (net "mesh:4x5") 0 in
  let b, name_b = graph_of (net "mesh:5x4") 0 in
  checkb "mesh:4x5 and mesh:5x4 are separate entries" false (a == b);
  Alcotest.(check string) "mesh:4x5 name" "mesh:4x5" name_a;
  Alcotest.(check string) "mesh:5x4 name" "mesh:5x4" name_b;
  checkb "mesh:4x5 memoized" true (a == fst (graph_of (net "mesh:4x5") 0));
  checkb "mesh:5x4 memoized" true (b == fst (graph_of (net "mesh:5x4") 0))

(* 64 entries: [first] survives 63 more recent networks and is evicted
   by the 64th. *)
let test_memo_count_bound () =
  let spec = "torus:3x7" in
  let first, _ = graph_of (net spec) 0 in
  let touch lo hi =
    for k = lo to hi do
      ignore (graph_of (net (Printf.sprintf "torus:%d" k)) 0)
    done
  in
  touch 3 65;
  checkb "kept behind 63 others" true (first == fst (graph_of (net spec) 0));
  touch 3 66;
  let again, _ = graph_of (net spec) 0 in
  checkb "evicted behind 64 others" false (first == again);
  same_graph "rebuilt after eviction" first again

(* No job kind may mutate the graph it borrows from the memo: after one of
   each, the shared graph still equals a fresh build. A fresh cache makes
   every solver really run. *)
let test_memo_graphs_survive_jobs () =
  with_fresh_cache @@ fun () ->
  let mesh_spec =
    match net "mesh:4x5" with Job.Fabric s -> s | _ -> assert false
  in
  let cases =
    [
      (Job.Butterfly, 8, Bfly_networks.Butterfly.(graph (create ~log_n:3)));
      ( Job.Fabric mesh_spec,
        0,
        Bfly_networks.Fabric.(graph (create mesh_spec)) );
    ]
  in
  List.iter
    (fun (net, n, fresh) ->
      let shared, _ = graph_of net n in
      let bw solver =
        Job.Bw
          {
            Job.solver;
            net;
            n;
            seed = 3;
            restarts = 2;
            max_nodes = None;
            resume = false;
          }
      in
      let exp kind exact =
        Job.Expansion { kind; net; n; k = 4; exact; seed = 3 }
      in
      List.iter
        (fun spec ->
          match Job.run spec with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%s: %s" (Job.fingerprint spec) e)
        (List.map bw Job.[ Exact; Kl; Fm; Sa; Spectral; Ml ]
        @ [ exp `Ee true; exp `Ne true; exp `Ee false; exp `Ne false ]);
      checkb "jobs ran on the memoized graph" true
        (shared == fst (graph_of net n));
      same_graph (Job.net_name net) fresh shared)
    cases

(* Four domains asking for one unbuilt network at once: every one gets
   the same graph, whoever's build won. *)
let test_memo_concurrent () =
  let net = net "torus:20x20" in
  let results =
    List.map Domain.join
      (List.init 4 (fun _ -> Domain.spawn (fun () -> Job.graph_of net 0)))
  in
  let graphs =
    List.map (function Ok (g, _) -> g | Error e -> Alcotest.fail e) results
  in
  let first = List.hd graphs in
  List.iter
    (fun g ->
      same_graph "concurrent graph_of" first g;
      checkb "one shared graph" true (g == first))
    graphs;
  checkb "the memo holds it" true (first == fst (graph_of net 0))

(* Two servers in one process: each reports only its own requests in
   [stats], while the process-wide [serve.*] view (what --metrics prints)
   is their sum — every request recorded once, in its server's registry. *)
let test_two_servers_own_stats () =
  with_fresh_cache @@ fun () ->
  let timer name =
    match List.assoc_opt name (Metrics.snapshot ()).Metrics.timers with
    | Some (st : Metrics.timer_stat) -> st.count
    | None -> 0
  in
  let req0 = counter "serve.requests" and memo0 = counter "serve.memo_hits" in
  let lat0 = timer "serve.latency" in
  let a = Server.create () and b = Server.create () in
  let line = {|{"job":"mos","j":2}|} in
  (* one solve each, then answers from each server's own memo *)
  List.iter (fun l -> ignore (replay a [ l ])) [ line; line; line ];
  List.iter (fun l -> ignore (replay b [ l ])) [ line; line; {|{"job":"mos","j":0}|} ];
  ignore (replay b [ {|{"job":"mos"|} ]);
  let own server k = int_field (Server.stats_json server) k in
  check "a: its own requests" 3 (own a "requests");
  check "b: its own requests" 4 (own b "requests");
  check "a: its own batch" 1 (own a "batches");
  check "b: its own batches" 2 (own b "batches");
  check "a: its memo answers" 2 (own a "memo_hits");
  check "b: one memo answer" 1 (own b "memo_hits");
  check "b: its own error" 1 (own b "errors");
  check "b: its own parse error" 1 (own b "parse_errors");
  check "a: nothing of b's" 0 (own a "errors" + own a "parse_errors");
  let latency server =
    match Json.member "latency" (Server.stats_json server) with
    | Some l -> int_field l "count"
    | None -> Alcotest.fail "stats lacks latency object"
  in
  check "a: one latency per answered job" 3 (latency a);
  check "b: one latency per answered job" 3 (latency b);
  check "process requests = a + b" 7 (counter "serve.requests" - req0);
  check "process memo answers = a + b" 3 (counter "serve.memo_hits" - memo0);
  check "process latency count = a + b" 6 (timer "serve.latency" - lat0)

(* ---- the memo of finished outputs ---- *)

let stats_int server k = int_field (Server.stats_json server) k

(* submit one line, run the queue, and parse its one response *)
let answer_of server line = parse_response (List.hd (replay server [ line ]))

(* A twin of a finished job is answered inside [submit], before anything
   runs, with the bytes of the solve that produced it and of Job.run, and
   with "batch":0. *)
let test_memo_answer () =
  with_fresh_cache @@ fun () ->
  let server = Server.create () in
  let solved = List.map (fun (l, _) -> answer_of server l) distinct_jobs in
  let hits0 = counter "serve.memo_hits" in
  List.iter2
    (fun (line, spec) first ->
      let got = ref [] in
      Server.submit server ~reply:(fun r -> got := r :: !got) line;
      check "answered inside submit" 1 (List.length !got);
      check "nothing queued" 0 (Server.pending server);
      let memo = parse_response (List.hd !got) in
      check "the solve's width" 1 (int_field first "batch");
      checkb "memo answer ok" true (bool_field memo "ok");
      check "memo answer width" 0 (int_field memo "batch");
      Alcotest.(check string)
        "byte-equal to the solve that produced it" (str_field first "output")
        (str_field memo "output");
      match Job.run spec with
      | Ok out ->
          Alcotest.(check string)
            "byte-equal to Job.run" out (str_field memo "output")
      | Error e -> Alcotest.failf "one-shot job failed: %s" e)
    distinct_jobs solved;
  let n = List.length distinct_jobs in
  check "one solve per job" n (stats_int server "batches");
  check "memo_hits" n (stats_int server "memo_hits");
  check "serve.memo_hits" n (counter "serve.memo_hits" - hits0);
  check "responses" (2 * n) (stats_int server "responses");
  match Json.member "latency" (Server.stats_json server) with
  | Some l -> check "latency counts memo answers" (2 * n) (int_field l "count")
  | None -> Alcotest.fail "stats lacks latency object"

(* Outputs that do not depend on the fingerprint alone are solved again on
   every repeat: a deadline, resume, max_nodes, and errors. max_nodes
   shows why: the same request prints an interval on a cold cache and the
   exact value once the full solve is cached. *)
let test_memo_excludes () =
  with_fresh_cache @@ fun () ->
  let server = Server.create () in
  let bounded = {|{"job":"bw","network":"butterfly","n":8,"max_nodes":1}|} in
  let output line = str_field (answer_of server line) "output" in
  let cold = output bounded in
  ignore (output {|{"job":"bw","network":"butterfly","n":8}|});
  let warm = output bounded in
  checkb "cold: an interval" true (String.sub cold 0 11 = "B_8: BW in ");
  Alcotest.(check string) "warm: the exact value" "B_8: BW = 8\n" warm;
  List.iter
    (fun line ->
      let batches0 = stats_int server "batches" in
      for _ = 1 to 3 do
        let obj = answer_of server line in
        if bool_field obj "ok" then
          check "solved, not remembered" 1 (int_field obj "batch")
      done;
      check (line ^ " solved on every repeat") 3
        (stats_int server "batches" - batches0))
    [
      bounded;
      {|{"job":"mos","j":3,"deadline":"10s"}|};
      {|{"job":"bw","network":"butterfly","n":8,"resume":true}|};
      {|{"job":"mos","j":0}|};
    ];
  check "no memo answers" 0 (stats_int server "memo_hits");
  check "three errors" 3 (stats_int server "errors")

(* The memo keeps 1,024 fingerprints: the 1,025th finished job evicts the
   oldest, which is then solved again. *)
let test_memo_eviction () =
  with_fresh_cache @@ fun () ->
  let server = Server.create () in
  let line =
    Printf.sprintf
      {|{"job":"bw","solver":"spectral","network":"butterfly","n":8,"seed":%d}|}
  in
  for seed = 1 to 1025 do
    ignore (replay server [ line seed ])
  done;
  check "1,025 solves" 1025 (stats_int server "batches");
  let width seed = int_field (answer_of server (line seed)) "batch" in
  check "the second oldest is remembered" 0 (width 2);
  check "the newest is remembered" 0 (width 1025);
  check "the oldest was evicted" 1 (width 1);
  check "one more solve" 1026 (stats_int server "batches");
  check "two memo answers" 2 (stats_int server "memo_hits")

(* With the result cache off, nothing is remembered or answered from the
   memo: --no-cache and BFLY_CACHE=off still force fresh solves. *)
let test_memo_cache_off () =
  with_fresh_cache @@ fun () ->
  let server = Server.create () in
  let kept = {|{"job":"mos","j":3}|} and fresh = {|{"job":"mos","j":4}|} in
  ignore (replay server [ kept ]);
  Config.set_enabled false;
  List.iter (fun l -> ignore (answer_of server l)) [ kept; kept; fresh; fresh ];
  check "every request solved while off" 5 (stats_int server "batches");
  check "no memo answers while off" 0 (stats_int server "memo_hits");
  Config.set_enabled true;
  let width line = int_field (answer_of server line) "batch" in
  check "nothing was remembered while off" 1 (width fresh);
  check "the earlier entry answers again" 0 (width kept)

(* The memo answers only after the unchanged admission verdicts: a client
   at its bound, a full queue and a draining server are refused a
   remembered request. *)
let test_memo_after_verdicts () =
  with_fresh_cache @@ fun () ->
  let server = Server.create ~queue_bound:2 ~client_bound:1 () in
  let c = Server.client server and other = Server.client server in
  let remembered = {|{"id":"m","job":"mos","j":2}|} in
  ignore (replay server [ remembered ]);
  let answer ?(client = c) line =
    let got = ref [] in
    Server.submit server ~client ~reply:(fun r -> got := r :: !got) line;
    match !got with
    | [ r ] -> parse_response r
    | _ -> Alcotest.fail "expected one immediate answer"
  in
  let refused what verdict obj =
    checkb (what ^ ": refused") false (bool_field obj "ok");
    Alcotest.(check string) (what ^ ": verdict") verdict (str_field obj "error")
  in
  check "an idle client gets the memo" 0
    (int_field (answer remembered) "batch");
  Server.submit server ~client:c ~reply:ignore {|{"job":"mos","j":5}|};
  refused "client at its bound" "overloaded" (answer remembered);
  Server.submit server ~client:other ~reply:ignore {|{"job":"mos","j":6}|};
  refused "queue full" "overloaded" (answer ~client:other remembered);
  ignore (Server.run_pending server);
  Server.drain server;
  refused "draining" "draining" (answer remembered);
  let rejected =
    match Json.member "rejected" (Server.stats_json server) with
    | Some r -> r
    | None -> Alcotest.fail "stats lacks rejected object"
  in
  check "client tally" 1 (int_field rejected "client");
  check "overload tally" 1 (int_field rejected "overload");
  check "drain tally" 1 (int_field rejected "drain");
  check "one memo answer" 1 (stats_int server "memo_hits")

(* The stats latency quantiles: nearest-rank, read from the server's
   latency timer, each at or below the same quantile of the latencies the
   caller saw (the server times a request from admission to its answer,
   inside the caller's span, and a quantile is its bucket's lower edge),
   and read identically by the summary line. (The name is older than the
   removal of the two gauges that used to repeat p50 and p99.) *)
let test_stats_latency () =
  with_fresh_cache @@ fun () ->
  let server = Server.create () in
  let seen = ref [] in
  for _ = 1 to 4 do
    List.iter
      (fun j ->
        let t0 = Bfly_obs.Span.now_ns () in
        Server.submit server
          ~reply:(fun _ -> seen := (Bfly_obs.Span.now_ns () - t0) :: !seen)
          (Printf.sprintf {|{"job":"mos","j":%d}|} j);
        ignore (Server.run_pending server))
      [ 2; 3; 4 ]
  done;
  let seen = Array.of_list !seen in
  Array.sort Int.compare seen;
  let stats = Server.stats_json server in
  let lat =
    match Json.member "latency" stats with
    | Some l -> l
    | None -> Alcotest.fail "stats lacks latency object"
  in
  let p50 = int_field lat "p50_ns" and p99 = int_field lat "p99_ns" in
  let max_ns = int_field lat "max_ns" in
  check "count" 12 (int_field lat "count");
  checkb "0 <= p50 <= p99 <= max" true
    (0 <= p50 && p50 <= p99 && p99 <= max_ns);
  checkb "p50 within the caller's" true (p50 <= nearest_rank seen 0.5);
  checkb "p99 within the caller's" true (p99 <= nearest_rank seen 0.99);
  checkb "max within the caller's" true (max_ns <= seen.(11));
  let ms ns = float_of_int ns /. 1e6 in
  Alcotest.(check string)
    "summary"
    (Printf.sprintf
       "served 12 requests in 3 batches (0 coalesced, 9 from memo, 0 rejected, \
        0 errors, p50 %.1fms, p99 %.1fms)"
       (ms p50) (ms p99))
    (Server.summary server)

(* ---- the warm hit path ---- *)

let bw_job ?(restarts = 1) solver n =
  Job.Bw
    { Job.solver; net = Job.Butterfly; n; seed = 7; restarts; max_nodes = None;
      resume = false }

let run_ok spec =
  match Job.run spec with
  | Ok out -> out
  | Error e -> Alcotest.failf "%s: %s" (Job.fingerprint spec) e

(* A verified warm hit costs its lookup plus its checks. Minor words per
   warm Job.run, averaged over 200 calls after one cold run: the
   implementation before these budgets allocated 1,599 (B_8) and 4,291
   (B_32). *)
let test_warm_hit_budget () =
  with_fresh_cache @@ fun () ->
  List.iter
    (fun (n, budget) ->
      let spec = bw_job Job.Ml n in
      let cold = run_ok spec in
      let calls = 200 in
      let w0 = Gc.minor_words () in
      for _ = 1 to calls do
        ignore (Sys.opaque_identity (run_ok spec))
      done;
      let words = (Gc.minor_words () -. w0) /. float_of_int calls in
      checkb
        (Printf.sprintf "bw ml B_%d: %.0f minor words per warm hit <= %d" n words
           budget)
        true
        (words <= float_of_int budget);
      Alcotest.(check string) "warm output = cold output" cold (run_ok spec))
    [ (8, 400); (32, 1_000) ]

(* Every warm heuristic answer is one verified hit: one cache hit, one
   kernel recount (verify-on-hit), no verify failure. A hit path that
   skipped the recount would fail here. *)
let test_warm_hit_verifies () =
  with_fresh_cache @@ fun () ->
  List.iter
    (fun solver ->
      let spec = bw_job ~restarts:2 solver 8 in
      let cold = run_ok spec in
      let before = List.map counter [ "cache.hit"; "cuts.kernel.recounts"; "cache.verify_fail" ] in
      let warm = run_ok spec in
      let after = List.map counter [ "cache.hit"; "cuts.kernel.recounts"; "cache.verify_fail" ] in
      let what = Job.fingerprint spec in
      Alcotest.(check string) (what ^ ": warm = cold") cold warm;
      Alcotest.(check (list int)) (what ^ ": hit, recount, verify_fail deltas")
        [ 1; 1; 0 ] (List.map2 ( - ) after before))
    Job.[ Kl; Fm; Sa; Spectral; Ml ]

(* Expansion answers are validated like bw answers: each witness has k
   members and re-measures to the printed value. Outputs recorded before
   validation was added; exact and annealed, cache off and warm. *)
let test_expansion_answers_validated () =
  let net s = match Job.net_of_string s with Ok n -> n | Error e -> Alcotest.fail e in
  let expected =
    [
      ("butterfly", 8, `Ee, true, "B_8, k=4: EE = 4\n");
      ("butterfly", 8, `Ee, false, "B_8, k=4: EE <= 4\n");
      ("butterfly", 8, `Ne, true, "B_8, k=4: NE = 4\n");
      ("butterfly", 8, `Ne, false, "B_8, k=4: NE <= 4\n");
      ("butterfly", 8, `Both, true, "B_8, k=4: EE = 4, NE = 4\n");
      ("butterfly", 8, `Both, false, "B_8, k=4: EE <= 4, NE <= 4\n");
      ("mesh:3x3", 0, `Ee, true, "mesh:3x3, k=4: EE = 4\n");
      ("mesh:3x3", 0, `Ee, false, "mesh:3x3, k=4: EE <= 4\n");
      ("mesh:3x3", 0, `Ne, true, "mesh:3x3, k=4: NE = 3\n");
      ("mesh:3x3", 0, `Ne, false, "mesh:3x3, k=4: NE <= 3\n");
      ("mesh:3x3", 0, `Both, true, "mesh:3x3, k=4: EE = 4, NE = 3\n");
      ("mesh:3x3", 0, `Both, false, "mesh:3x3, k=4: EE <= 4, NE <= 3\n");
    ]
  in
  let check_all () =
    List.iter
      (fun (network, n, kind, exact, line) ->
        let spec = Job.Expansion { kind; net = net network; n; k = 4; exact; seed = 5 } in
        Alcotest.(check string) (Job.fingerprint spec) line (run_ok spec))
      expected
  in
  let was = Config.enabled () in
  Config.set_enabled false;
  Fun.protect ~finally:(fun () -> Config.set_enabled was) check_all;
  with_fresh_cache (fun () -> check_all (); check_all ());
  (* the check itself: a witness that does not measure to the printed
     value is refused *)
  let g = Bfly_networks.Butterfly.(graph (create ~log_n:3)) in
  let value, witness = Bfly_expansion.Expansion.ee_exact g ~k:4 in
  checkb "a wrong value fails validation" false
    (Bfly_check.Invariants.is_pass
       (Bfly_check.Invariants.expansion_witness ~kind:`Edge g ~k:4
          ~value:(value + 1) ~witness))

(* ---- the admission path ---- *)

(* Ids, messages and outputs holding every byte class the JSON printer
   escapes, and UTF-8 it must pass through. *)
let awkward =
  [ ""; "r1"; "say \"hi\""; "back\\slash"; "ctl \001\031\n\t\r\b\012";
    "utf-8 \xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80"; "\127\255";
    "B_8: BW <= 4 (kl, restarts 1, seed 3)\n" ]

let test_renderers_byte_equal () =
  let old = Json_reference.to_string in
  List.iter
    (fun id ->
      List.iter
        (fun text ->
          List.iter
            (fun batch ->
              Alcotest.(check string) "ok_response"
                (old
                   (Json.Obj
                      [ ("id", Json.Str id); ("ok", Json.Bool true);
                        ("batch", Json.Int batch); ("output", Json.Str text) ]))
                (Protocol.ok_response ~id ~batch ~output:text))
            [ 0; 1; 6; 1_024; max_int ];
          Alcotest.(check string) "error_response"
            (old
               (Json.Obj
                  [ ("id", Json.Str id); ("ok", Json.Bool false); ("error", Json.Str text) ]))
            (Protocol.error_response ~id text))
        awkward;
      let server = Server.create () in
      List.iter
        (fun stats ->
          let fields = match stats with Json.Obj f -> f | v -> [ ("stats", v) ] in
          Alcotest.(check string) "stats_response"
            (old (Json.Obj ([ ("id", Json.Str id); ("ok", Json.Bool true) ] @ fields)))
            (Protocol.stats_response ~id stats))
        [ Server.stats_json server; Json.Obj []; Json.Int 3;
          Json.Obj [ (id, Json.Str id); ("f", Json.Float 0.1) ] ])
    awkward

(* One spec of every kind, pinned: a fingerprint is the coalescing and
   memo key, so a changed string would split twins or join strangers. *)
let test_fingerprint_pins () =
  let net s = match Job.net_of_string s with Ok n -> n | Error e -> Alcotest.fail e in
  let bw ?(seed = 7) ?(restarts = 4) ?max_nodes ?(resume = false) solver network n =
    Job.Bw { solver; net = net network; n; seed; restarts; max_nodes; resume }
  in
  let deadline =
    match Bfly_resil.Budget.of_string "250ms" with Ok b -> Some b | Error e -> Alcotest.fail e
  in
  List.iter
    (fun (deadline, spec, expected) ->
      Alcotest.(check string) expected expected (Job.fingerprint ?deadline spec))
    [
      (None, bw Job.Kl "butterfly" 8,
       "bw.kl/butterfly/8?seed=7&restarts=4&max_nodes=-&resume=false");
      (None, bw Job.Exact "wrapped" 16 ~max_nodes:100,
       "bw.exact/wrapped/16?seed=7&restarts=4&max_nodes=100&resume=false");
      (None, bw Job.Exact "ccc" 8 ~resume:true,
       "bw.exact/ccc/8?seed=7&restarts=4&max_nodes=-&resume=true");
      (deadline, bw Job.Spectral "butterfly" 16 ~seed:(-5) ~restarts:1,
       "bw.spectral/butterfly/16?seed=-5&restarts=1&max_nodes=-&resume=false@0.25s");
      (None, bw Job.Ml "torus:4x4x4" 0 ~seed:123456789,
       "bw.ml/torus:4x4x4/0?seed=123456789&restarts=4&max_nodes=-&resume=false");
      (None, bw Job.Sa "bcube:4x2" 0,
       "bw.sa/bcube:4x2/0?seed=7&restarts=4&max_nodes=-&resume=false");
      (None, bw Job.Fm "product:path2xring3xk4" 0,
       "bw.fm/product:path2xring3xk4/0?seed=7&restarts=4&max_nodes=-&resume=false");
      (None, Job.Expansion { kind = `Ee; net = net "mesh:3x3"; n = 0; k = 4; exact = true; seed = 1 },
       "exp.ee/mesh:3x3/0?k=4&exact=true&seed=1");
      (None, Job.Expansion { kind = `Ne; net = net "wrapped"; n = 8; k = 6; exact = false; seed = 9 },
       "exp.ne/wrapped/8?k=6&exact=false&seed=9");
      (deadline, Job.Expansion { kind = `Both; net = net "butterfly"; n = 8; k = 3; exact = true; seed = 2 },
       "exp.both/butterfly/8?k=3&exact=true&seed=2@0.25s");
      (None, Job.Mos { j = 64 }, "mos/64");
      (None, Job.Check { seed = 42; rounds = 5 }, "check?seed=42&rounds=5");
      (None, Job.Campaign { degree = 3; sizes = [ 32; 64; 1024 ]; seeds = 16 },
       "campaign/3?sizes=32,64,1024&seeds=16");
    ]

(* Every missing, mistyped and capped field, with its message pinned; the
   first bad field in reading order wins, and the served error carries
   the same message. *)
let test_field_errors () =
  List.iter
    (fun (line, expected) ->
      let obj = parse_response line in
      let job = str_field obj "job" in
      let got =
        match Job.of_fields job (fun k -> Json.member k obj) with
        | Ok spec -> "ok " ^ Job.fingerprint spec
        | Error m -> m
      in
      Alcotest.(check string) line expected got;
      match Protocol.parse_request ~default_id:"d" line with
      | Error (m, id) ->
          Alcotest.(check (pair string string)) "served" (expected, "d") (m, id)
      | Ok _ -> Alcotest.(check string) "served" expected got)
    [
      ({|{"job":"bw","solver":1,"network":5}|}, "field \"solver\" must be a string");
      ({|{"job":"bw","solver":"x","network":"butterfly","n":8}|}, "unknown solver \"x\" (exact|kl|fm|sa|spectral|ml)");
      ({|{"job":"bw","solver":"kl"}|}, "field \"network\" is required");
      ({|{"job":"bw","network":5,"n":8}|}, "field \"network\" must be a string");
      ({|{"job":"bw","network":"hypercube","n":8}|}, "unknown network \"hypercube\" (butterfly|wrapped|ccc, or a fabric spec mesh:|torus:|torus3d:|bcube:|product:)");
      ({|{"job":"bw","network":"mesh:0x3"}|}, "Fabric: mesh dimensions must be >= 1");
      ({|{"job":"bw","network":"mesh:3x"}|}, "bad fabric spec \"mesh:3x\" (expected mesh:AxBx.., torus:AxBx.., torus3d:AxBxC, bcube:PORTSxLEVELS, or product:path2xring3xk4)");
      ({|{"job":"bw","network":"torus:4x4","n":16}|}, "field \"n\" must be omitted for fabric networks (the spec fixes the size)");
      ({|{"job":"bw","network":"butterfly"}|}, "field \"n\" is required");
      ({|{"job":"bw","network":"butterfly","n":"8"}|}, "field \"n\" must be an integer");
      ({|{"job":"bw","network":"butterfly","n":8.5}|}, "field \"n\" must be an integer");
      ({|{"job":"bw","network":"butterfly","n":8,"seed":"1"}|}, "field \"seed\" must be an integer");
      ({|{"job":"bw","network":"butterfly","n":8,"restarts":[4]}|}, "field \"restarts\" must be an integer");
      ({|{"job":"bw","network":"butterfly","n":8,"max_nodes":true}|}, "field \"max_nodes\" must be an integer");
      ({|{"job":"bw","network":"butterfly","n":8,"resume":1}|}, "field \"resume\" must be a boolean");
      ({|{"job":"ee","network":"butterfly","n":8}|}, "field \"k\" is required");
      ({|{"job":"ne","network":"butterfly","n":8,"k":"4"}|}, "field \"k\" must be an integer");
      ({|{"job":"expansion","network":"butterfly","n":8,"k":4,"exact":"yes"}|}, "field \"exact\" must be a boolean");
      ({|{"job":"ee","network":"mesh:3x3","k":4,"seed":null}|}, "field \"seed\" must be an integer");
      ({|{"job":"ee","k":4}|}, "field \"network\" is required");
      ({|{"job":"mos"}|}, "field \"j\" is required");
      ({|{"job":"mos","j":{}}|}, "field \"j\" must be an integer");
      ({|{"job":"check","seed":1.5}|}, "field \"seed\" must be an integer");
      ({|{"job":"check","rounds":"5"}|}, "field \"rounds\" must be an integer");
      ({|{"job":"campaign","degree":"3"}|}, "field \"degree\" must be an integer");
      ({|{"job":"campaign","seeds":false}|}, "field \"seeds\" must be an integer");
      ({|{"job":"campaign","sizes":32}|}, "field \"sizes\" must be a list of integers");
      ({|{"job":"campaign","sizes":[32,"64"]}|}, "field \"sizes\" must be a list of integers");
      ({|{"job":"campaign","seeds":17}|}, "field \"seeds\" is capped at 16 when serving");
      ({|{"job":"campaign","sizes":[16,16,16,16,16,16,16,16,16]}|}, "field \"sizes\" is capped at 8 sizes when serving");
      ({|{"job":"campaign","sizes":[32,2048]}|}, "served campaign sizes are capped at n <= 1024");
      ({|{"job":"campaign","seeds":17,"sizes":[2048]}|}, "field \"seeds\" is capped at 16 when serving");
      ({|{"job":"route"}|}, "unknown job \"route\" (bw|mos|ee|ne|expansion|check|campaign|stats)");
      ({|{"job":"bw","network":"butterfly","n":8.0,"seed":-3}|}, "ok bw.exact/butterfly/8?seed=-3&restarts=4&max_nodes=-&resume=false");
    ]

(* A memo answer never calls Job.run: parsing, fingerprinting, the memo
   lookup and the rendered line are all it costs. Minor words per
   Server.submit, averaged over 500 answers after one solve: the
   implementation before these budgets allocated 1,307 (the bw request)
   and 1,119 (the fabric ee request), and a memo answer may take at most
   a quarter of that. *)
let test_memo_answer_budget () =
  with_fresh_cache @@ fun () ->
  let server = Server.create () in
  List.iter
    (fun (line, parent) ->
      let last = ref "" in
      let reply l = last := l in
      Server.submit server ~reply line;
      ignore (Server.run_pending server);
      let solved = parse_response !last in
      let calls = 500 in
      let w0 = Gc.minor_words () in
      for _ = 1 to calls do
        Server.submit server ~reply line
      done;
      let words = (Gc.minor_words () -. w0) /. float_of_int calls in
      let budget = parent / 4 in
      checkb
        (Printf.sprintf "%s: %.0f minor words per memo answer <= %d" line words budget)
        true
        (words <= float_of_int budget);
      let memo = parse_response !last in
      check "a memo answer" 0 (int_field memo "batch");
      Alcotest.(check string) "the solve's output" (str_field solved "output")
        (str_field memo "output"))
    [
      ({|{"id":"q17","job":"bw","solver":"kl","network":"butterfly","n":8,"seed":3,"restarts":1}|}, 1_307);
      ({|{"id":"q18","job":"ee","network":"mesh:4x5","k":3,"exact":true}|}, 1_119);
    ]

(* Descriptor exhaustion ends no server. [Unix.select] fails with EINVAL
   for a descriptor at or above FD_SETSIZE, and before the connection cap
   1,046 idle TCP connections ended [bfly_tool serve] with that error
   (exit 125). Now the cap's 256 idle connections are watched, the ten
   beyond them each get one structured refusal line and are closed, and
   once the idle ones close a fresh client is answered. *)
let test_connection_cap () =
  with_fresh_cache @@ fun () ->
  let server = Server.create () in
  let cap = Transport.max_conns in
  let wait_for what pred =
    let deadline = Unix.gettimeofday () +. 20. in
    while (not (pred ())) && Unix.gettimeofday () < deadline do
      Thread.delay 0.005
    done;
    if not (pred ()) then Alcotest.failf "timed out waiting for %s" what
  in
  let accepted0 = counter "serve.accepted" and refused0 = counter "serve.refused" in
  let gone0 = counter "serve.disconnects" in
  with_server ~server ~listen:`Tcp (fun addr ->
      (* connect in steps the 64-deep listen backlog absorbs *)
      let idle =
        List.concat_map
          (fun step ->
            let fds = List.init 32 (fun _ -> connect addr) in
            wait_for "accepts" (fun () ->
                counter "serve.accepted" - accepted0 >= 32 * (step + 1));
            fds)
          (List.init (cap / 32) Fun.id)
      in
      check "the cap's connections are watched" cap
        (counter "serve.accepted" - accepted0);
      List.iter
        (fun fd ->
          (* a connection wrongly watched must fail the read, not hang it *)
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
          let ic = Unix.in_channel_of_descr fd in
          Alcotest.(check (option string))
            "one refusal line"
            (Some
               (Printf.sprintf
                  {|{"id":"refused","ok":false,"error":"too many connections (%d)"}|}
                  cap))
            (In_channel.input_line ic);
          Alcotest.(check (option string))
            "then closed" None (In_channel.input_line ic);
          Unix.close fd)
        (List.init 10 (fun _ -> connect addr));
      check "ten refused" 10 (counter "serve.refused" - refused0);
      List.iter Unix.close idle;
      wait_for "the idle connections' reaping" (fun () ->
          counter "serve.disconnects" - gone0 >= cap);
      match client_session addr [ {|{"id":"fresh","job":"mos","j":2}|} ] with
      | [ line ] ->
          let obj = parse_response line in
          checkb "a fresh client is answered" true (bool_field obj "ok");
          Alcotest.(check string) "under its id" "fresh" (str_field obj "id")
      | _ -> Alcotest.fail "one answer expected")

let suite =
  [
    slow_case "replay: 120 requests coalesce, bytes match one-shot"
      test_replay_byte_identical;
    case "admission: queue bound rejects with overloaded" test_overload;
    case "deadline degrades exact search to certified interval"
      test_deadline_degrades;
    case "deadline is part of the coalescing key" test_deadline_in_fingerprint;
    case "drain rejects new work, serves stats, finishes queue" test_drain;
    case "parse errors are per-request, server survives" test_parse_errors;
    case "duplicate keys reject the request" test_duplicate_key_rejected;
    case "fabric jobs: byte-identity, n rejected, expansion"
      test_fabric_jobs;
    case "solver errors match the one-shot CLI" test_solver_errors;
    case "stats: two servers keep their own, the process view sums them"
      test_two_servers_own_stats;
    case "graph memo: shared below the size cap, fresh above"
      test_memo_size_cap;
    case "graph memo: fabric spellings are separate entries"
      test_memo_fabric_spellings;
    case "graph memo: evicts at 64 entries" test_memo_count_bound;
    case "graph memo: no job kind mutates a shared graph"
      test_memo_graphs_survive_jobs;
    case "graph memo: four domains get one graph" test_memo_concurrent;
    slow_case "concurrent clients over unix socket: ordered, byte-identical"
      test_concurrent_clients_unix;
    slow_case "concurrent clients over tcp: ordered, byte-identical"
      test_concurrent_clients_tcp;
    slow_case "cold coalescing: concurrent solves = sequential solves"
      test_concurrent_cold_solve_count;
    case "client disconnect mid-batch: counted, server survives"
      test_disconnect_mid_batch;
    case "oversized and garbage lines: structured errors, bounded reads"
      test_oversized_and_garbage;
    case "per-client admission: flooder rejected, others served"
      test_per_client_overload;
    case "chaos: dispatched replay answers everything under injected faults"
      test_chaos_dispatch;
    case "committed traces keep their coalescing keys" test_committed_keys;
    case "memo: a finished twin answers at admission, byte-equal, batch 0"
      test_memo_answer;
    case "memo: deadline, resume, max_nodes and errors solve every repeat"
      test_memo_excludes;
    case "memo: the 1,025th finished job evicts the oldest"
      test_memo_eviction;
    case "memo: nothing remembered or answered with the cache off"
      test_memo_cache_off;
    case "memo: client bound, full queue and drain still refuse"
      test_memo_after_verdicts;
    case "stats: latency quantiles, gauges and summary agree"
      test_stats_latency;
    case "warm hit: minor-word budget for bw ml on B_8 and B_32"
      test_warm_hit_budget;
    case "warm hit: one hit, one recount, no verify failure"
      test_warm_hit_verifies;
    case "expansion answers are validated, outputs unchanged"
      test_expansion_answers_validated;
    case "admission: response lines byte-equal the JSON printer's"
      test_renderers_byte_equal;
    case "admission: fingerprints of every job kind pinned"
      test_fingerprint_pins;
    case "admission: every field error pinned, first error wins"
      test_field_errors;
    case "admission: minor-word budget for a memo answer, bw and fabric ee"
      test_memo_answer_budget;
    slow_case "transport: connections past the cap are refused, not fatal"
      test_connection_cap;
  ]
