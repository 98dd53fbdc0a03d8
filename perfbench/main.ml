(* The benchmark runner: one workload per process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--setup-samples a,b,..] [--setup-only] [--calibrate]

   perfbench/run.py builds this program and starts it with a fresh, empty
   BFLY_CACHE_DIR and BFLY_DOMAINS = nproc. The last line of stdout is the
   result object; the line before it is a report with units, sample
   counts, the environment and the correctness verdict. See README.md. *)

module Job = Bfly_serve.Job
module Server = Bfly_serve.Server
module Dispatch = Bfly_serve.Dispatch
module Protocol = Bfly_serve.Protocol
module Json = Bfly_obs.Json
module Metrics = Bfly_obs.Metrics
module Parallel = Bfly_graph.Parallel
module W = Workloads

(* Taken before anything else runs: process start, as near as OCaml code
   gets to it. *)
let process_start = Bfly_obs.Span.now_ns ()

let now = Bfly_obs.Span.now_ns
let ms ns = float_of_int ns /. 1e6

(* ---- settings fixed once, from the commit that introduced the benchmark ---- *)

(* Offered load of serve-zipf. --calibrate measures the mix's closed-loop
   capacity, two requests in flight and no pacing: about 17,500 requests/s
   on a 2-core VM. The open-loop generator keeps one of the two cores busy,
   and at 8,000 requests/s the backlog already grows into the thousands, so
   4,000 is about half of what the open loop sustains. *)
let serve_rate = 4000.

(* Latency limits behind slo_share: at the introducing commit 90-99% of
   the jobs or requests of each workload meet them. *)
let limit_ms = function
  | "expand-exact" -> 100.
  | "bisect-ml" -> 250.
  | _ -> 3.

(* ---- environment ---- *)

let env name = Option.value ~default:"" (Sys.getenv_opt name)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ---- set-up: inputs, cache directory, domain pool ---- *)

type prepared =
  | Batch of W.batch
  | Serve of W.serve * string array  (** with the wire line of each request *)

let prepare ~workload ~seed ~seconds =
  match workload with
  | "expand-exact" -> Batch (W.expand_exact ~seed)
  | "bisect-ml" -> Batch (W.bisect_ml ~seed)
  | "serve-zipf" ->
      let s = W.serve_zipf ~seed ~rate:serve_rate ~seconds in
      Serve (s, Array.init (Array.length s.schedule) (W.request_line s))
  | w -> invalid_arg ("unknown workload " ^ w)

(* The cache directory must be new: every workload starts cold. *)
let fresh_cache_dir () =
  let dir = Bfly_cache.Config.dir () in
  let fresh = not (Sys.file_exists dir) in
  if fresh then Sys.mkdir dir 0o755;
  fresh

(* Spawn the domain pool before timing: the task pool for the solvers and,
   for serving, the detached workers Dispatch runs on. *)
let warm_up ~serving =
  Parallel.run_tasks (Array.init (2 * Parallel.domain_count ()) (fun _ () -> ()));
  if serving then begin
    let finished = Atomic.make false in
    Parallel.async (fun () -> Atomic.set finished true);
    while not (Atomic.get finished) do
      Domain.cpu_relax ()
    done
  end

let setup ~workload ~seed ~seconds =
  let p = prepare ~workload ~seed ~seconds in
  let fresh = fresh_cache_dir () in
  warm_up ~serving:(match p with Serve _ -> true | Batch _ -> false);
  (p, fresh, float_of_int (now () - process_start) /. 1e9)

(* Point the cache at a new empty directory and drop the memory tier, so a
   second pass over the same jobs misses exactly like the first. *)
let recycle_cache suffix =
  Bfly_cache.Config.set_dir (Bfly_cache.Config.dir () ^ suffix);
  Bfly_cache.Store.reset_memory ();
  ignore (fresh_cache_dir ())

(* ---- registry deltas ---- *)

type delta = {
  counters : (string, int) Hashtbl.t;
  timers : (string, int * int) Hashtbl.t;  (** count, total ns *)
  mutable minor_words : float;
  mutable major_collections : int;
}

let delta () =
  {
    counters = Hashtbl.create 64;
    timers = Hashtbl.create 64;
    minor_words = 0.;
    major_collections = 0;
  }

let snap () = (Metrics.snapshot (), Gc.quick_stat ())

let accumulate d ((m0 : Metrics.snapshot), (g0 : Gc.stat))
    ((m1 : Metrics.snapshot), (g1 : Gc.stat)) =
  let bump tbl k f = Hashtbl.replace tbl k (f (Hashtbl.find_opt tbl k)) in
  List.iter
    (fun (k, v) ->
      let v0 = Option.value ~default:0 (List.assoc_opt k m0.counters) in
      bump d.counters k (fun o -> Option.value ~default:0 o + v - v0))
    m1.counters;
  List.iter
    (fun (k, (t : Metrics.timer_stat)) ->
      let c0, n0 =
        match List.assoc_opt k m0.timers with
        | Some (t0 : Metrics.timer_stat) -> (t0.count, t0.total_ns)
        | None -> (0, 0)
      in
      bump d.timers k (fun o ->
          let c, n = Option.value ~default:(0, 0) o in
          (c + t.count - c0, n + t.total_ns - n0)))
    m1.timers;
  d.minor_words <- d.minor_words +. g1.minor_words -. g0.minor_words;
  d.major_collections <-
    d.major_collections + g1.major_collections - g0.major_collections

let counter d k = Option.value ~default:0 (Hashtbl.find_opt d.counters k)
let timer d k = Option.value ~default:(0, 0) (Hashtbl.find_opt d.timers k)
let timer_ms d k = ms (snd (timer d k))
let ratio a b = if b = 0. then 0. else a /. b

(* ---- closed-loop batch runs ---- *)

type outcome = {
  job : int;  (** index into the batch *)
  result : (string, string) result;
  run_ns : int;  (** the Job.run call *)
  latency_ns : int;  (** from when the job was due: the previous job's return *)
  lag_ns : int;  (** how late the loop started it *)
}

(* Each pass over the job list runs on a fresh cache directory, so a
   repeated job misses like the first time. *)
let next_pass (b : W.batch) i =
  if i > 0 && i mod Array.length b.jobs = 0 then
    recycle_cache (Printf.sprintf "-pass%d" (i / Array.length b.jobs))

(* One job in flight; stops at the first end of a pass after [seconds]. *)
let run_batch (b : W.batch) ~seconds =
  let n = Array.length b.jobs in
  let t0 = now () in
  let stop = t0 + int_of_float (seconds *. 1e9) in
  let due = ref t0 and i = ref 0 and out = ref [] in
  while not (!i mod n = 0 && now () >= stop) do
    next_pass b !i;
    let t1 = now () in
    let result = Job.run b.jobs.(!i mod n).spec in
    let t2 = now () in
    out :=
      { job = !i mod n; result; run_ns = t2 - t1; latency_ns = t2 - !due; lag_ns = t1 - !due }
      :: !out;
    due := t2;
    incr i
  done;
  (Array.of_list (List.rev !out), !due - t0)

(* The same jobs again, with spans and registry deltas around each call:
   a direct Job.graph_of (bfly_networks), the solver called directly with
   the cache off (bfly_expansion / bfly_cuts), then Job.run itself. *)
type traced_job = { build_ns : int; direct_ns : int; direct_minor : float; job_ns : int }

let graph_of_spec (spec : Job.spec) =
  match spec with
  | Bw { net; n; _ } | Expansion { net; n; _ } ->
      Result.to_option (Result.map fst (Job.graph_of net n))
  | Mos _ | Check _ | Campaign _ -> None

let direct (spec : Job.spec) g =
  let module E = Bfly_expansion.Expansion in
  let module H = Bfly_cuts.Heuristics in
  match (spec, g) with
  | Expansion { kind; k; exact = true; _ }, Some g ->
      if kind <> `Ne then ignore (E.ee_exact g ~k);
      if kind <> `Ee then ignore (E.ne_exact g ~k)
  | Bw { solver; seed; restarts; _ }, Some g -> (
      (* the rng Job.run derives from a bw job's seed *)
      let rng = Random.State.make [| 0x5e4e; seed |] in
      match solver with
      | Ml -> ignore (Bfly_cuts.Multilevel.bisect ~rng ~restarts g)
      | Kl -> ignore (H.kernighan_lin ~rng ~restarts g)
      | Fm -> ignore (H.fiduccia_mattheyses ~rng ~restarts g)
      | Sa -> ignore (H.annealing ~rng ~restarts g)
      | Spectral -> ignore (H.spectral g)
      | Exact -> ignore (Bfly_cuts.Exact.bisection_width_supervised g))
  | Mos { j }, _ -> ignore (Bfly_mos.Mos_analysis.convergence_row j)
  | Campaign { degree; sizes; seeds }, _ ->
      ignore (Bfly_check.Campaign.run ~degree ~sizes ~seeds ())
  | _ -> ()

(* Time graph build and direct solve of [spec], outside Job.run. *)
let measure_parts tr ~id ~parent ~cache (spec : Job.spec) =
  let t0 = now () in
  let g = graph_of_spec spec in
  let t1 = now () in
  let q0 = Gc.quick_stat () in
  let solve () = direct spec g in
  if cache then solve () else Checks.without_cache solve;
  let t2 = now () in
  let q1 = Gc.quick_stat () in
  ignore (Tracer.add tr ~parent ~name:"networks.graph_of" ~id ~t0 ~t1:t1 ());
  ignore (Tracer.add tr ~parent ~name:"solver.direct" ~id ~t0:t1 ~t1:t2 ());
  (t1 - t0, t2 - t1, q1.minor_words -. q0.minor_words)

let trace_batch tr d (b : W.batch) (done_ : outcome array) =
  Array.mapi
    (fun i o ->
      next_pass b i;
      let spec = b.jobs.(o.job).spec in
      let t0 = now () in
      let root = Tracer.add tr ~name:"job" ~id:o.job ~t0 ~t1:t0 () in
      let build_ns, direct_ns, direct_minor =
        measure_parts tr ~id:o.job ~parent:root ~cache:false spec
      in
      let s0 = snap () in
      let t1 = now () in
      ignore (Job.run spec);
      let t2 = now () in
      accumulate d s0 (snap ());
      ignore (Tracer.add tr ~parent:root ~name:"job.run" ~id:o.job ~t0:t1 ~t1:t2 ());
      Tracer.close tr root ~t1:(now ())
        ~args:[ ("line", Json.Str b.jobs.(o.job).line) ] ();
      { build_ns; direct_ns; direct_minor; job_ns = t2 - t1 })
    done_

(* ---- open-loop serving ---- *)

type served = {
  sent : int array;  (** when the submit call started *)
  submitted : int array;  (** when it returned *)
  answered : int array;  (** when the reply callback ran *)
  replies : string array;
  parse_ns : int array;  (** direct Protocol.parse_request, traced run only *)
  t0 : int;  (** schedule origin *)
  pending_max : int;
}

(* Requests are sent on schedule from this domain whatever the server's
   state, and timed from when they were due. *)
let run_serve (s : W.serve) lines ~traced =
  let server = Server.create ~queue_bound:1_000_000 ~client_bound:1_000_000 () in
  let clients = [| Server.client ~name:"a" server; Server.client ~name:"b" server |] in
  let dispatch = Dispatch.create ~cap:(Parallel.domain_count ()) server in
  let n = Array.length s.schedule in
  let sent = Array.make n 0 and submitted = Array.make n 0 in
  let answered = Array.make n 0 and replies = Array.make n "" in
  let parse_ns = Array.make n 0 in
  let pending_max = ref 0 in
  let t0 = now () in
  Array.iteri
    (fun i (r : W.request) ->
      let due = t0 + r.due_ns in
      let rec wait () =
        let ahead = due - now () in
        if ahead > 2_000_000 then (
          Unix.sleepf (float_of_int (ahead - 1_000_000) /. 1e9);
          wait ())
        else if ahead > 0 then (
          Domain.cpu_relax ();
          wait ())
      in
      wait ();
      if traced then begin
        let p0 = now () in
        ignore (Protocol.parse_request ~default_id:"" lines.(i));
        parse_ns.(i) <- now () - p0
      end;
      sent.(i) <- now ();
      Server.submit server ~client:clients.(r.client)
        ~reply:(fun line ->
          replies.(i) <- line;
          answered.(i) <- now ())
        lines.(i);
      submitted.(i) <- now ();
      Dispatch.pump dispatch;
      pending_max := max !pending_max (Server.pending server))
    s.schedule;
  Dispatch.wait_idle dispatch;
  { sent; submitted; answered; replies; parse_ns; t0; pending_max = !pending_max }

(* [Ok output] or [Error message] of one reply line. *)
let reply_result ~id line =
  let open Json in
  match of_string line with
  | Error e -> Error ("unparsable reply: " ^ e)
  | Ok v -> (
      match
        ( Option.bind (member "id" v) to_string_opt,
          Option.bind (member "ok" v) to_bool_opt )
      with
      | Some rid, _ when rid <> id -> Error ("reply for " ^ rid)
      | _, Some true -> (
          match Option.bind (member "output" v) to_string_opt with
          | Some out -> Ok out
          | None -> Error "reply without output")
      | _ ->
          Error
            (Option.value ~default:"no reply"
               (Option.bind (member "error" v) to_string_opt)))

(* Closed loop at [Parallel.domain_count ()] requests in flight, no pacing:
   the mix's capacity in requests/s (see serve_rate). *)
let calibrate (s : W.serve) lines =
  let server = Server.create ~queue_bound:1_000_000 ~client_bound:1_000_000 () in
  let dispatch = Dispatch.create server in
  let m = Mutex.create () and c = Condition.create () in
  let in_flight = ref 0 in
  let cap = Parallel.domain_count () in
  let t0 = now () in
  Array.iter
    (fun line ->
      Mutex.lock m;
      while !in_flight >= cap do
        Condition.wait c m
      done;
      incr in_flight;
      Mutex.unlock m;
      Server.submit server
        ~reply:(fun _ ->
          Mutex.lock m;
          decr in_flight;
          Condition.signal c;
          Mutex.unlock m)
        line;
      Dispatch.pump dispatch)
    lines;
  Dispatch.wait_idle dispatch;
  float_of_int (Array.length s.schedule) /. (float_of_int (now () - t0) /. 1e9)

(* ---- reporting ---- *)

(* [extra] goes to the report line only: sample counts and the like. *)
type metric = { name : string; value : float; extra : (string * Json.t) list }

let scalar name value = { name; value; extra = [] }
let counted name value ~samples = { name; value; extra = [ ("samples", Json.Int samples) ] }

(* How many samples a percentile rests on, and whether at least ten lie
   beyond it. *)
let tail_extra ~n ~beyond ~reportable =
  [ ("samples", Json.Int n); ("beyond", Json.Int beyond); ("reportable", Json.Bool reportable) ]

(* A percentile of [xs] (in ns, as ms) per window, summarised by the
   median over windows. [xs] are
   [(t, x)] pairs and window [i] holds those with [i * width <= t <
   (i + 1) * width]. Open-loop serving: half a second of due time, at the
   offered rate 2000 requests, 20 of them beyond its p99; its warm replay:
   20,000 calls, about half a second. Batch: one round
   (t is the job's index), whose jobs are the same slots in every round;
   a percentile over the whole run would sit on the edge between two
   slots' durations and read the slowest of one slot's dozen jobs. *)
let windowed name xs ~pct ~width =
  let v, beyond, per_window =
    Pstats.windowed ~pct ~width (List.map (fun (t, x) -> (t, float_of_int x)) xs)
  in
  {
    name;
    value = v /. 1e6;
    extra =
      tail_extra ~n:(List.length xs) ~beyond ~reportable:(beyond >= Pstats.min_beyond)
      @ [ ("windows_ms", Json.List (List.map (fun x -> Json.Float (x /. 1e6)) per_window)) ];
  }

let metric_json m =
  Json.Obj ([ ("value", Json.Float m.value); ("unit", Json.Str (Decl.unit_of m.name)) ] @ m.extra)

let emit ~report ~correct ~attempted ~failed ~declared metrics =
  let names = List.map (fun m -> m.name) metrics in
  if List.sort compare names <> List.sort compare (List.map fst declared) then
    failwith "emitted metrics differ from the declared ones";
  let report =
    Json.Obj
      (("perfbench", Json.Str "report")
      :: ("metrics", Json.Obj (List.map (fun m -> (m.name, metric_json m)) metrics))
      :: report)
  in
  print_endline (Json.to_string report);
  let result =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun m ->
                 ( m.name,
                   Json.Obj
                     [
                       ("value", Json.Float m.value);
                       ("unit", Json.Str (Decl.unit_of m.name));
                     ] ))
               metrics) );
      ]
  in
  print_endline (Json.to_string result)

(* Per-layer metrics shared by every workload, from registry deltas. *)
let layer_common d ~jobs ~job_ns ~build_ns ~overhead_ns ~lag_p99_ms ~overhead_share =
  let coarsen = timer_ms d "ml.coarsen" and refine = timer_ms d "ml.refine" in
  let hits = counter d "cache.hit" and misses = counter d "cache.miss" in
  let lookups, lookup_ns = timer d "cache.lookup" in
  let stores, store_ns = timer d "cache.store" in
  let scratch_hits = counter d "cuts.kernel.scratch.hits" in
  let scratch_all = scratch_hits + counter d "cuts.kernel.scratch.allocs" in
  let f = float_of_int in
  [
    scalar "ml.coarsen_ms" coarsen;
    scalar "ml.refine_ms" refine;
    scalar "ml.coarsen_share" (ratio coarsen (coarsen +. refine));
    scalar "ml.job_share"
      (ratio (coarsen +. refine) (ms job_ns *. f (Parallel.domain_count ())));
    scalar "ml.levels" (f (counter d "ml.levels"));
    scalar "ml.refine.moves" (f (counter d "ml.refine.moves"));
    scalar "heuristics.kl_ms" (timer_ms d "heuristics.kl");
    scalar "heuristics.fm_ms" (timer_ms d "heuristics.fm");
    scalar "heuristics.sa_ms" (timer_ms d "heuristics.sa");
    scalar "exact.busy_ms" (timer_ms d "exact.bisection_width");
    scalar "exact.bb.nodes" (f (counter d "exact.bb.nodes"));
    scalar "cuts.certificate_ms" (timer_ms d "cuts.certificate");
    scalar "cuts.scratch_hit_ratio" (ratio (f scratch_hits) (f scratch_all));
    scalar "networks.build_ms" (ms build_ns);
    scalar "cache.lookups" (f (hits + misses));
    scalar "cache.hit_ratio" (ratio (f hits) (f (hits + misses)));
    scalar "cache.lookup_us" (ratio (f lookup_ns /. 1e3) (f lookups));
    scalar "cache.store_ms" (ratio (ms store_ns) (f stores));
    scalar "cache.recounts_per_hit" (ratio (f (counter d "cuts.kernel.recounts")) (f hits));
    scalar "cache.verify_fail" (f (counter d "cache.verify_fail"));
    scalar "job.count" (f jobs);
    scalar "job.total_ms" (ms job_ns);
    scalar "job.overhead_ms" (ms overhead_ns);
    scalar "parallel.tasks" (f (counter d "parallel.tasks"));
    scalar "parallel.batches" (f (counter d "parallel.batches"));
    scalar "parallel.async_jobs" (f (counter d "parallel.async_jobs"));
    scalar "parallel.workers_rescued" (f (counter d "parallel.workers_rescued"));
    scalar "gc.minor_words" d.minor_words;
    scalar "gc.major_collections" (f d.major_collections);
    scalar "loadgen.lag_p99_ms" lag_p99_ms;
    scalar "trace.overhead_share" overhead_share;
  ]

let sum f a = Array.fold_left (fun acc x -> acc + f x) 0 a

(* The shares that show a workload stresses the layer it claims to: the
   expansion solver's share of job time on expand-exact, the multilevel
   partitioner's on bisect-ml (its timers add up over domains), and the
   requests served without a solve of their own on serve-zipf. *)
let stress metrics =
  let v name = (List.find (fun m -> m.name = name) metrics).value in
  ( "stress",
    Json.Obj
      [
        ("expansion_share_of_jobs", Json.Float (ratio (v "expansion.busy_ms") (v "job.total_ms")));
        ("ml_share_of_jobs", Json.Float (v "ml.job_share"));
        ("reused_requests", Json.Float (v "serve.reuse_share"));
      ] )

(* One file per workload, the latest traced run's: a served run's trace
   holds hundreds of thousands of spans. *)
let write_trace ~workload ~seed tr =
  let dir = "_perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Printf.sprintf "%s/trace-%s.json" dir workload in
  let oc = open_out path in
  let buf = Buffer.create (1 lsl 20) in
  let meta = [ ("workload", Json.Str workload); ("seed", Json.Int seed) ] in
  Json.to_buffer buf (Tracer.to_chrome ~meta (Tracer.spans tr));
  Buffer.output_buffer oc buf;
  close_out oc;
  path

(* ---- workloads ---- *)

let output_text = function Ok s -> s | Error e -> "error: " ^ e

let run_batch_workload ~workload ~seed ~seconds ~trace ~base_report ~setup_s
    (b : W.batch) =
  let done_, wall_ns = run_batch b ~seconds in
  let n = Array.length done_ in
  let errors = sum (fun o -> if Result.is_ok o.result then 0 else 1) done_ in
  (* untimed cross-check: every output, the enumeration reference on the
     eight smallest exact expansions *)
  let smallest =
    Array.to_list done_
    |> List.map (fun o -> (Checks.subsets b.jobs.(o.job).spec, o.job))
    |> List.filter (fun (c, _) -> c > 0)
    |> List.sort compare
    |> List.filteri (fun i _ -> i < 8)
    |> List.map snd
  in
  let problems =
    Checks.without_cache (fun () ->
        Array.to_list done_
        |> List.filter_map (fun o ->
               match o.result with
               | Error _ -> None
               | Ok out ->
                   Checks.check ~reference:(List.mem o.job smallest)
                     b.jobs.(o.job).spec out))
  in
  let failed = errors + List.length problems in
  let first_round =
    Array.to_list (Array.sub done_ 0 (min n b.round_len))
    |> List.map (fun o -> output_text o.result)
  in
  let report extra =
    base_report
    @ [
        ("outputs_fingerprint", Json.Str (Pstats.Fnv.of_list first_round));
        ("fingerprint_jobs", Json.Int (List.length first_round));
        ("schedule_fingerprint", Json.Str (W.batch_fingerprint b));
        ("error_rate", Json.Float (ratio (float_of_int failed) (float_of_int n)));
        ("problems", Json.List (List.map (fun p -> Json.Str p) problems));
        ("checked_by_reference", Json.Int (List.length smallest));
        ("rounds", Json.Int (n / b.round_len));
        ("jobs_generated", Json.Int (Array.length b.jobs));
        ("passes", Json.Float (float_of_int n /. float_of_int (Array.length b.jobs)));
        ("wall_s", Json.Float (float_of_int wall_ns /. 1e9));
      ]
    @ extra
  in
  let correct = failed = 0 && n > 0 in
  if not trace then begin
    let by_round f = List.mapi (fun i o -> (i, f o)) (Array.to_list done_) in
    let lat = by_round (fun o -> o.latency_ns) and runs = by_round (fun o -> o.run_ns) in
    let width = b.round_len in
    let limit = limit_ms workload *. 1e6 in
    let within =
      sum (fun o -> if Result.is_ok o.result && float_of_int o.latency_ns <= limit then 1 else 0) done_
    in
    emit ~report:(report []) ~correct ~attempted:n ~failed ~declared:Decl.end_to_end
      [
        setup_s;
        scalar "jobs_per_s" (float_of_int (n - errors) /. (float_of_int wall_ns /. 1e9));
        windowed "job_p50_ms" runs ~pct:50 ~width;
        windowed "job_p90_ms" runs ~pct:90 ~width;
        windowed "latency_p50_ms" lat ~pct:50 ~width;
        windowed "latency_p99_ms" lat ~pct:99 ~width;
        counted "slo_share" (ratio (float_of_int within) (float_of_int n)) ~samples:n;
        scalar "peak_rss_mb" (peak_rss_mb ());
      ]
  end
  else begin
    recycle_cache "-traced";
    let tr = Tracer.create () in
    let d = delta () in
    (* the first pass: every job of the list once, which keeps the traced
       run within a few times --seconds *)
    let first = Array.sub done_ 0 (min n (Array.length b.jobs)) in
    let parts = trace_batch tr d b first in
    let job_ns = sum (fun p -> p.job_ns) parts in
    let build_ns = sum (fun p -> p.build_ns) parts in
    let direct_ns = sum (fun p -> p.direct_ns) parts in
    let untraced_ns = sum (fun o -> o.run_ns) first in
    let expansion = Array.map (fun o -> Checks.subsets b.jobs.(o.job).spec > 0) first in
    let pick f = sum Fun.id (Array.mapi (fun i p -> if expansion.(i) then f p else 0) parts) in
    let subsets = sum (fun o -> Checks.subsets b.jobs.(o.job).spec) first in
    let exp_ns = pick (fun p -> p.direct_ns) in
    let exp_minor =
      Array.fold_left ( +. ) 0.
        (Array.mapi (fun i p -> if expansion.(i) then p.direct_minor else 0.) parts)
    in
    let lags = Pstats.sort_floats (Array.to_list (Array.map (fun o -> float_of_int o.lag_ns) done_)) in
    let f = float_of_int in
    let metrics =
      [
        scalar "expansion.subsets" (f subsets);
        scalar "expansion.busy_ms" (ms exp_ns);
        scalar "expansion.ns_per_subset" (ratio (f exp_ns) (f subsets));
        scalar "expansion.minor_words_per_subset" (ratio exp_minor (f subsets));
      ]
      @ layer_common d ~jobs:(Array.length first) ~job_ns ~build_ns
          ~overhead_ns:(job_ns - build_ns - direct_ns)
          ~lag_p99_ms:(Pstats.percentile lags ~pct:99 /. 1e6)
          ~overhead_share:(ratio (f job_ns) (f untraced_ns) -. 1.)
      @ List.map
          (fun name -> scalar name 0.)
          [
            "serve.requests"; "serve.parse_us"; "serve.submit_us"; "serve.batches";
            "serve.coalesce_ratio"; "serve.joined_inflight"; "serve.reuse_share";
            "serve.solve_ms"; "serve.wait_ms"; "serve.pending_max"; "serve.rejected";
          ]
    in
    let path = write_trace ~workload ~seed tr in
    let self = Tracer.summary (Tracer.spans tr) in
    emit
      ~report:(report [ ("trace_file", Json.Str path); ("spans", Json.Obj self); stress metrics ])
      ~correct ~attempted:n ~failed ~declared:Decl.per_layer metrics
  end

(* Job.run on the warm cache, for every request in schedule order, on this
   domain, after the timed window: the service time of the mix once every
   entry is cached (a cache hit, its verify-on-hit recount, rendering).
   Inside the server the same calls run on pool domains, where they cannot
   be timed from outside. The heap is compacted first, so the collector's
   share of these microsecond calls does not depend on where the timed
   window left its cycle. The schedule is replayed [warm_passes] times and
   the calls are returned as [(i, ns)] with [i] counting over all passes:
   one pass takes a few seconds, too short a look at a shared machine
   whose speed changes from one few seconds to the next. *)
let warm_passes = 3

let warm_job_ns (s : W.serve) =
  Gc.compact ();
  let n = Array.length s.schedule in
  List.init (warm_passes * n) (fun i ->
      let spec = s.catalog.(s.schedule.(i mod n).entry).spec in
      let t0 = now () in
      ignore (Job.run spec);
      (i, now () - t0))

let run_serve_workload ~workload ~seed ~trace ~base_report ~setup_s
    (s : W.serve) lines =
  let r = run_serve s lines ~traced:false in
  let n = Array.length s.schedule in
  let results =
    Array.mapi (fun i line -> reply_result ~id:(Printf.sprintf "q%d" i) line) r.replies
  in
  let errors = sum (fun x -> if Result.is_ok x then 0 else 1) results in
  (* every answer for one catalog entry must be the same bytes; each
     distinct entry's answer is checked once *)
  let first = Hashtbl.create 256 in
  let inconsistent = ref [] in
  Array.iteri
    (fun i res ->
      match res with
      | Error _ -> ()
      | Ok out -> (
          let e = s.schedule.(i).entry in
          match Hashtbl.find_opt first e with
          | None -> Hashtbl.add first e out
          | Some o when o <> out ->
              inconsistent := Printf.sprintf "q%d differs from an earlier answer" i :: !inconsistent
          | Some _ -> ()))
    results;
  let problems =
    Checks.without_cache (fun () ->
        Hashtbl.fold
          (fun e out acc ->
            let spec = s.catalog.(e).spec in
            match Checks.check ~reference:(Checks.subsets spec > 0) spec out with
            | Some p -> p :: acc
            | None -> acc)
          first [])
    @ !inconsistent
  in
  let failed = errors + List.length problems in
  let correct = failed = 0 in
  let limit = limit_ms workload *. 1e6 in
  let latency i = r.answered.(i) - (r.t0 + s.schedule.(i).due_ns) in
  let report extra =
    base_report
    @ [
        ( "outputs_fingerprint",
          Json.Str (Pstats.Fnv.of_list (Array.to_list (Array.map output_text results))) );
        ("fingerprint_jobs", Json.Int n);
        ("schedule_fingerprint", Json.Str (W.serve_fingerprint s));
        ("error_rate", Json.Float (ratio (float_of_int failed) (float_of_int n)));
        ("problems", Json.List (List.map (fun p -> Json.Str p) problems));
        ("catalog_entries", Json.Int (Array.length s.catalog));
        ("entries_requested", Json.Int (Hashtbl.length first));
      ]
    @ extra
  in
  let lag_p99 (r : served) =
    let a = Pstats.sort_floats (List.init n (fun i -> float_of_int (r.sent.(i) - (r.t0 + s.schedule.(i).due_ns)))) in
    Pstats.percentile a ~pct:99 /. 1e6
  in
  if not trace then begin
    let last = Array.fold_left max r.t0 r.answered in
    let lat = List.init n (fun i -> (s.schedule.(i).due_ns, latency i)) in
    let warm = warm_job_ns s in
    let within =
      sum Fun.id
        (Array.mapi
           (fun i res -> if Result.is_ok res && float_of_int (latency i) <= limit then 1 else 0)
           results)
    in
    emit
      ~report:(report [ ("lag_p99_ms", Json.Float (lag_p99 r)); ("pending_max", Json.Int r.pending_max) ])
      ~correct ~attempted:n ~failed ~declared:Decl.end_to_end
      [
        setup_s;
        scalar "jobs_per_s" (float_of_int (n - errors) /. (float_of_int (last - r.t0) /. 1e9));
        windowed "job_p50_ms" warm ~pct:50 ~width:20_000;
        windowed "job_p90_ms" warm ~pct:90 ~width:20_000;
        windowed "latency_p50_ms" lat ~pct:50 ~width:500_000_000;
        windowed "latency_p99_ms" lat ~pct:99 ~width:500_000_000;
        counted "slo_share" (ratio (float_of_int within) (float_of_int n)) ~samples:n;
        scalar "peak_rss_mb" (peak_rss_mb ());
      ]
  end
  else begin
    recycle_cache "-traced";
    let d = delta () in
    let s0 = snap () in
    let t = run_serve s lines ~traced:true in
    accumulate d s0 (snap ());
    let tr = Tracer.create () in
    let due i = t.t0 + s.schedule.(i).due_ns in
    (* spans and the replay below cover the first [kept] requests, which
       keeps the trace file to a few tens of MB *)
    let kept = min n 20_000 in
    for i = 0 to kept - 1 do
      let root = Tracer.add tr ~name:"request" ~id:i ~t0:(due i) ~t1:t.answered.(i)
          ~args:[ ("entry", Json.Int s.schedule.(i).entry) ] () in
      let child name t0 t1 = ignore (Tracer.add tr ~parent:root ~name ~id:i ~t0 ~t1 ()) in
      child "loadgen.lag" (due i) (t.sent.(i) - t.parse_ns.(i));
      child "serve.parse" (t.sent.(i) - t.parse_ns.(i)) t.sent.(i);
      child "serve.submit" t.sent.(i) t.submitted.(i);
      child "serve.in_server" t.submitted.(i) t.answered.(i)
    done;
    (* graph build and direct solve per request, after the pass, on the
       warm cache every repeat request was served from *)
    let parts =
      Array.init kept (fun i ->
          let spec = s.catalog.(s.schedule.(i).entry).spec in
          let t0 = now () in
          let root = Tracer.add tr ~name:"request.replay" ~id:i ~t0 ~t1:t0 () in
          let b, dn, _ = measure_parts tr ~id:i ~parent:root ~cache:true spec in
          let t1 = now () in
          ignore (Job.run spec);
          let t2 = now () in
          ignore (Tracer.add tr ~parent:root ~name:"job.run" ~id:i ~t0:t1 ~t1:t2 ());
          Tracer.close tr root ~t1:(now ()) ();
          (b, dn, t2 - t1))
    in
    let f = float_of_int in
    let requests = counter d "serve.requests" and batches = counter d "serve.batches" in
    let lat_n, lat_ns = timer d "serve.latency" and solves, solve_ns = timer d "serve.solve" in
    let rejected =
      counter d "serve.rejected.overload" + counter d "serve.rejected.client"
      + counter d "serve.rejected.drain"
    in
    let median_latency (r : served) =
      Pstats.median (List.init n (fun i -> f (r.answered.(i) - (r.t0 + s.schedule.(i).due_ns))))
    in
    let job_ns = sum (fun (_, _, x) -> x) parts in
    let build_ns = sum (fun (x, _, _) -> x) parts in
    let direct_ns = sum (fun (_, x, _) -> x) parts in
    let metrics =
      [
        scalar "expansion.subsets" 0.;
        scalar "expansion.busy_ms" 0.;
        scalar "expansion.ns_per_subset" 0.;
        scalar "expansion.minor_words_per_subset" 0.;
        scalar "serve.requests" (f requests);
        scalar "serve.parse_us" (ratio (f (sum Fun.id t.parse_ns) /. 1e3) (f n));
        scalar "serve.submit_us"
          (ratio (f (sum Fun.id (Array.init n (fun i -> t.submitted.(i) - t.sent.(i)))) /. 1e3) (f n));
        scalar "serve.batches" (f batches);
        scalar "serve.coalesce_ratio" (ratio (f requests) (f batches));
        scalar "serve.joined_inflight" (f (counter d "serve.joined_inflight"));
        scalar "serve.reuse_share"
          (1. -. ratio (f (min (counter d "cache.miss") batches)) (f requests));
        scalar "serve.solve_ms" (ratio (ms solve_ns) (f solves));
        scalar "serve.wait_ms" (ratio (ms (lat_ns - solve_ns)) (f lat_n));
        scalar "serve.pending_max" (f t.pending_max);
        scalar "serve.rejected" (f rejected);
      ]
      @ layer_common d ~jobs:kept ~job_ns ~build_ns ~overhead_ns:(job_ns - build_ns - direct_ns)
          ~lag_p99_ms:(lag_p99 t)
          ~overhead_share:(ratio (median_latency t) (median_latency r) -. 1.)
    in
    let path = write_trace ~workload ~seed tr in
    emit
      ~report:
        (report
           [
             ("trace_file", Json.Str path);
             ("spans", Json.Obj (Tracer.summary (Tracer.spans tr)));
             stress metrics;
           ])
      ~correct ~attempted:n ~failed ~declared:Decl.per_layer metrics
  end

(* ---- command line ---- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload expand-exact|bisect-ml|serve-zipf --seed N \
     --seconds S --trace 0|1 [--setup-samples a,b,..] [--setup-only] \
     [--calibrate]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | ("--setup-only" | "--calibrate") as flag :: rest -> opts ((flag, "") :: acc) rest
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
        opts ((key, value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = opts [] args in
  let get key = match List.assoc_opt key opts with Some v -> v | None -> usage () in
  let int key = match int_of_string_opt (get key) with Some v -> v | None -> usage () in
  let workload = get "--workload" in
  if not (List.mem workload W.names) then usage ();
  let seed = int "--seed" in
  let seconds =
    match float_of_string_opt (get "--seconds") with
    | Some s when s > 0. -> s
    | _ -> usage ()
  in
  let p, fresh, setup = setup ~workload ~seed ~seconds in
  if List.mem_assoc "--setup-only" opts then
    print_endline (Json.to_string (Json.Obj [ ("setup_s", Json.Float setup) ]))
  else if List.mem_assoc "--calibrate" opts then (
    match p with
    | Serve (s, lines) -> Printf.printf "capacity %.1f requests/s\n" (calibrate s lines)
    | Batch _ -> usage ())
  else begin
    let trace = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
    let extra =
      match List.assoc_opt "--setup-samples" opts with
      | None | Some "" -> []
      | Some l -> List.map float_of_string (String.split_on_char ',' l)
    in
    let setup_all = setup :: extra in
    let setup_s =
      counted "setup_s" (Pstats.median setup_all) ~samples:(List.length setup_all)
    in
    let base_report =
      [
        ("workload", Json.Str workload);
        ( "env",
          Json.Obj
            [
              ("seed", Json.Int seed);
              ("seconds", Json.Float seconds);
              ("trace", Json.Bool trace);
              ("nproc", Json.Str (env "PERFBENCH_NPROC"));
              ("bfly_domains", Json.Str (env "BFLY_DOMAINS"));
              ("domain_count", Json.Int (Parallel.domain_count ()));
              ( "cache",
                Json.Obj
                  [
                    ("enabled", Json.Bool (Bfly_cache.Config.enabled ()));
                    ("fresh_dir", Json.Bool fresh);
                  ] );
              ("ocaml", Json.Str Sys.ocaml_version);
              ("commit", Json.Str (env "PERFBENCH_COMMIT"));
              ( "offered_rate",
                match p with Serve _ -> Json.Float serve_rate | Batch _ -> Json.Null );
              ("latency_limit_ms", Json.Float (limit_ms workload));
            ] );
      ]
    in
    match p with
    | Batch b ->
        run_batch_workload ~workload ~seed ~seconds ~trace ~base_report ~setup_s b
    | Serve (s, lines) ->
        run_serve_workload ~workload ~seed ~trace ~base_report ~setup_s s lines
  end
