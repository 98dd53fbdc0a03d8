module Json = Bfly_obs.Json
module Metrics = Bfly_obs.Metrics
module Span = Bfly_obs.Span
module Fingerprint = Bfly_cache.Fingerprint

let g_qps = Metrics.gauge "serve.qps"

type target = [ `Unix of string | `Tcp of string * int ]
type mode = Concurrent | Sequential | Connect of target

let mode_name = function
  | Concurrent -> "concurrent"
  | Sequential -> "sequential"
  | Connect _ -> "connect"

(* ---- deterministic schedule ---- *)

type event = { client : int; line : string }

(* Traces, schedules and output streams are fingerprinted as one plain
   FNV-1a byte stream each, newline-terminated lines (not cryptographic —
   a drift detector, like bench value documents) *)
let line h l = Fingerprint.bytes (Fingerprint.bytes h l) "\n"

let fingerprint_lines lines =
  Fingerprint.to_hex (List.fold_left line Fingerprint.seed lines)

(* [repeat] rounds over the trace; each round is a seeded permutation of
   the trace lines, and every event is assigned to a seeded client — so
   duplicates of one request interleave across rounds and clients the way
   real concurrent callers look, yet the whole schedule is a pure
   function of (trace, seed, clients, repeat). *)
let schedule ~seed ~clients ~repeat ~trace =
  if clients < 1 then invalid_arg "Loadgen.schedule: clients must be >= 1";
  if repeat < 1 then invalid_arg "Loadgen.schedule: repeat must be >= 1";
  let rng = Random.State.make [| 0x10adee; seed; clients; repeat |] in
  let lines = Array.of_list trace in
  let n = Array.length lines in
  let events = ref [] in
  for _round = 1 to repeat do
    let order = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let tmp = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- tmp
    done;
    Array.iter
      (fun ix ->
        events :=
          { client = Random.State.int rng clients; line = lines.(ix) }
          :: !events)
      order
  done;
  Array.of_list (List.rev !events)

let schedule_fingerprint events =
  Fingerprint.to_hex
    (Array.fold_left
       (fun h ev ->
         line (Fingerprint.bytes h (string_of_int ev.client ^ ":")) ev.line)
       Fingerprint.seed events)

(* A response's fingerprinted payload — its [output] or [error] field,
   never the whole line: the [batch] width field reflects
   timing-dependent coalescing and must not enter a determinism gate —
   and whether it is ok. *)
let payload = function
  | None -> ("none", false)
  | Some line -> (
      match Json.of_string line with
      | Error _ -> ("raw:" ^ line, false)
      | Ok obj ->
          let str k = Option.bind (Json.member k obj) Json.to_string_opt in
          ( (match (str "output", str "error") with
            | Some out, _ -> "o:" ^ out
            | None, Some err -> "e:" ^ err
            | None, None -> "s:stats"),
            Option.bind (Json.member "ok" obj) Json.to_bool_opt = Some true ))

(* ---- pacing ---- *)

let pace ~t_start ~qps i =
  if qps > 0. then begin
    let due = t_start + int_of_float (float_of_int i *. 1e9 /. qps) in
    let now = Span.now_ns () in
    if due > now then Unix.sleepf (float_of_int (due - now) /. 1e9)
  end

(* ---- in-process execution (Concurrent / Sequential) ---- *)

let run_in_process ~latency ~mode ~events ~clients ~qps ~workers ~queue_bound =
  let n = Array.length events in
  let queue_bound =
    match queue_bound with Some b -> b | None -> max 128 (n + 1)
  in
  let server = Server.create ~queue_bound () in
  let handles = Array.init clients (fun _ -> Server.client server) in
  let dispatch =
    match mode with
    | Concurrent -> Some (Dispatch.create ~cap:workers server)
    | _ -> None
  in
  let responses = Array.make n None in
  let t_start = Span.now_ns () in
  Array.iteri
    (fun i ev ->
      pace ~t_start ~qps i;
      let t0 = Span.now_ns () in
      Server.submit server
        ~client:handles.(ev.client)
        ~reply:(fun line ->
          Metrics.record latency ~ns:(Span.now_ns () - t0);
          responses.(i) <- Some line)
        ev.line;
      match dispatch with
      | Some d -> Dispatch.pump d
      | None -> ignore (Server.run_pending server))
    events;
  (match dispatch with
  | Some d ->
      Dispatch.pump d;
      Dispatch.wait_idle d
  | None -> ignore (Server.run_pending server));
  let wall_ns = Span.now_ns () - t_start in
  (responses, wall_ns, Some (Server.stats_json server))

(* ---- external-server execution (Connect) ---- *)

let connect_fd target =
  let domain, addr =
    match target with
    | `Unix path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | `Tcp (host, port) ->
        (Unix.PF_INET, Unix.ADDR_INET (Transport.inet_addr host, port))
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd addr;
     if domain = Unix.PF_INET then Unix.setsockopt fd Unix.TCP_NODELAY true
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let write_line fd line = Transport.write_all fd (line ^ "\n")

(* One real connection per client: a writer (the client thread itself,
   pacing its events against the global schedule clock) plus a reader
   thread relying on the transport's per-connection ordering guarantee —
   response k on a connection answers that connection's request k. Both
   are threads of this domain, so the reader sees the writer's send
   time. *)
let run_connect ~latency ~target ~events ~clients ~qps =
  (* a server that hangs up (a refusal, a crash) must cost that client's
     answers, not the process: writes then fail with EPIPE *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let n = Array.length events in
  let per = Array.make clients [] in
  Array.iteri (fun i ev -> per.(ev.client) <- (i, ev.line) :: per.(ev.client))
    events;
  let per = Array.map List.rev per in
  let responses = Array.make n None in
  let send_ns = Array.make n 0 in
  let t_start = Span.now_ns () in
  let client_thread ci () =
    match per.(ci) with
    | [] -> ()
    | evs -> (
        match connect_fd target with
        | exception _ -> ()
        | fd ->
            let reader =
              Thread.create
                (fun () ->
                  let ic = Unix.in_channel_of_descr fd in
                  List.iter
                    (fun (i, _) ->
                      match In_channel.input_line ic with
                      | Some line ->
                          Metrics.record latency
                            ~ns:(Span.now_ns () - send_ns.(i));
                          responses.(i) <- Some line
                      | None -> ())
                    evs)
                ()
            in
            (try
               List.iter
                 (fun (i, line) ->
                   pace ~t_start ~qps i;
                   send_ns.(i) <- Span.now_ns ();
                   write_line fd line)
                 evs
             with _ -> ());
            (try Unix.shutdown fd Unix.SHUTDOWN_SEND
             with Unix.Unix_error _ -> ());
            Thread.join reader;
            (try Unix.close fd with Unix.Unix_error _ -> ()))
  in
  let threads = List.init clients (fun ci -> Thread.create (client_thread ci) ()) in
  List.iter Thread.join threads;
  let wall_ns = Span.now_ns () - t_start in
  (* a best-effort stats fetch over one extra connection, embedded for
     inspection (excluded from the deterministic view) *)
  let server_stats =
    match connect_fd target with
    | exception _ -> None
    | fd ->
        let stats =
          try
            write_line fd {|{"id":"loadgen-stats","job":"stats"}|};
            let ic = Unix.in_channel_of_descr fd in
            match In_channel.input_line ic with
            | Some line -> (
                match Json.of_string line with Ok j -> Some j | Error _ -> None)
            | None -> None
          with _ -> None
        in
        (try Unix.close fd with Unix.Unix_error _ -> ());
        stats
  in
  (responses, wall_ns, server_stats)

(* ---- the document ---- *)

let schema = "bfly-loadgen/1"

let document ~mode ~seed ~clients ~repeat ~qps ~workers ~trace ~events
    ~responses ~(latency : Metrics.timer_stat) ~wall_ns ~server_stats =
  let n = Array.length events in
  let answered = Array.fold_left (fun a r -> if r <> None then a + 1 else a) 0 responses in
  let payloads = Array.map payload responses in
  let ok = Array.fold_left (fun a (_, ok) -> if ok then a + 1 else a) 0 payloads in
  let achieved_qps =
    if wall_ns <= 0 then 0.
    else float_of_int n /. (float_of_int wall_ns /. 1e9)
  in
  Metrics.set g_qps achieved_qps;
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("mode", Json.Str (mode_name mode));
      ("seed", Json.Int seed);
      ("clients", Json.Int clients);
      ("repeat", Json.Int repeat);
      ("qps_target", Json.Float qps);
      ("workers", Json.Int workers);
      ("trace_fingerprint", Json.Str (fingerprint_lines trace));
      ("schedule_fingerprint", Json.Str (schedule_fingerprint events));
      ("requests", Json.Int n);
      ("responses", Json.Int answered);
      ("ok", Json.Int ok);
      ("errors", Json.Int (n - ok));
      ( "outputs_fingerprint",
        Json.Str
          (Fingerprint.to_hex
             (Array.fold_left (fun h (p, _) -> line h p) Fingerprint.seed payloads)) );
      ( "timing",
        Json.Obj
          [
            ("wall_ns", Json.Int wall_ns);
            ("achieved_qps", Json.Float achieved_qps);
            ("p50_ns", Json.Int latency.p50_ns);
            ("p90_ns", Json.Int latency.p90_ns);
            ("p99_ns", Json.Int latency.p99_ns);
            ("max_ns", Json.Int latency.max_ns);
          ] );
      ( "server",
        match server_stats with Some s -> s | None -> Json.Null );
    ]

let run ?(seed = 1) ?(clients = 4) ?(repeat = 10) ?(qps = 0.) ?workers
    ?queue_bound ?(mode = Concurrent) ~trace () =
  let trace = List.filter (fun l -> String.trim l <> "") trace in
  if trace = [] then Error "loadgen: empty trace"
  else begin
    let workers =
      match workers with
      | Some w when w >= 1 -> w
      | Some _ -> 1
      | None -> Bfly_graph.Parallel.domain_count ()
    in
    let events = schedule ~seed ~clients ~repeat ~trace in
    (* every answered request, timed from its submission (or send) to its
       answer, in this run's own registry *)
    let latency = Metrics.timer ~registry:(Metrics.registry ()) "loadgen.latency" in
    match
      match mode with
      | Connect target -> run_connect ~latency ~target ~events ~clients ~qps
      | _ ->
          run_in_process ~latency ~mode ~events ~clients ~qps ~workers
            ~queue_bound
    with
    | exception e -> Error ("loadgen: " ^ Printexc.to_string e)
    | responses, wall_ns, server_stats ->
        Ok
          (document ~mode ~seed ~clients ~repeat ~qps ~workers ~trace ~events
             ~responses ~latency:(Metrics.timer_stat latency) ~wall_ns
             ~server_stats)
  end

(* ---- views and comparison ---- *)

let deterministic_view doc =
  match doc with
  | Json.Obj fields ->
      Json.Obj
        (List.filter
           (fun (k, _) -> k <> "timing" && k <> "server")
           fields)
  | other -> other

(* the fields two runs of one (trace, seed, clients, repeat) must agree
   on whatever the mode, worker count or machine: the schedule and the
   response payloads. [workers]/[mode] are intentionally absent — output
   bytes not depending on them is the concurrency contract. *)
let deterministic_fields =
  [
    "schema";
    "seed";
    "clients";
    "repeat";
    "trace_fingerprint";
    "schedule_fingerprint";
    "requests";
    "responses";
    "ok";
    "errors";
    "outputs_fingerprint";
  ]

let field_str doc k =
  match Json.member k doc with
  | Some (Json.Str s) -> Some s
  | Some (Json.Int i) -> Some (string_of_int i)
  | Some (Json.Float f) -> Some (string_of_float f)
  | Some (Json.Bool b) -> Some (string_of_bool b)
  | _ -> None

let timing_field doc k =
  match Json.member "timing" doc with
  | Some t -> (
      match Json.member k t with
      | Some (Json.Int i) -> Some (float_of_int i)
      | Some (Json.Float f) -> Some f
      | _ -> None)
  | None -> None

let compare_docs ?(slack = 3.0) ?(timing = true) ~baseline current =
  let drifts = ref [] in
  let drift fmt = Printf.ksprintf (fun m -> drifts := m :: !drifts) fmt in
  List.iter
    (fun k ->
      match (field_str baseline k, field_str current k) with
      | Some b, Some c when b = c -> ()
      | Some b, Some c -> drift "%s: baseline %s, current %s" k b c
      | None, _ -> drift "%s: missing from baseline" k
      | _, None -> drift "%s: missing from current document" k)
    deterministic_fields;
  if timing then begin
    (match (timing_field baseline "p99_ns", timing_field current "p99_ns") with
    | Some b, Some c when b > 0. && c > b *. slack ->
        drift "p99_ns: %.0f exceeds baseline %.0f by more than %.1fx" c b slack
    | _ -> ());
    match
      (timing_field baseline "achieved_qps", timing_field current "achieved_qps")
    with
    | Some b, Some c when b > 0. && c < b /. slack ->
        drift "achieved_qps: %.1f is below baseline %.1f by more than %.1fx" c
          b slack
    | _ -> ()
  end;
  List.rev !drifts
