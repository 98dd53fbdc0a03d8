module Json = Bfly_obs.Json
module Metrics = Bfly_obs.Metrics
module Span = Bfly_obs.Span

(* process-wide metrics (shared across servers in one process) *)
let c_requests = Metrics.counter "serve.requests"
let c_responses = Metrics.counter "serve.responses"
let c_batches = Metrics.counter "serve.batches"
let c_coalesced = Metrics.counter "serve.coalesced"
let c_joined = Metrics.counter "serve.joined_inflight"
let c_memo_hits = Metrics.counter "serve.memo_hits"
let c_rejected_overload = Metrics.counter "serve.rejected.overload"
let c_rejected_client = Metrics.counter "serve.rejected.client"
let c_rejected_drain = Metrics.counter "serve.rejected.drain"
let c_parse_error = Metrics.counter "serve.parse_error"
let c_errors = Metrics.counter "serve.errors"
let g_queue_depth = Metrics.gauge "serve.queue_depth"
let g_batch_width = Metrics.gauge "serve.batch_width"
let g_inflight = Metrics.gauge "serve.concurrency"
let g_inflight_max = Metrics.gauge "serve.concurrency.max"
let g_p50 = Metrics.gauge "serve.latency.p50_ns"
let g_p99 = Metrics.gauge "serve.latency.p99_ns"
let t_solve = Metrics.timer "serve.solve"
let t_latency = Metrics.timer "serve.latency"

type client = {
  cname : string;
  climit : int;
  mutable active : int; (* admitted, unanswered job requests; under lock *)
}

type t = {
  queue_bound : int;
  client_bound : int;
  batcher : Batcher.t;
  latency : Latency.t;
  lock : Mutex.t;
  (* per-server tallies, reported by [stats_json]; all guarded by [lock]
     — [execute_batch] mutates them from pool domains *)
  mutable requests : int;
  mutable responses : int;
  mutable batches : int;
  mutable coalesced : int;
  mutable joined : int;
  mutable memo_hits : int;
  mutable inflight : int;
  mutable rejected_overload : int;
  mutable rejected_client : int;
  mutable rejected_drain : int;
  mutable parse_errors : int;
  mutable errors : int;
  seq : int Atomic.t;  (** source of default request ids *)
  mutable draining : bool;  (** written from signal handlers; latches *)
}

let env_bound var default =
  match Sys.getenv_opt var with
  | Some s when String.trim s <> "" -> (
      match int_of_string_opt (String.trim s) with
      | Some k when k > 0 -> k
      | _ -> default)
  | _ -> default

let default_queue_bound () = env_bound "BFLY_SERVE_QUEUE" 128

let create ?queue_bound ?client_bound () =
  let queue_bound =
    match queue_bound with Some k -> k | None -> default_queue_bound ()
  in
  if queue_bound < 1 then
    invalid_arg "Server.create: queue_bound must be >= 1";
  let client_bound =
    match client_bound with
    | Some k -> k
    | None -> env_bound "BFLY_SERVE_CLIENT_QUEUE" queue_bound
  in
  if client_bound < 1 then
    invalid_arg "Server.create: client_bound must be >= 1";
  {
    queue_bound;
    client_bound;
    batcher = Batcher.create ();
    latency = Latency.create ();
    lock = Mutex.create ();
    requests = 0;
    responses = 0;
    batches = 0;
    coalesced = 0;
    joined = 0;
    memo_hits = 0;
    inflight = 0;
    rejected_overload = 0;
    rejected_client = 0;
    rejected_drain = 0;
    parse_errors = 0;
    errors = 0;
    seq = Atomic.make 0;
    draining = false;
  }

let queue_bound t = t.queue_bound
let client_bound t = t.client_bound

let client ?name ?limit t =
  {
    cname = Option.value name ~default:"client";
    climit =
      (match limit with
      | Some k when k >= 1 -> k
      | Some _ -> invalid_arg "Server.client: limit must be >= 1"
      | None -> t.client_bound);
    active = 0;
  }

let locked t f = Mutex.protect t.lock f

(* [drain] must stay callable from a signal handler, where taking a mutex
   the interrupted code may already hold would self-deadlock; a latching
   boolean write is atomic enough for a flag that only ever goes up. *)
let drain t = t.draining <- true
let draining t = t.draining

(* Both run after every submission (a transport sizes its dispatch with
   them), so they take the lock directly instead of through a closure. *)
let pending t =
  Mutex.lock t.lock;
  let n = Batcher.pending_requests t.batcher in
  Mutex.unlock t.lock;
  n

let queued_batches t =
  Mutex.lock t.lock;
  let n = Batcher.pending_batches t.batcher in
  Mutex.unlock t.lock;
  n

(* p50 and p99 of a window copied under the lock: the sort runs outside
   it, so a [stats] request never stalls admission or batch completion *)
let p50_p99 window =
  Array.sort Int.compare window;
  (Latency.quantile window 0.5, Latency.quantile window 0.99)

let stats_json t =
  let ( requests, responses, batches, coalesced, joined, memo_hits, inflight,
        rejected_overload, rejected_client, rejected_drain, parse_errors,
        errors, q, b, lat_count, lat_max, window ) =
    locked t (fun () ->
        ( t.requests,
          t.responses,
          t.batches,
          t.coalesced,
          t.joined,
          t.memo_hits,
          t.inflight,
          t.rejected_overload,
          t.rejected_client,
          t.rejected_drain,
          t.parse_errors,
          t.errors,
          Batcher.pending_requests t.batcher,
          Batcher.pending_batches t.batcher,
          Latency.count t.latency,
          Latency.max_ns t.latency,
          Latency.window t.latency ))
  in
  let p50, p99 = p50_p99 window in
  Metrics.set g_p50 (float_of_int p50);
  Metrics.set g_p99 (float_of_int p99);
  Json.Obj
    [
      ("requests", Json.Int requests);
      ("responses", Json.Int responses);
      ("batches", Json.Int batches);
      ("coalesced", Json.Int coalesced);
      ("joined", Json.Int joined);
      ("memo_hits", Json.Int memo_hits);
      ("inflight", Json.Int inflight);
      ( "rejected",
        Json.Obj
          [
            ("overload", Json.Int rejected_overload);
            ("client", Json.Int rejected_client);
            ("drain", Json.Int rejected_drain);
          ] );
      ("parse_errors", Json.Int parse_errors);
      ("errors", Json.Int errors);
      ("queue_depth", Json.Int q);
      ("pending_batches", Json.Int b);
      ("queue_bound", Json.Int t.queue_bound);
      ("client_bound", Json.Int t.client_bound);
      ("draining", Json.Bool t.draining);
      ( "latency",
        Json.Obj
          [
            ("count", Json.Int lat_count);
            ("p50_ns", Json.Int p50);
            ("p99_ns", Json.Int p99);
            ("max_ns", Json.Int lat_max);
          ] );
      ( "cache",
        Json.Obj
          [
            ( "hit",
              Json.Int (Metrics.counter_value (Metrics.counter "cache.hit")) );
            ( "miss",
              Json.Int (Metrics.counter_value (Metrics.counter "cache.miss")) );
          ] );
    ]

(* One response line, answered on the calling thread: its tallies are
   bumped under one lock acquisition, then [reply] runs outside it. *)
let respond t ~reply line tally =
  Mutex.lock t.lock;
  t.responses <- t.responses + 1;
  (match tally with
  | `Parse_error ->
      t.requests <- t.requests + 1;
      t.parse_errors <- t.parse_errors + 1
  | `Stats -> ()
  | `Drain -> t.rejected_drain <- t.rejected_drain + 1
  | `Overload -> t.rejected_overload <- t.rejected_overload + 1
  | `Client -> t.rejected_client <- t.rejected_client + 1
  | `Memo ns ->
      t.memo_hits <- t.memo_hits + 1;
      Latency.record t.latency ~ns);
  Mutex.unlock t.lock;
  Metrics.incr c_responses;
  reply line

(* The admission verdict on a parsed job request, taken under the lock:
   it counts the request, then rejects it, answers it from the memo of
   finished outputs, or queues it (tallying a coalesced one). *)
let admit t client ~id ~reply ~fp ~spec ~deadline =
  t.requests <- t.requests + 1;
  if t.draining then `Draining
  else if Batcher.pending_requests t.batcher >= t.queue_bound then `Overloaded
  else
    match client with
    | Some c when c.active >= c.climit -> `Client_overloaded
    | _ -> (
        let t0 = Span.now_ns () in
        match Batcher.recall t.batcher ~fp ~spec ~deadline with
        | Some output -> `Remembered (output, t0)
        | None ->
            let release =
              match client with
              | None -> fun () -> ()
              | Some c ->
                  c.active <- c.active + 1;
                  fun () -> c.active <- c.active - 1
            in
            (match
               Batcher.add t.batcher ~fp ~spec ~deadline
                 { Batcher.id; reply; t0; release }
             with
            | `New -> ()
            | `Coalesced ->
                Metrics.incr c_coalesced;
                t.coalesced <- t.coalesced + 1
            | `Joined ->
                Metrics.incr c_coalesced;
                Metrics.incr c_joined;
                t.coalesced <- t.coalesced + 1;
                t.joined <- t.joined + 1);
            Metrics.set g_queue_depth
              (float_of_int (Batcher.pending_requests t.batcher));
            `Queued)

(* A memo answer takes the lock twice: once in [admit], once in
   [respond]. The default id's sequence number is an atomic, so it needs
   no lock of its own. *)
let submit t ?client ~reply line =
  Metrics.incr c_requests;
  let default_id = "r" ^ Json.decimal (Atomic.fetch_and_add t.seq 1 + 1) in
  match Protocol.parse_request ~default_id line with
  | Error (msg, id) ->
      Metrics.incr c_parse_error;
      respond t ~reply (Protocol.error_response ~id msg) `Parse_error
  | Ok { id; payload = Protocol.Stats } ->
      (* counted before [stats_json] reads the tallies, which it does
         under the lock itself *)
      locked t (fun () -> t.requests <- t.requests + 1);
      let stats = stats_json t in
      respond t ~reply (Protocol.stats_response ~id stats) `Stats
  | Ok { id; payload = Protocol.Job { spec; deadline } } -> (
      let fp = Job.fingerprint ?deadline spec in
      let verdict =
        Mutex.lock t.lock;
        match admit t client ~id ~reply ~fp ~spec ~deadline with
        | v ->
            Mutex.unlock t.lock;
            v
        | exception e ->
            Mutex.unlock t.lock;
            raise e
      in
      match verdict with
      | `Queued -> ()
      | `Remembered (output, t0) ->
          (* a finished twin's output, answered without queueing: it is
             bytes this server's own Job.run produced *)
          let line = Protocol.ok_response ~id ~batch:0 ~output in
          let ns = Span.now_ns () - t0 in
          Metrics.incr c_memo_hits;
          Metrics.record t_latency ~ns;
          respond t ~reply line (`Memo ns)
      | `Draining ->
          Metrics.incr c_rejected_drain;
          respond t ~reply (Protocol.error_response ~id "draining") `Drain
      | `Overloaded ->
          Metrics.incr c_rejected_overload;
          respond t ~reply (Protocol.error_response ~id "overloaded") `Overload
      | `Client_overloaded ->
          (* same wire verdict as the global bound — the client's remedy
             (back off and retry) is the same — but tallied separately,
             because one client at its bound must not look like server
             saturation *)
          Metrics.incr c_rejected_client;
          respond t ~reply (Protocol.error_response ~id "overloaded") `Client)

let take_batch t =
  locked t (fun () ->
      match Batcher.next t.batcher with
      | None -> None
      | Some b ->
          t.batches <- t.batches + 1;
          Metrics.incr c_batches;
          t.inflight <- t.inflight + 1;
          Metrics.set g_inflight (float_of_int t.inflight);
          Metrics.set_max g_inflight_max (float_of_int t.inflight);
          Metrics.set g_queue_depth
            (float_of_int (Batcher.pending_requests t.batcher));
          Some b)

let execute_batch t (batch : Batcher.batch) =
  let result =
    Span.time t_solve (fun () ->
        try Job.run ?deadline:batch.Batcher.deadline batch.Batcher.spec
        with exn ->
          (* a solver bug must cost one response, not the server *)
          Error ("solver raised: " ^ Printexc.to_string exn))
  in
  let finish_ns = Span.now_ns () in
  (* close the batch out under the lock: collect the waiters (joiners
     included), release their admission slots, and account the tallies
     and latencies — then answer outside the lock, since [reply] may
     block on a slow client socket *)
  let waiters =
    locked t (fun () ->
        let ws = Batcher.finish t.batcher batch result in
        t.inflight <- t.inflight - 1;
        Metrics.set g_inflight (float_of_int t.inflight);
        Metrics.set g_batch_width (float_of_int (List.length ws));
        Metrics.set g_queue_depth
          (float_of_int (Batcher.pending_requests t.batcher));
        List.iter
          (fun (w : Batcher.waiter) ->
            w.release ();
            t.responses <- t.responses + 1;
            (match result with
            | Error _ -> t.errors <- t.errors + 1
            | Ok _ -> ());
            let ns = finish_ns - w.t0 in
            Latency.record t.latency ~ns;
            Metrics.record t_latency ~ns)
          ws;
        ws)
  in
  let width = List.length waiters in
  List.iter
    (fun { Batcher.id; reply; _ } ->
      Metrics.incr c_responses;
      let line =
        match result with
        | Ok output -> Protocol.ok_response ~id ~batch:width ~output
        | Error msg ->
            Metrics.incr c_errors;
            Protocol.error_response ~id msg
      in
      reply line)
    waiters

let run_next t =
  match take_batch t with
  | None -> false
  | Some batch ->
      execute_batch t batch;
      true

let run_pending t =
  let n = ref 0 in
  while run_next t do incr n done;
  !n

let summary t =
  let requests, batches, coalesced, memo_hits, rejected, errors, window =
    locked t (fun () ->
        ( t.requests,
          t.batches,
          t.coalesced,
          t.memo_hits,
          t.rejected_overload + t.rejected_client + t.rejected_drain,
          t.errors,
          Latency.window t.latency ))
  in
  let p50, p99 = p50_p99 window in
  let ms ns = float_of_int ns /. 1e6 in
  Printf.sprintf
    "served %d requests in %d batches (%d coalesced, %d from memo, %d \
     rejected, %d errors, p50 %.1fms, p99 %.1fms)"
    requests batches coalesced memo_hits rejected errors (ms p50) (ms p99)
