module Json = Bfly_obs.Json
module Metrics = Bfly_obs.Metrics
module Span = Bfly_obs.Span

(* process-wide gauges (last write wins across servers) *)
let g_queue_depth = Metrics.gauge "serve.queue_depth"
let g_batch_width = Metrics.gauge "serve.batch_width"
let g_inflight = Metrics.gauge "serve.concurrency"
let g_inflight_max = Metrics.gauge "serve.concurrency.max"

type client = {
  climit : int;
  mutable active : int; (* admitted, unanswered job requests; under lock *)
}

type t = {
  queue_bound : int;
  client_bound : int;
  batcher : Batcher.t;
  lock : Mutex.t;
  mutable inflight : int;  (** batches being solved; under [lock] *)
  seq : int Atomic.t;  (** source of default request ids *)
  mutable draining : bool;  (** written from signal handlers; latches *)
  (* this server's events, each recorded once into its own registry *)
  requests : Metrics.counter;
  responses : Metrics.counter;
  batches : Metrics.counter;
  coalesced : Metrics.counter;
  joined : Metrics.counter;
  memo_hits : Metrics.counter;
  rejected_overload : Metrics.counter;
  rejected_client : Metrics.counter;
  rejected_drain : Metrics.counter;
  parse_errors : Metrics.counter;
  errors : Metrics.counter;
  latency : Metrics.timer;  (** per request, admission to answer *)
  solve : Metrics.timer;  (** per batch *)
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
  let registry = Metrics.registry () in
  let c = Metrics.counter ~registry and tm = Metrics.timer ~registry in
  {
    queue_bound;
    client_bound;
    batcher = Batcher.create ();
    lock = Mutex.create ();
    inflight = 0;
    seq = Atomic.make 0;
    draining = false;
    requests = c "serve.requests";
    responses = c "serve.responses";
    batches = c "serve.batches";
    coalesced = c "serve.coalesced";
    joined = c "serve.joined_inflight";
    memo_hits = c "serve.memo_hits";
    rejected_overload = c "serve.rejected.overload";
    rejected_client = c "serve.rejected.client";
    rejected_drain = c "serve.rejected.drain";
    parse_errors = c "serve.parse_error";
    errors = c "serve.errors";
    latency = tm "serve.latency";
    solve = tm "serve.solve";
  }

let client ?name:_ ?limit t =
  {
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

let stats_json t =
  let inflight, q, b =
    locked t (fun () ->
        ( t.inflight,
          Batcher.pending_requests t.batcher,
          Batcher.pending_batches t.batcher ))
  in
  let n c = Json.Int (Metrics.counter_value c) in
  let lat = Metrics.timer_stat t.latency in
  Json.Obj
    [
      ("requests", n t.requests);
      ("responses", n t.responses);
      ("batches", n t.batches);
      ("coalesced", n t.coalesced);
      ("joined", n t.joined);
      ("memo_hits", n t.memo_hits);
      ("inflight", Json.Int inflight);
      ( "rejected",
        Json.Obj
          [
            ("overload", n t.rejected_overload);
            ("client", n t.rejected_client);
            ("drain", n t.rejected_drain);
          ] );
      ("parse_errors", n t.parse_errors);
      ("errors", n t.errors);
      ("queue_depth", Json.Int q);
      ("pending_batches", Json.Int b);
      ("queue_bound", Json.Int t.queue_bound);
      ("client_bound", Json.Int t.client_bound);
      ("draining", Json.Bool t.draining);
      ( "latency",
        Json.Obj
          [
            ("count", Json.Int lat.count);
            ("p50_ns", Json.Int lat.p50_ns);
            ("p99_ns", Json.Int lat.p99_ns);
            ("max_ns", Json.Int lat.max_ns);
          ] );
      ( "cache",
        Json.Obj
          [
            ("hit", n (Metrics.counter "cache.hit"));
            ("miss", n (Metrics.counter "cache.miss"));
          ] );
    ]

(* Every response line goes out through here, counted once. *)
let respond t ~reply line =
  Metrics.incr t.responses;
  reply line

(* The admission verdict on a parsed job request, taken under the lock:
   it rejects the request, answers it from the memo of finished outputs,
   or queues it (tallying a coalesced one). *)
let admit t client ~id ~reply ~fp ~spec ~deadline =
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
            | `Coalesced -> Metrics.incr t.coalesced
            | `Joined ->
                Metrics.incr t.coalesced;
                Metrics.incr t.joined);
            Metrics.set g_queue_depth
              (float_of_int (Batcher.pending_requests t.batcher));
            `Queued)

(* A memo answer takes the lock once, in [admit]: its counters, its
   latency and the default id's sequence number are atomics. *)
let submit t ?client ~reply line =
  Metrics.incr t.requests;
  let default_id = "r" ^ Json.decimal (Atomic.fetch_and_add t.seq 1 + 1) in
  match Protocol.parse_request ~default_id line with
  | Error (msg, id) ->
      Metrics.incr t.parse_errors;
      respond t ~reply (Protocol.error_response ~id msg)
  | Ok { id; payload = Protocol.Stats } ->
      respond t ~reply (Protocol.stats_response ~id (stats_json t))
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
          Metrics.record t.latency ~ns:(Span.now_ns () - t0);
          Metrics.incr t.memo_hits;
          respond t ~reply line
      | `Draining ->
          Metrics.incr t.rejected_drain;
          respond t ~reply (Protocol.error_response ~id "draining")
      | `Overloaded ->
          Metrics.incr t.rejected_overload;
          respond t ~reply (Protocol.error_response ~id "overloaded")
      | `Client_overloaded ->
          (* same wire verdict as the global bound — the client's remedy
             (back off and retry) is the same — but tallied separately,
             because one client at its bound must not look like server
             saturation *)
          Metrics.incr t.rejected_client;
          respond t ~reply (Protocol.error_response ~id "overloaded"))

let take_batch t =
  locked t (fun () ->
      match Batcher.next t.batcher with
      | None -> None
      | Some b ->
          Metrics.incr t.batches;
          t.inflight <- t.inflight + 1;
          Metrics.set g_inflight (float_of_int t.inflight);
          Metrics.set_max g_inflight_max (float_of_int t.inflight);
          Metrics.set g_queue_depth
            (float_of_int (Batcher.pending_requests t.batcher));
          Some b)

let execute_batch t (batch : Batcher.batch) =
  let result =
    Span.time t.solve (fun () ->
        try Job.run ?deadline:batch.Batcher.deadline batch.Batcher.spec
        with exn ->
          (* a solver bug must cost one response, not the server *)
          Error ("solver raised: " ^ Printexc.to_string exn))
  in
  let finish_ns = Span.now_ns () in
  (* close the batch out under the lock: collect the waiters (joiners
     included) and release their admission slots — then time and answer
     each outside the lock, since [reply] may block on a slow client
     socket *)
  let waiters =
    locked t (fun () ->
        let ws = Batcher.finish t.batcher batch result in
        t.inflight <- t.inflight - 1;
        Metrics.set g_inflight (float_of_int t.inflight);
        Metrics.set g_batch_width (float_of_int (List.length ws));
        Metrics.set g_queue_depth
          (float_of_int (Batcher.pending_requests t.batcher));
        List.iter (fun (w : Batcher.waiter) -> w.release ()) ws;
        ws)
  in
  let width = List.length waiters in
  List.iter
    (fun { Batcher.id; reply; t0; _ } ->
      Metrics.record t.latency ~ns:(finish_ns - t0);
      let line =
        match result with
        | Ok output -> Protocol.ok_response ~id ~batch:width ~output
        | Error msg ->
            Metrics.incr t.errors;
            Protocol.error_response ~id msg
      in
      respond t ~reply line)
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
  let n = Metrics.counter_value in
  let lat = Metrics.timer_stat t.latency in
  let ms ns = float_of_int ns /. 1e6 in
  Printf.sprintf
    "served %d requests in %d batches (%d coalesced, %d from memo, %d \
     rejected, %d errors, p50 %.1fms, p99 %.1fms)"
    (n t.requests) (n t.batches) (n t.coalesced) (n t.memo_hits)
    (n t.rejected_overload + n t.rejected_client + n t.rejected_drain)
    (n t.errors) (ms lat.p50_ns) (ms lat.p99_ns)
