(* One single-threaded [select] loop owns every file descriptor: it
   accepts, reads, and reaps. Solves run elsewhere — Dispatch puts
   batches on the domain pool — and deliver their responses through
   per-connection sequence numbers, so the loop never blocks on a solver
   and a client never observes responses out of request order. *)

module Metrics = Bfly_obs.Metrics

let c_accepted = Metrics.counter "serve.accepted"
let c_disconnects = Metrics.counter "serve.disconnects"
let c_write_fail = Metrics.counter "serve.write_fail"
let c_write_drop = Metrics.counter "serve.write_drop"
let c_oversized = Metrics.counter "serve.oversized"
let c_refused = Metrics.counter "serve.refused"
let c_accept_paused = Metrics.counter "serve.accept_paused"

let default_max_line = 262144

let max_conns = 256

(* [select] fails with EINVAL for a set holding a descriptor >= FD_SETSIZE *)
let watchable fd =
  match Unix.select [ fd ] [] [] 0. with
  | _ -> true
  | exception Unix.Unix_error (Unix.EINVAL, _, _) -> false
  | exception Unix.Unix_error _ -> true

let install_drain_handlers server =
  let drain _ = Server.drain server in
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle drain)
   with Invalid_argument _ | Sys_error _ -> ());
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle drain)
   with Invalid_argument _ | Sys_error _ -> ());
  (* a dropped client must cost a write error, not the process *)
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

let readable ?(timeout = 0.0) fds =
  match Unix.select fds [] [] timeout with
  | ready, _, _ -> ready
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

let write_all fd s =
  let len = String.length s in
  let b = Bytes.unsafe_of_string s in
  let pos = ref 0 in
  while !pos < len do
    match Unix.write fd b !pos (len - !pos) with
    | 0 -> raise Exit
    | n -> pos := !pos + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* ---- connections ---- *)

type conn = {
  rfd : Unix.file_descr;  (* read side; the select key *)
  wfd : Unix.file_descr;  (* write side; same fd except for stdio *)
  is_stdio : bool;
  admission : Server.client;
  (* write-side state, shared with the pool domains delivering
     responses; guarded by [wlock] *)
  wlock : Mutex.t;
  mutable closed : bool; (* latches; the loop reaps closed conns *)
  mutable deliver_seq : int; (* next sequence number to write *)
  out : (int, string) Hashtbl.t; (* completed out-of-order responses *)
  (* read-side state, touched only by the transport thread *)
  mutable partial : string;
  mutable discarding : bool; (* inside an oversized line, until '\n' *)
  mutable next_seq : int; (* sequence numbers assigned at submit *)
  mutable read_eof : bool; (* client half-closed; responses still owed *)
}

let make_conn ?(is_stdio = false) ~server ~rfd ~wfd () =
  {
    rfd;
    wfd;
    is_stdio;
    admission = Server.client server;
    wlock = Mutex.create ();
    closed = false;
    deliver_seq = 0;
    out = Hashtbl.create 8;
    partial = "";
    discarding = false;
    next_seq = 0;
    read_eof = false;
  }

let is_closed c =
  Mutex.lock c.wlock;
  let v = c.closed in
  Mutex.unlock c.wlock;
  v

(* after a half-close: has every submitted request been answered? *)
let settled c =
  Mutex.lock c.wlock;
  let v = c.deliver_seq = c.next_seq && Hashtbl.length c.out = 0 in
  Mutex.unlock c.wlock;
  v

(* latch [closed] from the read side (EOF, connection reset); the loop
   closes the fd on its next reap pass *)
let mark_closed c =
  Mutex.lock c.wlock;
  c.closed <- true;
  Hashtbl.reset c.out;
  Mutex.unlock c.wlock

(* Deliver the response with per-connection sequence number [seq],
   writing it — and any buffered successors — once every earlier
   response is out. Responses therefore reach each client in its own
   request order no matter which domain finishes first. Thread-safe;
   called from pool domains and from the transport thread.

   A failing write is never swallowed silently: it counts in
   [serve.write_fail], the connection latches closed (buffered responses
   dropped, counted in [serve.write_drop]) and its socket is shut down so
   the select loop reaps it. *)
let deliver c seq line =
  Mutex.lock c.wlock;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.wlock) @@ fun () ->
  if c.closed then Metrics.incr c_write_drop
  else begin
    Hashtbl.replace c.out seq line;
    try
      while Hashtbl.mem c.out c.deliver_seq do
        let l = Hashtbl.find c.out c.deliver_seq in
        write_all c.wfd (l ^ "\n");
        Hashtbl.remove c.out c.deliver_seq;
        c.deliver_seq <- c.deliver_seq + 1
      done
    with _ ->
      Metrics.incr c_write_fail;
      c.closed <- true;
      Hashtbl.reset c.out;
      if not c.is_stdio then (
        try Unix.shutdown c.rfd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
  end

let submit_line server c line =
  let seq = c.next_seq in
  c.next_seq <- c.next_seq + 1;
  Server.submit server ~client:c.admission ~reply:(deliver c seq) line

let reject_oversized ~max_line c () =
  Metrics.incr c_oversized;
  let seq = c.next_seq in
  c.next_seq <- c.next_seq + 1;
  deliver c seq
    (Protocol.error_response ~id:"oversized"
       (Printf.sprintf "request line exceeds %d bytes" max_line))

let refusal =
  Protocol.error_response ~id:"refused"
    (Printf.sprintf "too many connections (%d)" max_conns)

(* Split [chunk] (appended to the connection's buffered partial) into
   complete lines for [submit]. The read is bounded: a line longer than
   [max_line] is rejected once (via [reject]) without ever being
   buffered, and the connection discards until the next newline — a
   client streaming an endless unterminated line cannot balloon
   memory. *)
let feed ~max_line ~submit ~reject c chunk =
  let data = if c.partial = "" then chunk else c.partial ^ chunk in
  c.partial <- "";
  let n = String.length data in
  let start = ref 0 in
  let continue = ref true in
  while !continue && !start < n do
    match String.index_from data !start '\n' with
    | exception Not_found ->
        let rem = n - !start in
        if c.discarding then () (* stay in discard mode, buffer nothing *)
        else if rem > max_line then begin
          reject ();
          c.discarding <- true
        end
        else c.partial <- String.sub data !start rem;
        continue := false
    | nl ->
        (if c.discarding then c.discarding <- false
         else
           let line = String.sub data !start (nl - !start) in
           if String.length line > max_line then reject ()
           else if String.trim line <> "" then submit line);
        start := nl + 1
  done

(* ---- listeners ---- *)

type listener = {
  lfd : Unix.file_descr;
  unlink_on_close : string option;
}

let unix_listener ~path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX path);
     Unix.listen fd 64
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { lfd = fd; unlink_on_close = Some path }

let inet_addr host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
    | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
    | _ -> failwith (Printf.sprintf "cannot resolve host %S" host))

let tcp_listener ?port_file ~host ~port () =
  let inet = inet_addr host in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (inet, port));
     Unix.listen fd 64
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let shost, sport =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (a, p) -> (Unix.string_of_inet_addr a, p)
    | _ -> (host, port)
  in
  (* with port 0 the kernel picked an ephemeral port; the port file is
     how a supervisor (or ci.sh) learns the actual address *)
  (match port_file with
  | Some file ->
      Out_channel.with_open_text file (fun oc ->
          Printf.fprintf oc "%s:%d\n" shost sport)
  | None -> ());
  Printf.eprintf "bfly_serve: listening on tcp:%s:%d\n%!" shost sport;
  { lfd = fd; unlink_on_close = None }

(* ---- the loop ---- *)

let run ?(block_timeout = 0.5) ?workers ?(max_line = default_max_line) server
    ~listeners ~with_stdio =
  install_drain_handlers server;
  let dispatch = Dispatch.create ?cap:workers server in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let stdin_eof = ref false in
  let stdio_conn =
    if with_stdio then begin
      let c =
        make_conn ~is_stdio:true ~server ~rfd:Unix.stdin
          ~wfd:Unix.stdout ()
      in
      Hashtbl.replace conns c.rfd c;
      Some c
    end
    else None
  in
  let listener_fds = List.map (fun l -> l.lfd) listeners in
  (* after EMFILE/ENFILE the listeners stay unwatched until a connection
     closes or one idle period passes: the pending connection keeps its
     listener readable, so watching it would spin on a failing accept *)
  let resume_at = ref 0. in
  let reap () =
    let dead =
      Hashtbl.fold
        (fun _ c acc ->
          if is_closed c || (c.read_eof && settled c) then c :: acc else acc)
        conns []
    in
    if dead <> [] then resume_at := 0.;
    List.iter
      (fun c ->
        Hashtbl.remove conns c.rfd;
        Metrics.incr c_disconnects;
        (* stdio fds are the process's own; only sockets are ours to
           close, and only here — pool domains never close an fd the
           select loop might still be watching *)
        if not c.is_stdio then
          try Unix.close c.rfd with Unix.Unix_error _ -> ())
      dead
  in
  let accepting () =
    (not (Server.draining server))
    && ((match stdio_conn with
        | Some c -> (not !stdin_eof) && not (is_closed c)
        | None -> false)
       || listeners <> [])
  in
  let watch_fds () =
    if Server.draining server then []
    else
      let conn_fds =
        Hashtbl.fold
          (fun fd c acc ->
            if is_closed c || c.read_eof || (c.is_stdio && !stdin_eof) then acc
            else fd :: acc)
          conns []
      in
      if Unix.gettimeofday () < !resume_at then conn_fds
      else listener_fds @ conn_fds
  in
  let buf = Bytes.create 65536 in
  let read_conn c =
    let submit = submit_line server c in
    let reject = reject_oversized ~max_line c in
    match Unix.read c.rfd buf 0 (Bytes.length buf) with
    | 0 ->
        (* EOF: an unterminated trailing line still counts as a final
           request (the stdio contract since PR 5). A socket EOF is a
           half-close, not a disconnect — the client may have pipelined
           requests and shut down its send side; responses it is owed
           still flow, and the connection is reaped once settled *)
        if (not c.discarding) && String.trim c.partial <> "" then
          submit c.partial;
        c.partial <- "";
        if c.is_stdio then stdin_eof := true else c.read_eof <- true
    | n -> feed ~max_line ~submit ~reject c (Bytes.sub_string buf 0 n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        mark_closed c
  in
  let accept_conn l =
    match Unix.accept l.lfd with
    | fd, _ when Hashtbl.length conns >= max_conns || not (watchable fd) ->
        (* at the cap: one structured refusal, then close, so the client
           learns why instead of waiting on a connection nobody reads *)
        Metrics.incr c_refused;
        (try write_all fd (refusal ^ "\n") with Unix.Unix_error _ | Exit -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ())
    | fd, _ ->
        Metrics.incr c_accepted;
        (* batch replies are latency-sensitive single lines *)
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ | Invalid_argument _ -> ());
        let c = make_conn ~server ~rfd:fd ~wfd:fd () in
        Hashtbl.replace conns fd c
    | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
        Metrics.incr c_accept_paused;
        resume_at := Unix.gettimeofday () +. block_timeout
    | exception
        Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      ->
        ()
  in
  let handle_ready fd =
    match List.find_opt (fun l -> l.lfd = fd) listeners with
    | Some l -> accept_conn l
    | None -> (
        match Hashtbl.find_opt conns fd with
        | Some c when not (is_closed c) -> read_conn c
        | _ -> ())
  in
  let cleanup () =
    Hashtbl.iter
      (fun _ c ->
        if not c.is_stdio then
          try Unix.close c.rfd with Unix.Unix_error _ -> ())
      conns;
    List.iter
      (fun l ->
        (try Unix.close l.lfd with Unix.Unix_error _ -> ());
        match l.unlink_on_close with
        | Some path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
        | None -> ())
      listeners
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  while accepting () || Server.pending server > 0 || Dispatch.busy dispatch do
    reap ();
    match watch_fds () with
    | [] ->
        (* no input left (drain, every source gone, or the listeners
           paused with no connection to close): finish what is queued,
           wait for in-flight batches to answer, and sit out the pause *)
        Dispatch.pump dispatch;
        Dispatch.wait_idle dispatch;
        let pause = !resume_at -. Unix.gettimeofday () in
        if pause > 0. then Unix.sleepf pause
    | fds ->
        (* block only when idle: while batches solve elsewhere, keep the
           loop responsive so new arrivals still coalesce and pump *)
        let timeout =
          if Server.pending server > 0 || Dispatch.busy dispatch then 0.05
          else block_timeout
        in
        List.iter handle_ready (readable ~timeout fds);
        (* greedily drain everything already readable before dispatching:
           a burst of duplicates then costs one solve, not many *)
        let rec drain_burst () =
          reap ();
          match watch_fds () with
          | [] -> ()
          | fds -> (
              match readable ~timeout:0.0 fds with
              | [] -> ()
              | ready ->
                  List.iter handle_ready ready;
                  drain_burst ())
        in
        drain_burst ();
        Dispatch.pump dispatch
  done;
  (* loop exit still needs a final settle: pending work admitted in the
     last iteration, or in-flight batches during a drain *)
  Dispatch.pump dispatch;
  Dispatch.wait_idle dispatch;
  while Server.run_next server do () done;
  reap ()

(* ---- public entry points ---- *)

let serve ?block_timeout ?workers ?max_line ?(stdio = false) ?unix_path ?tcp
    ?port_file server =
  let listeners =
    (match unix_path with Some path -> [ unix_listener ~path ] | None -> [])
    @
    match tcp with
    | Some (host, port) -> [ tcp_listener ?port_file ~host ~port () ]
    | None -> []
  in
  if listeners = [] && not stdio then
    invalid_arg "Transport.serve: no transport selected";
  run ?block_timeout ?workers ?max_line server ~listeners ~with_stdio:stdio

let socket ?block_timeout ?workers ?max_line server ~path =
  serve ?block_timeout ?workers ?max_line ~unix_path:path server
