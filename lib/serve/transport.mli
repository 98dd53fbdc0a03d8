(** Transports: NDJSON request/response framing over stdio, Unix-domain
    sockets and TCP, in any combination, with concurrent batch execution.

    One single-threaded [select] loop owns every file descriptor: it
    accepts connections, reads request lines, and reaps dead clients.
    Solving happens elsewhere — each read burst is followed by
    {!Dispatch.pump}, which runs queued batches on the
    {!Bfly_graph.Parallel} domain pool — so a slow solve never blocks
    accepting or reading, and concurrent clients genuinely overlap.
    Reads stay greedy: everything already readable is consumed before
    dispatching, so a burst of duplicate requests coalesces into one
    solve exactly as in the sequential loop.

    {2 Ordering}

    Responses are delivered per connection in {e request order}: every
    submitted line gets a connection-local sequence number, and a pool
    domain finishing out of turn buffers its response until all earlier
    ones are written. Clients may therefore pipeline requests and match
    responses positionally, whatever the worker count.

    {2 Bounded reads}

    A request line longer than [max_line] (default 262144)
    is never buffered: the client gets one structured error response
    ([id "oversized"]) and the transport discards input until the next
    newline. Counted in [serve.oversized].

    A socket EOF is treated as a half-close, mirroring the stdio
    contract: the client may pipeline requests, shut down its send side,
    and still read every response it is owed; the connection is closed
    once the last one is written.

    {2 Connection limits}

    [Unix.select] cannot watch a descriptor at or above FD_SETSIZE
    (1,024), so the loop watches at most {!max_conns} connections and
    refuses any it could not watch: one structured error line
    ([{"id":"refused","ok":false,"error":"too many connections (256)"}]),
    then close, counted in [serve.refused]. On EMFILE/ENFILE from
    [accept] it stops watching the listeners until a connection closes or
    one [block_timeout] passes, counted in [serve.accept_paused]; pending
    connections wait in the listen backlog. Neither ends the server.

    {2 Failure accounting}

    A client that disconnects abruptly mid-batch costs nothing but
    counters: a
    failed response write increments [serve.write_fail], latches the
    connection closed and shuts its socket down; responses already in
    flight for a closed connection are dropped and counted in
    [serve.write_drop]. Accepts and disconnects appear as
    [serve.accepted] / [serve.disconnects]. No write failure is ever
    silently swallowed, and only the select loop ever closes a file
    descriptor, so a reused fd can never be written by a stale solver.

    {2 Drain}

    SIGTERM/SIGINT switch the server to draining: the loop stops
    watching every input fd, new submissions are rejected, already
    queued and in-flight batches complete and their responses are
    written, then the loop returns. SIGPIPE is ignored (write errors
    surface as [serve.write_fail] instead). The caller is expected to
    log {!Server.summary} afterwards. *)

val max_conns : int
(** 256: a quarter of FD_SETSIZE, since the process's other descriptors
    (cache files, an embedding program's sockets) share the numbering. *)

val serve :
  ?block_timeout:float ->
  ?workers:int ->
  ?max_line:int ->
  ?stdio:bool ->
  ?unix_path:string ->
  ?tcp:string * int ->
  ?port_file:string ->
  Server.t ->
  unit
(** Serve on every selected transport at once and return when done:
    after EOF / last disconnect with an empty queue, or after a drain
    completes. [stdio] reads stdin and writes stdout (a trailing
    unterminated line counts as a final request); [unix_path] binds a
    Unix-domain socket, replacing any existing file and unlinking it on
    the way out; [tcp] binds [(host, port)] — port [0] asks the kernel
    for an ephemeral port, and the actual ["host:port"] is printed to
    stderr and, when [port_file] is given, written there for a
    supervisor (or CI script) to read. Raises [Invalid_argument] when no
    transport is selected.

    [workers] caps concurrently-executing batches (default
    [Bfly_graph.Parallel.domain_count ()]; [1] reproduces the sequential
    loop exactly); [block_timeout] is the idle [select] granularity in
    seconds (default 0.5), which bounds drain-signal reaction time. *)

val socket :
  ?block_timeout:float ->
  ?workers:int ->
  ?max_line:int ->
  Server.t ->
  path:string ->
  unit
(** [serve ~unix_path:path]: accept any number of concurrent clients on
    a Unix-domain socket. *)

(** {1 Socket helpers, shared with {!Loadgen}} *)

val inet_addr : string -> Unix.inet_addr
(** A dotted address or a host name resolved to IPv4; [Failure] when it
    does not resolve. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string, retrying on EINTR; [Exit] when the peer takes
    nothing, [Unix.Unix_error] on failure. *)
