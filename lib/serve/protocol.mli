(** The newline-delimited JSON wire protocol of [bfly_tool serve].

    One request per line, one response line per request, in arrival order
    per connection. A request is a JSON object:

    {v
    {"id":"r1","job":"bw","solver":"kl","network":"butterfly","n":64,
     "seed":7,"restarts":4}
    {"id":"r2","job":"mos","j":64}
    {"id":"r3","job":"ee","network":"wrapped","n":8,"k":6,"exact":true}
    {"id":"r4","job":"check","seed":42,"rounds":2}
    {"id":"r5","job":"campaign","degree":3,"sizes":[32,64],"seeds":3}
    {"id":"r6","job":"stats"}
    v}

    [job] selects the solver family: [bw] (with [solver] one of
    [exact|kl|fm|sa|spectral|ml], plus [max_nodes]/[resume] for [exact]),
    [mos], [ee]/[ne]/[expansion], [check], [campaign] (a random-regular
    bisection sweep; served grids are capped at 16 seeds, 8 sizes and
    [n <= 1024] so one request cannot pin the pool), or [stats] (live
    server introspection, answered immediately, never queued). [id] is
    any string (echoed verbatim in the response; assigned [r<N>] when
    omitted); [deadline] is a per-request budget in
    [Bfly_resil.Budget.of_string] syntax (["250ms"], ["1.5s"]). Unknown
    fields are ignored.

    This module reads only those three request fields. The job's own
    fields — their defaults, aliases, the instance rule and every
    field error — are read by {!Job.of_fields}, the same reader behind
    [bfly_tool bw], [expansion] and [mos]; its documentation is the
    field reference.

    Responses:

    {v
    {"id":"r1","ok":true,"batch":3,"output":"B_64: BW <= 64 (kl, ...)\n"}
    {"id":"r9","ok":false,"error":"overloaded"}
    v}

    [output] is byte-identical to the matching one-shot [bfly_tool]
    subcommand's stdout; [batch] counts how many requests were coalesced
    into the solve that produced it, and [0] means the request was
    answered from an earlier, finished solve (see {!Server}'s memo of
    finished outputs): same bytes, no solve of its own. [error] is the
    admission verdict (["overloaded"], ["draining"]), a parse diagnostic,
    or the solver error the one-shot CLI would print. *)

type payload =
  | Job of { spec : Job.spec; deadline : Bfly_resil.Budget.t option }
  | Stats

type request = { id : string; payload : payload }

val parse_request : default_id:string -> string -> (request, string * string) result
(** [parse_request ~default_id line] parses one request line. Errors carry
    [(message, id)] — the request's [id] when the line parsed far enough
    to have one, else [default_id] — so a malformed line still gets an
    addressable response. A request that repeats a key is rejected, and
    answered under its top-level [id] when that key occurs there exactly
    once (under [default_id] when the [id] itself repeats). *)

val ok_response : id:string -> batch:int -> output:string -> string
(** One response line (no trailing newline). *)

val error_response : id:string -> string -> string

val stats_response : id:string -> Bfly_obs.Json.t -> string
(** [{"id":..,"ok":true, <fields of the stats object>}]. *)
