(** Solver jobs: the one vocabulary shared by the one-shot CLI and the
    batch query service.

    A {!spec} names a deterministic solver invocation — the same set the
    paper's quantities need at serving time: bisection-width solvers
    (exact branch and bound, the KL/FM/SA/spectral heuristics, the
    multilevel partitioner), the
    mesh-of-stars closed form (Lemmas 2.17–2.19), the Section 4 expansion
    enumerations/annealers, and the differential-oracle battery.

    The vocabulary lives here and nowhere else: {!of_fields} is the one
    reader of job fields — every default, alias, required field, type
    error and the instance rule — for a served request ([Protocol] hands
    it the request object's fields) and for [bfly_tool bw], [expansion]
    and [mos] (which hand it only the flags the user gave). {!run}
    executes a spec and returns {e exactly} the text the subcommand
    prints, so CLI/serve parity holds by construction, from the parsed
    fields to the output bytes, warm or cold cache.

    {!fingerprint} canonically names a [(spec, deadline)] pair; the server
    coalesces concurrent requests with equal fingerprints into one solve,
    and answers a later twin of a finished {!memoizable} one from memory.
    Every solver underneath already persists through {!Bfly_cache.Store},
    so warm fingerprints never re-search. *)

type net =
  | Butterfly
  | Wrapped
  | Ccc
  | Fabric of Bfly_networks.Fabric.spec
      (** A data-center product network; the spec fixes the instance size,
          so the [n] field of jobs on fabrics is pinned to [0] (see
          {!instance}). *)

type solver = Exact | Kl | Fm | Sa | Spectral | Ml

(** What a bisection-width job runs. [max_nodes]/[resume] only affect
    [Exact] (step budget / checkpoint continuation); [seed]/[restarts]
    only the seeded heuristics ([Spectral] is deterministic). *)
type bw = {
  solver : solver;
  net : net;
  n : int;
  seed : int;
  restarts : int;
  max_nodes : int option;
  resume : bool;
}

(** Which expansion lines to print: [`Ee], [`Ne], or both (the classic
    [bfly_tool expansion] output). *)
type expansion_kind = [ `Ee | `Ne | `Both ]

type spec =
  | Bw of bw
  | Mos of { j : int }
  | Expansion of {
      kind : expansion_kind;
      net : net;
      n : int;
      k : int;
      exact : bool;
      seed : int;
    }
  | Check of { seed : int; rounds : int }
  | Campaign of { degree : int; sizes : int list; seeds : int }
      (** A random-regular bisection sweep rendered through
          {!Bfly_check.Campaign.render}; deterministic for a given grid,
          so equal grids coalesce like any other fingerprint. *)

val net_name : net -> string
(** ["butterfly"] | ["wrapped"] | ["ccc"]. *)

val net_of_string : string -> (net, string) result
(** Accepts the same spellings as the CLI ([butterfly|b|bn], [wrapped|w|wn],
    [ccc]) plus the {!Bfly_networks.Fabric} specs ([mesh:2x4x8],
    [torus:4x4x4], [torus3d:4x4x4], [bcube:4x2],
    [product:path2xring3xk4]); fabric validation errors are reported
    here. *)

val is_fabric : net -> bool

val solver_name : solver -> string

val of_fields :
  string -> (string -> Bfly_obs.Json.t option) -> (spec, string) result
(** [of_fields job field] is the spec that job name [job] and field lookup
    [field] describe, or the message a served request answers with. Jobs
    and their fields, read in this order with at most one [field] call
    each:

    - [bw]: [solver] (default [exact]; one of [exact|kl|fm|sa|spectral|ml],
      with [annealing] accepted for [sa] and [multilevel] for [ml]), the
      instance ({!instance}), [seed] (default 1), [restarts] (default 4),
      [max_nodes] (default none), [resume] (default false);
    - [ee], [ne], [expansion] (both lines): the instance, [k] (required),
      [exact] (default false), [seed] (default 1);
    - [mos]: [j] (required);
    - [check]: [seed] (default 42), [rounds] (default 5);
    - [campaign]: [degree] (default 3), [seeds] (default 3, at most 16),
      [sizes] (default [[32; 64]], at most 8 of them, each at most 1024) —
      the caps bound what one served request can pin the pool with.

    A field of the wrong JSON type is an error ([field "seed" must be an
    integer]), as is a missing required one ([field "k" is required]);
    the first error in the order above wins. Unknown fields are never
    looked up. *)

val instance :
  (string -> Bfly_obs.Json.t option) -> (net * int, string) result
(** The instance rule: [network] is required ({!net_of_string}); a
    butterfly family needs an integer [n], while a fabric spec fixes its
    own size, so [n] must be absent and is pinned to [0]. [bfly_tool info]
    and [bisect] resolve their [NETWORK [N]] arguments through it. *)

val graph_of : net -> int -> (Bfly_graph.Graph.t * string, string) result
(** The instance graph and its display name ([B_16], [W_16], [CCC_16], or
    the canonical fabric spec such as [mesh:2x4x8]); errors match the
    CLI's ("n must be a power of two", …). Fabric nets ignore [n] — the
    spec already fixes the size.

    Memoized process-wide on [(net_name net, n)], the pair {!fingerprint}
    names a graph by (so [mesh:4x5] and [mesh:5x4] are two entries): a
    repeated network returns the {e same} graph and name to every caller,
    on every domain — read-only, per the borrowing contract of
    {!Bfly_graph.Graph.csr_offsets}. Two constant bounds: at most 64
    entries, least recently used evicted first, and only graphs with
    nodes + edges <= 4096; larger graphs and errors are built afresh on
    every call. Thread-safe; builds run outside the memo's lock. *)

val fingerprint : ?deadline:Bfly_resil.Budget.t -> spec -> string
(** Canonical one-line identity of a [(spec, deadline)] pair. Equal
    fingerprints mean equal requests — same solver, same parameters, same
    deadline — which is the coalescing criterion: batching a request onto
    an in-flight twin must not change its answer, and a deadline is part
    of the answer (it decides whether an exact search may degrade to an
    interval). *)

val memoizable : ?deadline:Bfly_resil.Budget.t -> spec -> bool
(** Whether an [Ok] output of {!run} for this pair depends on its
    {!fingerprint} alone, so a server may keep it and answer a later twin
    with it: no [deadline] and no [max_nodes] (a budget lets an exact
    search stop early, and where it stops depends on what the cache
    already holds), no [resume] (it continues from a checkpoint the cache
    may or may not hold), and only while {!Bfly_cache.Config.enabled}
    holds, so [--no-cache] and [BFLY_CACHE=off] still solve every request
    afresh. Errors are never kept, whatever this says. *)

val run : ?deadline:Bfly_resil.Budget.t -> spec -> (string, string) result
(** Execute the job. [Ok text] is the bytes the matching one-shot
    [bfly_tool] subcommand writes to stdout (trailing newline included);
    [Error msg] the message it prints to stderr. [deadline] supervises the
    run the way [bfly_tool --deadline] does: an ambient
    {!Bfly_resil.Cancel} token for heuristics and annealers, a direct
    token (combined with [max_nodes]) for the exact search — which then
    degrades to a certified, validated interval instead of completing.
    Every witness-carrying result is re-validated through
    {!Bfly_check.Invariants} before the text is produced: bisections with
    [bisection_cut] or [bisection_interval], each [ee]/[ne] witness with
    [expansion_witness] (k members, re-measured to the printed value). A
    failure is [Error "result failed validation: ..."]. *)
