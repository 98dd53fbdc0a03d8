module G = Bfly_graph.Graph
module B = Bfly_networks.Butterfly
module W = Bfly_networks.Wrapped
module Ccc_net = Bfly_networks.Ccc
module Budget = Bfly_resil.Budget
module Cancel = Bfly_resil.Cancel
module Invariants = Bfly_check.Invariants
module Lru = Bfly_cache.Lru
module Json = Bfly_obs.Json

let decimal = Json.decimal

module Fabric = Bfly_networks.Fabric

type net = Butterfly | Wrapped | Ccc | Fabric of Fabric.spec

type solver = Exact | Kl | Fm | Sa | Spectral | Ml

type bw = {
  solver : solver;
  net : net;
  n : int;
  seed : int;
  restarts : int;
  max_nodes : int option;
  resume : bool;
}

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

let net_name = function
  | Butterfly -> "butterfly"
  | Wrapped -> "wrapped"
  | Ccc -> "ccc"
  | Fabric spec -> Fabric.name spec

let is_fabric = function Fabric _ -> true | _ -> false

let net_of_string s =
  match s with
  | "butterfly" | "b" | "bn" -> Ok Butterfly
  | "wrapped" | "w" | "wn" -> Ok Wrapped
  | "ccc" -> Ok Ccc
  | s when Fabric.is_spec s ->
      Result.map (fun spec -> Fabric spec) (Fabric.spec_of_string s)
  | s ->
      Error
        (Printf.sprintf
           "unknown network %S (butterfly|wrapped|ccc, or a fabric spec \
            mesh:|torus:|torus3d:|bcube:|product:)"
           s)

let solver_name = function
  | Exact -> "exact"
  | Kl -> "kl"
  | Fm -> "fm"
  | Sa -> "sa"
  | Spectral -> "spectral"
  | Ml -> "ml"

let solver_of_string = function
  | "exact" -> Ok Exact
  | "kl" -> Ok Kl
  | "fm" -> Ok Fm
  | "sa" | "annealing" -> Ok Sa
  | "spectral" -> Ok Spectral
  | "ml" | "multilevel" -> Ok Ml
  | s ->
      Error (Printf.sprintf "unknown solver %S (exact|kl|fm|sa|spectral|ml)" s)

(* ---- the job vocabulary: fields to specs ---- *)

(* The one reader of job fields, for served requests and the CLI alike:
   every default, alias, required-field and type-error message lives here.
   A served request costs one [field] lookup per field its job defines.
   Fields are read in direct style: the first bad field raises [Bad] with
   the message the request answers with, and [of_fields] turns it into an
   [Error]; a field that is present and well typed allocates nothing
   beyond its lookup. *)

exception Bad of string

let mistyped k what = raise (Bad (Printf.sprintf "field %S must be %s" k what))
let missing k = raise (Bad (Printf.sprintf "field %S is required" k))

let int_value k = function
  | Json.Int i -> i
  | v -> (
      match Json.to_int_opt v with Some i -> i | None -> mistyped k "an integer")

let int_field field k ~default =
  match field k with None -> default | Some v -> int_value k v

let required_int field k =
  match field k with None -> missing k | Some v -> int_value k v

let bool_field field k ~default =
  match field k with
  | None -> default
  | Some (Json.Bool b) -> b
  | Some _ -> mistyped k "a boolean"

let string_value k = function Json.Str s -> s | _ -> mistyped k "a string"

let ok_or_bad = function Ok v -> v | Error m -> raise (Bad m)

let instance_of field =
  let net =
    match field "network" with
    | None -> missing "network"
    | Some v -> ok_or_bad (net_of_string (string_value "network" v))
  in
  if is_fabric net then
    match field "n" with
    | None -> (net, 0)
    | Some _ ->
        raise
          (Bad
             "field \"n\" must be omitted for fabric networks (the spec \
              fixes the size)")
  else (net, required_int field "n")

let instance field =
  match instance_of field with i -> Ok i | exception Bad m -> Error m

let bw_of_fields field =
  let solver =
    match field "solver" with
    | None -> Exact
    | Some v -> ok_or_bad (solver_of_string (string_value "solver" v))
  in
  let net, n = instance_of field in
  let seed = int_field field "seed" ~default:1 in
  let restarts = int_field field "restarts" ~default:4 in
  let max_nodes =
    match field "max_nodes" with
    | None -> None
    | Some v -> Some (int_value "max_nodes" v)
  in
  let resume = bool_field field "resume" ~default:false in
  Bw { solver; net; n; seed; restarts; max_nodes; resume }

let expansion_of_fields kind field =
  let net, n = instance_of field in
  let k = required_int field "k" in
  let exact = bool_field field "exact" ~default:false in
  let seed = int_field field "seed" ~default:1 in
  Expansion { kind; net; n; k; exact; seed }

let campaign_of_fields field =
  let degree = int_field field "degree" ~default:3 in
  let seeds = int_field field "seeds" ~default:3 in
  let sizes =
    match field "sizes" with
    | None -> [ 32; 64 ]
    | Some v -> (
        let ints l =
          let ints = List.filter_map Json.to_int_opt l in
          if List.compare_lengths ints l = 0 then Some ints else None
        in
        match Option.bind (Json.to_list_opt v) ints with
        | Some ints -> ints
        | None -> mistyped "sizes" "a list of integers")
  in
  (* serve-side grid caps: a campaign is the most expensive job in the
     vocabulary, and a shared endpoint must bound what one request can pin
     the pool with (Campaign.run validates the rest) *)
  if seeds > 16 then raise (Bad "field \"seeds\" is capped at 16 when serving")
  else if List.length sizes > 8 then
    raise (Bad "field \"sizes\" is capped at 8 sizes when serving")
  else if List.exists (fun n -> n > 1024) sizes then
    raise (Bad "served campaign sizes are capped at n <= 1024")
  else Campaign { degree; sizes; seeds }

let of_fields job field =
  match
    match job with
    | "bw" -> bw_of_fields field
    | "mos" -> Mos { j = required_int field "j" }
    | "ee" -> expansion_of_fields `Ee field
    | "ne" -> expansion_of_fields `Ne field
    | "expansion" -> expansion_of_fields `Both field
    | "check" ->
        let seed = int_field field "seed" ~default:42 in
        let rounds = int_field field "rounds" ~default:5 in
        Check { seed; rounds }
    | "campaign" -> campaign_of_fields field
    | s ->
        raise
          (Bad
             (Printf.sprintf
                "unknown job %S (bw|mos|ee|ne|expansion|check|campaign|stats)"
                s))
  with
  | spec -> Ok spec
  | exception Bad m -> Error m

(* ---- instance graphs ---- *)

let build_graph net n =
  match net with
  | Fabric spec -> (
      (* the spec fixes the size; [instance] pins [n] to 0 so the
         fingerprint stays canonical *)
      match Fabric.create spec with
      | fab -> Ok (Fabric.graph fab, Fabric.name_of fab)
      | exception Invalid_argument m -> Error m)
  | _ -> (
      match B.log2_exact n with
      | None -> Error "n must be a power of two"
      | Some log_n -> (
          match net with
          | Fabric _ -> assert false
          | Butterfly -> Ok (B.graph (B.create ~log_n), Printf.sprintf "B_%d" n)
          | Wrapped ->
              if log_n < 2 then Error "wrapped butterfly needs n >= 4"
              else Ok (W.graph (W.create ~log_n), Printf.sprintf "W_%d" n)
          | Ccc ->
              if log_n < 2 then Error "CCC needs n >= 4"
              else
                Ok
                  (Ccc_net.graph (Ccc_net.create ~log_n), Printf.sprintf "CCC_%d" n)))

(* Process-wide memo of built networks. A network is a pure function of
   [(net_name net, n)] — the pair [fingerprint] already treats as naming
   one graph — and a [G.t] is immutable, so every job on a repeated
   network can share one. Both bounds are constants: 64 entries leave
   room for the small networks a served mix keeps repeating, and the size
   cap keeps a large [n] from pinning memory (the 500–5,000-node fabrics
   multilevel jobs take are built per job, as before).
   Builds run outside the lock; a build that loses a race to a concurrent
   one returns the winner's graph, so callers share a single copy. *)
let memo_entries = 64
let memo_max_size = 4096
let memo : (G.t * string) Lru.t = Lru.create ~capacity:memo_entries
let memo_lock = Mutex.create ()

let graph_of net n =
  let key = String.concat "/" [ net_name net; decimal n ] in
  match Mutex.protect memo_lock (fun () -> Lru.find memo key) with
  | Some hit -> Ok hit
  | None -> (
      match build_graph net n with
      | Ok ((g, _) as built) when G.n_nodes g + G.n_edges g <= memo_max_size ->
          Ok
            (Mutex.protect memo_lock (fun () ->
                 match Lru.find memo key with
                 | Some first -> first
                 | None ->
                     ignore (Lru.add memo key built);
                     built))
      | built -> built)

(* ---- fingerprints ---- *)

let kind_name = function `Ee -> "ee" | `Ne -> "ne" | `Both -> "both"

(* Built in one buffer: the server fingerprints every job request it
   admits, memo answers included. *)
let fingerprint ?deadline spec =
  let b = Buffer.create 80 in
  let add = Buffer.add_string in
  (match spec with
  | Bw { solver; net; n; seed; restarts; max_nodes; resume } ->
      add b "bw.";
      add b (solver_name solver);
      add b "/";
      add b (net_name net);
      add b "/";
      add b (decimal n);
      add b "?seed=";
      add b (decimal seed);
      add b "&restarts=";
      add b (decimal restarts);
      add b "&max_nodes=";
      add b (match max_nodes with None -> "-" | Some k -> decimal k);
      add b "&resume=";
      add b (string_of_bool resume)
  | Mos { j } ->
      add b "mos/";
      add b (decimal j)
  | Expansion { kind; net; n; k; exact; seed } ->
      add b "exp.";
      add b (kind_name kind);
      add b "/";
      add b (net_name net);
      add b "/";
      add b (decimal n);
      add b "?k=";
      add b (decimal k);
      add b "&exact=";
      add b (string_of_bool exact);
      add b "&seed=";
      add b (decimal seed)
  | Check { seed; rounds } ->
      add b "check?seed=";
      add b (decimal seed);
      add b "&rounds=";
      add b (decimal rounds)
  | Campaign { degree; sizes; seeds } ->
      add b "campaign/";
      add b (decimal degree);
      add b "?sizes=";
      add b (String.concat "," (List.map decimal sizes));
      add b "&seeds=";
      add b (decimal seeds));
  (match deadline with
  | None -> ()
  | Some d ->
      add b "@";
      add b (Budget.to_string d));
  Buffer.contents b

(* A budget decides whether the exact search degrades to an interval, and
   where it stops depends on what the cache already holds: with
   [max_nodes] 1, B_8 prints "BW in [0, 8] (interrupted...)" cold and
   "BW = 8" once the full solve is cached. [resume] reads a checkpoint the
   cache may or may not hold. *)
let memoizable ?deadline spec =
  Option.is_none deadline
  && (match spec with
     | Bw { max_nodes = Some _; _ } | Bw { resume = true; _ } -> false
     | _ -> true)
  && Bfly_cache.Config.enabled ()

(* ---- execution ---- *)

(* Seed prefixes keep the job-level rng streams disjoint from every other
   seeded stream in the repo (tests use 0x7e57, heuristics use their
   kernel tags): the same [seed] field can safely appear in a bw job and
   an expansion job without correlating their instances. *)
let bw_rng seed = Random.State.make [| 0x5e4e; seed |]
let expansion_rng seed = Random.State.make [| 0x5e4a; seed |]

(* Answer lines are concatenated, not [Printf]-formatted: these run on
   every served hit, and [%d]/[%s] render exactly as [Json.decimal] and
   the string itself. *)
let validated check line =
  match check with
  | Invariants.Fail m -> Error ("result failed validation: " ^ m)
  | Invariants.Pass -> Ok (String.concat "" line)

let run_bw_exact ?deadline { net; n; max_nodes; resume; _ } =
  match graph_of net n with
  | Error e -> Error e
  | Ok (g, name) -> (
      if match max_nodes with Some k -> k < 1 | None -> false then
        Error "max-nodes must be >= 1"
      else
        let budget =
          match (deadline, max_nodes) with
          | None, None -> None
          | _ ->
              let wall_s =
                Option.bind deadline (fun b ->
                    Option.map
                      (fun ns -> float_of_int ns /. 1e9)
                      (Budget.wall_ns b))
              in
              Some (Budget.make ?wall_s ?steps:max_nodes ())
        in
        let cancel = Option.map (fun budget -> Cancel.create ~budget ()) budget in
        match Bfly_cuts.Exact.bisection_width_supervised ?cancel ~resume g with
        | Bfly_cuts.Exact.Complete (v, witness) ->
            validated (Invariants.bisection_cut g ~value:v ~witness)
              [ name; ": BW = "; decimal v; "\n" ]
        | Bfly_cuts.Exact.Interval { lower; upper; witness; reason } -> (
            match Invariants.bisection_interval g ~lower ~upper ~witness with
            | Invariants.Fail m ->
                Error
                  (Printf.sprintf "certified interval failed validation: %s" m)
            | Invariants.Pass ->
                Ok
                  (Printf.sprintf "%s: BW in [%d, %d] (interrupted: %s%s)\n"
                     name lower upper reason
                     (if Bfly_cache.Config.enabled () then
                        "; checkpoint saved, rerun with --resume to continue"
                      else ""))))

let run_bw_heuristic { solver; net; n; seed; restarts; _ } =
  match graph_of net n with
  | Error e -> Error e
  | Ok (g, name) ->
      if restarts < 1 then Error "restarts must be >= 1"
      else
        let rng = bw_rng seed in
        let value, witness =
          match solver with
          | Kl -> Bfly_cuts.Heuristics.kernighan_lin ~rng ~restarts g
          | Fm -> Bfly_cuts.Heuristics.fiduccia_mattheyses ~rng ~restarts g
          | Sa -> Bfly_cuts.Heuristics.annealing ~rng ~restarts g
          | Spectral -> Bfly_cuts.Heuristics.spectral g
          | Ml -> Bfly_cuts.Multilevel.bisect ~rng ~restarts g
          | Exact -> assert false
        in
        let label =
          match solver with
          | Spectral -> [ "spectral)\n" ]
          | _ ->
              [ solver_name solver; ", restarts "; decimal restarts; ", seed ";
                decimal seed; ")\n" ]
        in
        validated
          (Invariants.bisection_cut g ~value ~witness)
          (name :: ": BW <= " :: decimal value :: " (" :: label)

let f_min_text = Printf.sprintf "%.5f" Bfly_mos.Mos_analysis.f_min

let run_mos ~j =
  if j < 1 then Error "j must be >= 1"
  else
    let bw, density, ratio = Bfly_mos.Mos_analysis.convergence_row j in
    let j = decimal j in
    Ok
      (String.concat ""
         [ "BW(MOS_{"; j; ","; j; "}, M2) = "; decimal bw; "; density ";
           Printf.sprintf "%.5f" density; "; sqrt(2)-1 = "; f_min_text;
           "; ratio "; Printf.sprintf "%.4f" ratio; "\n" ])

let run_expansion ~kind ~net ~n ~k ~exact ~seed =
  match graph_of net n with
  | Error e -> Error e
  | Ok (g, name) ->
      if k < 1 || k >= G.n_nodes g then Error "k out of range"
      else begin
        let rel = if exact then " = " else " <= " in
        (* each measure's witness is re-measured before its value is
           printed, as every bw answer is *)
        let measure which =
          let module E = Bfly_expansion.Expansion in
          let value, witness =
            if exact then
              match which with `Edge -> E.ee_exact g ~k | `Node -> E.ne_exact g ~k
            else
              let rng = expansion_rng seed in
              match which with
              | `Edge -> E.ee_anneal ~rng g ~k
              | `Node -> E.ne_anneal ~rng g ~k
          in
          (Invariants.expansion_witness ~kind:which g ~k ~value ~witness, decimal value)
        in
        let line = [ name; ", k="; decimal k; ": " ] in
        match kind with
        | `Ee ->
            let check, ee = measure `Edge in
            validated check (line @ [ "EE"; rel; ee; "\n" ])
        | `Ne ->
            let check, ne = measure `Node in
            validated check (line @ [ "NE"; rel; ne; "\n" ])
        | `Both ->
            let ee_check, ee = measure `Edge in
            let ne_check, ne = measure `Node in
            validated
              (Invariants.all [ ee_check; ne_check ])
              (line @ [ "EE"; rel; ee; ", NE"; rel; ne; "\n" ])
      end

let run_campaign ~degree ~sizes ~seeds =
  Result.map Bfly_check.Campaign.render
    (Bfly_check.Campaign.run ~degree ~sizes ~seeds ())

let run_check ~seed ~rounds =
  if rounds < 1 then Error "rounds must be >= 1"
  else
    let json, _ok = Bfly_check.Run.execute ~seed ~rounds ~smoke:true () in
    Ok (Bfly_obs.Json.to_string json ^ "\n")

let run ?deadline spec =
  match spec with
  (* the exact search takes a direct token so [max_nodes] and the wall
     deadline combine into one budget, exactly as [bfly_tool bw exact] does *)
  | Bw ({ solver = Exact; _ } as b) -> run_bw_exact ?deadline b
  | _ -> (
      let f () =
        match spec with
        | Bw b -> run_bw_heuristic b
        | Mos { j } -> run_mos ~j
        | Expansion { kind; net; n; k; exact; seed } ->
            run_expansion ~kind ~net ~n ~k ~exact ~seed
        | Check { seed; rounds } -> run_check ~seed ~rounds
        | Campaign { degree; sizes; seeds } ->
            run_campaign ~degree ~sizes ~seeds
      in
      match deadline with
      | None -> f ()
      | Some budget -> Cancel.with_ambient (Cancel.create ~budget ()) f)
