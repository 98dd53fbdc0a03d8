module G = Bfly_graph.Graph
module Gen = Bfly_graph.Generators
module Parallel = Bfly_graph.Parallel
module Metrics = Bfly_obs.Metrics
module Json = Bfly_obs.Json
module Cancel = Bfly_resil.Cancel
module Fault = Bfly_resil.Fault

type counterexample = {
  oracle : string;
  seed : int;
  round : int;
  instance : string;
  n : int;
  edges : (int * int) list;
  message : string;
  shrink_steps : int;
}

type summary = {
  seed : int;
  rounds : int;
  oracle_runs : int;
  passed : int;
  skipped : int;
  failed : int;
  chaos : bool;
  faults_injected : int;
  crashes_survived : int;
  pool_stable : bool;
  counterexamples : counterexample list;
}

let counterexample_json c =
  Json.Obj
    [
      ("oracle", Json.Str c.oracle);
      ("seed", Json.Int c.seed);
      ("round", Json.Int c.round);
      ("instance", Json.Str c.instance);
      ("n", Json.Int c.n);
      ( "edges",
        Json.List
          (List.map (fun (u, v) -> Json.List [ Json.Int u; Json.Int v ]) c.edges)
      );
      ("message", Json.Str c.message);
      ("shrink_steps", Json.Int c.shrink_steps);
    ]

let summary_json s =
  Json.Obj
    [
      ("seed", Json.Int s.seed);
      ("rounds", Json.Int s.rounds);
      ("oracle_runs", Json.Int s.oracle_runs);
      ("passed", Json.Int s.passed);
      ("skipped", Json.Int s.skipped);
      ("failed", Json.Int s.failed);
      ("chaos", Json.Bool s.chaos);
      ("faults_injected", Json.Int s.faults_injected);
      ("crashes_survived", Json.Int s.crashes_survived);
      ("pool_stable", Json.Bool s.pool_stable);
      ("counterexamples", Json.List (List.map counterexample_json s.counterexamples));
    ]

(* ---- instances ---- *)

(* Instances carry their raw edge list so the shrinker can edit them. *)
type instance = { desc : string; n : int; edges : (int * int) list }

let graph_of inst = G.of_edge_list ~n:inst.n inst.edges

let instance_of_graph desc g =
  { desc; n = G.n_nodes g; edges = Array.to_list (G.edges g) }

(* Connected random graph: random spanning path plus random extra edges
   (the test suite's historical workload). *)
let connected_random ~rng n ~extra_edges =
  let edges = ref [] in
  let perm = Bfly_graph.Perm.random ~rng n in
  for i = 0 to n - 2 do
    edges :=
      (Bfly_graph.Perm.apply perm i, Bfly_graph.Perm.apply perm (i + 1))
      :: !edges
  done;
  for _ = 1 to extra_edges do
    let u = Random.State.int rng n and v = Random.State.int rng n in
    if u <> v then edges := (u, v) :: !edges
  done;
  G.of_edge_list ~n !edges

let gen_instance ~rng =
  let n = 4 + Random.State.int rng 11 in
  match Random.State.int rng 7 with
  | 0 ->
      let extra = Random.State.int rng (2 * n) in
      instance_of_graph
        (Printf.sprintf "connected-random n=%d extra=%d" n extra)
        (connected_random ~rng n ~extra_edges:extra)
  | 1 ->
      let n = if n mod 2 = 1 then n + 1 else n in
      instance_of_graph
        (Printf.sprintf "random-3-regular n=%d" n)
        (Gen.random_regular ~simple:true ~rng ~n ~degree:3)
  | 2 ->
      instance_of_graph
        (Printf.sprintf "gnp n=%d p=0.3" n)
        (Gen.gnp ~rng ~n ~p:0.3)
  | 3 -> instance_of_graph (Printf.sprintf "cycle n=%d" n) (Gen.cycle n)
  | 4 ->
      let rows = 2 + Random.State.int rng 2 in
      let cols = 2 + Random.State.int rng 4 in
      instance_of_graph
        (Printf.sprintf "grid %dx%d" rows cols)
        (Gen.grid ~rows ~cols)
  | 5 ->
      let depth = 2 + Random.State.int rng 2 in
      instance_of_graph
        (Printf.sprintf "binary-tree depth=%d" depth)
        (Gen.binary_tree depth)
  | _ ->
      let a = 2 + Random.State.int rng 3 in
      let b = 3 + Random.State.int rng 2 in
      instance_of_graph
        (Printf.sprintf "product path%d x cycle%d" a b)
        (Gen.product (Gen.path a) (Gen.cycle b))

(* ---- shrinking ---- *)

(* Remove node [v]: drop incident edges, shift higher indices down. *)
let remove_node inst v =
  let edges =
    List.filter_map
      (fun (a, b) ->
        if a = v || b = v then None
        else
          Some ((if a > v then a - 1 else a), if b > v then b - 1 else b))
      inst.edges
  in
  { inst with n = inst.n - 1; edges }

let remove_edge inst i =
  { inst with edges = List.filteri (fun j _ -> j <> i) inst.edges }

(* Smaller-first candidate order: node deletions shrink harder than edge
   deletions, so try them first. *)
let candidates inst =
  let nodes =
    if inst.n <= 2 then []
    else List.init inst.n (fun v -> remove_node inst (inst.n - 1 - v))
  in
  let edges = List.mapi (fun i _ -> remove_edge inst i) inst.edges in
  nodes @ edges

let shrink_attempts = Metrics.counter "check.fuzz.shrink_attempts"
let shrink_steps_counter = Metrics.counter "check.fuzz.shrink_steps"

(* Greedily minimize a failing instance. [rerun] re-executes the failing
   oracle with its original RNG seed, so a candidate either reproduces the
   discrepancy deterministically or is discarded. *)
let shrink ~rerun ~budget inst0 message0 =
  let budget = ref budget in
  let rec improve inst message steps =
    let rec first = function
      | [] -> (inst, message, steps)
      | cand :: rest ->
          if !budget <= 0 then (inst, message, steps)
          else begin
            decr budget;
            Metrics.incr shrink_attempts;
            match rerun cand with
            | Oracle.Fail m ->
                Metrics.incr shrink_steps_counter;
                improve cand m (steps + 1)
            | _ -> first rest
          end
    in
    first (candidates inst)
  in
  improve inst0 message0 0

(* ---- driver ---- *)

let rounds_counter = Metrics.counter "check.fuzz.rounds"
let runs_counter = Metrics.counter "check.fuzz.oracle_runs"
let skips_counter = Metrics.counter "check.fuzz.skips"
let failures_counter = Metrics.counter "check.fuzz.failures"

let oracle_rng ~seed ~round ~index =
  Random.State.make [| seed; round; index; 0x0b5e55ed |]

let crashes_counter = Metrics.counter "check.fuzz.crashes_survived"
let t_fuzz = Metrics.timer "check.fuzz"

let run ?(oracles = Oracle.all) ?(chaos = false) ~seed ~rounds () =
  Bfly_obs.Span.time t_fuzz @@ fun () ->
  let pool_before = Parallel.pool_size () in
  let faults_before = Fault.injected_total () in
  let oracle_runs = ref 0
  and passed = ref 0
  and skipped = ref 0
  and failed = ref 0
  and crashes = ref 0
  and counterexamples = ref [] in
  (* In chaos mode each oracle invocation runs under its own fresh ambient
     cancel token (so an injected deadline expiry latches a token and
     exercises graceful degradation in the heuristics) and an escaped
     injected fault counts as a survived crash, not a discrepancy — the
     property under test is that the process, the domain pool and the
     cache all outlive the fault. *)
  let invoke oracle ~rng g =
    if not chaos then oracle.Oracle.run ~rng g
    else
      Cancel.with_ambient (Cancel.create ()) @@ fun () ->
      try oracle.Oracle.run ~rng g with
      | Fault.Injected m | Cancel.Cancelled m ->
          incr crashes;
          Metrics.incr crashes_counter;
          Oracle.Skip (Printf.sprintf "survived injected fault: %s" m)
  in
  for round = 1 to rounds do
    Metrics.incr rounds_counter;
    let inst_rng = Random.State.make [| seed; round |] in
    let inst = gen_instance ~rng:inst_rng in
    let g = graph_of inst in
    List.iteri
      (fun index oracle ->
        incr oracle_runs;
        Metrics.incr runs_counter;
        let fresh_rng () = oracle_rng ~seed ~round ~index in
        match invoke oracle ~rng:(fresh_rng ()) g with
        | Oracle.Pass -> incr passed
        | Oracle.Skip _ ->
            incr skipped;
            Metrics.incr skips_counter
        | Oracle.Fail message ->
            incr failed;
            Metrics.incr failures_counter;
            let rerun cand = invoke oracle ~rng:(fresh_rng ()) (graph_of cand) in
            let min_inst, min_msg, shrink_steps =
              shrink ~rerun ~budget:500 inst message
            in
            counterexamples :=
              {
                oracle = oracle.Oracle.name;
                seed;
                round;
                instance = inst.desc;
                n = min_inst.n;
                edges = min_inst.edges;
                message = min_msg;
                shrink_steps;
              }
              :: !counterexamples)
      oracles
  done;
  {
    seed;
    rounds;
    oracle_runs = !oracle_runs;
    passed = !passed;
    skipped = !skipped;
    failed = !failed;
    chaos;
    faults_injected = Fault.injected_total () - faults_before;
    crashes_survived = !crashes;
    (* the pool never legitimately shrinks: rescued workers stay alive *)
    pool_stable = Parallel.pool_size () >= pool_before;
    counterexamples = List.rev !counterexamples;
  }
