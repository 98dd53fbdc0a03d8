module G = Bfly_graph.Graph
module Bitset = Bfly_graph.Bitset
module Exact = Bfly_cuts.Exact
module Heuristics = Bfly_cuts.Heuristics
module E = Bfly_expansion.Expansion
module Metrics = Bfly_obs.Metrics

type verdict = Pass | Skip of string | Fail of string

type t = {
  name : string;
  run : rng:Random.State.t -> Bfly_graph.Graph.t -> verdict;
}

let fail fmt = Printf.ksprintf (fun m -> Fail m) fmt

let of_invariant = function
  | Invariants.Pass -> Pass
  | Invariants.Fail m -> Fail m

let seq = function
  | (Fail _ | Skip _) as v -> fun _ -> v
  | Pass -> fun next -> next ()

(* Wrap an oracle body with the size guard and the metrics counters. *)
let make name ~max_nodes body =
  let runs = Metrics.counter (Printf.sprintf "check.oracle.%s.runs" name) in
  let failures =
    Metrics.counter (Printf.sprintf "check.oracle.%s.failures" name)
  in
  let run ~rng g =
    let n = G.n_nodes g in
    if n < 2 then Skip "fewer than 2 nodes"
    else if n > max_nodes then
      Skip (Printf.sprintf "%d nodes exceeds oracle limit %d" n max_nodes)
    else begin
      Metrics.incr runs;
      match body ~rng g with
      | Fail _ as f ->
          Metrics.incr failures;
          f
      | v -> v
    end
  in
  { name; run }

(* [Exact.bisection_width] (parallel branch and bound) against the
   definitional [Reference.bisection_width]; witness validated. *)
let exact_vs_reference =
  make "exact_vs_reference" ~max_nodes:14 (fun ~rng:_ g ->
      let v_ref, _ = Reference.bisection_width g in
      let v, witness = Exact.bisection_width g in
      if v <> v_ref then fail "branch and bound %d, reference %d" v v_ref
      else of_invariant (Invariants.bisection_cut g ~value:v ~witness))

(* Branch and bound against the pruning-free exhaustive enumerator. *)
let bb_vs_exhaustive =
  make "bb_vs_exhaustive" ~max_nodes:16 (fun ~rng:_ g ->
      let v_ex, w_ex = Exact.bisection_width_exhaustive g in
      let v, _ = Exact.bisection_width g in
      if v <> v_ex then fail "branch and bound %d, exhaustive %d" v v_ex
      else of_invariant (Invariants.bisection_cut g ~value:v_ex ~witness:w_ex))

(* The parallel branch and bound against the sequential instrumented
   engine — the in-process equivalent of a [BFLY_DOMAINS=1] rerun. *)
let parallel_vs_sequential =
  make "parallel_vs_sequential" ~max_nodes:16 (fun ~rng:_ g ->
      let v_par, w_par = Exact.bisection_width g in
      let v_seq, w_seq, _visited = Exact.bisection_width_instrumented g in
      if v_par <> v_seq then
        fail "parallel engine %d, sequential engine %d" v_par v_seq
      else
        of_invariant
          (Invariants.all
             [
               Invariants.bisection_cut g ~value:v_par ~witness:w_par;
               Invariants.bisection_cut g ~value:v_seq ~witness:w_seq;
             ]))

(* U-bisection: exact solver vs. reference on a random node subset [U]. *)
let u_bisection_vs_reference =
  make "u_bisection_vs_reference" ~max_nodes:12 (fun ~rng g ->
      let n = G.n_nodes g in
      let u = Bitset.create n in
      let size = 2 + Random.State.int rng (n - 1) in
      let p = Bfly_graph.Perm.random ~rng n in
      for i = 0 to size - 1 do
        Bitset.add u (Bfly_graph.Perm.apply p i)
      done;
      let v_ref, _ = Reference.bisection_width ~u g in
      let v, witness = Exact.bisection_width ~u g in
      if v <> v_ref then
        fail "U-bisection: branch and bound %d, reference %d (|U| = %d)" v
          v_ref (Bitset.cardinal u)
      else of_invariant (Invariants.bisection_cut ~u g ~value:v ~witness))

(* Every heuristic (KL, FM, spectral, annealing, portfolio) returns a
   valid bisection whose capacity is at least the exact optimum. *)
let heuristics_respect_exact =
  make "heuristics_respect_exact" ~max_nodes:14 (fun ~rng g ->
      let exact, _ = Exact.bisection_width g in
      let solvers =
        [
          ("kernighan_lin", fun () -> Heuristics.kernighan_lin ~rng g);
          ("fiduccia_mattheyses", fun () -> Heuristics.fiduccia_mattheyses ~rng g);
          ("spectral", fun () -> Heuristics.spectral g);
          ("annealing", fun () -> Heuristics.annealing ~rng ~steps:2_000 g);
          ( "best_of",
            fun () ->
              let c, side, _ = Heuristics.best_of ~rng g in
              (c, side) );
        ]
      in
      List.fold_left
        (fun acc (name, solve) ->
          seq acc @@ fun () ->
          let c, side = solve () in
          if c < exact then
            fail "%s reports %d below the exact optimum %d" name c exact
          else
            match Invariants.bisection_cut g ~value:c ~witness:side with
            | Invariants.Pass -> Pass
            | Invariants.Fail m -> fail "%s: %s" name m)
        Pass solvers)

(* The multilevel partitioner collapses to a single refinement level on
   oracle-sized graphs, but the whole contract still holds: the returned
   capacity is an upper bound on the exact optimum and the witness is a
   valid bisection at tolerance 1. *)
let multilevel_vs_exact =
  make "multilevel_vs_exact" ~max_nodes:14 (fun ~rng g ->
      let exact, _ = Exact.bisection_width g in
      let c, side = Bfly_cuts.Multilevel.bisect ~rng ~restarts:2 g in
      if c < exact then
        fail "multilevel reports %d below the exact optimum %d" c exact
      else of_invariant (Invariants.bisection_cut g ~value:c ~witness:side))

(* The supervised engine under an artificially tiny step budget must (a)
   certify only intervals that really contain the exact answer, with a
   witness achieving the upper end, and (b) once resumed to completion,
   agree with the unsupervised engine exactly. The budget doubles each
   attempt so the loop terminates even when checkpoints cannot persist
   (cache disabled) or an injected deadline keeps firing (chaos mode). *)
let supervised_vs_exact =
  let module Cancel = Bfly_resil.Cancel in
  let module Budget = Bfly_resil.Budget in
  make "supervised_vs_exact" ~max_nodes:12 (fun ~rng g ->
      let n = G.n_nodes g in
      (* a random U gives this oracle its own cache key, so the supervised
         engine actually searches under the tiny budget instead of being
         served whatever a sibling oracle already cached for the plain
         bisection of [g] *)
      let u = Bitset.create n in
      let size = 2 + Random.State.int rng (n - 1) in
      let p = Bfly_graph.Perm.random ~rng n in
      for i = 0 to size - 1 do
        Bitset.add u (Bfly_graph.Perm.apply p i)
      done;
      (* brute force, cache-free ground truth *)
      let v_exact, _ = Reference.bisection_width ~u g in
      let rec attempt steps tries =
        if tries = 0 then Skip "budget never sufficed (chaos?)"
        else
          let cancel = Cancel.create ~budget:(Budget.make ~steps ()) () in
          match Exact.bisection_width_supervised ~u ~cancel ~resume:true g with
          | Exact.Complete (v, witness) ->
              if v <> v_exact then
                fail "supervised completed at %d, reference %d" v v_exact
              else
                of_invariant (Invariants.bisection_cut ~u g ~value:v ~witness)
          | Exact.Interval { lower; upper; witness; reason = _ } ->
              if not (lower <= v_exact && v_exact <= upper) then
                fail "certified interval [%d, %d] misses the exact value %d"
                  lower upper v_exact
              else
                seq
                  (of_invariant
                     (Invariants.bisection_interval ~u g ~lower ~upper ~witness))
                  (fun () -> attempt (2 * steps) (tries - 1))
      in
      attempt 64 24)

(* [Expansion.ee_exact]/[ne_exact] (parallel subset enumeration) against
   the sequential [Reference] enumerators at a random [k]. *)
let expansion_vs_reference =
  make "expansion_vs_reference" ~max_nodes:12 (fun ~rng g ->
      let n = G.n_nodes g in
      let k = 1 + Random.State.int rng (min 4 (n - 1)) in
      let ee_ref, _ = Reference.edge_expansion g ~k in
      let ee, ee_w = E.ee_exact g ~k in
      let ne_ref, _ = Reference.node_expansion g ~k in
      let ne, ne_w = E.ne_exact g ~k in
      if ee <> ee_ref then
        fail "EE(G, %d): parallel enumeration %d, reference %d" k ee ee_ref
      else if ne <> ne_ref then
        fail "NE(G, %d): parallel enumeration %d, reference %d" k ne ne_ref
      else
        of_invariant
          (Invariants.all
             [
               Invariants.expansion_witness ~kind:`Edge g ~k ~value:ee
                 ~witness:ee_w;
               Invariants.expansion_witness ~kind:`Node g ~k ~value:ne
                 ~witness:ne_w;
             ]))

(* Expansion annealing upper-bounds the exact minimum and its witness
   achieves the claimed value. *)
let anneal_vs_exact =
  make "anneal_vs_exact" ~max_nodes:12 (fun ~rng g ->
      let n = G.n_nodes g in
      let k = 1 + Random.State.int rng (min 4 (n - 1)) in
      let exact, _ = E.ee_exact g ~k in
      let ub, witness = E.ee_anneal ~rng ~steps:2_000 g ~k in
      if ub < exact then
        fail "EE annealing reports %d below the exact minimum %d" ub exact
      else
        of_invariant
          (Invariants.expansion_witness ~kind:`Edge g ~k ~value:ub ~witness))

let all =
  [
    exact_vs_reference;
    bb_vs_exhaustive;
    parallel_vs_sequential;
    u_bisection_vs_reference;
    supervised_vs_exact;
    heuristics_respect_exact;
    multilevel_vs_exact;
    expansion_vs_reference;
    anneal_vs_exact;
  ]
