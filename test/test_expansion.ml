module G = Bfly_graph.Graph
module Bitset = Bfly_graph.Bitset
module E = Bfly_expansion.Expansion
module Witness = Bfly_expansion.Witness
module Credit = Bfly_expansion.Credit
module B = Bfly_networks.Butterfly
module W = Bfly_networks.Wrapped
open Tu

let square () = G.of_edge_list ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ]

(* ---- exact minimizers ---- *)

let test_exact_on_square () =
  check "EE(C4,1)" 2 (fst (E.ee_exact (square ()) ~k:1));
  check "EE(C4,2)" 2 (fst (E.ee_exact (square ()) ~k:2));
  check "NE(C4,1)" 2 (fst (E.ne_exact (square ()) ~k:1));
  check "NE(C4,2)" 2 (fst (E.ne_exact (square ()) ~k:2));
  check "NE(C4,3)" 1 (fst (E.ne_exact (square ()) ~k:3))

let test_exact_witness_achieves () =
  let g = W.graph (W.of_inputs 8) in
  List.iter
    (fun k ->
      let v, s = E.ee_exact g ~k in
      check "witness cardinality" k (Bitset.cardinal s);
      check "witness achieves" v (E.edge_expansion g s);
      let v', s' = E.ne_exact g ~k in
      check "ne witness cardinality" k (Bitset.cardinal s');
      check "ne witness achieves" v' (E.node_expansion g s'))
    [ 1; 3; 5; 7 ]

let prop_exact_below_random_sets =
  qcheck ~count:60 "exact minimum is below random sets of the same size"
    (seeded QCheck2.Gen.(pair (int_range 4 14) (int_range 1 6)))
    (fun ((n, k), seed) ->
      let rng = rng seed in
      let k = min k (n - 1) in
      let g = random_graph ~rng n ~extra_edges:n in
      let s = random_subset ~rng n k in
      fst (E.ee_exact g ~k) <= E.edge_expansion g s
      && fst (E.ne_exact g ~k) <= E.node_expansion g s)

let test_anneal_upper_bounds () =
  let g = W.graph (W.of_inputs 8) in
  List.iter
    (fun k ->
      let exact, _ = E.ee_exact g ~k in
      let ub, s = E.ee_anneal ~steps:30_000 g ~k in
      check "anneal achieves its value" ub (E.edge_expansion g s);
      checkb "anneal >= exact" true (ub >= exact);
      let exact_n, _ = E.ne_exact g ~k in
      let ub_n, _ = E.ne_anneal ~steps:30_000 g ~k in
      checkb "ne anneal >= exact" true (ub_n >= exact_n))
    [ 2; 4; 6 ]

(* ---- witnesses (Lemmas 4.1, 4.4, 4.7, 4.10) ---- *)

let test_witness_sizes () =
  let w = W.of_inputs 64 in
  let b = B.of_inputs 64 in
  List.iter
    (fun dim ->
      check "wn_ee size" (Witness.single_size ~dim)
        (Bitset.cardinal (Witness.wn_ee ~dim w));
      check "bn_ee size" (Witness.single_size ~dim)
        (Bitset.cardinal (Witness.bn_ee ~dim b));
      check "bn_ne size" (Witness.pair_size ~dim)
        (Bitset.cardinal (Witness.bn_ne ~dim b)))
    [ 1; 2; 3 ];
  List.iter
    (fun dim ->
      check "wn_ne size" (Witness.pair_size ~dim)
        (Bitset.cardinal (Witness.wn_ne ~dim w)))
    [ 1; 2; 3 ]

let test_witness_values () =
  let w = W.of_inputs 64 in
  let b = B.of_inputs 64 in
  let gw = W.graph w and gb = B.graph b in
  List.iter
    (fun dim ->
      check "Lemma 4.1: EE witness = 4*2^d" (4 * (1 lsl dim))
        (E.edge_expansion gw (Witness.wn_ee ~dim w));
      check "Lemma 4.4: NE witness = 3*2^(d+1)" (3 * (1 lsl (dim + 1)))
        (E.node_expansion gw (Witness.wn_ne ~dim w));
      check "Lemma 4.7: EE witness = 2*2^d" (2 * (1 lsl dim))
        (E.edge_expansion gb (Witness.bn_ee ~dim b));
      check "Lemma 4.10: NE witness = 2^(d+1)" (1 lsl (dim + 1))
        (E.node_expansion gb (Witness.bn_ne ~dim b)))
    [ 1; 2; 3 ]

let test_witnesses_are_optimal_small () =
  (* at W_8, the k=8 sub-butterfly (dim 1... sizes don't align; use B_8's
     dim-1 EE witness of size 4 and compare with the exact minimum *)
  let b = B.of_inputs 8 in
  let g = B.graph b in
  let s = Witness.bn_ee ~dim:1 b in
  let k = Bitset.cardinal s in
  let exact, _ = E.ee_exact g ~k in
  check "witness optimal at k=4 in B_8" exact (E.edge_expansion g s)

(* ---- credit schemes (Lemmas 4.2, 4.5, 4.8, 4.11) ---- *)

let test_credit_soundness_random =
  qcheck ~count:150 "credit bounds never exceed the actual values"
    (seeded QCheck2.Gen.(int_range 1 40))
    (fun (k, seed) ->
      let rng = rng seed in
      let w = W.of_inputs 16 in
      let b = B.of_inputs 16 in
      let sw = random_subset ~rng (W.size w) (min k (W.size w)) in
      let sb = random_subset ~rng (B.size b) (min k (B.size b)) in
      let rw = Credit.wn_edge w sw and rwn = Credit.wn_node w sw in
      let rb = Credit.bn_edge b sb and rbn = Credit.bn_node b sb in
      rw.Credit.certified <= rw.Credit.actual
      && rwn.Credit.certified <= rwn.Credit.actual
      && rb.Credit.certified <= rb.Credit.actual
      && rbn.Credit.certified <= rbn.Credit.actual)

let test_credit_conservation () =
  (* distributed credit = retained + leaked, exactly (dyadic floats) *)
  let w = W.of_inputs 32 in
  let s = Witness.wn_ee ~dim:2 w in
  let r = Credit.wn_edge w s in
  Alcotest.(check (float 1e-9))
    "conservation" (float_of_int r.Credit.set_size)
    (r.Credit.retained +. r.Credit.leaked)

let test_credit_caps_respected () =
  (* the measured per-edge maximum never exceeds the paper's cap *)
  let w = W.of_inputs 32 in
  let b = B.of_inputs 32 in
  let rng = Random.State.make [| 21 |] in
  for _ = 1 to 50 do
    let k = 1 + Random.State.int rng 20 in
    let sw = random_subset ~rng (W.size w) k in
    let sb = random_subset ~rng (B.size b) k in
    let rw = Credit.wn_edge w sw in
    checkb "W edge cap (Lemma 4.2)" true (rw.Credit.max_retained <= rw.Credit.cap +. 1e-9);
    let rwn = Credit.wn_node w sw in
    checkb "W node cap (Lemma 4.5)" true
      (rwn.Credit.max_retained <= rwn.Credit.cap +. 1e-9);
    let rb = Credit.bn_edge b sb in
    checkb "B edge cap (Lemma 4.8)" true (rb.Credit.max_retained <= rb.Credit.cap +. 1e-9);
    let rbn = Credit.bn_node b sb in
    checkb "B node cap (Lemma 4.11)" true
      (rbn.Credit.max_retained <= rbn.Credit.cap +. 1e-9)
  done

let test_credit_leak_small_for_small_sets () =
  (* the Lemma 4.2 leak bound: leaked <= k^2/n *)
  let w = W.of_inputs 64 in
  let s = Witness.wn_ee ~dim:2 w in
  let r = Credit.wn_edge w s in
  let k = float_of_int r.Credit.set_size in
  checkb "leak <= k^2/n" true (r.Credit.leaked <= (k *. k /. 64.) +. 1e-9)

let test_credit_single_node () =
  let w = W.of_inputs 16 in
  let s = Bitset.create (W.size w) in
  Bitset.add s (W.node w ~col:3 ~level:1);
  let r = Credit.wn_edge w s in
  check "isolated node: all credit on its 4 edges" 4 r.Credit.certified;
  check "actual" 4 r.Credit.actual

let test_credit_whole_network_leaks () =
  (* A = everything: no cut edges, everything leaks *)
  let w = W.of_inputs 8 in
  let s = Bitset.create (W.size w) in
  Bitset.fill s;
  let r = Credit.wn_edge w s in
  check "no cut edges" 0 r.Credit.actual;
  check "certified zero" 0 r.Credit.certified;
  Alcotest.(check (float 1e-9))
    "everything leaked" (float_of_int (W.size w)) r.Credit.leaked

let test_bounds_formulas () =
  Alcotest.(check (float 1e-9)) "ee_wn at 16" 16.0 (Credit.Bounds.ee_wn_lower 16);
  Alcotest.(check (float 1e-9)) "ne_wn at 16" 4.0 (Credit.Bounds.ne_wn_lower 16);
  Alcotest.(check (float 1e-9)) "ee_bn at 16" 8.0 (Credit.Bounds.ee_bn_lower 16);
  Alcotest.(check (float 1e-9)) "ne_bn at 16" 2.0 (Credit.Bounds.ne_bn_lower 16);
  Alcotest.(check (float 1e-9)) "k=1 guard" 0.0 (Credit.Bounds.ee_wn_lower 1)

(* ---- deadlines in the annealers ---- *)

module Cancel = Bfly_resil.Cancel

let expired () =
  let t = Cancel.create ~budget:(Bfly_resil.Budget.make ~wall_s:1e-9 ()) () in
  while not (Cancel.triggered t) do
    Domain.cpu_relax ()
  done;
  t

(* Unbounded, B_256 at k = 10 anneals for 400,000 steps (seconds of
   work). Under an ambient token that has already fired, installed as
   Job.run and the CLI install theirs, each returns at its first poll,
   with a real k-set that recounts to the value. *)
let test_anneal_expired_token () =
  let g = B.graph (B.create ~log_n:8) in
  List.iter
    (fun (what, anneal, recount) ->
      let t0 = Unix.gettimeofday () in
      let value, witness = Cancel.with_ambient (expired ()) anneal in
      let elapsed = Unix.gettimeofday () -. t0 in
      checkb (what ^ ": returns within 1 s") true (elapsed < 1.0);
      check (what ^ ": a k-set") 10 (Bitset.cardinal witness);
      check (what ^ ": value recounts") (recount g witness) value)
    [
      ( "ee",
        (fun () -> E.ee_anneal ~rng:(rng 1) g ~k:10),
        Bfly_check.Reference.cut_capacity );
      ( "ne",
        (fun () -> E.ne_anneal ~rng:(rng 1) g ~k:10),
        Bfly_check.Reference.neighborhood_size );
    ]

(* Polling draws nothing from the rng: under a live ambient token the
   annealers take the trajectory they take with none. *)
let test_anneal_live_token_unchanged () =
  List.iter
    (fun g ->
      List.iter
        (fun k ->
          let live f = Cancel.with_ambient (Cancel.create ()) f in
          checkb "ee: same value and witness" true
            (E.ee_anneal ~rng:(rng k) ~steps:5_000 g ~k
            = live (fun () -> E.ee_anneal ~rng:(rng k) ~steps:5_000 g ~k));
          checkb "ne: same value and witness" true
            (E.ne_anneal ~rng:(rng k) ~steps:5_000 g ~k
            = live (fun () -> E.ne_anneal ~rng:(rng k) ~steps:5_000 g ~k)))
        [ 2; 5; 9 ])
    [ B.graph (B.create ~log_n:3); W.graph (W.of_inputs 8) ]

let suite =
  [
    case "exact minimizers on C4" test_exact_on_square;
    case "exact witnesses achieve their value" test_exact_witness_achieves;
    prop_exact_below_random_sets;
    case "annealing upper-bounds exact" test_anneal_upper_bounds;
    case "witness sizes" test_witness_sizes;
    case "witness values (Lemmas 4.1/4.4/4.7/4.10)" test_witness_values;
    case "EE witness optimal at its size in B_8" test_witnesses_are_optimal_small;
    test_credit_soundness_random;
    case "credit conservation" test_credit_conservation;
    case "credit caps (Lemmas 4.2/4.5/4.8/4.11)" test_credit_caps_respected;
    case "credit leak bound" test_credit_leak_small_for_small_sets;
    case "credit on a single node" test_credit_single_node;
    case "credit on the whole network" test_credit_whole_network_leaks;
    case "closed-form bound values" test_bounds_formulas;
    case "annealers return promptly under an expired token"
      test_anneal_expired_token;
    case "annealers: a live token changes no draw" test_anneal_live_token_unchanged;
  ]
