module G = Bfly_graph.Graph
module Bitset = Bfly_graph.Bitset
module B = Bfly_networks.Butterfly
module W = Bfly_networks.Wrapped
module Ccc = Bfly_networks.Ccc
module Bw = Bfly_core.Bw
module E = Bfly_expansion.Expansion
module Witness = Bfly_expansion.Witness
module Credit = Bfly_expansion.Credit
module Json = Bfly_obs.Json

type check = { name : string; ok : bool; detail : string }

let check_json c =
  Json.Obj
    [ ("name", Json.Str c.name); ("ok", Json.Bool c.ok);
      ("detail", Json.Str c.detail) ]

let mk name ok detail = { name; ok; detail }

let witness_ok g (br : Bw.bracket) =
  Invariants.bisection_cut g ~value:br.Bw.upper ~witness:br.Bw.witness

let law_check ~name ~expected g br =
  let inv = witness_ok g br in
  let ok =
    br.Bw.lower = expected && br.Bw.upper = expected && Invariants.is_pass inv
  in
  let detail =
    Printf.sprintf "bracket [%d, %d], law value %d%s" br.Bw.lower br.Bw.upper
      expected
      (match Invariants.message inv with
      | None -> ""
      | Some m -> "; witness: " ^ m)
  in
  mk name ok detail

(* Lemma 3.2 on [W_n], [n = 2^log_n]: the [Bfly_core.Bw.wrapped] bracket
   pins [n] exactly and its witness is a valid bisection of that
   capacity. *)
let wrapped_law ~log_n =
  let n = 1 lsl log_n in
  let w = W.create ~log_n in
  law_check
    ~name:(Printf.sprintf "lemma-3.2/BW(W_%d)=%d" n n)
    ~expected:n (W.graph w) (Bw.wrapped n)

(* Lemma 3.3 on [CCC_n]: bracket pins [n/2], witness valid. *)
let ccc_law ~log_n =
  let n = 1 lsl log_n in
  let c = Ccc.create ~log_n in
  law_check
    ~name:(Printf.sprintf "lemma-3.3/BW(CCC_%d)=%d" n (n / 2))
    ~expected:(n / 2) (Ccc.graph c) (Bw.ccc n)

(* The [BW(B_n)] sandwich: bracket consistent ([lower <= upper], witness
   achieves [upper]), Lemma 2.13 mesh-of-stars bound below the bracket,
   and — for [log_n <= 2], where the level solvers are cheap — the exact
   value inside the bracket with [min_i BW(B_n, L_i) <= BW(B_n)]
   (Lemma 2.12). *)
let butterfly_sandwich ~log_n =
  let n = 1 lsl log_n in
  let b = B.create ~log_n in
  let g = B.graph b in
  let br = Bw.butterfly n in
  let inv = witness_ok g br in
  let bracket_check =
    mk
      (Printf.sprintf "bracket/BW(B_%d)" n)
      (br.Bw.lower <= br.Bw.upper && Invariants.is_pass inv)
      (Printf.sprintf "[%d, %d] by %s / %s%s" br.Bw.lower br.Bw.upper
         br.Bw.lower_method br.Bw.upper_method
         (match Invariants.message inv with
         | None -> ""
         | Some m -> "; witness: " ^ m))
  in
  let mos_lb = Bfly_mos.Mos_analysis.butterfly_lower_bound n in
  let mos_check =
    mk
      (Printf.sprintf "lemma-2.13/mos-bound(B_%d)" n)
      (mos_lb <= br.Bw.upper)
      (Printf.sprintf "2 BW(MOS)/n = %d <= upper %d" mos_lb br.Bw.upper)
  in
  let level_checks =
    if log_n > 2 then []
    else begin
      let exact, _ = Bfly_cuts.Exact.bisection_width ~upper_bound:br.Bw.upper g in
      let min_level =
        List.fold_left
          (fun acc level ->
            let v, _ = Bfly_cuts.Level_cut.level_bisection_width b ~level () in
            min acc v)
          max_int
          (List.init (B.levels b) Fun.id)
      in
      [
        mk
          (Printf.sprintf "exact-in-bracket/BW(B_%d)" n)
          (br.Bw.lower <= exact && exact <= br.Bw.upper)
          (Printf.sprintf "exact %d in [%d, %d]" exact br.Bw.lower br.Bw.upper);
        mk
          (Printf.sprintf "lemma-2.12/level-cut(B_%d)" n)
          (min_level <= exact)
          (Printf.sprintf "min_i BW(B_n, L_i) = %d <= BW = %d" min_level exact);
      ]
    end
  in
  (bracket_check :: mos_check :: level_checks)

(* Section 4 envelopes. At the witness sizes the closed-form lower bounds,
   the measured witness values and (when enumerable) the exact minima must
   nest: lower <= exact <= witness = lemma formula. *)

let envelope_ee_wrapped ~log_n ~dim ~with_exact =
  let w = W.create ~log_n in
  let g = W.graph w in
  let s = Witness.wn_ee ~dim w in
  let k = Bitset.cardinal s in
  let witness_value = Reference.cut_capacity g s in
  let lemma_value = 4 * (1 lsl dim) in
  let lower = Credit.Bounds.ee_wn_lower k in
  let credit = Credit.wn_edge w s in
  let exact_ok, exact_detail =
    if with_exact then begin
      let exact, ws = E.ee_exact g ~k in
      ( exact <= witness_value
        && lower <= float_of_int exact +. 1e-9
        && Invariants.is_pass
             (Invariants.expansion_witness ~kind:`Edge g ~k ~value:exact
                ~witness:ws),
        Printf.sprintf "; exact %d" exact )
    end
    else (true, "")
  in
  mk
    (Printf.sprintf "lemma-4.1/EE(W_%d, %d)" (1 lsl log_n) k)
    (witness_value = lemma_value
    && lower <= float_of_int witness_value +. 1e-9
    && credit.Credit.certified <= credit.Credit.actual
    && exact_ok)
    (Printf.sprintf "lower %.2f <= witness %d = 4*2^%d, credit %d/%d%s" lower
       witness_value dim credit.Credit.certified credit.Credit.actual
       exact_detail)

let envelope_ee_butterfly ~log_n ~dim ~with_exact =
  let b = B.create ~log_n in
  let g = B.graph b in
  let s = Witness.bn_ee ~dim b in
  let k = Bitset.cardinal s in
  let witness_value = Reference.cut_capacity g s in
  let lemma_value = 2 * (1 lsl dim) in
  let lower = Credit.Bounds.ee_bn_lower k in
  let credit = Credit.bn_edge b s in
  let exact_ok, exact_detail =
    if with_exact then begin
      let exact, _ = E.ee_exact g ~k in
      ( exact <= witness_value && lower <= float_of_int exact +. 1e-9,
        Printf.sprintf "; exact %d" exact )
    end
    else (true, "")
  in
  mk
    (Printf.sprintf "lemma-4.7/EE(B_%d, %d)" (1 lsl log_n) k)
    (witness_value = lemma_value
    && lower <= float_of_int witness_value +. 1e-9
    && credit.Credit.certified <= credit.Credit.actual
    && exact_ok)
    (Printf.sprintf "lower %.2f <= witness %d = 2*2^%d, credit %d/%d%s" lower
       witness_value dim credit.Credit.certified credit.Credit.actual
       exact_detail)

let envelope_ne_wrapped ~log_n ~dim =
  let w = W.create ~log_n in
  let g = W.graph w in
  let s = Witness.wn_ne ~dim w in
  let k = Bitset.cardinal s in
  let witness_value = Reference.neighborhood_size g s in
  let lemma_value = 3 * (1 lsl (dim + 1)) in
  let lower = Credit.Bounds.ne_wn_lower k in
  let credit = Credit.wn_node w s in
  mk
    (Printf.sprintf "lemma-4.4/NE(W_%d, %d)" (1 lsl log_n) k)
    (witness_value = lemma_value
    && lower <= float_of_int witness_value +. 1e-9
    && credit.Credit.certified <= credit.Credit.actual)
    (Printf.sprintf "lower %.2f <= witness %d = 3*2^%d, credit %d/%d" lower
       witness_value (dim + 1) credit.Credit.certified credit.Credit.actual)

let envelope_ne_butterfly ~log_n ~dim ~with_exact =
  let b = B.create ~log_n in
  let g = B.graph b in
  let s = Witness.bn_ne ~dim b in
  let k = Bitset.cardinal s in
  let witness_value = Reference.neighborhood_size g s in
  let lemma_value = 1 lsl (dim + 1) in
  let lower = Credit.Bounds.ne_bn_lower k in
  let exact_ok, exact_detail =
    if with_exact then begin
      let exact, _ = E.ne_exact g ~k in
      ( exact <= witness_value && lower <= float_of_int exact +. 1e-9,
        Printf.sprintf "; exact %d" exact )
    end
    else (true, "")
  in
  mk
    (Printf.sprintf "lemma-4.10/NE(B_%d, %d)" (1 lsl log_n) k)
    (witness_value = lemma_value
    && lower <= float_of_int witness_value +. 1e-9
    && exact_ok)
    (Printf.sprintf "lower %.2f <= witness %d = 2^%d%s" lower witness_value
       (dim + 1) exact_detail)

(* Section 4 envelopes at the witness sizes [k = (d+1)·2^d] (and sibling
   pairs [2k]): closed-form lower bounds below the measured witness
   values, witness values equal to the Lemma 4.1/4.4/4.7/4.10 formulas,
   credit certificates sound, and (small instances) the exact minimum
   inside the envelope. [smoke] skips the exponential exact parts. *)
let expansion_envelopes ~smoke =
  let base =
    [
      (* W_8, dim 1, k = 4: C(24,4) subsets — exact is cheap *)
      envelope_ee_wrapped ~log_n:3 ~dim:1 ~with_exact:true;
      (* B_8, dim 1, k = 4 *)
      envelope_ee_butterfly ~log_n:3 ~dim:1 ~with_exact:true;
      (* W_16 NE needs dim + 2 < log_n; credit-certified only (C(64,8) is
         out of enumeration reach) *)
      envelope_ne_wrapped ~log_n:4 ~dim:1;
    ]
  in
  if smoke then base
  else
    base
    @ [
        (* B_8 sibling pair, k = 8: C(32,8) ≈ 10.5M, parallel enumeration *)
        envelope_ne_butterfly ~log_n:3 ~dim:1 ~with_exact:true;
        envelope_ee_wrapped ~log_n:4 ~dim:2 ~with_exact:false;
        envelope_ee_butterfly ~log_n:4 ~dim:2 ~with_exact:false;
      ]

(* ------------------------------------------------------------------ *)
(* Product networks (arXiv:1202.6291)                                  *)
(* ------------------------------------------------------------------ *)

module Gen = Bfly_graph.Generators
module Fabric = Bfly_networks.Fabric
module Constructions = Bfly_cuts.Constructions
module Multilevel = Bfly_cuts.Multilevel

(* The closed-form arithmetic lives in {!Fabric} (pure spec arithmetic,
   usable by the experiment harness below bfly_check in the dependency
   order); the oracles here re-export and *check* it against constructed
   cuts and solver outputs. *)
type product_bound = Fabric.bound = {
  lower : int;
  exact : int option;
  method_ : string;
}

let mesh_bounds = Fabric.mesh_bounds
let torus_bounds = Fabric.torus_bounds
let hamming_bounds = Fabric.hamming_bounds
let fabric_bounds = Fabric.bounds

let c_sandwich = Bfly_obs.Metrics.counter "product.sandwich.checks"
let t_bounds = Bfly_obs.Metrics.timer "check.bounds"

let product_rng () = Random.State.make [| 0xfab; 0x5eed |]

(* The sandwich oracle on one fabric: certified LB ≤ multilevel
   heuristic ≤ best dimension-aligned cut, both witnesses re-validated
   by [Invariants.bisection_cut]; when a closed form covers the
   instance, additionally LB = constructed = formula; with
   [~with_exact:true] (small instances only) the exact solver must land
   inside the sandwich and match the formula. Records the
   [product.sandwich.checks] counter. *)
let product_sandwich ?(with_exact = false) spec =
  let fab = Fabric.create spec in
  let g = Fabric.graph fab in
  let name = Fabric.name spec in
  let b = fabric_bounds spec in
  let axis, constructed, side =
    Constructions.best_dimension_cut ~dims:(Fabric.dims spec) g
  in
  let side_inv = Invariants.bisection_cut g ~value:constructed ~witness:side in
  let heur, hside = Multilevel.bisect ~rng:(product_rng ()) g in
  let heur_inv = Invariants.bisection_cut g ~value:heur ~witness:hside in
  Bfly_obs.Metrics.incr c_sandwich;
  let closed_ok, closed_detail =
    match b.exact with
    | Some v -> (b.lower = v && constructed = v, Printf.sprintf "; closed form %d" v)
    | None -> (true, "")
  in
  let exact_ok, exact_detail =
    if with_exact then begin
      let exact, _ = Bfly_cuts.Exact.bisection_width g in
      ( b.lower <= exact && exact <= heur
        && (match b.exact with Some v -> exact = v | None -> true),
        Printf.sprintf "; exact %d" exact )
    end
    else (true, "")
  in
  mk
    (Printf.sprintf "product-sandwich/%s" name)
    (Invariants.is_pass side_inv && Invariants.is_pass heur_inv
    && b.lower <= heur && heur <= constructed && closed_ok && exact_ok)
    (Printf.sprintf "LB %d (%s) <= ml %d <= constructed %d (axis %d)%s%s%s"
       b.lower b.method_ heur constructed axis closed_detail exact_detail
       (match
          ( Invariants.message side_inv,
            Invariants.message heur_inv )
        with
       | None, None -> ""
       | Some m, _ | _, Some m -> "; witness: " ^ m))

(* BW(G × K_2) identities, checked exactly on small instances: the cut
   between the two copies of G is always a bisection of capacity |V(G)|,
   and when |V(G)| is even a doubled bisection of G is balanced too, so
   BW(G × K_2) <= min(2·BW(G), |V(G)|); with odd |V(G)| only the copy cut
   survives (the doubled cut is unbalanced — mesh 2x3x3 realizes
   BW = |V(G)| = 9 > 2·BW(3x3) = 8). *)
let product_k2_identity ~name g =
  let nv = G.n_nodes g in
  let bw_g, _ = Bfly_cuts.Exact.bisection_width g in
  let prod = Gen.product g (Gen.complete 2) in
  let bw_p, _ = Bfly_cuts.Exact.bisection_width prod in
  let ub = if nv mod 2 = 0 then min (2 * bw_g) nv else nv in
  mk
    (Printf.sprintf "product-identity/BW(%s x K2)" name)
    (bw_p <= ub)
    (Printf.sprintf "BW(G x K2) = %d <= %d (BW(G) = %d, |V| = %d)" bw_p ub
       bw_g nv)

let product_networks ~smoke =
  let base =
    [
      (* even closed forms: LB = construction = exact formula *)
      product_sandwich ~with_exact:true (Fabric.Mesh [ 4; 4 ]);
      product_sandwich ~with_exact:true (Fabric.Torus [ 4; 4 ]);
      (* all-odd closed form *)
      product_sandwich ~with_exact:true (Fabric.Mesh [ 3; 3 ]);
      (* BCube-style: H(3,2) is the hypercube Q_3 *)
      product_sandwich ~with_exact:true
        (Fabric.Bcube { ports = 2; levels = 3 });
      (* 3-D all-odd torus, heuristic + construction only (27 nodes) *)
      product_sandwich (Fabric.Torus [ 3; 3; 3 ]);
      (* mixed product: certified spanning-mesh LB only *)
      product_sandwich ~with_exact:true
        (Fabric.Product [ Fabric.Fpath 2; Fabric.Fclique 4 ]);
      product_k2_identity ~name:"P5" (Gen.path 5);
    ]
  in
  if smoke then base
  else
    base
    @ [
        product_sandwich ~with_exact:true (Fabric.Mesh [ 3; 5 ]);
        product_sandwich ~with_exact:true (Fabric.Mesh [ 2; 3; 3 ]);
        product_sandwich ~with_exact:true (Fabric.Torus [ 3; 5 ]);
        product_sandwich ~with_exact:true
          (Fabric.Bcube { ports = 4; levels = 2 });
        product_sandwich (Fabric.Mesh [ 2; 4; 8 ]);
        product_sandwich (Fabric.Torus [ 4; 4; 4 ]);
        product_sandwich (Fabric.Bcube { ports = 4; levels = 3 });
        product_sandwich
          (Fabric.Product [ Fabric.Fring 4; Fabric.Fclique 3; Fabric.Fpath 2 ]);
        product_k2_identity ~name:"grid3x3" (Gen.grid ~rows:3 ~cols:3);
        product_k2_identity ~name:"C6" (Gen.cycle 6);
      ]

let all ~smoke =
  Bfly_obs.Span.time t_bounds @@ fun () ->
  let laws =
    if smoke then
      [ wrapped_law ~log_n:2; ccc_law ~log_n:2 ] @ butterfly_sandwich ~log_n:2
    else
      [ wrapped_law ~log_n:2; wrapped_law ~log_n:3;
        ccc_law ~log_n:2; ccc_law ~log_n:3 ]
      @ butterfly_sandwich ~log_n:2
      @ butterfly_sandwich ~log_n:3
  in
  laws @ expansion_envelopes ~smoke @ product_networks ~smoke
