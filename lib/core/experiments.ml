module G = Bfly_graph.Graph
module Bitset = Bfly_graph.Bitset
module Traverse = Bfly_graph.Traverse
module Perm = Bfly_graph.Perm
module Butterfly = Bfly_networks.Butterfly
module Fabric = Bfly_networks.Fabric
module Wrapped = Bfly_networks.Wrapped
module Ccc = Bfly_networks.Ccc
module Benes = Bfly_networks.Benes
module Constructions = Bfly_cuts.Constructions
module Exact = Bfly_cuts.Exact
module Heuristics = Bfly_cuts.Heuristics
module Multilevel = Bfly_cuts.Multilevel
module Mos_analysis = Bfly_mos.Mos_analysis
module Classic = Bfly_embed.Classic
module Embedding = Bfly_embed.Embedding
module Lower_bounds = Bfly_embed.Lower_bounds
module Expansion = Bfly_expansion.Expansion
module Witness = Bfly_expansion.Witness
module Credit = Bfly_expansion.Credit
module Router = Bfly_routing.Router
module Workload = Bfly_routing.Workload

let rng () = Random.State.make [| 0xb15ec; 0x7101 |]
let cap g side = Traverse.boundary_edges g side
let fi = Report.fint
let ff = Report.ffloat

(* ------------------------------------------------------------------ *)

(* Theorem 2.20: [BW(B_n)] — exact values for small [n], certified lower
   bounds and constructed bisections beyond, against [2(√2−1)n]. *)
let e1_butterfly_bisection () =
  let row n =
    let b = Butterfly.of_inputs n in
    let g = Butterfly.graph b in
    let nf = float_of_int n in
    let folklore = cap g (Constructions.butterfly_column_cut b) in
    let construction =
      if Butterfly.log_n b >= 2 then begin
        let _, c, _ = Constructions.best_mos_pullback b in
        Some c
      end
      else None
    in
    let heuristic =
      (* the flat portfolio up to a few thousand nodes (unchanged, so the
         small rows stay byte-identical run to run); the multilevel
         partitioner from there out to n = 4096, where the flat kernels
         stop converging in useful time *)
      if n <= 2 then None
      else if Butterfly.size b <= 3000 then begin
        let c, _, _ = Heuristics.best_of ~rng:(rng ()) g in
        Some c
      end
      else begin
        let c, _ = Multilevel.bisect ~rng:(rng ()) g in
        Some c
      end
    in
    let exact =
      if Butterfly.size b <= 32 then begin
        let ub =
          List.fold_left min folklore
            (List.filter_map Fun.id [ construction; heuristic ])
        in
        let c, _ = Exact.bisection_width ~upper_bound:ub g in
        Some c
      end
      else None
    in
    let lower = Mos_analysis.butterfly_lower_bound n in
    let upper =
      match exact with
      | Some c -> c
      | None ->
          List.fold_left min folklore
            (List.filter_map Fun.id [ construction; heuristic ])
    in
    [
      fi n;
      fi (Butterfly.size b);
      fi folklore;
      Report.fopt fi construction;
      Report.fopt fi heuristic;
      fi lower;
      Report.fopt fi exact;
      ff (Bw.butterfly_constant *. nf);
      ff (float_of_int upper /. nf);
      ff (float_of_int lower /. nf);
    ]
  in
  Report.table
    ~title:
      "E1 (Theorem 2.20): BW(B_n) = 2(sqrt 2 - 1) n + o(n), against the \
       folklore value n"
    ~header:
      [
        "n"; "N"; "folklore"; "MOS-cut"; "heuristic"; "cert.LB"; "exact";
        "0.8284n"; "UB/n"; "LB/n";
      ]
    (List.map row [ 2; 4; 8; 16; 64; 256; 1024; 4096 ])

let e2_mos_convergence () =
  let row j =
    let bw, density, ratio = Mos_analysis.convergence_row j in
    let brute = if j <= 4 then Some (Mos_analysis.bw_m2_brute j) else None in
    [ fi j; fi bw; Report.fopt fi brute; ff ~digits:5 density;
      ff ~digits:5 Mos_analysis.f_min; ff ~digits:4 ratio ]
  in
  Report.table
    ~title:
      "E2 (Lemmas 2.17-2.19): BW(MOS_{j,j}, M2) / j^2 converges to sqrt 2 - 1 \
       from above"
    ~header:[ "j"; "BW(MOS,M2)"; "brute"; "density"; "sqrt2-1"; "ratio" ]
    (List.map row [ 2; 3; 4; 8; 16; 32; 64; 128; 256; 1024; 4096 ])

(* Lemmas 3.1–3.2: [BW(W_n) = n]. *)
let e3_wrapped_bisection () =
  let row n =
    let br = Bw.wrapped n in
    let exact =
      if n <= 8 then begin
        let w = Wrapped.of_inputs n in
        let c, _ = Exact.bisection_width ~upper_bound:br.Bw.upper (Wrapped.graph w) in
        Some c
      end
      else None
    in
    [
      fi n; fi (n * (let rec l a v = if v = n then a else l (a+1) (2*v) in l 0 1));
      fi br.Bw.lower; fi br.Bw.upper; Report.fopt fi exact;
      Report.fbool (Bw.exact br && br.Bw.upper = n);
    ]
  in
  Report.table
    ~title:"E3 (Lemmas 3.1-3.2): BW(W_n) = n"
    ~header:[ "n"; "N"; "cert.LB"; "column cut"; "exact"; "= n" ]
    (List.map row [ 4; 8; 16; 32; 64 ])

let e4_ccc_bisection () =
  let row log_n =
    let n = 1 lsl log_n in
    let br = Bw.ccc n in
    let exact =
      if n * log_n <= 24 then begin
        let c = Ccc.create ~log_n in
        let v, _ = Exact.bisection_width ~upper_bound:br.Bw.upper (Ccc.graph c) in
        Some v
      end
      else None
    in
    [
      fi n; fi (n * log_n); fi br.Bw.lower; fi br.Bw.upper;
      Report.fopt fi exact; Report.fbool (Bw.exact br && 2 * br.Bw.upper = n);
    ]
  in
  Report.table
    ~title:"E4 (Lemma 3.3): BW(CCC_n) = n/2"
    ~header:[ "n"; "N"; "cert.LB"; "dim cut"; "exact"; "= n/2" ]
    (List.map row [ 2; 3; 4; 5; 6 ])

(* ---- expansion tables ------------------------------------------------ *)

(* exact expansion rows on a small instance *)
let exact_rows g net_credit ks exact_fn bound_lower bound_upper =
  List.map
    (fun k ->
      let v, witness = exact_fn g ~k in
      let certified = net_credit witness in
      [
        fi k; fi v; fi certified;
        ff (bound_lower k); ff (bound_upper k);
        (if k >= 2 then
           ff (float_of_int v *. (log (float_of_int k) /. log 2.) /. float_of_int k)
         else "-");
      ])
    ks

(* witness-driven rows on a larger instance *)
let witness_rows make_witness measure net_credit dims =
  List.map
    (fun dim ->
      let s = make_witness dim in
      let k = Bitset.cardinal s in
      let v = measure s in
      let certified = net_credit s in
      [
        fi dim; fi k; fi v; fi certified;
        (if k >= 2 then
           ff (float_of_int v *. (log (float_of_int k) /. log 2.) /. float_of_int k)
         else "-");
      ])
    dims

let small_header = [ "k"; "exact"; "credit-LB"; "paper LB"; "paper UB"; "v*logk/k" ]
let witness_header = [ "dim"; "k"; "witness"; "credit-LB"; "v*logk/k" ]

(* Lemmas 4.1–4.2: [EE(W_n, k)] vs [4k/log k]. *)
let e5_wn_edge_expansion () =
  let w8 = Wrapped.of_inputs 8 in
  let g8 = Wrapped.graph w8 in
  let small =
    exact_rows g8
      (fun s -> (Credit.wn_edge w8 s).Credit.certified)
      [ 1; 2; 3; 4; 5; 6; 8; 10; 12 ]
      Expansion.ee_exact Credit.Bounds.ee_wn_lower Credit.Bounds.ee_wn_upper
  in
  let w256 = Wrapped.of_inputs 256 in
  let big =
    witness_rows
      (fun dim -> Witness.wn_ee ~dim w256)
      (Expansion.edge_expansion (Wrapped.graph w256))
      (fun s -> (Credit.wn_edge w256 s).Credit.certified)
      [ 1; 2; 3; 4; 5 ]
  in
  Report.table
    ~title:
      "E5a (Lemmas 4.1-4.2): EE(W_8, k) exactly (N/2 = 12; the k = N/2 value \
       meets BW(W_8) = 8, below 4k/log k as Section 4.1 predicts)"
    ~header:small_header small
  ^ "\n"
  ^ Report.table
      ~title:
        "E5b: sub-butterfly witnesses in W_256 - EE = 4*2^dim = (4+o(1))k/log k"
      ~header:witness_header big

(* Lemmas 4.4–4.5: [NE(W_n, k)] vs [[1,3]·k/log k]. *)
let e6_wn_node_expansion () =
  let w8 = Wrapped.of_inputs 8 in
  let g8 = Wrapped.graph w8 in
  let small =
    exact_rows g8
      (fun s -> (Credit.wn_node w8 s).Credit.certified)
      [ 1; 2; 3; 4; 5; 6; 8; 10; 12 ]
      Expansion.ne_exact Credit.Bounds.ne_wn_lower Credit.Bounds.ne_wn_upper
  in
  let w256 = Wrapped.of_inputs 256 in
  let big =
    witness_rows
      (fun dim -> Witness.wn_ne ~dim w256)
      (Expansion.node_expansion (Wrapped.graph w256))
      (fun s -> (Credit.wn_node w256 s).Credit.certified)
      [ 1; 2; 3; 4; 5 ]
  in
  Report.table
    ~title:"E6a (Lemmas 4.4-4.5): NE(W_8, k) exactly"
    ~header:small_header small
  ^ "\n"
  ^ Report.table
      ~title:
        "E6b: sibling-pair witnesses in W_256 - NE = 3*2^(dim+1) = \
         (3+o(1))k/log k"
      ~header:witness_header big

(* Lemmas 4.7–4.8: [EE(B_n, k)] vs [2k/log k]. *)
let e7_bn_edge_expansion () =
  let b8 = Butterfly.of_inputs 8 in
  let g8 = Butterfly.graph b8 in
  let small =
    exact_rows g8
      (fun s -> (Credit.bn_edge b8 s).Credit.certified)
      [ 1; 2; 3; 4; 5; 6; 8 ]
      Expansion.ee_exact Credit.Bounds.ee_bn_lower Credit.Bounds.ee_bn_upper
  in
  let b256 = Butterfly.of_inputs 256 in
  let big =
    witness_rows
      (fun dim -> Witness.bn_ee ~dim b256)
      (Expansion.edge_expansion (Butterfly.graph b256))
      (fun s -> (Credit.bn_edge b256 s).Credit.certified)
      [ 1; 2; 3; 4; 5 ]
  in
  Report.table
    ~title:"E7a (Lemmas 4.7-4.8): EE(B_8, k) exactly"
    ~header:small_header small
  ^ "\n"
  ^ Report.table
      ~title:
        "E7b: level-0-anchored sub-butterfly witnesses in B_256 - EE = \
         2*2^dim = (2+o(1))k/log k"
      ~header:witness_header big

(* Lemmas 4.10–4.11: [NE(B_n, k)] vs [[½,1]·k/log k]. *)
let e8_bn_node_expansion () =
  let b8 = Butterfly.of_inputs 8 in
  let g8 = Butterfly.graph b8 in
  let small =
    exact_rows g8
      (fun s -> (Credit.bn_node b8 s).Credit.certified)
      [ 1; 2; 3; 4; 5; 6; 8 ]
      Expansion.ne_exact Credit.Bounds.ne_bn_lower Credit.Bounds.ne_bn_upper
  in
  let b256 = Butterfly.of_inputs 256 in
  let big =
    witness_rows
      (fun dim -> Witness.bn_ne ~dim b256)
      (Expansion.node_expansion (Butterfly.graph b256))
      (fun s -> (Credit.bn_node b256 s).Credit.certified)
      [ 1; 2; 3; 4; 5 ]
  in
  Report.table
    ~title:"E8a (Lemmas 4.10-4.11): NE(B_8, k) exactly"
    ~header:small_header small
  ^ "\n"
  ^ Report.table
      ~title:
        "E8b: output-anchored sibling pairs in B_256 - NE = 2^(dim+1) = \
         (1+o(1))k/log k"
      ~header:witness_header big

(* The Section 4.3 summary tables: measured leading constants. *)
let e9_expansion_summary () =
  (* measured leading constants from the largest witnesses *)
  let w = Wrapped.of_inputs 256 and b = Butterfly.of_inputs 256 in
  let const v k = float_of_int v *. (log (float_of_int k) /. log 2.) /. float_of_int k in
  let dim = 5 in
  let row name measure witness_set paper_lo paper_hi =
    let s = witness_set in
    let k = Bitset.cardinal s in
    let v = measure s in
    [ name; fi k; fi v; ff (const v k); paper_lo; paper_hi ]
  in
  Report.table
    ~title:
      "E9 (Section 4.3 summary): measured constants c in value = c*k/log k at \
       the dim=5 witnesses, against the paper's bounds"
    ~header:[ "quantity"; "k"; "value"; "measured c"; "paper LB"; "paper UB" ]
    [
      row "EE(W_n,k)" (Expansion.edge_expansion (Wrapped.graph w))
        (Witness.wn_ee ~dim w) "4 - o(1)" "4 + o(1)";
      row "NE(W_n,k)" (Expansion.node_expansion (Wrapped.graph w))
        (Witness.wn_ne ~dim w) "1 - o(1)" "3 + o(1)";
      row "EE(B_n,k)" (Expansion.edge_expansion (Butterfly.graph b))
        (Witness.bn_ee ~dim b) "2 - o(1)" "2 + o(1)";
      row "NE(B_n,k)" (Expansion.node_expansion (Butterfly.graph b))
        (Witness.bn_ne ~dim b) "1/2 - o(1)" "1 + o(1)";
    ]

(* Section 1.1: node counts, degrees, diameters. *)
let e10_structure () =
  let rows =
    List.concat_map
      (fun log_n ->
        let n = 1 lsl log_n in
        let b = Butterfly.create ~log_n in
        let bg = Butterfly.graph b in
        let brow =
          [
            Printf.sprintf "B_%d" n; fi (Butterfly.size b); fi (G.n_edges bg);
            fi (Traverse.diameter bg); fi (Butterfly.theoretical_diameter b);
            fi (Traverse.radius bg); ff ~digits:2 (Traverse.average_distance bg);
            fi (G.max_degree bg);
          ]
        in
        if log_n >= 2 then begin
          let w = Wrapped.create ~log_n in
          let wg = Wrapped.graph w in
          [
            brow;
            [
              Printf.sprintf "W_%d" n; fi (Wrapped.size w); fi (G.n_edges wg);
              fi (Traverse.diameter wg); fi (Wrapped.theoretical_diameter w);
              fi (Traverse.radius wg); ff ~digits:2 (Traverse.average_distance wg);
              fi (G.max_degree wg);
            ];
          ]
        end
        else [ brow ])
      [ 1; 2; 3; 4; 5; 6 ]
  in
  Report.table
    ~title:
      "E10 (Section 1.1): sizes, measured diameter vs theory (2 log n for \
       B_n, floor(3 log n / 2) for W_n)"
    ~header:[ "net"; "N"; "edges"; "diam"; "theory"; "radius"; "avg-dist"; "maxdeg" ]
    rows

(* Section 1.2: random-destination routing vs the [N/(4·BW)] bound. *)
let e11_routing () =
  let r = rng () in
  let row n =
    let b = Butterfly.of_inputs n in
    let g = Butterfly.graph b in
    let paths = Workload.all_to_random ~rng:r b in
    let size = Butterfly.size b in
    let br = Bw.butterfly n in
    let side = br.Bw.witness in
    let into, out = Router.crossings ~side paths in
    let stats = Router.run g ~paths in
    let lb = Router.time_lower_bound ~crossings_one_way:(max into out) ~bw:br.Bw.upper in
    [
      fi n; fi size; fi into; fi out; ff (float_of_int size /. 4.);
      fi br.Bw.upper; fi lb; fi stats.Router.steps;
      Report.fbool (stats.Router.steps >= lb);
    ]
  in
  Report.table
    ~title:
      "E11 (Section 1.2): every node sends to a random node; messages \
       crossing a minimum bisection vs N/4 per direction; simulated \
       store-and-forward time vs the bound crossings/BW"
    ~header:[ "n"; "N"; "into"; "out"; "N/4"; "BW(UB)"; "T_LB"; "T_sim"; "T>=LB" ]
    (List.map row [ 8; 16; 32; 64 ])

(* Lemma 2.5 substrate / Section 1.5: the looping algorithm routes random
   port permutations edge-disjointly. *)
let e12_benes_rearrangeability () =
  let r = rng () in
  let row dim =
    let bn = Benes.create ~dim in
    let trials = 50 in
    let ok = ref 0 in
    for _ = 1 to trials do
      let p = Perm.random ~rng:r (2 * Benes.n bn) in
      let paths = Benes.route_ports bn p in
      if Benes.paths_edge_disjoint bn paths then incr ok
    done;
    [
      fi dim; fi (Benes.n bn); fi (Benes.size bn); fi (2 * Benes.n bn);
      Printf.sprintf "%d/%d" !ok trials; Report.fbool (!ok = trials);
    ]
  in
  Report.table
    ~title:
      "E12 (Section 1.5 / Lemma 2.5 substrate): the looping algorithm routes \
       random port permutations through the Benes network edge-disjointly"
    ~header:[ "dim"; "cols"; "nodes"; "ports"; "routed"; "all disjoint" ]
    (List.map row [ 1; 2; 3; 4; 5; 6 ])

(* Lemmas 2.8, 2.9, 2.15: compactness and amenability, exhaustively. *)
let e13_compactness () =
  let b4 = Butterfly.of_inputs 4 in
  let g4 = Butterfly.graph b4 in
  (* Lemma 2.8: U = all levels except level 0 *)
  let u_inner = Bitset.create (Butterfly.size b4) in
  List.iter
    (fun lvl -> List.iter (Bitset.add u_inner) (Butterfly.level_nodes b4 lvl))
    [ 1; 2 ];
  let lemma_2_8 = Bfly_cuts.Compact.is_compact g4 u_inner in
  (* Lemma 2.9: each connected component of B_4[1,2] *)
  let component_compact =
    List.for_all
      (fun cls ->
        let nodes = Butterfly.component_nodes b4 ~lo:1 ~hi:2 cls in
        let s = Bitset.create (Butterfly.size b4) in
        List.iter (Bitset.add s) nodes;
        Bfly_cuts.Compact.is_compact g4 s)
      [ 0; 1 ]
  in
  (* Lemma 2.15: a component of B_8[1,2] is amenable w.r.t. a cut with its
     upper neighbors in A and lower neighbors in A-bar *)
  let b8 = Butterfly.of_inputs 8 in
  let g8 = Butterfly.graph b8 in
  let comp = Butterfly.component_nodes b8 ~lo:1 ~hi:2 0 in
  let u = Bitset.create (Butterfly.size b8) in
  List.iter (Bitset.add u) comp;
  let nbrs = Traverse.neighbors_of_set g8 u in
  let cut = Bitset.create (Butterfly.size b8) in
  Bitset.iter nbrs (fun v ->
      if Butterfly.level_of b8 v = 0 then Bitset.add cut v);
  (* put the component itself in A too; Lemma 2.15 allows any split *)
  Bitset.iter u (Bitset.add cut);
  let amenable = Bfly_cuts.Compact.amenable_check g8 cut u in
  Report.table
    ~title:"E13 (Lemmas 2.8, 2.9, 2.15): compactness and amenability, exhaustive"
    ~header:[ "claim"; "instance"; "holds" ]
    [
      [ "Lemma 2.8: levels 1..log n compact"; "B_4, all 2^11 cuts";
        Report.fbool lemma_2_8 ];
      [ "Lemma 2.9: components of B_n[i, log n] compact"; "B_4[1,2]";
        Report.fbool component_compact ];
      [ "Lemma 2.15: middle component amenable"; "B_8[1,2], 2^12 repartitions";
        Report.fbool amenable ];
    ]

(* Section 1.1–1.2: concrete grid layouts of [B_n] vs Thompson's
   [A >= BW²] bound. *)
let e14_layout () =
  let row log_n =
    let n = 1 lsl log_n in
    let b = Butterfly.create ~log_n in
    let layout = Bfly_networks.Layout.butterfly_grid b in
    let area = Bfly_networks.Layout.area layout in
    let br = Bw.butterfly n in
    let thompson = Bfly_networks.Layout.thompson_lower_bound ~bw:br.Bw.lower in
    [
      fi n;
      fi layout.Bfly_networks.Layout.width;
      fi layout.Bfly_networks.Layout.height;
      fi area;
      ff (float_of_int area /. float_of_int (n * n));
      fi thompson;
      ff (float_of_int thompson /. float_of_int (n * n));
      Report.fbool (area >= thompson);
    ]
  in
  Report.table
    ~title:
      "E14 (Sections 1.1-1.2): measured grid-layout area of B_n vs \
       Thompson's A >= BW^2 (the track-per-wire layout gives ~4n^2; the \
       cited tight layout [3] achieves (1+o(1))n^2, between the two)"
    ~header:[ "n"; "width"; "height"; "area"; "area/n^2"; "BW^2"; "BW^2/n^2"; "A>=BW^2" ]
    (List.map row [ 2; 3; 4; 5; 6; 7; 8 ])

let e15_io_separation () =
  let row log_n =
    let n = 1 lsl log_n in
    let b = Butterfly.create ~log_n in
    let side = Bfly_cuts.Io_cut.column_cut b in
    let construction = Bfly_cuts.Io_cut.directed_crossings b side in
    let exact =
      if n <= 8 then Some (fst (Bfly_cuts.Io_cut.exact b)) else None
    in
    [
      fi n;
      fi construction;
      Report.fopt fi exact;
      fi (max 1 (n / 2));
      Report.fbool
        (construction = max 1 (n / 2)
        && match exact with Some e -> e = construction | None -> true);
    ]
  in
  Report.table
    ~title:
      "E15 (Section 1.2, after Kruskal-Snir): directed input/output \
       separation of B_n equals n/2 (exact by max-flow enumeration for \
       n <= 8)"
    ~header:[ "n"; "column cut"; "exact"; "n/2"; "match" ]
    (List.map row [ 1; 2; 3; 4; 5; 6 ])

let e16_level_bisection () =
  let r = rng () in
  let row log_n =
    let b = Butterfly.create ~log_n in
    let g = Butterfly.graph b in
    let size = Butterfly.size b in
    let trials = 50 in
    let preserved = ref 0 and improved = ref 0 in
    let levels_hit = Array.make (log_n + 1) 0 in
    for _ = 1 to trials do
      let side = Bitset.create size in
      let perm = Perm.random ~rng:r size in
      for i = 0 to (size / 2) - 1 do
        Bitset.add side (Perm.apply perm i)
      done;
      let before = cap g side in
      let level, side' = Bfly_cuts.Level_cut.bisect_some_level b side in
      let after = cap g side' in
      if after <= before then incr preserved;
      if after < before then incr improved;
      levels_hit.(level) <- levels_hit.(level) + 1
    done;
    [
      fi (1 lsl log_n);
      Printf.sprintf "%d/%d" !preserved trials;
      fi !improved;
      String.concat ","
        (Array.to_list (Array.map string_of_int levels_hit));
    ]
  in
  Report.table
    ~title:
      "E16 (Lemma 2.12(1)): random bisections pushed to level-bisecting \
       cuts; capacity never increases (and often drops, since the 4-cycle \
       moves remove cut edges)"
    ~header:[ "n"; "capacity-safe"; "strictly improved"; "levels hit" ]
    (List.map row [ 2; 3; 4; 5 ])

(* Lemma 2.5 / Lemma 2.8: the Beneš-into-butterfly embedding (load 1,
   congestion 1, dilation 3), edge-disjoint port routing from level 0, and
   the crossing-path certificates it yields for arbitrary cuts. *)
let e17_rearrangeability () =
  let r = rng () in
  let row log_n =
    let b = Butterfly.create ~log_n in
    let e, _ = Bfly_embed.Rearrange.benes_into_butterfly b in
    let trials = 25 in
    let routed = ref 0 in
    for _ = 1 to trials do
      let p = Perm.random ~rng:r (Butterfly.n b) in
      let paths = Bfly_embed.Rearrange.route_ports b p in
      if Bfly_embed.Rearrange.paths_edge_disjoint b paths then incr routed
    done;
    let certified = ref 0 in
    for _ = 1 to trials do
      let size = Butterfly.size b in
      let side = Bitset.create size in
      let p = Perm.random ~rng:r size in
      for i = 0 to Random.State.int r size do
        Bitset.add side (Perm.apply p i)
      done;
      let bound, paths = Bfly_embed.Rearrange.input_cut_certificate b side in
      if
        cap (Butterfly.graph b) side >= bound
        && Bfly_embed.Rearrange.paths_edge_disjoint b paths
      then incr certified
    done;
    [
      fi (1 lsl log_n);
      fi (Bfly_embed.Embedding.load e);
      fi (Bfly_embed.Embedding.congestion e);
      fi (Bfly_embed.Embedding.dilation e);
      Printf.sprintf "%d/%d" !routed trials;
      Printf.sprintf "%d/%d" !certified trials;
    ]
  in
  Report.table
    ~title:
      "E17 (Lemmas 2.5 and 2.8): Benes folds into B_n with load 1, \
       congestion 1, dilation 3; any level-0 port bijection routes \
       edge-disjointly; crossing-path certificates bound random cuts by \
       2*min(|A inter L0|, |A-bar inter L0|)"
    ~header:[ "n"; "load"; "congestion"; "dilation"; "bijections"; "cut certs" ]
    (List.map row [ 2; 3; 4; 5; 6 ])

(* Ablation: capacity of the mesh-of-stars pullback across its [(t1,t3)]
   window choices at fixed [n], showing where the optimum sits. *)
let a1_mos_parameter_sweep () =
  let log_n = 10 in
  let b = Butterfly.create ~log_n in
  let n = 1 lsl log_n in
  let rows = ref [] in
  for t1 = 1 to log_n - 1 do
    for t3 = 1 to log_n - t1 do
      if 1 lsl t1 <= 256 && 1 lsl t3 <= 256 then begin
        (* best (r1, r3) for this window *)
        let best = ref None in
        for r1 = 0 to 1 lsl t3 do
          for r3 = 0 to 1 lsl t1 do
            match
              Bfly_cuts.Constructions.mos_predicted_cost b
                { Bfly_cuts.Constructions.t1; t3; r1; r3 }
            with
            | None -> ()
            | Some c -> (
                match !best with
                | Some (bc, _, _) when bc <= c -> ()
                | _ -> best := Some (c, r1, r3))
          done
        done;
        match !best with
        | None -> ()
        | Some (c, r1, r3) ->
            rows :=
              [
                fi t1; fi t3; fi r1; fi r3; fi c;
                ff (float_of_int c /. float_of_int n);
              ]
              :: !rows
      end
    done
  done;
  let rows =
    List.sort
      (fun a b -> compare (int_of_string (List.nth a 4)) (int_of_string (List.nth b 4)))
      !rows
  in
  Report.table
    ~title:
      "A1 (ablation of Lemma 2.16's parameters): best pullback capacity per \
       (t1,t3) window on B_1024 - wide middle regions win; degenerate \
       windows collapse to the folklore cut"
    ~header:[ "t1"; "t3"; "r1"; "r3"; "capacity"; "cap/n" ]
    (match rows with
    | a :: b :: c :: d :: e :: f :: g :: h :: _ -> [ a; b; c; d; e; f; g; h ]
    | shorter -> shorter)

(* Ablation: the four bisection heuristics head-to-head on [B_n], [W_n],
   [CCC_n]. *)
let a2_heuristic_portfolio () =
  let r = rng () in
  let nets =
    [
      ("B_64", Butterfly.graph (Butterfly.create ~log_n:6));
      ("W_64", Wrapped.graph (Wrapped.create ~log_n:6));
      ("CCC_64", Ccc.graph (Ccc.create ~log_n:6));
    ]
  in
  let rows =
    List.map
      (fun (name, g) ->
        let kl = fst (Heuristics.kernighan_lin ~rng:r g) in
        let fm = fst (Heuristics.fiduccia_mattheyses ~rng:r g) in
        let sp = fst (Heuristics.spectral g) in
        let sa = fst (Heuristics.annealing ~rng:r g) in
        let ml = fst (Multilevel.bisect ~rng:r g) in
        [ name; fi kl; fi fm; fi sp; fi sa; fi ml ])
      nets
  in
  Report.table
    ~title:
      "A2 (ablation): bisection heuristics head-to-head (capacity found; \
       true values are 64, 64, 32)"
    ~header:[ "network"; "KL"; "FM"; "spectral"; "annealing"; "multilevel" ]
    rows

(* Section 1.3's observation quantified: splitter expansion of the
   butterfly's fixed wiring (worst ratio 1/2) vs randomly-wired
   multibutterflies ([d = 2, 3]), measured exhaustively over small input
   sets. *)
let a3_multibutterfly_expansion () =
  let r = rng () in
  let row log_n =
    let n = 1 lsl log_n in
    let b = Butterfly.create ~log_n in
    let eb =
      Bfly_networks.Multibutterfly.splitter_expansion (Butterfly.graph b)
        ~log_n ~boundary:0 ~cluster_top:0 ~max_k:4
    in
    let em d =
      let mb = Bfly_networks.Multibutterfly.create ~rng:r ~log_n ~d () in
      Bfly_networks.Multibutterfly.splitter_expansion
        (Bfly_networks.Multibutterfly.graph mb)
        ~log_n ~boundary:0 ~cluster_top:0 ~max_k:4
    in
    [ fi n; ff (eb); ff (em 2); ff (em 3) ]
  in
  Report.table
    ~title:
      "A3 (Section 1.3): worst splitter expansion |N(S) inter half|/|S| over \
       input sets |S| <= 4 - the butterfly's fixed wiring pairs inputs \
       (ratio 1/2); random multibutterfly wiring expands"
    ~header:[ "n"; "butterfly"; "multi d=2"; "multi d=3" ]
    (List.map row [ 3; 4; 5; 6 ])

(* The paper's two expansion lower-bound techniques side by side on
   [W_8]: credit-scheme certificates (tight for small k) vs the [K_N]
   embedding (covers all k), against the exact values. *)
let e18_lower_bound_techniques () =
  let w = Wrapped.of_inputs 8 in
  let g = Wrapped.graph w in
  let e = Classic.kn_into_wrapped w in
  let row k =
    let exact, witness = Expansion.ee_exact g ~k in
    let credit = (Credit.wn_edge w witness).Credit.certified in
    let embed = Lower_bounds.ee_via_kn e ~k in
    [
      fi k; fi exact; fi credit; fi embed;
      Report.fbool (credit <= exact && embed <= exact);
    ]
  in
  Report.table
    ~title:
      "E18 (Section 4 techniques): EE(W_8, k) vs the credit-scheme \
       certificate on the minimizing set (Lemma 4.2) and the K_N-embedding \
       bound ceil(k(N-k)/c) (Section 1.4) - both sound, with complementary \
       strengths"
    ~header:[ "k"; "exact EE"; "credit LB"; "embedding LB"; "sound" ]
    (List.map row [ 1; 2; 3; 4; 6; 8; 10; 12 ])

(* Ablation: search nodes visited by the exact solver with and without
   its per-node degree lower bound. *)
let a4_branch_and_bound_pruning () =
  let row (name, g) =
    let v1, _, with_bound =
      Exact.bisection_width_instrumented ~degree_bound:true g
    in
    let v2, _, without =
      Exact.bisection_width_instrumented ~degree_bound:false g
    in
    assert (v1 = v2);
    [
      name; fi v1; fi with_bound; fi without;
      ff (float_of_int without /. float_of_int (max 1 with_bound));
    ]
  in
  Report.table
    ~title:
      "A4 (ablation): branch-and-bound nodes visited with vs without the \
       per-node degree lower bound"
    ~header:[ "graph"; "BW"; "with bound"; "without"; "speedup" ]
    (List.map row
       [
         ("B_4", Butterfly.graph (Butterfly.of_inputs 4));
         ("B_8", Butterfly.graph (Butterfly.of_inputs 8));
         ("W_8", Wrapped.graph (Wrapped.of_inputs 8));
         ("CCC_8", Ccc.graph (Ccc.create ~log_n:3));
         ("Q_4", Bfly_networks.Hypercube.graph (Bfly_networks.Hypercube.create ~dim:4));
       ])

(* Data-center capacity planning: meshes, tori, BCube-style Hamming
   graphs and mixed products. *)
let d1_datacenter_fabrics () =
  (* the sandwich on each fabric: certified LB (Fabric.bounds, the
     arXiv:1202.6291 closed forms) <= multilevel heuristic <= best
     dimension-aligned planar cut; where a theorem covers the instance the
     three collapse to equality *)
  let row spec =
    let fab = Fabric.create spec in
    let g = Fabric.graph fab in
    let b = Fabric.bounds spec in
    let _axis, cut, _side =
      Constructions.best_dimension_cut ~dims:(Fabric.dims spec) g
    in
    let heur, _ =
      Multilevel.bisect ~rng:(Random.State.make [| 0xfab; 0x5eed |]) g
    in
    let ok =
      b.Fabric.lower <= heur && heur <= cut
      && (match b.Fabric.exact with
         | Some v -> v = b.Fabric.lower && v = cut
         | None -> true)
    in
    [
      Fabric.name spec;
      fi (Fabric.size fab);
      fi b.Fabric.lower;
      fi heur;
      fi cut;
      Report.fopt fi b.Fabric.exact;
      Report.fbool ok;
      b.Fabric.method_;
    ]
  in
  Report.table
    ~title:
      "D1 (arXiv:1202.6291): data-center fabrics — certified LB <= \
       multilevel <= dimension cut, with equality where a closed form \
       applies"
    ~header:
      [ "fabric"; "N"; "cert.LB"; "ml"; "dim-cut"; "exact"; "sandwich"; "method" ]
    (List.map row
       [
         Fabric.Mesh [ 4; 4 ];
         Fabric.Mesh [ 3; 3 ];
         Fabric.Mesh [ 3; 5 ];
         Fabric.Mesh [ 2; 3; 3 ];
         Fabric.Mesh [ 2; 4; 8 ];
         Fabric.Torus [ 4; 4 ];
         Fabric.Torus [ 3; 3; 3 ];
         Fabric.Torus [ 4; 4; 4 ];
         Fabric.Bcube { ports = 2; levels = 3 };
         Fabric.Bcube { ports = 4; levels = 2 };
         Fabric.Product [ Fabric.Fpath 2; Fabric.Fclique 4 ];
         Fabric.Product [ Fabric.Fring 4; Fabric.Fclique 3; Fabric.Fpath 2 ];
       ])

let f1_figure_1 () = Bfly_networks.Render.figure_1 ()

let f2_figure_2 () =
  (* the Figure 2 scenario: a column of A-nodes; u's half-unit flows down
     T_u, shedding 1/4, 1/8, ... at the cut edges bordering the column *)
  let w = Wrapped.of_inputs 16 in
  let side = Bitset.create (Wrapped.size w) in
  List.iter (Bitset.add side) (Wrapped.column_nodes w 0);
  let r = Credit.wn_edge w side in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "F2 (Figure 2): credit distribution for A = column 0 of W_16.\n";
  Buffer.add_string buf
    "Each node u in A sends 1/2 down T_u and 1/2 up T'_u; a cut edge at\n\
     tree depth d retains 1/2^(d+2) per unit entering it.\n";
  Buffer.add_string buf
    (Format.asprintf "Aggregate result: %a@." Credit.pp_result r);
  Buffer.add_string buf
    (Printf.sprintf
       "Certified EE lower bound %d vs actual boundary %d (Lemma 4.2 bound \
        (4-o(1))k/log k = %.2f at k=%d).\n"
       r.Credit.certified r.Credit.actual
       (Credit.Bounds.ee_wn_lower r.Credit.set_size)
       r.Credit.set_size);
  Buffer.contents buf

let all =
  [
    ("F1", f1_figure_1);
    ("E1", e1_butterfly_bisection);
    ("E2", e2_mos_convergence);
    ("E3", e3_wrapped_bisection);
    ("E4", e4_ccc_bisection);
    ("E5", e5_wn_edge_expansion);
    ("E6", e6_wn_node_expansion);
    ("E7", e7_bn_edge_expansion);
    ("E8", e8_bn_node_expansion);
    ("E9", e9_expansion_summary);
    ("E10", e10_structure);
    ("E11", e11_routing);
    ("E12", e12_benes_rearrangeability);
    ("E13", e13_compactness);
    ("E14", e14_layout);
    ("E15", e15_io_separation);
    ("E16", e16_level_bisection);
    ("E17", e17_rearrangeability);
    ("A1", a1_mos_parameter_sweep);
    ("A2", a2_heuristic_portfolio);
    ("A3", a3_multibutterfly_expansion);
    ("E18", e18_lower_bound_techniques);
    ("A4", a4_branch_and_bound_pruning);
    ("F2", f2_figure_2);
    ("D1", d1_datacenter_fabrics);
  ]
