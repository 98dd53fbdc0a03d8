module G = Bfly_graph.Graph
module B = Bfly_networks.Butterfly
module W = Bfly_networks.Wrapped
module Ccc = Bfly_networks.Ccc
module Exact = Bfly_cuts.Exact
module Heuristics = Bfly_cuts.Heuristics
module Classic = Bfly_embed.Classic
module Json = Bfly_obs.Json

let agreement_on ~seed name g ~known_bw =
  let rng = Random.State.make [| seed; Hashtbl.hash name |] in
  let exact, witness =
    match known_bw with
    | Some bw -> Exact.bisection_width ~upper_bound:bw g
    | None -> Exact.bisection_width g
  in
  let inv = Invariants.bisection_cut g ~value:exact ~witness in
  let c, side, method_name = Heuristics.best_of ~rng g in
  let heur_inv = Invariants.bisection_cut g ~value:c ~witness:side in
  let law_ok = match known_bw with Some bw -> exact = bw | None -> true in
  let ok =
    law_ok && c >= exact && Invariants.is_pass inv
    && Invariants.is_pass heur_inv
  in
  {
    Bounds.name = Printf.sprintf "agreement/%s" name;
    ok;
    detail =
      Printf.sprintf "exact %d%s, portfolio %d (%s)%s" exact
        (match known_bw with
        | Some bw when exact <> bw -> Printf.sprintf " (law says %d!)" bw
        | _ -> "")
        c method_name
        (match
           ( Invariants.message inv,
             Invariants.message heur_inv )
         with
        | None, None -> ""
        | Some m, _ | _, Some m -> "; witness: " ^ m);
  }

let embedding_check name e =
  let inv = Invariants.embedding e in
  {
    Bounds.name = Printf.sprintf "embedding/%s" name;
    ok = Invariants.is_pass inv;
    detail =
      (match Invariants.message inv with
      | None ->
          let load, congestion, dilation = Reference.embedding_measures e in
          Printf.sprintf "load %d, congestion %d, dilation %d" load congestion
            dilation
      | Some m -> m);
  }

(* Heuristic portfolio ≥ exact with valid witnesses on the B/W/CCC
   families ([log_n = 2], plus [3] when not [smoke]), and the classic
   embeddings revalidated path by path. Uses [seed] for the heuristics'
   restarts. *)
let family_agreement ~smoke ~seed =
  let log_ns = if smoke then [ 2 ] else [ 2; 3 ] in
  let agreements =
    List.concat_map
      (fun log_n ->
        let n = 1 lsl log_n in
        [
          agreement_on ~seed
            (Printf.sprintf "B_%d" n)
            (B.graph (B.create ~log_n))
            ~known_bw:None;
          agreement_on ~seed
            (Printf.sprintf "W_%d" n)
            (W.graph (W.create ~log_n))
            ~known_bw:(Some n);
          agreement_on ~seed
            (Printf.sprintf "CCC_%d" n)
            (Ccc.graph (Ccc.create ~log_n))
            ~known_bw:(Some (n / 2));
        ])
      log_ns
  in
  let embeddings =
    let b3 = B.create ~log_n:3 in
    let w3 = W.create ~log_n:3 in
    [
      embedding_check "K_{8,8}->B_8" (Classic.knn_into_butterfly b3);
      embedding_check "K_N->W_8" (Classic.kn_into_wrapped w3);
      embedding_check "W_8->CCC_8" (fst (Classic.wrapped_into_ccc w3));
    ]
    @
    if smoke then []
    else
      [
        embedding_check "B_16->B_8 (Lemma 2.10)"
          (fst (Classic.butterfly_into_butterfly ~i:1 ~j:1 b3));
        embedding_check "B_8->hypercube"
          (fst (Classic.butterfly_into_hypercube b3));
      ]
  in
  agreements @ embeddings

(* A miniature random-regular campaign folded into the battery: its
   grid is tiny and fixed (the battery must stay cheap and its check
   count stable), and at these sizes only the sanity oracle fires, so
   this contributes exactly one check — but that one check exercises the
   whole sweep → certificate → multilevel → spectral → invariants
   pipeline on every [bfly_tool check] and bench run. *)
let campaign_family ~smoke =
  let sizes = if smoke then [ 16 ] else [ 16; 32 ] in
  match
    Campaign.run ~degree:3 ~sizes ~seeds:2 ~restarts:2 ()
  with
  | Ok t -> t.Campaign.checks
  | Error e ->
      [ { Bounds.name = "campaign/sanity"; ok = false; detail = e } ]

let execute ?(chaos = false) ~seed ~rounds ~smoke () =
  let rounds = if smoke then min rounds 5 else rounds in
  (* the family/bound checks always run fault-free: they are exactness
     claims about the paper, not resilience claims about the machinery *)
  let families =
    Bounds.all ~smoke @ family_agreement ~smoke ~seed @ campaign_family ~smoke
  in
  let fuzz =
    if chaos then
      Bfly_resil.Fault.scope ~rate:0.05 ~seed Bfly_resil.Fault.all (fun () ->
          Fuzzer.run ~chaos ~seed ~rounds ())
    else Fuzzer.run ~seed ~rounds ()
  in
  let families_ok = List.for_all (fun c -> c.Bounds.ok) families in
  let ok = families_ok && fuzz.Fuzzer.failed = 0 && fuzz.Fuzzer.pool_stable in
  let json =
    Json.Obj
      [
        ("tool", Json.Str "bfly_check");
        ("seed", Json.Int seed);
        ("rounds", Json.Int rounds);
        ("smoke", Json.Bool smoke);
        ("chaos", Json.Bool chaos);
        ("families", Json.List (List.map Bounds.check_json families));
        ("fuzz", Fuzzer.summary_json fuzz);
        ("ok", Json.Bool ok);
      ]
  in
  (json, ok)
