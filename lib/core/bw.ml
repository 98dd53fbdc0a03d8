module Bitset = Bfly_graph.Bitset
module Butterfly = Bfly_networks.Butterfly
module Wrapped = Bfly_networks.Wrapped
module Ccc = Bfly_networks.Ccc
module Constructions = Bfly_cuts.Constructions

type bracket = {
  lower : int;
  upper : int;
  lower_method : string;
  upper_method : string;
  witness : Bfly_graph.Bitset.t;
}

let exact br = br.lower = br.upper

let pp ppf br =
  Format.fprintf ppf "[%d (%s), %d (%s)]%s" br.lower br.lower_method br.upper
    br.upper_method
    (if exact br then " exact" else "")

let butterfly_constant = 2.0 *. (sqrt 2.0 -. 1.0)

let capacity g side = Bfly_graph.Traverse.boundary_edges g side

let butterfly ?(use_heuristics = false) ?(exact_limit = 32) n =
  let b = Butterfly.of_inputs n in
  let g = Butterfly.graph b in
  let candidates = ref [] in
  let add name side = candidates := (capacity g side, name, side) :: !candidates in
  add "column cut" (Constructions.butterfly_column_cut b);
  if Butterfly.log_n b >= 2 then begin
    let params, cost, side = Constructions.best_mos_pullback b in
    ignore cost;
    add
      (Format.asprintf "MOS pullback %a" Constructions.pp_mos_params params)
      side
  end;
  if use_heuristics then begin
    let c, side, name = Bfly_cuts.Heuristics.best_of g in
    ignore c;
    add ("heuristic " ^ name) side
  end;
  let upper, upper_method, witness =
    List.fold_left
      (fun (bc, bn, bs) (c, name, side) ->
        if c < bc then (c, name, side) else (bc, bn, bs))
      (max_int, "", Bitset.create (Bfly_graph.Graph.n_nodes g))
      !candidates
  in
  let lower, lower_method =
    if n = 1 then (0, "trivial")
    else
      ( Bfly_mos.Mos_analysis.butterfly_lower_bound n,
        "Lemma 2.13 (mesh-of-stars reduction)" )
  in
  if Bfly_graph.Graph.n_nodes g <= exact_limit && n > 1 then begin
    let c, side = Bfly_cuts.Exact.bisection_width ~upper_bound:upper g in
    {
      lower = c;
      upper = c;
      lower_method = "branch and bound (exact)";
      upper_method = "branch and bound (exact)";
      witness = side;
    }
  end
  else { lower; upper; lower_method; upper_method; witness }

let wrapped n =
  let w = Wrapped.of_inputs n in
  let side = Constructions.wrapped_column_cut w in
  let upper = capacity (Wrapped.graph w) side in
  let lower, lower_method =
    if n <= 64 then
      ( Bfly_embed.Lower_bounds.wrapped_bw_lower_bound w,
        "Lemma 3.1 embedding (measured congestion)" )
    else (n, "Lemma 3.1 embedding (proved congestion n/2)")
  in
  {
    lower;
    upper;
    lower_method;
    upper_method = "column cut (Lemma 3.2)";
    witness = side;
  }

let ccc n =
  let log_n =
    match Butterfly.log2_exact n with
    | Some l -> l
    | None -> invalid_arg "Bw.ccc: n must be a power of two"
  in
  let c = Ccc.create ~log_n in
  let side = Constructions.ccc_dimension_cut c in
  let upper = capacity (Ccc.graph c) side in
  let lower, lower_method =
    if n <= 64 then
      ( Bfly_embed.Lower_bounds.ccc_bw_lower_bound c,
        "Lemma 3.3 embedding (measured congestion)" )
    else (n / 2, "Lemma 3.3 embedding (proved congestion 2)")
  in
  {
    lower;
    upper;
    lower_method;
    upper_method = "dimension cut (Lemma 3.3)";
    witness = side;
  }
