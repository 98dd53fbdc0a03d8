(* Output checks that share no code with the solvers they check. They run
   after the timed window, with the result cache off, so a check never
   reads back what the run itself stored.

   - exact [ee]/[ne] values must equal the naive enumerations of
     Bfly_check.Reference (on the smallest instances only: the reference
     is sequential);
   - every [bw] value must be at least the certified lower bound of its
     network (the paper's Lemma 2.13 bracket for butterflies, Lemmas 3.2
     and 3.3 for wrapped butterflies and CCC, the product-network bounds
     for fabrics);
   - a [bw] value the program reports as exact ("BW = v") must also be at
     most the constructed cut (column cut, dimension cut). Heuristic
     values are upper bounds and may exceed a construction (ml reports
     1030 on B_1024, whose column cut is 1024), so they get the lower
     check only;
   - a campaign must report its oracle battery passed, and a mos line must
     have the closed form's shape. *)

module Job = Bfly_serve.Job
module G = Bfly_graph.Graph

(* The integer after the last occurrence of [marker] in [s]. *)
let int_after ~marker s =
  let m = String.length marker in
  let rec find i =
    if i < 0 then None
    else if String.sub s i m = marker then Some (i + m)
    else find (i - 1)
  in
  match find (String.length s - m) with
  | None -> None
  | Some start ->
      let stop = ref start in
      while !stop < String.length s && s.[!stop] >= '0' && s.[!stop] <= '9' do
        incr stop
      done;
      int_of_string_opt (String.sub s start (!stop - start))

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let log2 n =
  let rec go l = if 1 lsl l >= n then l else go (l + 1) in
  go 0

let lower_bound (net : Job.net) n =
  match net with
  | Butterfly -> (Bfly_core.Bw.butterfly ~use_heuristics:false n).lower
  | Wrapped -> n
  | Ccc -> n / 2
  | Fabric spec -> (Bfly_networks.Fabric.bounds spec).lower

let constructed_cut (net : Job.net) n g =
  let side =
    match net with
    | Butterfly ->
        Bfly_cuts.Constructions.butterfly_column_cut
          (Bfly_networks.Butterfly.create ~log_n:(log2 n))
    | Wrapped ->
        Bfly_cuts.Constructions.wrapped_column_cut
          (Bfly_networks.Wrapped.create ~log_n:(log2 n))
    | Ccc ->
        Bfly_cuts.Constructions.ccc_dimension_cut
          (Bfly_networks.Ccc.create ~log_n:(log2 n))
    | Fabric spec ->
        let _, _, side =
          Bfly_cuts.Constructions.best_dimension_cut
            ~dims:(Bfly_networks.Fabric.dims spec) g
        in
        side
  in
  Bfly_check.Reference.cut_capacity g side

let graph net n =
  match Job.graph_of net n with Ok (g, _) -> g | Error e -> failwith e

(* [None] when [output] passes; [reference] enables the enumeration check
   of exact expansions. *)
let check ~reference (spec : Job.spec) output =
  let fail fmt = Printf.ksprintf Option.some fmt in
  match spec with
  | Expansion { kind = (`Ee | `Ne) as kind; net; n; k; exact = true; _ } -> (
      let marker = if kind = `Ee then "EE = " else "NE = " in
      match int_after ~marker output with
      | None -> fail "unparsable expansion output %S" output
      | Some v when reference ->
          let g = graph net n in
          let r =
            fst
              (if kind = `Ee then Bfly_check.Reference.edge_expansion g ~k
               else Bfly_check.Reference.node_expansion g ~k)
          in
          if r = v then None else fail "%s: reference says %d" output r
      | Some _ -> None)
  | Bw { net; n; _ } -> (
      let exact = int_after ~marker:"BW = " output in
      match
        match exact with Some _ -> exact | None -> int_after ~marker:"BW <= " output
      with
      | None -> fail "unparsable bw output %S" output
      | Some v ->
          let lb = lower_bound net n in
          if v < lb then fail "%s: below the certified bound %d" output lb
          else if exact <> None then
            let cut = constructed_cut net n (graph net n) in
            if v > cut then fail "%s: above the constructed cut %d" output cut
            else None
          else None)
  | Campaign _ ->
      if contains ~sub:"all passed" output then None
      else fail "campaign oracle did not pass"
  | Mos _ ->
      if contains ~sub:"BW(MOS_" output then None
      else fail "unparsable mos output %S" output
  | Expansion _ | Check _ -> None

(* Run [f] with the result cache off, restoring its state after. *)
let without_cache f =
  let was = Bfly_cache.Config.enabled () in
  Bfly_cache.Config.set_enabled false;
  Fun.protect ~finally:(fun () -> Bfly_cache.Config.set_enabled was) f

(* Subsets an exact expansion job enumerates: C(N, k). *)
let subsets (spec : Job.spec) =
  match spec with
  | Expansion { net; n; k; exact = true; kind; _ } ->
      let c = Bfly_graph.Subset.binomial (G.n_nodes (graph net n)) k in
      if kind = `Both then 2 * c else c
  | _ -> 0
