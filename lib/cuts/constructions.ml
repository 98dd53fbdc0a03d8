module G = Bfly_graph.Graph
module Bitset = Bfly_graph.Bitset
module Parallel = Bfly_graph.Parallel
module Butterfly = Bfly_networks.Butterfly
module Wrapped = Bfly_networks.Wrapped
module Ccc = Bfly_networks.Ccc
module Hypercube = Bfly_networks.Hypercube
module Cancel = Bfly_resil.Cancel

type mos_params = { t1 : int; t3 : int; r1 : int; r3 : int }

let pp_mos_params ppf p =
  Format.fprintf ppf "{t1=%d; t3=%d; r1=%d; r3=%d}" p.t1 p.t3 p.r1 p.r3

(* ------------------------------------------------------------------ *)
(* Column cuts                                                         *)
(* ------------------------------------------------------------------ *)

let butterfly_column_cut b =
  let side = Bitset.create (Butterfly.size b) in
  let top = Butterfly.n b / 2 in
  for idx = 0 to Butterfly.size b - 1 do
    if Butterfly.col_of b idx < top then Bitset.add side idx
  done;
  side

let wrapped_column_cut w =
  let side = Bitset.create (Wrapped.size w) in
  let top = Wrapped.n w / 2 in
  for idx = 0 to Wrapped.size w - 1 do
    if Wrapped.col_of w idx < top then Bitset.add side idx
  done;
  side

let ccc_dimension_cut c =
  let side = Bitset.create (Ccc.size c) in
  let top = Ccc.n c / 2 in
  for idx = 0 to Ccc.size c - 1 do
    if Ccc.cycle_of c idx < top then Bitset.add side idx
  done;
  side

let hypercube_cut h =
  let side = Bitset.create (Hypercube.size h) in
  for w = 0 to (Hypercube.size h / 2) - 1 do
    Bitset.add side w
  done;
  side

(* ------------------------------------------------------------------ *)
(* MOS pullback                                                        *)
(* ------------------------------------------------------------------ *)

(* Geometry shared by prediction and materialization. *)
type geometry = {
  ell : int; (* log n *)
  n : int;
  jj : int; (* 2^t3 input classes, indexed by the low t3 column bits *)
  kk : int; (* 2^t1 output classes, indexed by the high t1 column bits *)
  bc : int; (* columns per middle block: n / 2^(t1+t3) *)
  bs : int; (* nodes per middle block *)
  unit_edges : int; (* butterfly edges per mesh-of-stars edge: 2·bc *)
  m1s : int; (* nodes per input class part *)
  m3s : int;
  target : int; (* |S| aimed for: ⌊N/2⌋ *)
}

let geometry b { t1; t3; _ } =
  let ell = Butterfly.log_n b in
  if t1 < 1 || t3 < 1 || t1 + t3 > ell then
    invalid_arg "Constructions.mos: need 1 <= t1, 1 <= t3, t1+t3 <= log n";
  let n = Butterfly.n b in
  let jj = 1 lsl t3 and kk = 1 lsl t1 in
  let bc = n / (jj * kk) in
  let levels_mid = ell - t1 - t3 + 1 in
  {
    ell;
    n;
    jj;
    kk;
    bc;
    bs = levels_mid * bc;
    unit_edges = 2 * bc;
    m1s = t1 * n / jj;
    m3s = t3 * n / kk;
    target = Butterfly.size b / 2;
  }

(* Decide block contents: given the need (nodes still required in S after
   placing the class parts and the always-in-S AA blocks), distribute over
   mixed blocks first (cost already paid), then convert AA or OO blocks at
   2 units apiece. Returns (amount drawn from mixed, amount removed from AA,
   amount added from OO, conversion-unit cost), or None when infeasible. *)
let plan geo ~n_aa ~n_mix ~n_oo ~need =
  let ceil_div a b = (a + b - 1) / b in
  if need >= 0 && need <= n_mix * geo.bs then Some (need, 0, 0, 0)
  else if need < 0 then begin
    let deficit = -need in
    if deficit > n_aa * geo.bs then None
    else Some (0, deficit, 0, 2 * ceil_div deficit geo.bs)
  end
  else begin
    let excess = need - (n_mix * geo.bs) in
    if excess > n_oo * geo.bs then None
    else Some (n_mix * geo.bs, 0, excess, 2 * ceil_div excess geo.bs)
  end

let counts geo { r1; r3; _ } =
  if r1 < 0 || r1 > geo.jj || r3 < 0 || r3 > geo.kk then
    invalid_arg "Constructions.mos: class counts out of range";
  let n_aa = r1 * r3 in
  let n_mix = (r1 * (geo.kk - r3)) + ((geo.jj - r1) * r3) in
  let n_oo = (geo.jj - r1) * (geo.kk - r3) in
  let base = (r1 * geo.m1s) + (r3 * geo.m3s) + (n_aa * geo.bs) in
  (n_aa, n_mix, n_oo, geo.target - base)

let mos_predicted_cost b params =
  let geo = geometry b params in
  let n_aa, n_mix, n_oo, need = counts geo params in
  match plan geo ~n_aa ~n_mix ~n_oo ~need with
  | None -> None
  | Some (_, _, _, conv) -> Some (geo.unit_edges * (n_mix + conv))

let mos_pullback_cut b params =
  let geo = geometry b params in
  let { t1; t3; r1; r3 } = params in
  let n_aa, n_mix, n_oo, need = counts geo params in
  match plan geo ~n_aa ~n_mix ~n_oo ~need with
  | None -> invalid_arg "Constructions.mos_pullback_cut: infeasible balance"
  | Some (from_mix, from_aa, from_oo, _) ->
      let side = Bitset.create (Butterfly.size b) in
      (* class parts *)
      for w = 0 to geo.n - 1 do
        if w land (geo.jj - 1) < r1 then
          for level = 0 to t1 - 1 do
            Bitset.add side (Butterfly.node b ~col:w ~level)
          done;
        if w lsr (geo.ell - t1) < r3 then
          for level = geo.ell - t3 + 1 to geo.ell do
            Bitset.add side (Butterfly.node b ~col:w ~level)
          done
      done;
      (* middle blocks: iterate and fill the decided amount of each.
         [from_top = true] puts the S portion at the low levels (used when
         the block's M1-side class is in S, and for OO conversions). *)
      let fill_block ~h ~a ~amount ~from_top =
        if amount > 0 then begin
          let levels_mid = geo.ell - t1 - t3 + 1 in
          let col mid = (h lsl (geo.ell - t1)) lor (mid lsl t3) lor a in
          let remaining = ref amount in
          for step = 0 to levels_mid - 1 do
            let level =
              if from_top then t1 + step else geo.ell - t3 - step
            in
            for mid = 0 to geo.bc - 1 do
              if !remaining > 0 then begin
                Bitset.add side (Butterfly.node b ~col:(col mid) ~level);
                decr remaining
              end
            done
          done
        end
      in
      (* mutable budgets *)
      let mix_left = ref from_mix in
      let aa_removed_left = ref from_aa in
      let oo_left = ref from_oo in
      for h = 0 to geo.kk - 1 do
        for a = 0 to geo.jj - 1 do
          let m1_in = a < r1 and m3_in = h < r3 in
          match (m1_in, m3_in) with
          | true, true ->
              (* AA: full unless part of the removal budget *)
              let removed = min geo.bs !aa_removed_left in
              aa_removed_left := !aa_removed_left - removed;
              (* keep the S portion adjacent to the M1 side (top) *)
              fill_block ~h ~a ~amount:(geo.bs - removed) ~from_top:true
          | false, false ->
              let amount = min geo.bs !oo_left in
              oo_left := !oo_left - amount;
              fill_block ~h ~a ~amount ~from_top:true
          | true, false ->
              let amount = min geo.bs !mix_left in
              mix_left := !mix_left - amount;
              fill_block ~h ~a ~amount ~from_top:true
          | false, true ->
              let amount = min geo.bs !mix_left in
              mix_left := !mix_left - amount;
              fill_block ~h ~a ~amount ~from_top:false
        done
      done;
      assert (!mix_left = 0 && !aa_removed_left = 0 && !oo_left = 0);
      assert (Bitset.cardinal side = geo.target);
      side

(* ------------------------------------------------------------------ *)
(* Dimension-aligned planar cuts for product networks                  *)
(* ------------------------------------------------------------------ *)

let c_dimension_cuts = Bfly_obs.Metrics.counter "constructions.dimension.cuts"

let dims_geometry ~dims ~axis =
  let dims = Array.of_list dims in
  let d = Array.length dims in
  if d = 0 then invalid_arg "Constructions.dimension_cut: empty dims";
  Array.iter
    (fun a -> if a < 1 then invalid_arg "Constructions.dimension_cut: dims >= 1")
    dims;
  if axis < 0 || axis >= d then
    invalid_arg "Constructions.dimension_cut: axis out of range";
  let n = Array.fold_left ( * ) 1 dims in
  let stride = ref 1 in
  for i = axis + 1 to d - 1 do
    stride := !stride * dims.(i)
  done;
  (n, dims.(axis), !stride)

let dimension_cut ~dims ~axis =
  let n, a, stride = dims_geometry ~dims ~axis in
  if n < 2 then invalid_arg "Constructions.dimension_cut: need >= 2 nodes";
  let layer = n / a in
  let target = n / 2 in
  let full = target / layer and rem = target mod layer in
  let side = Bitset.create n in
  let taken_mid = ref 0 in
  for v = 0 to n - 1 do
    let c = v / stride mod a in
    if c < full then Bitset.add side v
    else if c = full && !taken_mid < rem then begin
      Bitset.add side v;
      incr taken_mid
    end
  done;
  Bfly_obs.Metrics.incr c_dimension_cuts;
  side

let best_dimension_cut ~dims g =
  let d = List.length dims in
  let n = List.fold_left ( * ) 1 dims in
  if n <> G.n_nodes g then
    invalid_arg "Constructions.best_dimension_cut: dims do not match the graph";
  let best = ref None in
  for axis = 0 to d - 1 do
    let side = dimension_cut ~dims ~axis in
    let cap = G.cut_size g side in
    match !best with
    | Some (_, c, _) when c <= cap -> ()
    | _ -> best := Some (axis, cap, side)
  done;
  match !best with Some r -> r | None -> assert false

let c_candidates = Bfly_obs.Metrics.counter "constructions.mos.candidates"
let t_pullback = Bfly_obs.Metrics.timer "constructions.mos_pullback"

(* ---- result cache for the pullback sweep ----
   The instance is fully determined by [log n]; the sweep is deterministic
   (sequential-order tie-breaking), so entries are keyed on
   (log n, max_classes). Hits are re-verified from first principles: the
   closed-form predicted cost is re-evaluated for the cached parameters,
   the witness side must be an exact bisection, and its boundary is
   recounted on the butterfly graph. *)

let pullback_encode (({ t1; t3; r1; r3 } : mos_params), cost, side) =
  Bfly_cache.Codec.
    [
      ("t1", Int t1);
      ("t3", Int t3);
      ("r1", Int r1);
      ("r3", Int r3);
      ("cost", Int cost);
      ("witness", bits side);
    ]

let pullback_decode b payload =
  let open Bfly_cache.Codec in
  match
    ( get_int payload "t1",
      get_int payload "t3",
      get_int payload "r1",
      get_int payload "r3",
      get_int payload "cost",
      get_bits payload "witness" ~capacity:(Butterfly.size b) )
  with
  | Some t1, Some t3, Some r1, Some r3, Some cost, Some side ->
      Some ({ t1; t3; r1; r3 }, cost, side)
  | _ -> None

let pullback_verify b (params, cost, side) =
  match mos_predicted_cost b params with
  | exception Invalid_argument _ -> false
  | None -> false
  | Some predicted ->
      predicted = cost
      && Bitset.cardinal side = Butterfly.size b / 2
      && Bfly_graph.Traverse.boundary_edges (Butterfly.graph b) side = cost

let best_mos_pullback ?(max_classes = 256) ?cancel b =
  let cancel = Cancel.resolve cancel in
  let ell = Butterfly.log_n b in
  if ell < 2 then invalid_arg "Constructions.best_mos_pullback: log n < 2";
  Bfly_obs.Span.time t_pullback @@ fun () ->
  let key =
    Bfly_cache.Key.make ~solver:"cuts.constructions.best_mos_pullback"
      ~salt:"mos-pullback/1"
      ~params:[ ("max_classes", Bfly_obs.Json.decimal max_classes) ]
      ~fingerprint:
        Bfly_cache.Fingerprint.(int (string seed "butterfly") ell)
  in
  let compute () =
  (* the (t1, t3) window choices are independent — sweep them across the
     domain pool, scanning each window's (r1, r3) grid locally; ties keep
     the earliest candidate in the sequential enumeration order, so the
     winning parameters do not depend on the domain count *)
  let windows =
    List.concat_map
      (fun t1 -> List.init (ell - t1) (fun i -> (t1, i + 1)))
      (List.init (ell - 1) (fun i -> i + 1))
    |> Array.of_list
  in
  let best_in_window idx =
    let t1, t3 = windows.(idx) in
    (* window 0 is always scanned even under an expired token, so a
       degraded sweep still returns a real (if sub-optimal) cut *)
    if idx > 0 && Cancel.stop cancel then None
    else if 1 lsl t1 > max_classes || 1 lsl t3 > max_classes then None
    else begin
      let best = ref None in
      let scanned = ref 0 in
      for r1 = 0 to 1 lsl t3 do
        for r3 = 0 to 1 lsl t1 do
          incr scanned;
          let params = { t1; t3; r1; r3 } in
          match mos_predicted_cost b params with
          | None -> ()
          | Some cost -> (
              match !best with
              | Some (_, c) when c <= cost -> ()
              | _ -> best := Some (params, cost))
        done
      done;
      Bfly_obs.Metrics.add c_candidates !scanned;
      !best
    end
  in
  let keep_earlier a b =
    match (a, b) with
    | None, x | x, None -> x
    | (Some (_, c1) as a), (Some (_, c2) as b) -> if c2 < c1 then b else a
  in
  let best =
    Parallel.reduce_range ~lo:0 ~hi:(Array.length windows) ~init:None
      ~f:best_in_window ~combine:keep_earlier
  in
  match best with
  | None ->
      invalid_arg "Constructions.best_mos_pullback: no feasible parameters"
  | Some (params, cost) -> (params, cost, mos_pullback_cut b params)
  in
  match
    Bfly_cache.Store.lookup ~key ~decode:(pullback_decode b)
      ~verify:(pullback_verify b)
  with
  | Some v -> v
  | None ->
      let v = compute () in
      (* a sweep truncated by cancellation must not be cached as if it had
         covered every window *)
      if not (Cancel.stop cancel) then
        Bfly_cache.Store.put ~key ~encode:pullback_encode v;
      v
