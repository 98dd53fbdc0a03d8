module G = Bfly_graph.Graph
module Bitset = Bfly_graph.Bitset
module Subset = Bfly_graph.Subset
module Parallel = Bfly_graph.Parallel

let edge_expansion = Bfly_graph.Traverse.boundary_edges

let node_expansion g s =
  Bitset.cardinal (Bfly_graph.Traverse.neighbors_of_set g s)

(* Enumerate k-subsets in parallel chunks; [score] evaluates a subset given
   a membership array and the member list. *)
let exact_min g ~k score =
  let n = G.n_nodes g in
  if k < 0 || k > n then invalid_arg "Expansion: k out of range";
  let total = Subset.binomial n k in
  if total > 200_000_000 then
    invalid_arg "Expansion: subset space too large for exact enumeration";
  let chunk_best ~lo ~hi =
    let member = Array.make n false in
    let best = ref None in
    Subset.iter_range ~n ~k ~lo ~hi (fun subset ->
        Array.iter (fun v -> member.(v) <- true) subset;
        let c = score member subset in
        (match !best with
        | Some (bc, _) when bc <= c -> ()
        | _ -> best := Some (c, Array.copy subset));
        Array.iter (fun v -> member.(v) <- false) subset);
    !best
  in
  let results = Parallel.run_chunks ~lo:0 ~hi:total (fun ~lo ~hi -> chunk_best ~lo ~hi) in
  let best =
    List.fold_left
      (fun acc r ->
        match (acc, r) with
        | None, x | x, None -> x
        | (Some (c, _) as a), (Some (c', _) as b) -> if c' < c then b else a)
      None results
  in
  match best with
  | None -> invalid_arg "Expansion: empty subset space"
  | Some (c, subset) ->
      let side = Bitset.create n in
      Array.iter (Bitset.add side) subset;
      (c, side)

(* ---- result cache for the exact minimizers ----
   Exhaustive enumeration is deterministic in (graph, k), so entries are
   keyed on exactly that. Hits are re-verified from first principles: the
   cached witness must have cardinality [k] and its expansion — recounted
   with the same definitional measure the solver minimizes — must equal
   the cached optimum. The annealing minimizers below are deliberately
   not cached: they consume the caller's rng throughout their loop, so a
   served hit could not leave the rng stream in the computed-run state. *)

let cached_exact ~measure ~salt ~recount g ~k compute =
  let open Bfly_cache in
  let key =
    Key.make
      ~solver:("expansion." ^ measure)
      ~salt
      ~params:[ ("k", Bfly_obs.Json.decimal k) ]
      ~fingerprint:(Fingerprint.graph Fingerprint.seed g)
  in
  let encode (c, side) =
    [ ("value", Codec.Int c); ("witness", Codec.bits side) ]
  in
  let decode payload =
    match
      ( Codec.get_int payload "value",
        Codec.get_bits payload "witness" ~capacity:(G.n_nodes g) )
    with
    | Some c, Some side -> Some (c, side)
    | _ -> None
  in
  let verify (c, side) = Bitset.cardinal side = k && recount g side = c in
  Store.memoize ~key ~encode ~decode ~verify ~compute

let ee_exact g ~k =
  cached_exact ~measure:"ee_exact" ~salt:"ee/1" ~recount:edge_expansion g ~k
  @@ fun () ->
  exact_min g ~k (fun member subset ->
      Array.fold_left
        (fun acc v ->
          G.fold_neighbors g v acc (fun a w -> if member.(w) then a else a + 1))
        0 subset)

let ne_exact g ~k =
  cached_exact ~measure:"ne_exact" ~salt:"ne/1" ~recount:node_expansion g ~k
  @@ fun () ->
  exact_min g ~k (fun member subset ->
      let seen = Hashtbl.create 16 in
      Array.iter
        (fun v ->
          G.iter_neighbors g v (fun w ->
              if not member.(w) then Hashtbl.replace seen w ()))
        subset;
      Hashtbl.length seen)

(* ------------------------------------------------------------------ *)
(* Annealing minimizer over fixed-size sets                            *)
(* ------------------------------------------------------------------ *)

(* The ambient token (the one [Job.run] and the CLI's [--deadline]
   install) is polled every 1,024 steps; once it fires, the best set so
   far is returned — still a real k-set, so its score is still a measured
   upper bound. Polling draws nothing from [rng], so an unfired run takes
   exactly the trajectory it always did. *)
let anneal_min ?rng ?steps g ~k score =
  let rng = match rng with Some r -> r | None -> Random.State.make [| 0xacc |] in
  let cancel = Bfly_resil.Cancel.resolve None in
  let n = G.n_nodes g in
  if k <= 0 || k >= n then invalid_arg "Expansion: k out of range for annealing";
  let steps = match steps with Some s -> s | None -> min 400_000 (2000 * n) in
  let perm = Bfly_graph.Perm.random ~rng n in
  let inside = Array.init k (fun i -> Bfly_graph.Perm.apply perm i) in
  let outside = Array.init (n - k) (fun i -> Bfly_graph.Perm.apply perm (k + i)) in
  let member = Array.make n false in
  Array.iter (fun v -> member.(v) <- true) inside;
  let current = ref (score member) in
  let best = ref !current in
  let best_set = ref (Array.copy inside) in
  let t0 = 3.0 and t1 = 0.02 in
  (try
    for step = 0 to steps - 1 do
      if step land 1023 = 0 && Bfly_resil.Cancel.stop cancel then raise Exit;
      let temp = t0 *. ((t1 /. t0) ** (float_of_int step /. float_of_int steps)) in
      let ii = Random.State.int rng k and oi = Random.State.int rng (n - k) in
      let v_out = inside.(ii) and v_in = outside.(oi) in
      member.(v_out) <- false;
      member.(v_in) <- true;
      let c = score member in
      let delta = c - !current in
      if
        delta <= 0
        || Random.State.float rng 1.0 < exp (-.float_of_int delta /. temp)
      then begin
        inside.(ii) <- v_in;
        outside.(oi) <- v_out;
        current := c;
        if c < !best then begin
          best := c;
          best_set := Array.copy inside
        end
      end
      else begin
        member.(v_out) <- true;
        member.(v_in) <- false
      end
    done
   with Exit -> ());
  let side = Bitset.create n in
  Array.iter (Bitset.add side) !best_set;
  (!best, side)

let ee_anneal ?rng ?steps g ~k =
  let score member =
    let c = ref 0 in
    G.iter_edges g (fun u v -> if member.(u) <> member.(v) then incr c);
    !c
  in
  anneal_min ?rng ?steps g ~k score

let ne_anneal ?rng ?steps g ~k =
  let n = G.n_nodes g in
  let seen = Array.make n (-1) in
  let stamp = ref 0 in
  let score member =
    incr stamp;
    let count = ref 0 in
    for v = 0 to n - 1 do
      if member.(v) then
        G.iter_neighbors g v (fun w ->
            if (not member.(w)) && seen.(w) <> !stamp then begin
              seen.(w) <- !stamp;
              incr count
            end)
    done;
    !count
  in
  anneal_min ?rng ?steps g ~k score
