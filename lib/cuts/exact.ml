module G = Bfly_graph.Graph
module Bitset = Bfly_graph.Bitset
module Traverse = Bfly_graph.Traverse
module Parallel = Bfly_graph.Parallel
module Metrics = Bfly_obs.Metrics
module Span = Bfly_obs.Span
module Cancel = Bfly_resil.Cancel

(* ------------------------------------------------------------------ *)
(* Exhaustive enumeration (oracle for tests; n <= ~26)                 *)
(* ------------------------------------------------------------------ *)

let bisection_width_exhaustive ?u g =
  let n = G.n_nodes g in
  if n = 0 then invalid_arg "Exact: empty graph";
  if n > 62 then invalid_arg "Exact.bisection_width_exhaustive: too many nodes";
  let u_mask =
    match u with
    | None -> (1 lsl n) - 1
    | Some s -> Bitset.fold s 0 (fun m i -> m lor (1 lsl i))
  in
  let u_tot =
    let rec pop x acc = if x = 0 then acc else pop (x land (x - 1)) (acc + 1) in
    pop u_mask 0
  in
  let lo_bal = u_tot / 2 and hi_bal = (u_tot + 1) / 2 in
  let edges = G.edges g in
  let capacity m =
    Array.fold_left
      (fun acc (a, b) ->
        if (m lsr a) land 1 <> (m lsr b) land 1 then acc + 1 else acc)
      0 edges
  in
  (* node 0 is fixed in S; enumerate the other n-1 nodes *)
  let eval mask_rest =
    let m = (mask_rest lsl 1) lor 1 in
    let in_u =
      let rec pop x acc = if x = 0 then acc else pop (x land (x - 1)) (acc + 1) in
      pop (m land u_mask) 0
    in
    if in_u >= lo_bal && in_u <= hi_bal then Some (capacity m, m) else None
  in
  let best =
    Parallel.reduce_range ~lo:0 ~hi:(1 lsl (n - 1)) ~init:None ~f:eval
      ~combine:(fun a b ->
        match (a, b) with
        | None, x | x, None -> x
        | (Some (c, _) as a), (Some (c', _) as b) -> if c' < c then b else a)
  in
  match best with
  | None -> invalid_arg "Exact: infeasible balance constraint"
  | Some (c, m) ->
      let side = Bitset.create n in
      for i = 0 to n - 1 do
        if (m lsr i) land 1 = 1 then Bitset.add side i
      done;
      (c, side)

(* ------------------------------------------------------------------ *)
(* Branch and bound                                                    *)
(* ------------------------------------------------------------------ *)

type bb = {
  g : G.t;
  order : int array; (* assignment order (BFS) *)
  in_u : bool array;
  u_tot : int;
  lo_bal : int;
  hi_bal : int;
  (* mutable search state *)
  assigned : int array; (* -1 unassigned, 0 = A, 1 = B *)
  cnt : int array array; (* cnt.(side).(v): edges from v to assigned side *)
  mutable cap : int;
  mutable sum_min : int; (* sum over unassigned of min cntA cntB *)
  mutable na : int; (* |A| among assigned *)
  mutable ua : int; (* |A ∩ U| among assigned *)
  mutable ub : int;
  mutable visits : int; (* search nodes entered (domain-local) *)
  best : int Atomic.t;
  witness : (int * Bitset.t) option ref;
  witness_lock : Mutex.t;
  (* cooperative supervision: polled every 256 visits; [stopped] is the
     domain-local latch that unwinds the recursion once the token fires *)
  mutable cancel : Cancel.t option;
  mutable stopped : bool;
}

let bfs_order g =
  let n = G.n_nodes g in
  let order = Array.make n 0 in
  let seen = Array.make n false in
  let idx = ref 0 in
  let q = Queue.create () in
  for s = 0 to n - 1 do
    if not seen.(s) then begin
      seen.(s) <- true;
      Queue.add s q;
      while not (Queue.is_empty q) do
        let v = Queue.pop q in
        order.(!idx) <- v;
        incr idx;
        G.iter_neighbors g v (fun w ->
            if not seen.(w) then begin
              seen.(w) <- true;
              Queue.add w q
            end)
      done
    end
  done;
  order

let make_bb g u best_init =
  let n = G.n_nodes g in
  let in_u =
    match u with
    | None -> Array.make n true
    | Some s -> Array.init n (Bitset.mem s)
  in
  let u_tot = Array.fold_left (fun a b -> if b then a + 1 else a) 0 in_u in
  {
    g;
    order = bfs_order g;
    in_u;
    u_tot;
    lo_bal = u_tot / 2;
    hi_bal = (u_tot + 1) / 2;
    assigned = Array.make n (-1);
    cnt = [| Array.make n 0; Array.make n 0 |];
    cap = 0;
    sum_min = 0;
    na = 0;
    ua = 0;
    ub = 0;
    visits = 0;
    best = Atomic.make best_init;
    witness = ref None;
    witness_lock = Mutex.create ();
    cancel = None;
    stopped = false;
  }

(* clone the mutable parts for use in another domain *)
let clone_bb bb =
  {
    bb with
    assigned = Array.copy bb.assigned;
    cnt = [| Array.copy bb.cnt.(0); Array.copy bb.cnt.(1) |];
    visits = 0;
    stopped = false;
  }

let assign bb v side =
  let other = 1 - side in
  bb.cap <- bb.cap + bb.cnt.(other).(v);
  bb.sum_min <- bb.sum_min - min bb.cnt.(0).(v) bb.cnt.(1).(v);
  bb.assigned.(v) <- side;
  if side = 0 then bb.na <- bb.na + 1;
  if bb.in_u.(v) then
    if side = 0 then bb.ua <- bb.ua + 1 else bb.ub <- bb.ub + 1;
  G.iter_neighbors bb.g v (fun w ->
      if bb.assigned.(w) < 0 then begin
        bb.sum_min <- bb.sum_min - min bb.cnt.(0).(w) bb.cnt.(1).(w);
        bb.cnt.(side).(w) <- bb.cnt.(side).(w) + 1;
        bb.sum_min <- bb.sum_min + min bb.cnt.(0).(w) bb.cnt.(1).(w)
      end)

let unassign bb v =
  let side = bb.assigned.(v) in
  let other = 1 - side in
  G.iter_neighbors bb.g v (fun w ->
      if bb.assigned.(w) < 0 then begin
        bb.sum_min <- bb.sum_min - min bb.cnt.(0).(w) bb.cnt.(1).(w);
        bb.cnt.(side).(w) <- bb.cnt.(side).(w) - 1;
        bb.sum_min <- bb.sum_min + min bb.cnt.(0).(w) bb.cnt.(1).(w)
      end);
  bb.assigned.(v) <- -1;
  if side = 0 then bb.na <- bb.na - 1;
  if bb.in_u.(v) then
    if side = 0 then bb.ua <- bb.ua - 1 else bb.ub <- bb.ub - 1;
  bb.sum_min <- bb.sum_min + min bb.cnt.(0).(v) bb.cnt.(1).(v);
  bb.cap <- bb.cap - bb.cnt.(other).(v)

let record_if_better bb =
  let cap = bb.cap in
  let rec try_update () =
    let cur = Atomic.get bb.best in
    if cap < cur then
      if Atomic.compare_and_set bb.best cur cap then begin
        let n = G.n_nodes bb.g in
        let side = Bitset.create n in
        for v = 0 to n - 1 do
          if bb.assigned.(v) = 0 then Bitset.add side v
        done;
        Mutex.lock bb.witness_lock;
        (match !(bb.witness) with
        | Some (c, _) when c <= cap -> ()
        | _ -> bb.witness := Some (cap, side));
        Mutex.unlock bb.witness_lock
      end
      else try_update ()
  in
  try_update ()

let feasible bb depth =
  let n = G.n_nodes bb.g in
  let remaining_u =
    (* U-nodes not yet assigned: u_tot - ua - ub *)
    bb.u_tot - bb.ua - bb.ub
  in
  bb.ua <= bb.hi_bal && bb.ub <= bb.hi_bal
  && bb.ua + remaining_u >= bb.lo_bal
  && bb.ub + remaining_u >= bb.u_tot - bb.hi_bal
  && depth <= n

let rec dfs bb depth =
  if not bb.stopped then begin
    bb.visits <- bb.visits + 1;
    (match bb.cancel with
    | Some c when bb.visits land 255 = 0 ->
        Cancel.add_steps c 256;
        if Cancel.triggered c then bb.stopped <- true
    | _ -> ());
    if bb.stopped then ()
    else if bb.cap + bb.sum_min >= Atomic.get bb.best then ()
    else if depth = Array.length bb.order then record_if_better bb
    else begin
      let v = bb.order.(depth) in
      (* try the side with more attraction first *)
      let first = if bb.cnt.(0).(v) >= bb.cnt.(1).(v) then 0 else 1 in
      List.iter
        (fun side ->
          assign bb v side;
          if feasible bb (depth + 1) then dfs bb (depth + 1);
          unassign bb v)
        [ first; 1 - first ]
    end
  end

(* sequential DFS counting into [bb.visits]; [degree_bound] toggles the
   sum-of-minima lower bound for ablation *)
let rec dfs_counted bb ~degree_bound depth =
  bb.visits <- bb.visits + 1;
  let bound = bb.cap + if degree_bound then bb.sum_min else 0 in
  if bound >= Atomic.get bb.best then ()
  else if depth = Array.length bb.order then record_if_better bb
  else begin
    let v = bb.order.(depth) in
    let first = if bb.cnt.(0).(v) >= bb.cnt.(1).(v) then 0 else 1 in
    List.iter
      (fun side ->
        assign bb v side;
        if feasible bb (depth + 1) then dfs_counted bb ~degree_bound (depth + 1);
        unassign bb v)
      [ first; 1 - first ]
  end

let bisection_width_instrumented ?u ?upper_bound ?(degree_bound = true) g =
  let n = G.n_nodes g in
  if n = 0 then invalid_arg "Exact: empty graph";
  let init = match upper_bound with Some b -> b + 1 | None -> max_int in
  let bb = make_bb g u init in
  assign bb bb.order.(0) 0;
  dfs_counted bb ~degree_bound 1;
  match !(bb.witness) with
  | Some (c, side) -> (c, side, bb.visits)
  | None -> invalid_arg "Exact.bisection_width_instrumented: infeasible"

let c_nodes = Metrics.counter "exact.bb.nodes"
let c_prefixes = Metrics.counter "exact.bb.prefixes"
let g_best = Metrics.gauge "exact.bb.best_capacity"
let t_bisection_width = Metrics.timer "exact.bisection_width"

(* ---- result cache ----
   A successful run — bounded or not — returns the global minimum over the
   feasible cuts (a bounded run that finds nothing raises instead), so
   entries are keyed on (graph, u) only and the [upper_bound] constraint is
   re-applied at serve time. Only successful runs are stored. *)

module Cache = Bfly_cache.Store
module Key = Bfly_cache.Key
module Codec = Bfly_cache.Codec
module Fp = Bfly_cache.Fingerprint

let make_key ~solver ~salt ?u g =
  let fp = Fp.graph Fp.seed g in
  let fp, u_param =
    match u with
    | None -> (Fp.string fp "all", "all")
    | Some s -> (Fp.bitset fp s, Printf.sprintf "k%d" (Bitset.cardinal s))
  in
  Key.make ~solver ~salt ~params:[ ("u", u_param) ] ~fingerprint:fp

let cache_key ?u g =
  make_key ~solver:"cuts.exact.bisection_width" ~salt:"exact/1" ?u g

let ckpt_key ?u g = make_key ~solver:"cuts.exact.checkpoint" ~salt:"ckpt/1" ?u g

let cache_encode (c, side) =
  [ ("value", Codec.Int c); ("witness", Codec.bits side) ]

let cache_decode n payload =
  match
    (Codec.get_int payload "value", Codec.get_bits payload "witness" ~capacity:n)
  with
  | Some c, Some side -> Some (c, side)
  | _ -> None

(* verify-on-hit: recount the witness from first principles — balanced
   split of [u] and capacity equal to the stored value *)
let cache_verify ?u g (c, side) =
  let n = G.n_nodes g in
  let u_tot, in_u =
    match u with
    | None -> (n, Bitset.cardinal side)
    | Some s -> (Bitset.cardinal s, Bitset.cardinal (Bitset.inter side s))
  in
  in_u >= u_tot / 2
  && in_u <= (u_tot + 1) / 2
  && Traverse.boundary_edges g side = c

(* ---- checkpoints ----
   When a supervised run is interrupted, the open frontier — the top-level
   prefix codes whose subtrees were not fully explored — plus the incumbent
   are serialized through the cache store under a separate solver id, so a
   later run can resume. The search is order-independent (any interleaving
   of subtree explorations yields the same minimum), so a resumed run
   completes to the identical answer an uninterrupted run returns. *)

type checkpoint = {
  ck_p : int;
  ck_pending : Bitset.t; (* capacity 2^p; codes not yet fully explored *)
  ck_incumbent : (int * Bitset.t) option;
}

let ckpt_encode ~n ck =
  let best, wit =
    match ck.ck_incumbent with
    | Some (c, side) -> (c, side)
    | None -> (-1, Bitset.create n)
  in
  [
    ("p", Codec.Int ck.ck_p);
    ("pending", Codec.bits ck.ck_pending);
    ("best", Codec.Int best);
    ("witness", Codec.bits wit);
  ]

let ckpt_decode ~n ~prefixes payload =
  match
    ( Codec.get_int payload "p",
      Codec.get_bits payload "pending" ~capacity:prefixes,
      Codec.get_int payload "best",
      Codec.get_bits payload "witness" ~capacity:n )
  with
  | Some p, Some pending, Some best, Some wit ->
      Some
        {
          ck_p = p;
          ck_pending = pending;
          ck_incumbent = (if best < 0 then None else Some (best, wit));
        }
  | _ -> None

(* verify-on-hit: the prefix depth must match what this build would search
   with, and a stored incumbent must recount exactly like a final result *)
let ckpt_verify ?u g ~p ck =
  ck.ck_p = p
  &&
  match ck.ck_incumbent with
  | None -> true
  | Some (c, side) -> cache_verify ?u g (c, side)

let c_interrupted = Metrics.counter "exact.bb.interrupted"
let c_ckpt_stored = Metrics.counter "resil.checkpoint.stored"
let c_ckpt_resumed = Metrics.counter "resil.checkpoint.resumed"

(* deterministic fallback witness when a run is interrupted before any leaf
   was reached: lowest-index half of [u] (node 0 included for [u = None],
   matching the search's fixed side for node 0 — either way the cut is a
   valid certified upper bound) *)
let trivial_cut ?u g =
  let n = G.n_nodes g in
  let side = Bitset.create n in
  (match u with
  | None ->
      for v = 0 to (n / 2) - 1 do
        Bitset.add side v
      done
  | Some s ->
      let want = Bitset.cardinal s / 2 in
      let count = ref 0 in
      Bitset.iter s (fun v ->
          if !count < want then begin
            Bitset.add side v;
            incr count
          end));
  (Traverse.boundary_edges g side, side)

type outcome =
  | Complete of int * Bitset.t
  | Interval of { lower : int; upper : int; witness : Bitset.t; reason : string }

(* Explore the given prefix codes; [completed.(i)] records whether code
   [codes.(i)]'s subtree was fully explored (or soundly pruned/infeasible).
   Cancellation is honored everywhere — even the first code's subtree can
   dwarf any budget on large instances — so a single run promises only
   that the set of completed codes is sound, never that it is non-empty.
   The checkpoint frontier therefore shrinks monotonically across resumes
   but is not guaranteed to shrink per run: terminating a resume loop
   needs a budget generous enough to finish at least one subtree (growing
   budgets, as the oracles use, always get there). *)
let run_codes bb ~p ~codes =
  let k = Array.length codes in
  let completed = Array.make k false in
  ignore
    (Parallel.run_chunks ~lo:0 ~hi:k (fun ~lo ~hi ->
         let local = clone_bb bb in
         for i = lo to hi - 1 do
           let code = codes.(i) in
           if not local.stopped then begin
             (* replay prefix *)
             let ok = ref true in
             let d = ref 1 in
             while !ok && !d <= p do
               let v = local.order.(!d) in
               let side = (code lsr (!d - 1)) land 1 in
               assign local v side;
               incr d;
               if not (feasible local !d) then ok := false
             done;
             if !ok && local.cap + local.sum_min < Atomic.get local.best then
               dfs local (p + 1);
             (* undo prefix *)
             for dd = !d - 1 downto 1 do
               unassign local local.order.(dd)
             done;
             completed.(i) <- not local.stopped
           end
         done;
         Metrics.add c_nodes local.visits;
         Metrics.add c_prefixes (hi - lo)));
  completed

(* root lower bound of one prefix subtree, replayed on the master bb;
   [max_int] when the prefix is infeasible (no cuts below it at all) *)
let prefix_bound bb ~p code =
  let ok = ref true in
  let d = ref 1 in
  while !ok && !d <= p do
    let v = bb.order.(!d) in
    let side = (code lsr (!d - 1)) land 1 in
    assign bb v side;
    incr d;
    if not (feasible bb !d) then ok := false
  done;
  let bound = if !ok then bb.cap + bb.sum_min else max_int in
  for dd = !d - 1 downto 1 do
    unassign bb bb.order.(dd)
  done;
  bound

let search ?u ?upper_bound ~cancel ~resume g =
  let n = G.n_nodes g in
  if n = 0 then invalid_arg "Exact: empty graph";
  Span.time t_bisection_width @@ fun () ->
  let key = cache_key ?u g in
  match
    Cache.lookup ~key ~decode:(cache_decode n) ~verify:(cache_verify ?u g)
  with
  | Some (c, side) -> (
      match upper_bound with
      | Some b when c > b ->
          invalid_arg
            "Exact.bisection_width: no cut at or below the given upper bound"
      | _ -> Complete (c, side))
  | None ->
      let init = match upper_bound with Some b -> b + 1 | None -> max_int in
      let bb = make_bb g u init in
      bb.cancel <- cancel;
      (* initialize sum_min: all zero counts -> 0; fix node order.(0) to A *)
      assign bb bb.order.(0) 0;
      (* parallel top-level branch split: the branch-and-bound tree is
         forked at every assignment of the next [p] nodes, and the 2^p
         subtree roots are spread across the domain pool; the shared atomic
         incumbent keeps pruning global *)
      let p = min 10 (n - 1) in
      let prefixes = 1 lsl p in
      (* checkpoints only make sense for unbounded searches: a search primed
         with an upper bound prunes subtrees that a later unbounded resume
         would still need *)
      let use_ckpt = upper_bound = None in
      let ckey = ckpt_key ?u g in
      let loaded =
        if resume && use_ckpt then
          Cache.lookup ~key:ckey
            ~decode:(ckpt_decode ~n ~prefixes)
            ~verify:(ckpt_verify ?u g ~p)
        else None
      in
      let codes =
        match loaded with
        | None -> Array.init prefixes (fun i -> i)
        | Some ck ->
            Metrics.incr c_ckpt_resumed;
            (match ck.ck_incumbent with
            | Some (c, side) when c < Atomic.get bb.best ->
                Atomic.set bb.best c;
                bb.witness := Some (c, side)
            | _ -> ());
            Array.of_list (Bitset.elements ck.ck_pending)
      in
      let completed =
        if Array.length codes = 0 then [||] else run_codes bb ~p ~codes
      in
      let pending = ref [] in
      Array.iteri
        (fun i code -> if not completed.(i) then pending := code :: !pending)
        codes;
      let pending = List.rev !pending in
      (match !(bb.witness) with
      | Some (c, _) -> Metrics.set g_best (float_of_int c)
      | None -> ());
      if pending = [] then begin
        if use_ckpt then Cache.drop ~key:ckey;
        match !(bb.witness) with
        | Some (c, side) ->
            Cache.put ~key ~encode:cache_encode (c, side);
            Complete (c, side)
        | None -> (
            match upper_bound with
            | Some _ ->
                invalid_arg
                  "Exact.bisection_width: no cut at or below the given upper \
                   bound"
            | None -> invalid_arg "Exact.bisection_width: infeasible constraint")
      end
      else begin
        Metrics.incr c_interrupted;
        (* certified interval: every cut in a completed subtree is >= the
           pruning threshold at its pruning time >= the final incumbent;
           every cut in a pending subtree is >= that subtree's root bound *)
        let best_now = Atomic.get bb.best in
        let pending_bound =
          List.fold_left
            (fun acc code -> min acc (prefix_bound bb ~p code))
            max_int pending
        in
        let upper, witness =
          match !(bb.witness) with
          | Some (c, side) -> (c, side)
          | None -> trivial_cut ?u g
        in
        let lower = min (min best_now pending_bound) upper in
        if lower >= upper && use_ckpt then begin
          (* squeezed: every pending subtree is provably >= the reported
             upper witness, so the answer is already exact *)
          Cache.drop ~key:ckey;
          Cache.put ~key ~encode:cache_encode (upper, witness);
          Complete (upper, witness)
        end
        else begin
          if use_ckpt then begin
            let pend = Bitset.create prefixes in
            List.iter (Bitset.add pend) pending;
            Cache.put ~key:ckey ~encode:(ckpt_encode ~n)
              { ck_p = p; ck_pending = pend; ck_incumbent = !(bb.witness) };
            Metrics.incr c_ckpt_stored
          end;
          let reason =
            match cancel with
            | Some c -> Option.value ~default:"cancelled" (Cancel.reason c)
            | None -> "cancelled"
          in
          Interval { lower; upper; witness; reason }
        end
      end

let bisection_width_supervised ?u ?upper_bound ?cancel ?(resume = false) g =
  search ?u ?upper_bound ~cancel:(Cancel.resolve cancel) ~resume g

let bisection_width ?u ?upper_bound g =
  (* no token — deliberately ignores the ambient one too: this entry point
     promises exactness, so it cannot be allowed to degrade silently *)
  match search ?u ?upper_bound ~cancel:None ~resume:false g with
  | Complete (c, side) -> (c, side)
  | Interval _ -> assert false (* unreachable without a token *)
