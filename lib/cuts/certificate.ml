module G = Bfly_graph.Graph
module Parallel = Bfly_graph.Parallel
module Metrics = Bfly_obs.Metrics
module Span = Bfly_obs.Span

let c_bounds = Metrics.counter "cuts.certificate.kn"
let t_certificate = Metrics.timer "cuts.certificate"

(* Map every CSR arc to the index of its undirected endpoint pair in
   [G.edges g] (parallel edges share the first matching index: the
   congestion argument is per endpoint pair — per "bundle" — and a cut
   that contains a bundle has at least one unit of capacity per bundle,
   so bundle-granular congestion keeps the bound sound on multigraphs). *)
let arc_bundles g =
  let n = G.n_nodes g in
  let offsets = G.csr_offsets g and adj = G.csr_adj g in
  let edges = G.edges g in
  let bundle_of = Hashtbl.create (Array.length edges) in
  Array.iteri
    (fun i e -> if not (Hashtbl.mem bundle_of e) then Hashtbl.add bundle_of e i)
    edges;
  let arc_bundle = Array.make (Array.length adj) 0 in
  for u = 0 to n - 1 do
    for k = offsets.(u) to offsets.(u + 1) - 1 do
      let v = adj.(k) in
      arc_bundle.(k) <- Hashtbl.find bundle_of (if u <= v then (u, v) else (v, u))
    done
  done;
  (arc_bundle, Array.length edges)

(* Congestion of the BFS-tree all-pairs routing, accumulated for sources
   [lo, hi): every node [v] of the tree rooted at [s] routes the ordered
   pairs (s, t) for all t in v's subtree through its parent edge, so the
   parent edge's congestion grows by the subtree size. Subtree sizes fall
   out of one reverse scan of the BFS order. Deterministic: BFS scans
   adjacency in CSR order, and the per-bundle totals are sums of
   per-source integers, associative at any chunking. *)
let chunk_congestion g ~arc_bundle ~n_bundles ~lo ~hi =
  let n = G.n_nodes g in
  let offsets = G.csr_offsets g and adj = G.csr_adj g in
  let dist = Array.make n (-1)
  and parent = Array.make n (-1)
  and via = Array.make n (-1)
  and queue = Array.make n 0
  and cnt = Array.make n 0 in
  let cong = Array.make n_bundles 0 in
  let disconnected = ref false in
  for s = lo to hi - 1 do
    Array.fill dist 0 n (-1);
    dist.(s) <- 0;
    queue.(0) <- s;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      for k = offsets.(u) to offsets.(u + 1) - 1 do
        let v = adj.(k) in
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          parent.(v) <- u;
          via.(v) <- k;
          queue.(!tail) <- v;
          incr tail
        end
      done
    done;
    if !tail < n then disconnected := true
    else begin
      Array.fill cnt 0 n 1;
      for i = !tail - 1 downto 1 do
        let v = queue.(i) in
        cong.(arc_bundle.(via.(v))) <- cong.(arc_bundle.(via.(v))) + cnt.(v);
        cnt.(parent.(v)) <- cnt.(parent.(v)) + cnt.(v)
      done
    end
  done;
  (cong, !disconnected)

let kn_congestion g =
  let n = G.n_nodes g in
  if n <= 1 then Some 0
  else if G.n_edges g = 0 then None
  else
    Span.time t_certificate @@ fun () ->
    let arc_bundle, n_bundles = arc_bundles g in
    let chunks =
      Parallel.run_chunks ~lo:0 ~hi:n (fun ~lo ~hi ->
          chunk_congestion g ~arc_bundle ~n_bundles ~lo ~hi)
    in
    let total = Array.make n_bundles 0 in
    let disconnected = ref false in
    List.iter
      (fun (cong, disc) ->
        if disc then disconnected := true;
        Array.iteri (fun i c -> total.(i) <- total.(i) + c) cong)
      chunks;
    if !disconnected then None
    else Some (Array.fold_left max 0 total)

let kn_bound g =
  let n = G.n_nodes g in
  Metrics.incr c_bounds;
  if n < 2 then 0
  else
    match kn_congestion g with
    | None | Some 0 -> 0
    | Some c ->
        (* a bisection separates 2·⌈n/2⌉·⌊n/2⌋ ordered pairs; each
           separated pair's tree route crosses the cut, and a cut of
           capacity w contains at most w bundles, each carrying <= c *)
        let pairs = 2 * ((n / 2) * ((n + 1) / 2)) in
        (pairs + c - 1) / c
