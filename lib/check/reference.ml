(* Reference oracles: definitional, sequential, edge-list based. Kept
   deliberately naive — no pruning, no incrementality, no sharing with the
   solvers under test — so that a bug would have to be reinvented here to
   go unnoticed. *)

module G = Bfly_graph.Graph
module Bitset = Bfly_graph.Bitset

(* These two run on every served witness (Invariants). Membership is
   written once, a byte per node, by walking the set's members
   ([Bitset.iter] finds them by word and trailing zeros, not through the
   multiply-shift index the kernels use); the loop over the edge list
   then compares its endpoints' bytes. Still the definition — every
   edge, one membership test per endpoint — with nothing shared with the
   word-parallel kernels under test. *)
let membership s n =
  let inside = Bytes.make n '\000' in
  Bitset.iter s (fun i -> Bytes.set inside i '\001');
  inside

let cut_capacity g side =
  let inside = membership side (G.n_nodes g) in
  let c = ref 0 in
  for e = 0 to G.n_edges g - 1 do
    let u = G.edge_u g e and v = G.edge_v g e in
    c := !c + Bool.to_int (Bytes.get inside u <> Bytes.get inside v)
  done;
  !c

let neighborhood_size g s =
  let n = G.n_nodes g in
  let inside = membership s n in
  let seen = Array.make n false in
  let count = ref 0 in
  let reach w =
    if Bytes.get inside w = '\000' && not seen.(w) then begin
      seen.(w) <- true;
      incr count
    end
  in
  for e = 0 to G.n_edges g - 1 do
    let u = G.edge_u g e and v = G.edge_v g e in
    if Bytes.get inside u = '\001' then reach v;
    if Bytes.get inside v = '\001' then reach u
  done;
  !count

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m land (m - 1)) (acc + 1) in
  go m 0

let bisection_width ?u g =
  let n = G.n_nodes g in
  if n > 20 then invalid_arg "Reference.bisection_width: more than 20 nodes";
  if n = 0 then invalid_arg "Reference.bisection_width: empty graph";
  let u_mask =
    match u with
    | None -> (1 lsl n) - 1
    | Some s -> Bitset.fold s 0 (fun acc i -> acc lor (1 lsl i))
  in
  if u_mask = 0 then invalid_arg "Reference.bisection_width: empty U";
  let u_size = popcount u_mask in
  let edges = G.edges g in
  let best = ref max_int and best_mask = ref 0 in
  for m = 0 to (1 lsl n) - 1 do
    let k = popcount (m land u_mask) in
    if k = u_size / 2 || k = (u_size + 1) / 2 then begin
      let c =
        Array.fold_left
          (fun acc (a, b) ->
            if (m lsr a) land 1 <> (m lsr b) land 1 then acc + 1 else acc)
          0 edges
      in
      if c < !best then begin
        best := c;
        best_mask := m
      end
    end
  done;
  let side = Bitset.create n in
  for i = 0 to n - 1 do
    if (!best_mask lsr i) land 1 = 1 then Bitset.add side i
  done;
  (!best, side)

(* n choose k without the library's Subset module, saturating well above
   the guard threshold. *)
let binomial n k =
  if k < 0 || k > n then 0
  else begin
    let k = min k (n - k) in
    let acc = ref 1 in
    for i = 1 to k do
      if !acc < 1_000_000_000 then acc := !acc * (n - k + i) / i
    done;
    !acc
  end

let enumeration_limit = 10_000_000

(* Enumerate k-subsets of [0, n) in lexicographic order, maintaining a
   membership array incrementally; [eval] scores the current subset. *)
let minimize_over_ksubsets ~n ~k ~eval =
  let mem = Array.make n false in
  let chosen = Array.make k 0 in
  let best = ref max_int and best_set = ref [||] in
  let rec go start idx =
    if idx = k then begin
      let c = eval mem in
      if c < !best then begin
        best := c;
        best_set := Array.copy chosen
      end
    end
    else
      for v = start to n - (k - idx) do
        mem.(v) <- true;
        chosen.(idx) <- v;
        go (v + 1) (idx + 1);
        mem.(v) <- false
      done
  in
  go 0 0;
  let side = Bitset.create n in
  Array.iter (Bitset.add side) !best_set;
  (!best, side)

let guard_expansion name g ~k =
  let n = G.n_nodes g in
  if k < 1 || k >= n then invalid_arg (name ^ ": k out of range");
  if binomial n k > enumeration_limit then
    invalid_arg (name ^ ": C(n,k) too large for the reference enumeration")

let edge_expansion g ~k =
  guard_expansion "Reference.edge_expansion" g ~k;
  let edges = G.edges g in
  minimize_over_ksubsets ~n:(G.n_nodes g) ~k ~eval:(fun mem ->
      Array.fold_left
        (fun acc (u, v) -> if mem.(u) <> mem.(v) then acc + 1 else acc)
        0 edges)

let node_expansion g ~k =
  guard_expansion "Reference.node_expansion" g ~k;
  let n = G.n_nodes g in
  let edges = G.edges g in
  let seen = Array.make n 0 in
  let stamp = ref 0 in
  minimize_over_ksubsets ~n ~k ~eval:(fun mem ->
      incr stamp;
      let c = ref 0 in
      Array.iter
        (fun (u, v) ->
          if mem.(u) && (not mem.(v)) && seen.(v) <> !stamp then begin
            seen.(v) <- !stamp;
            incr c
          end;
          if mem.(v) && (not mem.(u)) && seen.(u) <> !stamp then begin
            seen.(u) <- !stamp;
            incr c
          end)
        edges;
      !c)

let embedding_measures e =
  let module E = Bfly_embed.Embedding in
  let host = E.host e in
  let node_map = E.node_map e in
  let paths = E.edge_paths e in
  (* load: guest nodes per host node *)
  let counts = Array.make (G.n_nodes host) 0 in
  Array.iter (fun h -> counts.(h) <- counts.(h) + 1) node_map;
  let load = Array.fold_left max 0 counts in
  (* parallel-edge multiplicity per host pair *)
  let mult = Hashtbl.create 256 in
  G.iter_edges host (fun u v ->
      let key = (min u v, max u v) in
      Hashtbl.replace mult key
        (1 + Option.value ~default:0 (Hashtbl.find_opt mult key)));
  (* congestion: walk every path, count usage per unordered pair, divide by
     multiplicity rounding up *)
  let usage = Hashtbl.create 256 in
  let dilation = ref 0 in
  Array.iter
    (fun path ->
      dilation := max !dilation (List.length path - 1);
      let rec walk = function
        | a :: (b :: _ as rest) ->
            let key = (min a b, max a b) in
            Hashtbl.replace usage key
              (1 + Option.value ~default:0 (Hashtbl.find_opt usage key));
            walk rest
        | [ _ ] | [] -> ()
      in
      walk path)
    paths;
  let congestion =
    Hashtbl.fold
      (fun key count acc ->
        let m = Option.value ~default:1 (Hashtbl.find_opt mult key) in
        max acc ((count + m - 1) / m))
      usage 0
  in
  (load, congestion, max 0 !dilation)
