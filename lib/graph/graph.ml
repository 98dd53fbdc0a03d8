type t = {
  n : int;
  offsets : int array; (* length n+1 *)
  adj : int array; (* length 2m; adj.(offsets.(u)..offsets.(u+1)-1) = nbrs of u *)
  ep_u : int array; (* per edge: (word lsl 6) lor bit of the u endpoint *)
  ep_v : int array; (* per edge: same packing for the v endpoint *)
  fingerprint : int64 option Atomic.t; (* see [fingerprint] below *)
}
(* The packed endpoint arrays are also the edge list: edge e is
   (unpack ep_u.(e), unpack ep_v.(e)), normalized u <= v, sorted, with
   multiplicity. No boxed (u, v) array is kept beside them: graphs live
   on in Job.graph_of's memo, and the tuples were most of a small graph's
   heap objects. *)

let bpw = Bitset.bits_per_word
let pack_pos i = ((i / bpw) lsl 6) lor (i mod bpw)
let unpack_pos p = ((p lsr 6) * bpw) + (p land 63)

(* Largest n for which the packed edge key u*n + v stays within a native int
   (n^2 - 1 <= max_int). Above it we fall back to the tuple sort. *)
let max_packed_n = 0x3FFFFFFF

(* Build the CSR structure and packed endpoint arrays from normalized
   (u <= v) edges (us.(e), vs.(e)), already sorted lexicographically. *)
let of_sorted ~n us vs =
  let m = Array.length us in
  let deg = Array.make n 0 in
  for e = 0 to m - 1 do
    let u = us.(e) and v = vs.(e) in
    deg.(u) <- deg.(u) + 1;
    deg.(v) <- deg.(v) + 1
  done;
  let offsets = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    offsets.(u + 1) <- offsets.(u) + deg.(u)
  done;
  let adj = Array.make offsets.(n) 0 in
  let cursor = Array.copy offsets in
  let ep_u = Array.make m 0 and ep_v = Array.make m 0 in
  for e = 0 to m - 1 do
    let u = us.(e) and v = vs.(e) in
    adj.(cursor.(u)) <- v;
    cursor.(u) <- cursor.(u) + 1;
    adj.(cursor.(v)) <- u;
    cursor.(v) <- cursor.(v) + 1;
    ep_u.(e) <- pack_pos u;
    ep_v.(e) <- pack_pos v
  done;
  { n; offsets; adj; ep_u; ep_v; fingerprint = Atomic.make None }

(* Sort normalized (u <= v) edges packed as the int keys u*n + v: key order
   is exactly the lexicographic order of the pairs (v < n), sorted with the
   monomorphic int comparison — no polymorphic-compare calls, no per-element
   indirection. Takes ownership of [keys]. *)
let of_keys ~n keys =
  Array.sort (fun (a : int) b -> compare a b) keys;
  of_sorted ~n (Array.map (fun k -> k / n) keys) (Array.map (fun k -> k mod n) keys)

let of_edges ~n edges =
  if n < 0 then invalid_arg "Graph.of_edges: negative node count";
  let check (u, v) =
    if u < 0 || u >= n || v < 0 || v >= n then
      invalid_arg "Graph.of_edges: endpoint out of range";
    if u = v then invalid_arg "Graph.of_edges: self-loop"
  in
  Array.iter check edges;
  if n > 1 && n <= max_packed_n then
    of_keys ~n
      (Array.map (fun (u, v) -> if u <= v then (u * n) + v else (v * n) + u) edges)
  else begin
    let sorted = Array.map (fun (u, v) -> if u <= v then (u, v) else (v, u)) edges in
    Array.sort compare sorted;
    of_sorted ~n (Array.map fst sorted) (Array.map snd sorted)
  end

let of_edge_list ~n edges = of_edges ~n (Array.of_list edges)

(* Endpoint-array constructor: same graph as [of_edges] on the zipped pairs,
   without materializing a tuple array. Used by the multilevel coarsener,
   which accumulates coarse edges in two flat int stacks. *)
let of_endpoints ~n ~m us vs =
  if n < 0 then invalid_arg "Graph.of_endpoints: negative node count";
  if m < 0 || m > Array.length us || m > Array.length vs then
    invalid_arg "Graph.of_endpoints: bad edge count";
  if n > 1 && n <= max_packed_n then begin
    let keys = Array.make m 0 in
    for i = 0 to m - 1 do
      let u = us.(i) and v = vs.(i) in
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Graph.of_endpoints: endpoint out of range";
      if u = v then invalid_arg "Graph.of_endpoints: self-loop";
      let u, v = if u <= v then (u, v) else (v, u) in
      Array.unsafe_set keys i ((u * n) + v)
    done;
    of_keys ~n keys
  end
  else of_edges ~n (Array.init m (fun i -> (us.(i), vs.(i))))

let n_nodes g = g.n
let n_edges g = Array.length g.ep_u
let degree g u = g.offsets.(u + 1) - g.offsets.(u)

let max_degree g =
  let m = ref 0 in
  for u = 0 to g.n - 1 do
    m := max !m (degree g u)
  done;
  !m

let csr_offsets g = g.offsets
let csr_adj g = g.adj

let iter_neighbors g u f =
  for i = g.offsets.(u) to g.offsets.(u + 1) - 1 do
    f g.adj.(i)
  done

let fold_neighbors g u init f =
  let acc = ref init in
  iter_neighbors g u (fun v -> acc := f !acc v);
  !acc

let neighbors g u =
  Array.sub g.adj g.offsets.(u) (degree g u)

let edge_u g e = unpack_pos g.ep_u.(e)
let edge_v g e = unpack_pos g.ep_v.(e)

let iter_edges g f =
  for e = 0 to Array.length g.ep_u - 1 do
    f (edge_u g e) (edge_v g e)
  done

let edges g = Array.init (Array.length g.ep_u) (fun e -> (edge_u g e, edge_v g e))

(* Word-indexed cut capacity: one branch-free test per edge against the
   side's backing words. The packed endpoint arrays cache each endpoint's
   (word, bit) so the loop is two loads, two shifts and an xor per edge. *)
let cut_size g side =
  if Bitset.capacity side <> g.n then
    invalid_arg "Graph.cut_size: side capacity mismatch";
  let w = Bitset.unsafe_words side in
  let eu = g.ep_u and ev = g.ep_v in
  let acc = ref 0 in
  for e = 0 to Array.length eu - 1 do
    let pu = Array.unsafe_get eu e and pv = Array.unsafe_get ev e in
    let bu = Array.unsafe_get w (pu lsr 6) lsr (pu land 63) in
    let bv = Array.unsafe_get w (pv lsr 6) lsr (pv land 63) in
    acc := !acc + ((bu lxor bv) land 1)
  done;
  !acc

let mem_edge g u v =
  (* adjacency slices are sorted by construction (edge list sorted, then
     scattered in order), so binary search would be possible; degrees here
     are tiny (<= 4 for butterflies) so a scan is simpler. *)
  let found = ref false in
  iter_neighbors g u (fun w -> if w = v then found := true);
  !found

let is_simple g =
  let m = Array.length g.ep_u in
  let rec go i =
    i >= m - 1
    || ((g.ep_u.(i) <> g.ep_u.(i + 1) || g.ep_v.(i) <> g.ep_v.(i + 1))
       && go (i + 1))
  in
  go 0

let induced g nodes =
  let ids = Array.of_list (Bitset.elements nodes) in
  let new_of_old = Hashtbl.create (Array.length ids) in
  Array.iteri (fun i id -> Hashtbl.replace new_of_old id i) ids;
  let edges = ref [] in
  iter_edges g (fun u v ->
      match (Hashtbl.find_opt new_of_old u, Hashtbl.find_opt new_of_old v) with
      | Some u', Some v' -> edges := (u', v') :: !edges
      | _ -> ());
  (of_edge_list ~n:(Array.length ids) !edges, ids)

let relabel g p =
  assert (Perm.size p = g.n);
  of_edges ~n:g.n
    (Array.map (fun (u, v) -> (Perm.apply p u, Perm.apply p v)) (edges g))

let union_disjoint a b =
  let shift = a.n in
  let eb = Array.map (fun (u, v) -> (u + shift, v + shift)) (edges b) in
  of_edges ~n:(a.n + b.n) (Array.append (edges a) eb)

let equal a b = a.n = b.n && a.ep_u = b.ep_u && a.ep_v = b.ep_v

(* A graph is immutable, so its fingerprint is a constant: the first
   caller computes it and every later one reads it. Domains racing on the
   first use each compute the same value and store it; whichever store
   lands, every reader sees either [None] (and computes) or that value. *)
let fingerprint g compute =
  match Atomic.get g.fingerprint with
  | Some h -> h
  | None ->
      let h = compute g in
      Atomic.set g.fingerprint (Some h);
      h

let degree_histogram g =
  let h = Array.make (max_degree g + 1) 0 in
  for u = 0 to g.n - 1 do
    let d = degree g u in
    h.(d) <- h.(d) + 1
  done;
  h
