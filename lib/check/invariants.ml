module G = Bfly_graph.Graph
module Bitset = Bfly_graph.Bitset

type result = Pass | Fail of string

let is_pass = function Pass -> true | Fail _ -> false
let message = function Pass -> None | Fail m -> Some m
let fail fmt = Printf.ksprintf (fun m -> Fail m) fmt

let rec all = function
  | [] -> Pass
  | Pass :: rest -> all rest
  | (Fail _ as f) :: _ -> f

let bisection_cut ?u g ~value ~witness =
  let n = G.n_nodes g in
  if Bitset.capacity witness <> n then
    fail "witness universe %d does not match node count %d"
      (Bitset.capacity witness) n
  else begin
    let u_size, in_side =
      match u with
      | None -> (n, Bitset.cardinal witness)
      | Some u -> (Bitset.cardinal u, Bitset.cardinal (Bitset.inter witness u))
    in
    if in_side <> u_size / 2 && in_side <> (u_size + 1) / 2 then
      fail "witness does not bisect U: |S∩U| = %d of |U| = %d" in_side u_size
    else
      let c = Reference.cut_capacity g witness in
      if c <> value then
        fail "witness capacity %d differs from reported value %d" c value
      else Pass
  end

let bisection_interval ?u g ~lower ~upper ~witness =
  if lower > upper then fail "empty interval: lower %d > upper %d" lower upper
  else if lower < 0 then fail "negative lower bound %d" lower
  else
    (* the upper end must be realized: the witness is a real bisecting cut
       of exactly that capacity, so BW <= upper holds unconditionally *)
    bisection_cut ?u g ~value:upper ~witness

let expansion_witness ~kind g ~k ~value ~witness =
  if Bitset.capacity witness <> G.n_nodes g then
    fail "witness universe %d does not match node count %d"
      (Bitset.capacity witness) (G.n_nodes g)
  else if Bitset.cardinal witness <> k then
    fail "witness has %d nodes, expected k = %d" (Bitset.cardinal witness) k
  else
    let measured, what =
      match kind with
      | `Edge -> (Reference.cut_capacity g witness, "EE")
      | `Node -> (Reference.neighborhood_size g witness, "NE")
    in
    if measured <> value then
      fail "%s witness achieves %d, reported %d" what measured value
    else Pass

let paths_are_walks g paths =
  let n = G.n_nodes g in
  let bad = ref Pass in
  Array.iteri
    (fun i path ->
      if is_pass !bad then
        match path with
        | [] -> bad := fail "path %d is empty" i
        | path ->
            let rec walk = function
              | a :: (b :: _ as rest) ->
                  if a < 0 || a >= n || b < 0 || b >= n then
                    bad := fail "path %d leaves the node range" i
                  else if not (G.mem_edge g a b) then
                    bad := fail "path %d uses non-edge (%d, %d)" i a b
                  else walk rest
              | [ last ] ->
                  if last < 0 || last >= n then
                    bad := fail "path %d leaves the node range" i
              | [] -> ()
            in
            walk path)
    paths;
  !bad

let embedding e =
  let module E = Bfly_embed.Embedding in
  let guest = E.guest e and host = E.host e in
  let node_map = E.node_map e in
  let paths = E.edge_paths e in
  let guest_edges = G.edges guest in
  if Array.length node_map <> G.n_nodes guest then
    fail "node map size %d differs from guest node count %d"
      (Array.length node_map) (G.n_nodes guest)
  else if Array.exists (fun h -> h < 0 || h >= G.n_nodes host) node_map then
    Fail "node map leaves the host node range"
  else if Array.length paths <> Array.length guest_edges then
    fail "edge path count %d differs from guest edge count %d"
      (Array.length paths) (Array.length guest_edges)
  else begin
    let endpoint_check =
      let bad = ref Pass in
      Array.iteri
        (fun i path ->
          if is_pass !bad then
            let u, v = guest_edges.(i) in
            let mu = node_map.(u) and mv = node_map.(v) in
            match path with
            | [] -> bad := fail "path %d is empty" i
            | first :: _ ->
                let last = List.nth path (List.length path - 1) in
                if not ((first = mu && last = mv) || (first = mv && last = mu))
                then
                  bad :=
                    fail
                      "path %d connects hosts (%d, %d), guest edge maps to \
                       (%d, %d)"
                      i first last mu mv)
        paths;
      !bad
    in
    all
      [
        endpoint_check;
        paths_are_walks host paths;
        (let load, congestion, dilation = Reference.embedding_measures e in
         all
           [
             (if E.load e <> load then
                fail "measured load %d, recomputed %d" (E.load e) load
              else Pass);
             (if E.congestion e <> congestion then
                fail "measured congestion %d, recomputed %d" (E.congestion e)
                  congestion
              else Pass);
             (if E.dilation e <> dilation then
                fail "measured dilation %d, recomputed %d" (E.dilation e)
                  dilation
              else Pass);
           ]);
      ]
  end
