module G = Bfly_graph.Graph
module Bitset = Bfly_graph.Bitset
module Traverse = Bfly_graph.Traverse
open Tu

let path4 () = G.of_edge_list ~n:4 [ (0, 1); (1, 2); (2, 3) ]
let square () = G.of_edge_list ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ]

let test_basic_counts () =
  let g = path4 () in
  check "nodes" 4 (G.n_nodes g);
  check "edges" 3 (G.n_edges g);
  check "deg endpoint" 1 (G.degree g 0);
  check "deg middle" 2 (G.degree g 1);
  check "max degree" 2 (G.max_degree g)

let test_rejects_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.of_edges: self-loop")
    (fun () -> ignore (G.of_edge_list ~n:3 [ (1, 1) ]))

let test_rejects_out_of_range () =
  Alcotest.check_raises "range"
    (Invalid_argument "Graph.of_edges: endpoint out of range") (fun () ->
      ignore (G.of_edge_list ~n:3 [ (0, 3) ]))

let test_multigraph () =
  let g = G.of_edge_list ~n:2 [ (0, 1); (1, 0); (0, 1) ] in
  check "parallel edges kept" 3 (G.n_edges g);
  check "degree with multiplicity" 3 (G.degree g 0);
  checkb "not simple" false (G.is_simple g);
  checkb "simple graph is simple" true (G.is_simple (path4 ()))

let test_neighbors () =
  let g = square () in
  Alcotest.(check (list int))
    "sorted neighbor list" [ 1; 3 ]
    (List.sort compare (Array.to_list (G.neighbors g 0)));
  checkb "mem_edge yes" true (G.mem_edge g 3 0);
  checkb "mem_edge no" false (G.mem_edge g 0 2)

let test_iter_edges_normalized () =
  let g = G.of_edge_list ~n:3 [ (2, 0); (1, 0) ] in
  let collected = ref [] in
  G.iter_edges g (fun u v -> collected := (u, v) :: !collected);
  Alcotest.(check (list (pair int int)))
    "normalized sorted" [ (0, 2); (0, 1) ] !collected

let test_induced () =
  let g = square () in
  let sub, ids = G.induced g (Bitset.of_list 4 [ 0; 1; 2 ]) in
  check "induced nodes" 3 (G.n_nodes sub);
  check "induced edges" 2 (G.n_edges sub);
  Alcotest.(check (array int)) "id map" [| 0; 1; 2 |] ids

let test_relabel_preserves () =
  let g = square () in
  let p = Bfly_graph.Perm.of_array [| 1; 2; 3; 0 |] in
  let h = G.relabel g p in
  checkb "cycle relabel of cycle is equal" true (G.equal g h)

let test_union_disjoint () =
  let g = G.union_disjoint (path4 ()) (square ()) in
  check "nodes add" 8 (G.n_nodes g);
  check "edges add" 7 (G.n_edges g);
  checkb "shifted edge" true (G.mem_edge g 4 5);
  checkb "no cross edge" false (G.mem_edge g 3 4)

let test_degree_histogram () =
  let g = path4 () in
  Alcotest.(check (array int)) "histogram" [| 0; 2; 2 |] (G.degree_histogram g)

(* ---- traversal ---- *)

let test_bfs () =
  let g = path4 () in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3 |] (Traverse.bfs_distances g 0)

let test_bfs_unreachable () =
  let g = G.of_edge_list ~n:4 [ (0, 1) ] in
  Alcotest.(check (array int))
    "unreachable = -1" [| 0; 1; -1; -1 |] (Traverse.bfs_distances g 0)

let test_bfs_multi () =
  let g = path4 () in
  Alcotest.(check (array int))
    "multi-source" [| 0; 1; 1; 0 |] (Traverse.bfs_multi g [ 0; 3 ])

let test_shortest_path () =
  let g = square () in
  Alcotest.(check (option (list int)))
    "path" (Some [ 0; 3 ]) (Traverse.shortest_path g 0 3);
  let disconnected = G.of_edge_list ~n:4 [ (0, 1) ] in
  Alcotest.(check (option (list int)))
    "no path" None (Traverse.shortest_path disconnected 0 3)

let test_components_connectivity () =
  let g = G.of_edge_list ~n:5 [ (0, 1); (2, 3) ] in
  check "component count" 3 (Traverse.component_count g);
  checkb "disconnected" false (Traverse.is_connected g);
  checkb "path connected" true (Traverse.is_connected (path4 ()))

let test_diameter () =
  check "path diameter" 3 (Traverse.diameter (path4 ()));
  check "cycle diameter" 2 (Traverse.diameter (square ()));
  Alcotest.check_raises "disconnected diameter"
    (Invalid_argument "Traverse.diameter: disconnected") (fun () ->
      ignore (Traverse.diameter (G.of_edge_list ~n:3 [ (0, 1) ])))

let test_boundary_and_neighbors () =
  let g = square () in
  let s = Bitset.of_list 4 [ 0; 1 ] in
  check "boundary of half-square" 2 (Traverse.boundary_edges g s);
  Alcotest.(check (list int))
    "N(S)" [ 2; 3 ]
    (Bitset.elements (Traverse.neighbors_of_set g s))

let prop_degree_sum =
  qcheck ~count:100 "sum of degrees = 2m"
    (seeded QCheck2.Gen.(pair (int_range 2 30) (int_range 0 60)))
    (fun ((n, extra), seed) ->
      let g = random_graph ~rng:(rng seed) n ~extra_edges:extra in
      let sum = ref 0 in
      for v = 0 to n - 1 do
        sum := !sum + G.degree g v
      done;
      !sum = 2 * G.n_edges g)

let prop_boundary_symmetric =
  qcheck ~count:100 "C(S) = C(complement S)"
    (seeded QCheck2.Gen.(pair (int_range 2 30) (list (int_bound 29))))
    (fun ((n, l), seed) ->
      let g = random_graph ~rng:(rng seed) n ~extra_edges:n in
      let s = Bitset.of_list n (List.filter (fun x -> x < n) l) in
      Traverse.boundary_edges g s
      = Traverse.boundary_edges g (Bitset.complement s))

let prop_bfs_triangle =
  qcheck ~count:50 "bfs distances satisfy edge-triangle inequality"
    (seeded QCheck2.Gen.(int_range 2 40))
    (fun (n, seed) ->
      let g = random_graph ~rng:(rng seed) n ~extra_edges:n in
      let d = Traverse.bfs_distances g 0 in
      let ok = ref true in
      G.iter_edges g (fun u v -> if abs (d.(u) - d.(v)) > 1 then ok := false);
      !ok)

(* The packed endpoint arrays are the graph's only edge list: decoding
   them must give back exactly the normalized, sorted input with its
   multiplicity, across 63-bit word boundaries (n up to 200), and the
   endpoint-array constructor must build the same graph. *)
let prop_edge_list_roundtrip =
  qcheck ~count:100 "edges = sorted normalized input (of_edges, of_endpoints)"
    (seeded QCheck2.Gen.(pair (int_range 2 200) (int_range 0 400)))
    (fun ((n, m), seed) ->
      let rng = rng seed in
      let es =
        Array.init m (fun _ ->
            let u = Random.State.int rng n in
            let v = (u + 1 + Random.State.int rng (n - 1)) mod n in
            (u, v))
      in
      let want = Array.map (fun (u, v) -> (min u v, max u v)) es in
      Array.sort compare want;
      let g = G.of_edges ~n es in
      let seen = ref [] in
      G.iter_edges g (fun u v -> seen := (u, v) :: !seen);
      let h = G.of_endpoints ~n ~m (Array.map fst es) (Array.map snd es) in
      G.edges g = want
      && Array.of_list (List.rev !seen) = want
      && G.equal g h
      && G.edges h = want)

let suite =
  [
    case "counts" test_basic_counts;
    case "rejects self-loops" test_rejects_self_loop;
    case "rejects out-of-range" test_rejects_out_of_range;
    case "multigraph multiplicity" test_multigraph;
    case "neighbors and mem_edge" test_neighbors;
    case "iter_edges normalized" test_iter_edges_normalized;
    case "induced subgraph" test_induced;
    case "relabel preserves structure" test_relabel_preserves;
    case "disjoint union" test_union_disjoint;
    case "degree histogram" test_degree_histogram;
    case "bfs distances" test_bfs;
    case "bfs unreachable" test_bfs_unreachable;
    case "bfs multi-source" test_bfs_multi;
    case "shortest path" test_shortest_path;
    case "components" test_components_connectivity;
    case "diameter" test_diameter;
    case "boundary edges and N(S)" test_boundary_and_neighbors;
    prop_degree_sum;
    prop_boundary_symmetric;
    prop_bfs_triangle;
    prop_edge_list_roundtrip;
  ]
