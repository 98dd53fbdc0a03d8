module G = Bfly_graph.Graph

let ceil_div a b = (a + b - 1) / b

let assert_load_1 e = assert (Embedding.load e = 1)

let bw_via e ~guest_bw =
  assert_load_1 e;
  ceil_div guest_bw (Embedding.congestion e)

let ee_via_kn e ~k =
  assert_load_1 e;
  let n = G.n_nodes (Embedding.guest e) in
  ceil_div (k * (n - k)) (Embedding.congestion e)

let input_bisection_bound b =
  let e = Classic.knn_into_butterfly b in
  assert_load_1 e;
  let n = Bfly_networks.Butterfly.n b in
  (* a cut of K_{n,n} bisecting one side has capacity >= n²/2 (Lemma 3.1) *)
  ceil_div (n * n / 2) (Embedding.congestion e)

let wrapped_bw_lower_bound w =
  let b, _ = Bfly_networks.Wrapped.unfold_to_butterfly w in
  input_bisection_bound b

let ccc_bw_lower_bound c =
  let w = Bfly_networks.Wrapped.create ~log_n:(Bfly_networks.Ccc.log_n c) in
  let e, _ = Classic.wrapped_into_ccc w in
  assert_load_1 e;
  ceil_div (wrapped_bw_lower_bound w) (Embedding.congestion e)
