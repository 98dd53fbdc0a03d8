(* Shared test utilities. *)

module G = Bfly_graph.Graph
module Bitset = Bfly_graph.Bitset

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* Every randomized helper takes an explicit [rng]; [rng seed] makes one.
   There is deliberately no shared process-global state: suites used to
   mutate one [Random.State] in registration order, so adding a test case
   reseeded every generator registered after it. Seeding per case keeps
   each test's instances stable under suite growth. *)
let rng seed = Random.State.make [| seed; 0x7e57 |]

(* Append a per-case seed to a QCheck generator: randomized properties
   draw their instances from [rng seed], so every invocation owns its
   stream and the seed shrinks (toward 0) with the rest of the case. *)
let seeded gen = QCheck2.Gen.(pair gen (int_bound 0xffffff))

(* Erdős–Rényi-ish random graph, made connected by a random spanning path. *)
let random_graph ~rng n ~extra_edges =
  let edges = ref [] in
  let perm = Bfly_graph.Perm.random ~rng n in
  for i = 0 to n - 2 do
    edges := (Bfly_graph.Perm.apply perm i, Bfly_graph.Perm.apply perm (i + 1)) :: !edges
  done;
  for _ = 1 to extra_edges do
    let u = Random.State.int rng n and v = Random.State.int rng n in
    if u <> v then edges := (u, v) :: !edges
  done;
  G.of_edge_list ~n !edges

let random_subset ~rng n k =
  let p = Bfly_graph.Perm.random ~rng n in
  let s = Bitset.create n in
  for i = 0 to k - 1 do
    Bitset.add s (Bfly_graph.Perm.apply p i)
  done;
  s

(* Brute-force bisection width for tiny graphs. The historical in-test
   implementation grew into [Bfly_check.Reference], which the whole
   differential-oracle layer now builds on; this alias keeps the test
   suites reading the same. *)
let brute_bw g = fst (Bfly_check.Reference.bisection_width g)

(* Nearest-rank quantile of an ascending array: the element at index
   ceil(q·n) - 1, so p50 of two samples is the smaller one; 0 when empty.
   The reference [Bfly_obs.Metrics]'s histogram quantiles are held to. *)
let nearest_rank sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
