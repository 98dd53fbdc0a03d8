(* Edge cases and determinism guarantees across the library. *)

module G = Bfly_graph.Graph
module Bitset = Bfly_graph.Bitset
module B = Bfly_networks.Butterfly
open Tu

(* ---- degenerate butterflies ---- *)

let test_b1 () =
  let b = B.create ~log_n:0 in
  check "single node" 1 (B.size b);
  check "no edges" 0 (G.n_edges (B.graph b));
  Alcotest.(check (list int))
    "monotone path is the node itself" [ 0 ]
    (B.monotone_path b ~input_col:0 ~output_col:0)

let test_b2 () =
  let b = B.create ~log_n:1 in
  check "four nodes" 4 (B.size b);
  check "four edges" 4 (G.n_edges (B.graph b));
  check "BW(B_2)" 2 (fst (Bfly_cuts.Exact.bisection_width (B.graph b)))

(* ---- determinism with fixed seeds ---- *)

let test_heuristics_deterministic () =
  let g = B.graph (B.of_inputs 16) in
  let run () =
    let rng = Random.State.make [| 42 |] in
    fst (Bfly_cuts.Heuristics.kernighan_lin ~rng g)
  in
  check "same seed, same result" (run ()) (run ())

let test_experiments_deterministic () =
  let a = Bfly_core.Experiments.e4_ccc_bisection () in
  let b' = Bfly_core.Experiments.e4_ccc_bisection () in
  Alcotest.(check string) "stable table" a b'

let test_multibutterfly_deterministic () =
  let make () =
    Bfly_networks.Multibutterfly.create
      ~rng:(Random.State.make [| 3 |])
      ~log_n:4 ~d:2 ()
  in
  checkb "same wiring from the same seed" true
    (G.equal
       (Bfly_networks.Multibutterfly.graph (make ()))
       (Bfly_networks.Multibutterfly.graph (make ())))

(* ---- parallel substrate under forced sequential execution ---- *)

let test_parallel_env_sequential () =
  (* BFLY_DOMAINS=1 must not change results *)
  let compute () =
    Bfly_graph.Parallel.reduce_range ~lo:0 ~hi:1000 ~init:0 ~f:Fun.id
      ~combine:( + )
  in
  let base = compute () in
  Unix.putenv "BFLY_DOMAINS" "1";
  let seq = compute () in
  Unix.putenv "BFLY_DOMAINS" "";
  check "same sum" base seq

(* ---- subset boundary conditions ---- *)

let test_subset_extremes () =
  let count = ref 0 in
  Bfly_graph.Subset.iter ~n:5 ~k:0 (fun a ->
      incr count;
      check "empty subset" 0 (Array.length a));
  check "one empty subset" 1 !count;
  Alcotest.check_raises "unrank out of range"
    (Invalid_argument "Subset.unrank: rank out of range") (fun () ->
      ignore (Bfly_graph.Subset.unrank ~n:5 ~k:2 10))

(* ---- expansion limit guards ---- *)

let test_expansion_guards () =
  let g = B.graph (B.of_inputs 4) in
  Alcotest.check_raises "k out of range"
    (Invalid_argument "Expansion: k out of range") (fun () ->
      ignore (Bfly_expansion.Expansion.ee_exact g ~k:100))

(* ---- layout edges are routable ---- *)

let test_layout_has_room_per_boundary () =
  (* the number of tracks must cover the maximum wire overlap: every
     cross-wire interval at boundary i spans exactly cross_mask columns, and
     2*mask of them stack at the midpoint *)
  let b = B.of_inputs 32 in
  let l = Bfly_networks.Layout.butterfly_grid b in
  Array.iteri
    (fun i tracks -> check "tracks = 2 * mask" (2 * B.cross_mask b i) tracks)
    l.Bfly_networks.Layout.tracks_per_boundary

(* ---- router stress: many packets on one edge ---- *)

let test_router_heavy_contention () =
  let g = G.of_edge_list ~n:2 [ (0, 1) ] in
  let paths = Array.make 10 [ 0; 1 ] in
  let stats = Bfly_routing.Router.run g ~paths in
  check "serialized" 10 stats.Bfly_routing.Router.steps;
  check "queue depth" 10 stats.Bfly_routing.Router.max_edge_queue

(* ---- credit scheme on adversarial sets ---- *)

let test_credit_on_level_slab () =
  (* a full level of W_n: EE = 4n (all edges to both adjacent levels)...
     actually 2 levels' worth of edges = 4n edges cut when log n > 2 *)
  let w = Bfly_networks.Wrapped.of_inputs 16 in
  let side = Bitset.create (Bfly_networks.Wrapped.size w) in
  List.iter (Bitset.add side) (Bfly_networks.Wrapped.level_nodes w 1);
  let r = Bfly_expansion.Credit.wn_edge w side in
  check "boundary of one full level" (4 * 16) r.Bfly_expansion.Credit.actual;
  checkb "certificate below actual" true
    (r.Bfly_expansion.Credit.certified <= r.Bfly_expansion.Credit.actual);
  checkb "nothing leaks from a slab shorter than the trees" true
    (r.Bfly_expansion.Credit.leaked = 0.0)

(* ---- Bw bracket guards ---- *)

let test_bw_guards () =
  Alcotest.check_raises "ccc rejects non powers"
    (Invalid_argument "Bw.ccc: n must be a power of two") (fun () ->
      ignore (Bfly_core.Bw.ccc 12))

(* ---- n beyond 2^61 ---- *)

(* Run [f] on its own domain and fail if it has not returned within 5 s:
   a doubling loop toward such an [n] overflows to 0 and spins forever,
   and this turns that hang into a failure. *)
let promptly what f =
  let result = Atomic.make None in
  let d =
    Domain.spawn (fun () ->
        Atomic.set result (Some (try Ok (f ()) with e -> Error e)))
  in
  let deadline = Unix.gettimeofday () +. 5. in
  let rec wait () =
    match Atomic.get result with
    | Some r ->
        Domain.join d;
        r
    | None ->
        if Unix.gettimeofday () > deadline then
          Alcotest.failf "%s did not return within 5 s" what
        else (
          Unix.sleepf 0.001;
          wait ())
  in
  match wait () with Ok v -> v | Error e -> raise e

let test_huge_n () =
  let module Job = Bfly_serve.Job in
  Alcotest.(check (option int)) "2^61" (Some 61) (B.log2_exact (1 lsl 61));
  Alcotest.(check (option int)) "1" (Some 0) (B.log2_exact 1);
  List.iter
    (fun n -> Alcotest.(check (option int)) "not a power" None (B.log2_exact n))
    [ 0; -8; min_int; 12 ];
  List.iter
    (fun n ->
      let what fn = Printf.sprintf "%s %d" fn n in
      let raises fn msg f =
        Alcotest.check_raises (what fn) (Invalid_argument msg) (fun () ->
            promptly (what fn) (fun () -> ignore (f n)))
      in
      Alcotest.(check (option int)) (what "log2_exact") None
        (promptly (what "log2_exact") (fun () -> B.log2_exact n));
      List.iter
        (fun net ->
          let jobs =
            [
              Job.Bw
                {
                  solver = Job.Ml;
                  net;
                  n;
                  seed = 1;
                  restarts = 1;
                  max_nodes = None;
                  resume = false;
                };
              Job.Expansion { kind = `Ee; net; n; k = 2; exact = true; seed = 1 };
            ]
          in
          List.iter
            (fun spec ->
              Alcotest.(check (result string string))
                (what ("Job.run " ^ Job.net_name net))
                (Error "n must be a power of two")
                (promptly (what "Job.run") (fun () -> Job.run spec)))
            jobs)
        [ Job.Butterfly; Job.Wrapped; Job.Ccc ];
      raises "Butterfly.of_inputs" "Butterfly.of_inputs: not a power of two"
        B.of_inputs;
      raises "Wrapped.of_inputs"
        "Wrapped.of_inputs: need a power of two with log n >= 2"
        Bfly_networks.Wrapped.of_inputs;
      raises "Bw.ccc" "Bw.ccc: n must be a power of two" Bfly_core.Bw.ccc)
    [ (1 lsl 61) + 1; 3_000_000_000_000_000_000; max_int ]

let suite =
  [
    case "degenerate B_1" test_b1;
    case "B_2" test_b2;
    case "heuristics are deterministic per seed" test_heuristics_deterministic;
    case "experiment tables are deterministic" test_experiments_deterministic;
    case "multibutterfly wiring deterministic per seed" test_multibutterfly_deterministic;
    case "BFLY_DOMAINS=1 equivalence" test_parallel_env_sequential;
    case "subset extremes" test_subset_extremes;
    case "expansion guards" test_expansion_guards;
    case "layout track formula" test_layout_has_room_per_boundary;
    case "router heavy contention" test_router_heavy_contention;
    case "credit on a level slab" test_credit_on_level_slab;
    case "bracket guards" test_bw_guards;
    case "n beyond 2^61 errors promptly" test_huge_n;
  ]
