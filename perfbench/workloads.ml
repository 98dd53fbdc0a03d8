(* Seeded workload generation. Everything here is a pure function of the
   workload seed: the runner hands the program only the request lines built
   below, and the tests pin that equal seeds give equal lines. *)

module Job = Bfly_serve.Job
module Json = Bfly_obs.Json

type job = { line : string; spec : Job.spec }

(* A closed-loop batch: [jobs] in run order, grouped in rounds of
   [round_len] jobs, one from each slot. The runner repeats the whole list
   in passes and stops only at the end of a pass, so every run does the
   same mix whatever its count of passes. *)
type batch = { jobs : job array; round_len : int }

type request = { due_ns : int; entry : int; client : int }

(* An open-loop request stream over a popularity-ranked catalog:
   [catalog.(0)] is the most requested entry. *)
type serve = { catalog : job array; schedule : request array }

let names = [ "expand-exact"; "bisect-ml"; "serve-zipf" ]

let rng ~tag seed = Random.State.make [| 0xbe7c; tag; seed |]

let parse line =
  match Bfly_serve.Protocol.parse_request ~default_id:"" line with
  | Ok { payload = Job { spec; deadline = None }; _ } -> spec
  | Ok _ -> invalid_arg ("Workloads.parse: not a plain job: " ^ line)
  | Error (msg, _) -> invalid_arg ("Workloads.parse: " ^ msg ^ ": " ^ line)

let make fields =
  let line = Json.to_string (Json.Obj fields) in
  { line; spec = parse line }

(* A network as the protocol spells it: a family with its [n], or a fabric
   spec whose size is fixed by the spec itself ([n] = 0). *)
type net = string * int

let net_fields (name, n) =
  if n = 0 then [ ("network", Json.Str name) ]
  else [ ("network", Json.Str name); ("n", Json.Int n) ]

let graph_of (name, n) =
  match Result.bind (Job.net_of_string name) (fun net -> Job.graph_of net n) with
  | Ok (g, _) -> g
  | Error e -> invalid_arg ("Workloads.graph_of: " ^ e)

let expansion_job ~op net ~k =
  make
    ([ ("job", Json.Str op) ] @ net_fields net
    @ [ ("k", Json.Int k); ("exact", Json.Bool true) ])

let bw_job ~solver ?seed ?restarts net =
  let opt name = Option.fold ~none:[] ~some:(fun v -> [ (name, Json.Int v) ]) in
  make
    ([ ("job", Json.Str "bw"); ("solver", Json.Str solver) ]
    @ net_fields net @ opt "seed" seed @ opt "restarts" restarts)

let campaign_job ~sizes ~seeds =
  make
    [
      ("job", Json.Str "campaign");
      ("degree", Json.Int 3);
      ("sizes", Json.List (List.map (fun s -> Json.Int s) sizes));
      ("seeds", Json.Int seeds);
    ]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let pick rng a = a.(Random.State.int rng (Array.length a))

(* The batch workloads hold their work fixed across seeds. Which graphs,
   sizes and solvers each round runs is the same for every seed; the
   workload seed draws only what leaves the cost of a job unchanged: the
   order of the jobs within a round, the solvers' own seeds, and which of a
   fabric's equivalent spellings a job names (mesh:4x5 or mesh:5x4: one
   graph, numbered differently, hence another cache key). Runs on ten seeds
   then differ in their inputs but not in their work, and the spread of
   their figures is the machine's, not the draw's. *)

(* Draw up to [rounds] rounds, slot by slot ([slot r] is the slot's job in
   round [r]); stop early when a slot has no fresh job left, so every job
   of the list is distinct (and misses the cache). *)
let rounds_of ~rounds ~slots =
  let rec go acc r =
    if r = rounds then acc
    else
      match List.map (fun slot -> slot r) slots with
      | round when List.for_all Option.is_some round ->
          go (List.filter_map Fun.id round :: acc) (r + 1)
      | _ -> acc
  in
  List.rev (go [] 0)

let batch_of ~rng rounds =
  match rounds with
  | [] -> invalid_arg "Workloads: no complete round"
  | first :: _ ->
      let shuffled = List.map Array.of_list rounds in
      List.iter (shuffle rng) shuffled;
      { jobs = Array.concat shuffled; round_len = List.length first }

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun i ->
          let x = List.nth l i in
          List.map (fun p -> x :: p) (permutations (List.filteri (fun j _ -> j <> i) l)))
        (List.init (List.length l) Fun.id)

(* The spellings of a fabric that name the same graph up to numbering: its
   dims, or its product factors, in every order. *)
let spellings name =
  match String.index_opt name ':' with
  | Some i when List.mem (String.sub name 0 i) [ "mesh"; "torus"; "torus3d"; "product" ] ->
      let parts = String.split_on_char 'x' (String.sub name (i + 1) (String.length name - i - 1)) in
      List.sort_uniq compare (permutations parts)
      |> List.map (fun p -> String.sub name 0 (i + 1) ^ String.concat "x" p)
  | _ -> [ name ]

let respell rng ((name, n) : net) : net = (pick rng (Array.of_list (spellings name)), n)

(* ---- expand-exact ---- *)

(* 20-36-node instances of every family the protocol knows, in both
   parities and degrees 2-7. Duplicates of one graph under two spellings
   (torus:3x8 and product:ring3xring8) are dropped by fingerprint. *)
let expansion_nets : net list =
  [ ("butterfly", 8); ("wrapped", 8); ("ccc", 8) ]
  @ List.map
      (fun s -> (s, 0))
      [
        "mesh:4x5"; "mesh:4x6"; "mesh:5x5"; "mesh:4x7"; "mesh:5x6"; "mesh:4x8";
        "mesh:6x6"; "mesh:5x7"; "mesh:4x9"; "mesh:3x7"; "mesh:3x9"; "mesh:3x11";
        "mesh:2x12"; "mesh:2x15"; "mesh:2x3x4"; "mesh:2x4x4"; "mesh:3x3x3";
        "mesh:2x3x5"; "mesh:2x3x6"; "mesh:2x2x7"; "mesh:3x3x4"; "mesh:2x2x2x3";
        "mesh:2x2x2x4"; "torus:4x5"; "torus:4x6"; "torus:5x5"; "torus:4x7";
        "torus:5x6"; "torus:4x8"; "torus:6x6"; "torus:5x7"; "torus:4x9";
        "torus:3x7"; "torus:3x8"; "torus:3x9"; "torus:3x10"; "torus:3x11";
        "torus:3x12"; "torus3d:3x3x3"; "torus3d:3x3x4"; "bcube:5x2";
        "bcube:6x2"; "bcube:3x3"; "product:path2xring3xk4";
        "product:path2xring4xk4"; "product:ring3xk8"; "product:path3xk8";
        "product:ring4xk6"; "product:path4xring5"; "product:ring4xring7";
        "product:path2xk3xring5"; "product:k5xring5"; "product:path3xring4xk3";
        "product:ring5xk6"; "product:k4xk6"; "product:path2xpath2xk6";
        "mesh:2x11"; "mesh:2x13"; "mesh:2x17"; "product:path2xring11";
        "product:path2xring13"; "product:path2xring17"; "torus:23"; "torus:29";
        "torus:31"; "product:k3xring7"; "product:k3xring11";
        "product:path3xring7"; "product:k2xk11"; "product:k2xk13";
      ]

(* Each net with its node count and mean degree, one per graph. *)
let distinct_graphs nets =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun net ->
      let g = graph_of net in
      let fp = Bfly_cache.Fingerprint.(to_hex (graph seed g)) in
      if Hashtbl.mem seen fp then None
      else (
        Hashtbl.add seen fp ();
        let nodes = Bfly_graph.Graph.n_nodes g in
        Some (net, nodes, 2. *. float_of_int (Bfly_graph.Graph.n_edges g) /. float_of_int nodes)))
    nets

let subsets_min = 10_000
let subsets_max = 200_000

(* Each round holds one ee and one ne job from each of eleven work classes:
   the candidates (graph, k) with subsets_min <= C(N,k) < subsets_max
   (k from 1 to N-1), sorted by their enumeration cost C(N,k) * k * mean
   degree and cut into eleven groups of equal size. Every round therefore
   does about the same work. C(N,k) could go to 2·10^6 and stay fast
   enough; the cap at 2·10^5 keeps a job under about 100 ms on two cores,
   so a run holds a few hundred jobs and its percentiles rest on many
   samples. The draw from each class is the fixed menu; the seed respells
   fabrics and orders each round. Five rounds make 110 distinct jobs, a
   pass of about four seconds on two cores; the count is odd for the
   reason given in {!bisect_ml}. *)
let expansion_slots = 11
let expansion_rounds = 5

let expand_exact ~seed =
  let menu = rng ~tag:1 0 in
  let candidates =
    List.concat_map
      (fun (net, nodes, degree) ->
        List.filter_map
          (fun k ->
            let c = Bfly_graph.Subset.binomial nodes k in
            if c >= subsets_min && c < subsets_max then
              Some (float_of_int (c * k) *. degree, net, k)
            else None)
          (List.init (nodes - 1) (fun k -> k + 1)))
      (distinct_graphs expansion_nets)
    |> List.sort compare |> Array.of_list
  in
  let per_slot = Array.length candidates / expansion_slots in
  (* one shuffled queue of (graph, k) per class and operation: ee and ne
     draw independently *)
  let queue i =
    let a = Array.sub candidates (i * per_slot) per_slot in
    shuffle menu a;
    ref (Array.to_list a)
  in
  let slot op q _ =
    match !q with
    | [] -> None
    | (_, net, k) :: rest ->
        q := rest;
        Some (op, net, k)
  in
  let slots =
    List.concat_map
      (fun i -> [ slot "ee" (queue i); slot "ne" (queue i) ])
      (List.init expansion_slots Fun.id)
  in
  let rng = rng ~tag:1 seed in
  rounds_of ~rounds:expansion_rounds ~slots
  |> List.map (List.map (fun (op, net, k) -> expansion_job ~op (respell rng net) ~k))
  |> batch_of ~rng

(* ---- bisect-ml ---- *)

let fabrics l = Array.of_list (List.map (fun s -> (s, 0)) l)

(* fabric pools by size: 500-1500, 1500-3000 and 3000-5000 nodes *)
let fabrics_small =
  fabrics
    [
      "mesh:25x20"; "mesh:30x30"; "mesh:8x8x8"; "mesh:10x10x10"; "torus:25x25";
      "torus:30x40"; "torus3d:8x8x8"; "torus3d:10x10x10"; "bcube:8x3";
      "bcube:5x4"; "product:path10xring10xk8"; "product:ring10xring10xk6";
    ]

let fabrics_mid =
  fabrics
    [
      "mesh:40x40"; "mesh:50x50"; "mesh:12x12x12"; "torus:40x40"; "torus:50x50";
      "torus3d:12x12x12"; "torus3d:14x14x14"; "product:path20xring20xk5";
      "product:ring12xring12xk12";
    ]

let fabrics_large =
  fabrics
    [
      "mesh:60x60"; "mesh:70x70"; "mesh:16x16x16"; "torus:60x60"; "torus:64x64";
      "torus3d:15x15x15"; "torus3d:16x16x16"; "product:path30xring30xk5";
    ]

(* graphs of at most 256 nodes for the flat heuristics *)
let fabrics_flat =
  fabrics
    [
      "mesh:16x16"; "torus:16x16"; "mesh:8x32"; "torus:8x32"; "mesh:4x8x8";
      "torus3d:4x8x8"; "mesh:6x6x6"; "torus3d:6x6x6"; "product:path4xring8xk8";
      "mesh:15x15"; "torus:15x15"; "product:ring8xring8xk4";
    ]

let families n = [| ("butterfly", n); ("wrapped", n); ("ccc", n) |]

(* Round [r] of a slot takes member [r + offset] of its pool, cyclically:
   the same graphs in the same rounds for every seed. *)
let cycle pool ~offset r = pool.((r + offset) mod Array.length pool)

let bisect_ml ~seed =
  let rng = rng ~tag:2 seed in
  let seed () = Random.State.bits rng in
  let ml ?(offset = 0) pool ~restarts r =
    Some (bw_job ~solver:"ml" ~seed:(seed ()) ~restarts (cycle pool ~offset r))
  in
  (* kl at n <= 128 (its passes are quadratic), fm at n <= 256, spectral at
     n <= 256 and on fabrics of at most 256 nodes, in turn; spectral is
     deterministic, so each of its graphs is used once and the list ends
     with them *)
  let kl = Array.append (families 64) (families 128) in
  let fm = Array.append (families 128) (families 256) in
  let spectral = Array.concat [ families 64; families 128; families 256; fabrics_flat ] in
  let heuristic r =
    let i = r / 3 in
    match r mod 3 with
    | 0 -> Some (bw_job ~solver:"kl" ~seed:(seed ()) (cycle kl ~offset:0 i))
    | 1 -> Some (bw_job ~solver:"fm" ~seed:(seed ()) (cycle fm ~offset:0 i))
    | _ when i < Array.length spectral -> Some (bw_job ~solver:"spectral" spectral.(i))
    | _ -> None
  in
  (* random-cubic grids of one size, 2 seeds; a size is never reused, so
     no instance of one campaign is a cache hit for another *)
  let campaign r = Some (campaign_job ~sizes:[ 64 + (2 * r) ] ~seeds:2) in
  let slots =
    [
      ml (families 256) ~restarts:4;
      ml (families 512) ~restarts:2;
      ml ~offset:1 (families 512) ~restarts:2;
      ml (families 1024) ~restarts:2;
      ml fabrics_small ~restarts:4;
      ml ~offset:6 fabrics_small ~restarts:4;
      ml fabrics_mid ~restarts:2;
      ml fabrics_large ~restarts:2;
      heuristic;
      campaign;
    ]
  in
  (* eleven rounds, 110 distinct jobs: a pass of about ten seconds. An odd
     count keeps the median over a run's rounds inside one round's
     repeats, not on the edge between two. *)
  batch_of ~rng (rounds_of ~rounds:11 ~slots)

(* ---- serve-zipf ---- *)

let zipf_s = 1.1

(* Merge lists so each keeps an even spread over the result: element i of
   a list of n sits at relative position (i + 1/2) / n. *)
let interleave lists =
  List.concat_map
    (fun l ->
      let n = float_of_int (List.length l) in
      List.mapi (fun i x -> ((float_of_int i +. 0.5) /. n, x)) l)
    lists
  |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
  |> List.map snd

(* The catalog covers the whole job vocabulary at small sizes: exact
   bisection up to 32 nodes, every heuristic up to ~2k nodes, the
   mesh-of-stars closed form, small exact expansions, fabrics and tiny
   random-regular campaigns.

   Popularity order is fixed; the seed draws the heuristics' seeds (and, in
   {!serve_zipf}, the arrivals), so two seeds ask for different answers at
   the same hit and cold cost. The popular half holds single-solve jobs
   (one restart, spectral, the closed form): their solver does not fan out
   on the domain pool. The rare half holds the jobs that do (exact
   searches, exact expansions, campaigns, multi-restart heuristics). *)
let catalog ~rng =
  let seed () = Random.State.bits rng in
  let single =
    List.concat_map
      (fun net ->
        List.map
          (fun solver ->
            if solver = "spectral" then bw_job ~solver net
            else bw_job ~solver ~seed:(seed ()) ~restarts:1 net)
          [ "ml"; "fm"; "spectral"; "kl"; "sa" ])
      (Array.to_list
         (Array.concat
            [
              families 8; fabrics [ "mesh:8x8"; "torus:8x8" ]; families 16;
              fabrics [ "bcube:4x3"; "product:path4xring4xk4"; "mesh:4x4x4" ];
              families 32;
            ]))
  in
  let mos =
    List.map
      (fun j -> make [ ("job", Json.Str "mos"); ("j", Json.Int j) ])
      [ 4; 8; 16; 32; 64; 128; 256; 512 ]
  in
  let exact =
    List.map
      (fun net -> bw_job ~solver:"exact" net)
      ([ ("wrapped", 4); ("butterfly", 4); ("ccc", 4) ]
      @ Array.to_list (fabrics [ "mesh:4x8"; "torus:4x6"; "mesh:5x6"; "torus:3x8" ])
      @ [ ("wrapped", 8); ("ccc", 8); ("butterfly", 8) ]
      @ Array.to_list (fabrics [ "product:path2xring4xk4"; "mesh:3x3x3" ]))
  in
  let expansions =
    List.concat_map
      (fun k ->
        List.concat_map
          (fun net -> [ expansion_job ~op:"ee" net ~k; expansion_job ~op:"ne" net ~k ])
          [ ("mesh:4x5", 0); ("wrapped", 8); ("ccc", 8); ("torus:4x6", 0); ("bcube:5x2", 0); ("butterfly", 8) ])
      [ 3; 4 ]
  in
  let campaigns =
    List.map
      (fun (sizes, seeds) -> campaign_job ~sizes ~seeds)
      [
        ([ 16 ], 1); ([ 16 ], 2); ([ 16; 20 ], 1); ([ 20 ], 2); ([ 24 ], 1);
        ([ 16; 24 ], 1); ([ 28 ], 1); ([ 32 ], 1);
      ]
  in
  let multi =
    List.concat_map
      (fun net ->
        List.map (fun solver -> bw_job ~solver ~seed:(seed ()) net) [ "ml"; "fm"; "kl" ])
      (Array.to_list (families 32))
  in
  Array.of_list
    (interleave [ single; mos ] @ interleave [ multi; expansions; exact; campaigns ])

let zipf_cdf ~entries =
  let w = Array.init entries (fun r -> 1. /. (float_of_int (r + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw rng cdf =
  let u = Random.State.float rng 1. in
  let rec go lo hi = if lo >= hi then lo else let mid = (lo + hi) / 2 in if cdf.(mid) < u then go (mid + 1) hi else go lo mid in
  go 0 (Array.length cdf - 1)

(* [rate · seconds] Poisson arrivals: given their count, the arrival times
   of a Poisson process are independent uniforms on [0, seconds), sorted. *)
let serve_zipf ~seed ~rate ~seconds =
  let rng = rng ~tag:3 seed in
  let catalog = catalog ~rng in
  let cdf = zipf_cdf ~entries:(Array.length catalog) in
  let count = max 1 (int_of_float (Float.round (rate *. seconds))) in
  let span_ns = seconds *. 1e9 in
  let dues = Array.init count (fun _ -> int_of_float (Random.State.float rng span_ns)) in
  Array.sort compare dues;
  let schedule =
    Array.map (fun due_ns -> { due_ns; entry = zipf_draw rng cdf; client = Random.State.int rng 2 }) dues
  in
  { catalog; schedule }

(* The wire line of request [i]: the catalog entry with an [id] in front. *)
let request_line s i =
  let body = s.catalog.(s.schedule.(i).entry).line in
  Printf.sprintf "{\"id\":\"q%d\",%s" i (String.sub body 1 (String.length body - 1))

let batch_fingerprint b =
  Pstats.Fnv.of_list (Array.to_list (Array.map (fun j -> j.line) b.jobs))

let serve_fingerprint s =
  Pstats.Fnv.of_list
    (Array.to_list (Array.map (fun j -> j.line) s.catalog)
    @ Array.to_list
        (Array.map (fun r -> Printf.sprintf "%d/%d/%d" r.due_ns r.entry r.client) s.schedule))
