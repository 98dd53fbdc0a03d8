(* Tests for the persistent content-addressed result cache (lib/cache):
   key derivation, the two-tier store, verify-on-hit eviction, the
   BFLY_CACHE=off bypass, and the solver integrations (exact, heuristics,
   MOS pullback, expansion, bw_m2) — including the rng-stream and
   counter-delta guarantees the integrations document. *)

module Store = Bfly_cache.Store
module Config = Bfly_cache.Config
module Key = Bfly_cache.Key
module Codec = Bfly_cache.Codec
module Fp = Bfly_cache.Fingerprint
module Metrics = Bfly_obs.Metrics
module G = Bfly_graph.Graph
module Bitset = Bfly_graph.Bitset
module Butterfly = Bfly_networks.Butterfly
open Tu

let counter name = Metrics.counter_value (Metrics.counter name)

(* run [f] and return (result, named counter delta) *)
let delta name f =
  let v0 = counter name in
  let r = f () in
  (r, counter name - v0)

(* Each case runs against its own empty on-disk store and a clean memory
   tier, then restores the previous configuration — cases can't see each
   other's entries and the rest of the test binary can't see theirs. *)
let fresh_id = ref 0

let with_fresh_cache f =
  incr fresh_id;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bfly-cache-test-%d-%d" (Unix.getpid ()) !fresh_id)
  in
  let was_enabled = Config.enabled () in
  let old_dir = Config.dir () in
  let old_cap = Config.lru_capacity () in
  let restore () =
    Config.set_enabled true;
    Config.set_dir dir;
    ignore (Store.clear ());
    (try Unix.rmdir dir with Unix.Unix_error _ | Sys_error _ -> ());
    Config.set_enabled was_enabled;
    Config.set_dir old_dir;
    Config.set_lru_capacity old_cap;
    Store.reset_memory ()
  in
  Config.set_enabled true;
  Config.set_dir dir;
  Config.set_lru_capacity 512;
  Store.reset_memory ();
  match f dir with
  | v ->
      restore ();
      v
  | exception e ->
      restore ();
      raise e

(* a small graph worth caching: B_4, 12 nodes *)
let b4_graph () = Butterfly.graph (Butterfly.of_inputs 4)

(* ---- store primitives ---- *)

let int_key ?(solver = "test.solver") ?(salt = "s/1") ?(params = []) tag =
  Key.make ~solver ~salt ~params ~fingerprint:(Fp.int Fp.seed tag)

let int_encode v = [ ("value", Codec.Int v) ]
let int_decode payload = Codec.get_int payload "value"

let memo_int ?verify key v =
  let verify = match verify with Some f -> f | None -> fun _ -> true in
  Store.memoize ~key ~encode:int_encode ~decode:int_decode ~verify
    ~compute:(fun () -> v)

let test_memoize_hit () =
  with_fresh_cache @@ fun _ ->
  let key = int_key 1 in
  let computes = ref 0 in
  let run () =
    Store.memoize ~key ~encode:int_encode ~decode:int_decode
      ~verify:(fun _ -> true)
      ~compute:(fun () ->
        incr computes;
        42)
  in
  let v1, miss1 = delta "cache.miss" run in
  let v2, hit2 = delta "cache.hit" run in
  check "first computes" 42 v1;
  check "second serves" 42 v2;
  check "one compute only" 1 !computes;
  check "first missed" 1 miss1;
  check "second hit" 1 hit2

let test_disk_tier_round_trip () =
  with_fresh_cache @@ fun _ ->
  let key = int_key 2 in
  ignore (memo_int key 7);
  Store.reset_memory ();
  let v, disk_hits = delta "cache.hit.disk" (fun () -> memo_int key 7) in
  check "served" 7 v;
  check "from disk" 1 disk_hits;
  (* the disk hit promoted the entry back into memory *)
  let v, mem_hits = delta "cache.hit.mem" (fun () -> memo_int key 0) in
  check "served again" 7 v;
  check "from memory" 1 mem_hits

let test_key_sensitivity () =
  let base = Key.digest (int_key 1) in
  checkb "same inputs, same digest" true
    (Key.digest (int_key 1) = base);
  checkb "fingerprint changes digest" false
    (Key.digest (int_key 2) = base);
  checkb "solver changes digest" false
    (Key.digest (int_key ~solver:"test.other" 1) = base);
  checkb "salt changes digest" false
    (Key.digest (int_key ~salt:"s/2" 1) = base);
  checkb "params change digest" false
    (Key.digest (int_key ~params:[ ("k", "3") ] 1) = base)

let test_graph_fingerprint_canonical () =
  (* same edge set presented in different orders must fingerprint alike *)
  let edges = [ (0, 1); (1, 2); (2, 3); (0, 3); (1, 3) ] in
  let g1 = G.of_edge_list ~n:4 edges in
  let g2 = G.of_edge_list ~n:4 (List.rev edges) in
  checkb "order-independent" true
    (Fp.graph Fp.seed g1 = Fp.graph Fp.seed g2);
  let g3 = G.of_edge_list ~n:4 [ (0, 1); (1, 2); (2, 3); (0, 3); (0, 2) ] in
  checkb "different edges differ" false
    (Fp.graph Fp.seed g1 = Fp.graph Fp.seed g3)

let test_corrupt_entry_recomputed () =
  with_fresh_cache @@ fun dir ->
  let key = int_key 3 in
  ignore (memo_int key 11);
  Store.reset_memory ();
  (* flip payload bytes on disk: checksum mismatch -> Corrupt *)
  let file = Filename.concat dir (Key.filename key) in
  let contents = In_channel.with_open_bin file In_channel.input_all in
  let corrupted =
    String.map (fun c -> if c = '1' then '9' else c) contents
  in
  Out_channel.with_open_bin file (fun oc -> output_string oc corrupted);
  let v, fails = delta "cache.verify_fail" (fun () -> memo_int key 11) in
  check "recomputed" 11 v;
  checkb "corruption detected" true (fails >= 1);
  (* the bad entry was evicted and replaced; next lookup serves clean *)
  Store.reset_memory ();
  let v, hits = delta "cache.hit" (fun () -> memo_int key 0) in
  check "replacement serves" 11 v;
  check "clean hit" 1 hits

let test_verify_failure_evicts () =
  with_fresh_cache @@ fun _ ->
  let key = int_key 4 in
  ignore (memo_int key 5);
  Store.reset_memory ();
  (* a verifier that rejects the (decodable) entry forces recompute *)
  let v, fails =
    delta "cache.verify_fail" (fun () ->
        Store.memoize ~key ~encode:int_encode ~decode:int_decode
          ~verify:(fun v -> v > 100)
          ~compute:(fun () -> 200))
  in
  check "recomputed past bad witness" 200 v;
  check "verify failure counted" 1 fails

let test_env_off_bypasses () =
  with_fresh_cache @@ fun dir ->
  let key = int_key 5 in
  Unix.putenv "BFLY_CACHE" "off";
  Config.reload ();
  (* reload also re-read BFLY_CACHE_DIR; point back at this case's dir *)
  Config.set_dir dir;
  let finish () =
    Unix.putenv "BFLY_CACHE" "1";
    Config.reload ();
    Config.set_enabled true;
    Config.set_dir dir;
    Config.set_lru_capacity 512
  in
  (match
     checkb "env disables" false (Config.enabled ());
     let computes = ref 0 in
     let run () =
       Store.memoize ~key ~encode:int_encode ~decode:int_decode
         ~verify:(fun _ -> true)
         ~compute:(fun () ->
           incr computes;
           9)
     in
     let v1, hits = delta "cache.hit" (fun () -> ignore (run ()); run ()) in
     check "still computes" 9 v1;
     check "computed both times" 2 !computes;
     check "no hits counted" 0 hits;
     check "stored nothing" 0 (Store.stats ()).disk.entries
   with
  | () -> finish ()
  | exception e ->
      finish ();
      raise e);
  checkb "re-enabled" true (Config.enabled ())

let test_lru_eviction () =
  with_fresh_cache @@ fun _ ->
  Config.set_lru_capacity 2;
  let _, evicted =
    delta "cache.evict" (fun () ->
        ignore (memo_int (int_key 10) 1);
        ignore (memo_int (int_key 11) 2);
        ignore (memo_int (int_key 12) 3))
  in
  checkb "memory bounded" true (Store.memory_length () <= 2);
  checkb "eviction counted" true (evicted >= 1);
  (* the evicted entry is still on disk *)
  let v, disk_hits = delta "cache.hit.disk" (fun () -> memo_int (int_key 10) 0) in
  check "evicted entry served from disk" 1 v;
  check "disk hit" 1 disk_hits

(* ---- solver integrations ---- *)

let test_exact_warm_identity () =
  with_fresh_cache @@ fun _ ->
  let g = b4_graph () in
  let (c1, s1), cold_nodes =
    delta "exact.bb.nodes" (fun () -> Bfly_cuts.Exact.bisection_width g)
  in
  let (c2, s2), warm_nodes =
    delta "exact.bb.nodes" (fun () -> Bfly_cuts.Exact.bisection_width g)
  in
  check "same width" c1 c2;
  checkb "identical witness" true (Bitset.equal s1 s2);
  checkb "cold run searched" true (cold_nodes > 0);
  check "warm run searched nothing" 0 warm_nodes

let test_exact_upper_bound_semantics () =
  with_fresh_cache @@ fun _ ->
  let g = b4_graph () in
  let c, _ = Bfly_cuts.Exact.bisection_width g in
  (* a satisfiable bound is served from cache *)
  let (c', _), hits =
    delta "cache.hit" (fun () ->
        Bfly_cuts.Exact.bisection_width ~upper_bound:c g)
  in
  check "bound satisfied from cache" c c';
  check "served as hit" 1 hits;
  (* an unsatisfiable bound raises the same error warm as cold *)
  checkb "unsatisfiable bound still raises" true
    (match Bfly_cuts.Exact.bisection_width ~upper_bound:(c - 1) g with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_exact_u_in_key () =
  with_fresh_cache @@ fun _ ->
  let g = b4_graph () in
  let u = Bitset.create (G.n_nodes g) in
  List.iter (Bitset.add u) [ 0; 1; 2; 3 ];
  let c_all, _ = Bfly_cuts.Exact.bisection_width g in
  let (c_u, _), misses =
    delta "cache.miss" (fun () -> Bfly_cuts.Exact.bisection_width ~u g)
  in
  check "distinct u misses" 1 misses;
  (* U-bisection of the inputs only: a different problem, typically a
     different optimum; either way both warm lookups stay consistent *)
  let c_all', _ = Bfly_cuts.Exact.bisection_width g in
  let c_u', _ = Bfly_cuts.Exact.bisection_width ~u g in
  check "full-bisection stable" c_all c_all';
  check "u-bisection stable" c_u c_u'

let test_heuristic_rng_stream_preserved () =
  with_fresh_cache @@ fun _ ->
  let g = b4_graph () in
  let run () =
    let rng = Random.State.make [| 0xfeed |] in
    let r = Bfly_cuts.Heuristics.kernighan_lin ~rng ~restarts:2 g in
    (r, Random.State.bits rng)
  in
  let (c1, s1), draw1 = run () in
  let ((c2, s2), draw2), hits = delta "cache.hit" (fun () -> run ()) in
  check "same capacity" c1 c2;
  checkb "same witness" true (Bitset.equal s1 s2);
  check "warm run hit" 1 hits;
  check "rng stream position identical after hit" draw1 draw2

let test_heuristic_params_in_key () =
  with_fresh_cache @@ fun _ ->
  let g = b4_graph () in
  let run restarts =
    Bfly_cuts.Heuristics.fiduccia_mattheyses
      ~rng:(Random.State.make [| 0xabc |])
      ~restarts g
  in
  ignore (run 2);
  let _, misses = delta "cache.miss" (fun () -> run 3) in
  check "different restarts is a different key" 1 misses;
  let _, hits = delta "cache.hit" (fun () -> run 2) in
  check "original key still hot" 1 hits

let test_spectral_and_sa_cached () =
  with_fresh_cache @@ fun _ ->
  let g = b4_graph () in
  let c1, _ = Bfly_cuts.Heuristics.spectral g in
  let (c2, _), hits = delta "cache.hit" (fun () -> Bfly_cuts.Heuristics.spectral g) in
  check "spectral stable" c1 c2;
  check "spectral cached" 1 hits;
  let sa () =
    Bfly_cuts.Heuristics.annealing
      ~rng:(Random.State.make [| 0x5a |])
      ~steps:500 g
  in
  let c3, _ = sa () in
  let (c4, _), hits = delta "cache.hit" (fun () -> sa ()) in
  check "annealing stable" c3 c4;
  check "annealing cached" 1 hits

let test_pullback_and_bw_m2_cached () =
  with_fresh_cache @@ fun _ ->
  let b = Butterfly.of_inputs 16 in
  let p1, cost1, s1 = Bfly_cuts.Constructions.best_mos_pullback b in
  let (p2, cost2, s2), hits =
    delta "cache.hit" (fun () -> Bfly_cuts.Constructions.best_mos_pullback b)
  in
  checkb "same parameters" true (p1 = p2);
  check "same cost" cost1 cost2;
  checkb "same witness" true (Bitset.equal s1 s2);
  check "pullback cached" 1 hits;
  let v1 = Bfly_mos.Mos_analysis.bw_m2 17 in
  let v2, hits = delta "cache.hit" (fun () -> Bfly_mos.Mos_analysis.bw_m2 17) in
  check "bw_m2 stable" v1 v2;
  check "bw_m2 cached" 1 hits

let test_expansion_cached () =
  with_fresh_cache @@ fun _ ->
  let g = b4_graph () in
  let ee1, ew1 = Bfly_expansion.Expansion.ee_exact g ~k:3 in
  let (ee2, ew2), hits =
    delta "cache.hit" (fun () -> Bfly_expansion.Expansion.ee_exact g ~k:3)
  in
  check "EE stable" ee1 ee2;
  checkb "EE witness stable" true (Bitset.equal ew1 ew2);
  check "EE cached" 1 hits;
  let ne1, _ = Bfly_expansion.Expansion.ne_exact g ~k:3 in
  let (ne2, _), hits =
    delta "cache.hit" (fun () -> Bfly_expansion.Expansion.ne_exact g ~k:3)
  in
  check "NE stable" ne1 ne2;
  check "NE cached" 1 hits;
  (* k is part of the key *)
  let _, misses =
    delta "cache.miss" (fun () -> Bfly_expansion.Expansion.ee_exact g ~k:4)
  in
  check "different k misses" 1 misses

(* ---- orphaned temp files (regression) ----
   A writer that died between temp-file creation and rename used to leak
   `.<digest>.<pid>.tmp` files forever. *)

let test_tmp_sweep () =
  with_fresh_cache @@ fun dir ->
  ignore (memo_int (int_key 80) 1);
  let orphan name =
    Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
        Out_channel.output_string oc "junk from a dead writer")
  in
  orphan ".deadbeef.99999.tmp";
  orphan ".cafebabe.99998.tmp";
  check "stats reports in-flight temp files" 2 (Store.stats ()).disk.tmp;
  (* fresh temp files belong to live writers: the age-gated default sweep
     must leave them alone *)
  check "age-gated sweep spares fresh files" 0 (Store.sweep_tmp ());
  check "both still present" 2 (Store.stats ()).disk.tmp;
  (* with the age gate dropped they are stale by definition *)
  check "zero-age sweep removes both" 2 (Store.sweep_tmp ~max_age_s:0. ());
  check "none left" 0 (Store.stats ()).disk.tmp;
  (* cache entries were never touched *)
  check "entry survived the sweep" 1 (Store.stats ()).disk.entries

(* ---- injected disk faults (chaos) ----
   Faults may cost recomputation, never correctness: a corrupted read is
   detected and refused, a failed read or write degrades to a miss. *)

let test_injected_disk_faults () =
  let module Fault = Bfly_resil.Fault in
  with_fresh_cache @@ fun _ ->
  let lookup key =
    Store.lookup ~key ~decode:int_decode ~verify:(fun _ -> true)
  in
  (* corruption of the on-disk bytes is caught by the checksum/format
     checks — a lookup never serves a corrupted payload *)
  let k1 = int_key 81 in
  ignore (memo_int k1 7);
  Store.reset_memory ();
  let v =
    Fault.scope ~rate:1.0 ~seed:5 [ Fault.Corrupt ] (fun () -> lookup k1)
  in
  Alcotest.(check (option int)) "corrupted read is never served" None v;
  Store.reset_memory ();
  (match lookup k1 with
  | None | Some 7 -> () (* evicted, or untouched when the flip hit the key line *)
  | Some v -> Alcotest.failf "corruption leaked a wrong value %d" v);
  (* an injected read error is just a miss; the entry survives *)
  let k2 = int_key 82 in
  ignore (memo_int k2 9);
  Store.reset_memory ();
  let v =
    Fault.scope ~rate:1.0 ~seed:6 [ Fault.Disk_io ] (fun () -> lookup k2)
  in
  Alcotest.(check (option int)) "I/O fault reads as a miss" None v;
  Store.reset_memory ();
  Alcotest.(check (option int)) "entry intact after the fault" (Some 9)
    (lookup k2);
  (* an injected write error drops the store; nothing partial appears *)
  let k3 = int_key 83 in
  Fault.scope ~rate:1.0 ~seed:7 [ Fault.Disk_io ] (fun () ->
      Store.put ~key:k3 ~encode:int_encode 11);
  Store.reset_memory ();
  Alcotest.(check (option int)) "failed store leaves no disk entry" None
    (lookup k3)

let test_fuzzer_agrees_cache_on_off () =
  with_fresh_cache @@ fun _ ->
  (* the differential-oracle suite must produce the identical document on
     a cold cache, a warm cache, and with the cache disabled *)
  let doc ~enabled =
    Config.set_enabled enabled;
    let json, ok = Bfly_check.Run.execute ~seed:11 ~rounds:2 ~smoke:true () in
    checkb "suite passes" true ok;
    Bfly_obs.Json.to_string json
  in
  let cold = doc ~enabled:true in
  let warm = doc ~enabled:true in
  let off = doc ~enabled:false in
  checkb "cold = warm" true (String.equal cold warm);
  checkb "warm = off" true (String.equal warm off)

(* ---- golden pins ----
   Recorded before the allocation-free rewrite of Fingerprint and Key.
   Every on-disk entry is named by these digests and compared against
   these descriptions, so a change to any of them would orphan every
   existing cache. *)

let b8 () = Butterfly.graph (Butterfly.create ~log_n:3)

let fabric spec =
  match Bfly_networks.Fabric.spec_of_string spec with
  | Ok s -> Bfly_networks.Fabric.(graph (create s))
  | Error e -> Alcotest.fail e

let test_fingerprint_pins () =
  let pin what expected fp = Alcotest.(check string) what expected (Fp.to_hex fp) in
  let g = b8 () in
  pin "seed" "cbf29ce484222325" Fp.seed;
  pin "graph B_8" "7899aa3722031508" (Fp.graph Fp.seed g);
  pin "graph B_8, kept in the graph" "7899aa3722031508" (Fp.graph Fp.seed g);
  pin "graph B_8, fresh build" "7899aa3722031508" (Fp.graph Fp.seed (b8 ()));
  pin "graph W_8" "7a2056fe418ded08"
    (Fp.graph Fp.seed Bfly_networks.Wrapped.(graph (create ~log_n:3)));
  pin "graph CCC_8" "db930a1ff65bc078"
    (Fp.graph Fp.seed Bfly_networks.Ccc.(graph (create ~log_n:3)));
  pin "graph mesh:4x5" "ef98d749799284c8" (Fp.graph Fp.seed (fabric "mesh:4x5"));
  pin "multigraph" "d7f26d0678fe8db8"
    (Fp.graph Fp.seed
       (G.of_edge_list ~n:4 [ (1, 0); (0, 1); (1, 2); (3, 2); (0, 3) ]));
  pin "empty graph" "c3c5f925b1be8760" (Fp.graph Fp.seed (G.of_edge_list ~n:0 []));
  pin "graph B_8 after int 1" "a74661de75193f60" (Fp.graph (Fp.int Fp.seed 1) g);
  pin "int 42" "b960a184f07032c6" (Fp.int Fp.seed 42);
  pin "int -1" "685d583ad34c0da4" (Fp.int Fp.seed (-1));
  pin "int max_int" "685d183ad34ba0e4" (Fp.int Fp.seed max_int);
  pin "string" "dffb0190d8e504bf" (Fp.string Fp.seed "butterfly");
  pin "empty string" "0cd92cf54dc615e5" (Fp.string Fp.seed "");
  pin "int_array" "1f50c58d54ac70a6" (Fp.int_array Fp.seed [| 1; -2; max_int; 0 |]);
  pin "bitset" "9cd5759a917ad8a3"
    (Fp.bitset Fp.seed (Bitset.of_list 130 [ 0; 62; 63; 129 ]));
  pin "int_array after graph" "3e7de23e8f0d6c1c" (Fp.int_array (Fp.graph Fp.seed g) [| 7; 8 |])

(* One key per cached solver: the key rebuilt from its parts has the
   pinned digest, description and file name, and a cold run of the solver
   writes exactly that file, carrying that description. *)
let test_key_pins () =
  let g = b8 () in
  let fp = Fp.graph Fp.seed g in
  let seeds () = Bfly_cuts.Heuristics.derive_seeds (Random.State.make [| 7 |]) 2 in
  let rng () = Random.State.make [| 7 |] in
  let seeded = Fp.int_array fp (seeds ()) in
  let c = "&c=bfly-cache/2026-08-06.1#" in
  let cases =
    [
      ( "expansion.ee_exact", "ee/1", [ ("k", "3") ], fp, "2ce63f93d394facc",
        "?k=3&v=ee/1" ^ c ^ "7899aa3722031508",
        fun () -> ignore (Bfly_expansion.Expansion.ee_exact g ~k:3) );
      ( "expansion.ne_exact", "ne/1", [ ("k", "3") ], fp, "10d9187a0d9ae1e6",
        "?k=3&v=ne/1" ^ c ^ "7899aa3722031508",
        fun () -> ignore (Bfly_expansion.Expansion.ne_exact g ~k:3) );
      ( "cuts.heuristics.kl", "kl/1", [ ("restarts", "2") ], seeded,
        "0e7a635e0f70789a", "?restarts=2&v=kl/1" ^ c ^ "88340faccce875ae",
        fun () ->
          ignore (Bfly_cuts.Heuristics.kernighan_lin ~rng:(rng ()) ~restarts:2 g) );
      ( "cuts.heuristics.fm", "fm/1", [ ("restarts", "2") ], seeded,
        "c36c754d567bb4ca", "?restarts=2&v=fm/1" ^ c ^ "88340faccce875ae",
        fun () ->
          ignore
            (Bfly_cuts.Heuristics.fiduccia_mattheyses ~rng:(rng ()) ~restarts:2 g) );
      ( "cuts.heuristics.sa", "sa/1", [ ("restarts", "2"); ("steps", "12800") ],
        seeded, "0d1b05cb92ce4da7",
        "?restarts=2&steps=12800&v=sa/1" ^ c ^ "88340faccce875ae",
        fun () ->
          ignore (Bfly_cuts.Heuristics.annealing ~rng:(rng ()) ~restarts:2 g) );
      ( "cuts.heuristics.spectral", "spectral/1", [], Fp.int_array fp [||],
        "7ff98e1f5152ce12", "?&v=spectral/1" ^ c ^ "4a7626ca811121d1",
        fun () -> ignore (Bfly_cuts.Heuristics.spectral g) );
      ( "cuts.heuristics.ml", "ml/1",
        [ ("restarts", "2"); ("matching_ratio", "0.9"); ("coarsening_threshold", "64") ],
        seeded, "230ddbe40022e33e",
        "?restarts=2&matching_ratio=0.9&coarsening_threshold=64&v=ml/1" ^ c
        ^ "88340faccce875ae",
        fun () ->
          ignore (Bfly_cuts.Multilevel.bisect ~rng:(rng ()) ~restarts:2 g) );
      ( "cuts.exact.bisection_width", "exact/1", [ ("u", "all") ],
        Fp.string fp "all", "e84e5b985fbbb8f8",
        "?u=all&v=exact/1" ^ c ^ "49c26eb9541d896c",
        fun () -> ignore (Bfly_cuts.Exact.bisection_width g) );
      ( "mos.bw_m2", "bw_m2/1", [ ("j", "4") ], Fp.int Fp.seed 4,
        "621d44e8a6c5fad3", "?j=4&v=bw_m2/1" ^ c ^ "d6af10b864380b28",
        fun () -> ignore (Bfly_mos.Mos_analysis.bw_m2 4) );
      ( "cuts.constructions.best_mos_pullback", "mos-pullback/1",
        [ ("max_classes", "256") ], Fp.int (Fp.string Fp.seed "butterfly") 3,
        "8178447b15747b63",
        "?max_classes=256&v=mos-pullback/1" ^ c ^ "492036abd2eaa3f9",
        fun () ->
          ignore
            (Bfly_cuts.Constructions.best_mos_pullback (Butterfly.create ~log_n:3)) );
    ]
  in
  List.iter
    (fun (solver, salt, params, fingerprint, digest, rest, run) ->
      let key = Key.make ~solver ~salt ~params ~fingerprint in
      let filename = solver ^ "-" ^ digest ^ ".entry" in
      Alcotest.(check string) (solver ^ ": digest") digest (Key.digest key);
      Alcotest.(check string) (solver ^ ": description") (solver ^ rest)
        (Key.description key);
      Alcotest.(check string) (solver ^ ": filename") filename (Key.filename key);
      with_fresh_cache @@ fun dir ->
      run ();
      let file = Filename.concat dir filename in
      checkb (solver ^ ": cold run writes the pinned entry") true
        (Sys.file_exists file);
      let key_line =
        List.nth
          (String.split_on_char '\n'
             (In_channel.with_open_bin file In_channel.input_all))
          1
      in
      Alcotest.(check string) (solver ^ ": stored description")
        ("key " ^ solver ^ rest) key_line)
    cases

let suite =
  [
    case "memoize: computes once, then serves" test_memoize_hit;
    case "disk tier round trip and promotion" test_disk_tier_round_trip;
    case "key digest tracks every component" test_key_sensitivity;
    case "graph fingerprint is edge-order canonical"
      test_graph_fingerprint_canonical;
    case "corrupted entry detected and recomputed" test_corrupt_entry_recomputed;
    case "verify failure evicts and recomputes" test_verify_failure_evicts;
    case "BFLY_CACHE=off bypasses both tiers" test_env_off_bypasses;
    case "LRU bounds memory; evicted entries stay on disk" test_lru_eviction;
    case "exact: warm hit is identical, zero search nodes"
      test_exact_warm_identity;
    case "exact: upper_bound re-applied at serve time"
      test_exact_upper_bound_semantics;
    case "exact: u-subset is part of the key" test_exact_u_in_key;
    case "heuristics: hit preserves caller's rng stream"
      test_heuristic_rng_stream_preserved;
    case "heuristics: parameters are part of the key"
      test_heuristic_params_in_key;
    case "heuristics: spectral and annealing cached" test_spectral_and_sa_cached;
    case "pullback sweep and bw_m2 cached" test_pullback_and_bw_m2_cached;
    case "expansion: exact minimizers cached per (graph, k)"
      test_expansion_cached;
    case "orphaned temp files swept, age-gated" test_tmp_sweep;
    case "injected disk faults never change served values"
      test_injected_disk_faults;
    slow_case "differential suite agrees cache on/warm/off"
      test_fuzzer_agrees_cache_on_off;
    case "golden pins: fingerprints" test_fingerprint_pins;
    case "golden pins: one key per cached solver" test_key_pins;
  ]
