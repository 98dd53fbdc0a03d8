(* Command-line interface to the butterfly-networks library.

   bfly_tool info      <network> [n]       structural summary
   bfly_tool bisect    <network> <n>       bisection-width bracket
   bfly_tool bw <solver> <network> [n]     individual bisection solvers
   bfly_tool expansion <network> [n] -k K  expansion values
   bfly_tool render    <n>                 ASCII / DOT rendering
   bfly_tool route     <n>                 greedy routing simulation
   bfly_tool serve                         batch query service (NDJSON)
   bfly_tool loadgen --trace FILE          deterministic load replay + gate
   bfly_tool experiments [IDS]             reproduce the paper's tables

   A network is butterfly|wrapped|ccc with a power-of-two n, or a
   data-center fabric spec (mesh:2x4x8, torus:4x4x4, bcube:4x2,
   product:path2xring3xk4) that fixes its own size, so n is omitted.

   The job vocabulary lives in Bfly_serve.Job. The solver subcommands (bw,
   expansion, mos) turn the flags the user gave into job fields and hand
   them to Job.of_fields, the reader `bfly_tool serve` parses requests
   with; they then print what Job.run returns. Defaults, aliases, the
   instance rule and every field error are therefore the served ones, and
   a served response's "output" field is byte-identical to the one-shot
   subcommand's stdout by construction. *)

open Cmdliner
module G = Bfly_graph.Graph
module B = Bfly_networks.Butterfly
module Budget = Bfly_resil.Budget
module Cancel = Bfly_resil.Cancel
module Json = Bfly_obs.Json
module Job = Bfly_serve.Job

let ( let* ) = Result.bind

(* ---- job fields ---- *)

(* A field is passed only when the user gave the flag or argument; Job
   fills in the rest exactly as it does for a served request. *)
let json_str = Option.map (fun s -> Json.Str s)
let json_int = Option.map (fun i -> Json.Int i)
let json_flag b = if b then Some (Json.Bool true) else None

let lookup fields =
  let given =
    List.filter_map (fun (k, v) -> Option.map (fun v -> (k, v)) v) fields
  in
  fun k -> List.assoc_opt k given

let net_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"NETWORK"
        ~doc:
          "$(b,butterfly), $(b,wrapped) or $(b,ccc) (with N), or a fabric \
           spec that fixes its own size (N omitted): $(b,mesh:2x4x8), \
           $(b,torus:4x4x4), $(b,bcube:PORTSxLEVELS), \
           $(b,product:path2xring3xk4).")

let n_arg = Arg.(value & pos 1 (some int) None & info [] ~docv:"N")

let instance_fields net n = [ ("network", json_str net); ("n", json_int n) ]
let instance net n = Job.instance (lookup (instance_fields net n))

let handle = function
  | Ok () -> 0
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1

(* ---- --metrics ---- *)

(* Every subcommand accepts [--metrics]: after the subcommand's own output,
   dump the Bfly_obs counters/gauges/timers the kernels recorded, as one
   JSON line on stdout. *)

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "After the subcommand finishes, print the collected Bfly_obs \
           metrics (counters, gauges, timer spans) as a single JSON line.")

let finishing metrics code =
  if metrics then print_endline (Bfly_obs.Metrics.to_json_string ());
  code

(* ---- --no-cache ---- *)

(* Solver subcommands accept [--no-cache]: disable the persistent result
   cache for this run only (same effect as BFLY_CACHE=off). *)

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "Disable the persistent result cache for this run (equivalent to \
           setting BFLY_CACHE=off). Every solver recomputes from scratch \
           and stores nothing.")

let set_cache no_cache = if no_cache then Bfly_cache.Config.set_enabled false

(* ---- --deadline ---- *)

(* Solver subcommands accept [--deadline]: install an ambient
   Bfly_resil.Cancel token for the duration of the run, so every
   cooperating solver on the call chain (heuristics, MOS pullback sweep,
   supervised exact search) degrades gracefully when it fires. *)

let budget_conv =
  let parse s =
    match Budget.of_string s with Ok b -> Ok b | Error e -> Error (`Msg e)
  in
  let print ppf b = Format.pp_print_string ppf (Budget.to_string b) in
  Arg.conv (parse, print)

let deadline_arg =
  Arg.(
    value
    & opt (some budget_conv) None
    & info [ "deadline" ] ~docv:"DURATION"
        ~doc:
          "Wall-clock budget for this run (e.g. 250ms, 1.5s, 2m; a bare \
           number means seconds). When it expires, cooperating solvers stop \
           refining and return their best certified result so far instead \
           of running to completion.")

let supervised deadline f =
  match deadline with
  | None -> f ()
  | Some budget -> Cancel.with_ambient (Cancel.create ~budget ()) f

(* The solver subcommands build their spec with Job.of_fields from the
   fields the user gave and print exactly what Job.run returns, so `bfly_tool
   serve` responses match them byte for byte. *)
let run_job metrics no_cache deadline job fields =
  set_cache no_cache;
  finishing metrics @@
  handle
    (let* spec = Job.of_fields job (lookup fields) in
     let* out = Job.run ?deadline spec in
     Ok (print_string out))

(* ---- info ---- *)

let info_run metrics net n =
  finishing metrics @@
  handle
    (let* net, n = instance net n in
     let* g, name = Job.graph_of net n in
     Printf.printf "%s: %d nodes, %d edges, max degree %d, diameter %d\n" name
       (G.n_nodes g) (G.n_edges g) (G.max_degree g)
       (Bfly_graph.Traverse.diameter g);
     let h = G.degree_histogram g in
     Array.iteri
       (fun d c -> if c > 0 then Printf.printf "  degree %d: %d nodes\n" d c)
       h;
     Ok ())

let info_cmd =
  Cmd.v
    (Cmd.info "info" ~doc:"Structural summary of a network")
    Term.(const info_run $ metrics_arg $ net_arg $ n_arg)

(* ---- bisect ---- *)

let bisect_run metrics no_cache deadline net n dot =
  set_cache no_cache;
  finishing metrics @@
  handle @@
  supervised deadline @@ fun () ->
    let* net, n = instance net n in
    if Job.is_fabric net then
      Error
        "bisect covers the butterfly families; use 'bw ml SPEC' (heuristic) \
         or 'bw exact SPEC' for fabrics"
    else
    match B.log2_exact n with
    | None -> Error "n must be a power of two"
    | Some _ -> (
        let bracket =
          match net with
          | Job.Butterfly -> Ok (Bfly_core.Bw.butterfly ~use_heuristics:(n <= 64) n)
          | Job.Wrapped -> if n >= 4 then Ok (Bfly_core.Bw.wrapped n) else Error "n >= 4"
          | Job.Ccc ->
              if n >= 4 then Ok (Bfly_core.Bw.ccc n) else Error "n >= 4"
          | Job.Fabric _ -> assert false
        in
        match bracket with
        | Error e -> Error e
        | Ok br ->
            Format.printf "%a@." Bfly_core.Bw.pp br;
            (match dot with
            | None -> ()
            | Some file ->
                let g, _ = Result.get_ok (Job.graph_of net n) in
                Bfly_graph.Dot.write ~side:br.Bfly_core.Bw.witness file g;
                Printf.printf "wrote cut rendering to %s\n" file);
            Ok ())

let bisect_cmd =
  let dot =
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE"
           ~doc:"Write a Graphviz rendering of the witness cut.")
  in
  Cmd.v
    (Cmd.info "bisect" ~doc:"Bisection-width bracket (Theorem 2.20, Lemmas 3.2, 3.3)")
    Term.(
      const bisect_run $ metrics_arg $ no_cache_arg $ deadline_arg $ net_arg
      $ n_arg $ dot)

(* ---- expansion ---- *)

let expansion_cmd =
  let k = Arg.(value & opt (some int) None & info [ "k" ] ~docv:"K") in
  let exact =
    Arg.(value & flag & info [ "exact" ] ~doc:"Exact enumeration (small instances only).")
  in
  let only =
    Arg.(
      value
      & opt (some (enum [ ("ee", "ee"); ("ne", "ne") ])) None
      & info [ "only" ] ~docv:"ee|ne"
          ~doc:"Print only the edge (ee) or node (ne) expansion line.")
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"RNG seed for the annealer (ignored with $(b,--exact)).")
  in
  let run metrics no_cache deadline net n k exact only seed =
    run_job metrics no_cache deadline
      (Option.value only ~default:"expansion")
      (instance_fields net n
      @ [ ("k", json_int k); ("exact", json_flag exact); ("seed", json_int seed) ])
  in
  Cmd.v
    (Cmd.info "expansion" ~doc:"Edge/node expansion (Section 4)")
    Term.(
      const run $ metrics_arg $ no_cache_arg $ deadline_arg $ net_arg $ n_arg
      $ k $ exact $ only $ seed)

(* ---- render ---- *)

let render_run metrics n dot =
  finishing metrics @@
  handle
    (match B.log2_exact n with
    | None -> Error "n must be a power of two"
    | Some log_n ->
        let b = B.create ~log_n in
        (match dot with
        | Some file ->
            Bfly_graph.Dot.write ~label:(B.label b) file (B.graph b);
            Printf.printf "wrote %s\n" file
        | None -> print_string (Bfly_networks.Render.butterfly_ascii b));
        Ok ())

let render_cmd =
  let n = Arg.(required & pos 0 (some int) None & info [] ~docv:"N") in
  let dot =
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "render" ~doc:"Draw a butterfly (Figure 1)")
    Term.(const render_run $ metrics_arg $ n $ dot)

(* ---- route ---- *)

let route_run metrics n seed =
  finishing metrics @@
  handle
    (match B.log2_exact n with
    | None -> Error "n must be a power of two"
    | Some log_n ->
        let b = B.create ~log_n in
        let rng = Random.State.make [| seed |] in
        let paths = Bfly_routing.Workload.greedy_random ~rng b in
        let stats = Bfly_routing.Router.run (B.graph b) ~paths in
        Printf.printf
          "B_%d greedy routing, random destinations: %d packets in %d steps \
           (%d hops, max queue %d)\n"
          n stats.Bfly_routing.Router.delivered stats.Bfly_routing.Router.steps
          stats.Bfly_routing.Router.total_hops
          stats.Bfly_routing.Router.max_edge_queue;
        Ok ())

let route_cmd =
  let n = Arg.(required & pos 0 (some int) None & info [] ~docv:"N") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ]) in
  Cmd.v
    (Cmd.info "route" ~doc:"Greedy store-and-forward routing (Section 1.2)")
    Term.(const route_run $ metrics_arg $ n $ seed)

(* ---- mos ---- *)

let mos_cmd =
  let j = Arg.(value & pos 0 (some int) None & info [] ~docv:"J") in
  let run metrics no_cache deadline j =
    run_job metrics no_cache deadline "mos" [ ("j", json_int j) ]
  in
  Cmd.v
    (Cmd.info "mos" ~doc:"Mesh-of-stars M2-bisection width (Lemmas 2.17-2.19)")
    Term.(const run $ metrics_arg $ no_cache_arg $ deadline_arg $ j)

(* ---- iosep ---- *)

let iosep_run metrics n =
  finishing metrics @@
  handle
    (match B.log2_exact n with
    | None -> Error "n must be a power of two"
    | Some log_n ->
        let b = B.create ~log_n in
        let side = Bfly_cuts.Io_cut.column_cut b in
        let v = Bfly_cuts.Io_cut.directed_crossings b side in
        Printf.printf "column construction: %d directed crossings (n/2 = %d)\n"
          v (max 1 (n / 2));
        if n <= 8 then begin
          let exact, _ = Bfly_cuts.Io_cut.exact b in
          Printf.printf "exact (max-flow enumeration): %d\n" exact
        end;
        Ok ())

let iosep_cmd =
  let n = Arg.(required & pos 0 (some int) None & info [] ~docv:"N") in
  Cmd.v
    (Cmd.info "iosep"
       ~doc:"Directed input/output separation of B_n (Section 1.2)")
    Term.(const iosep_run $ metrics_arg $ n)

(* ---- layout ---- *)

let layout_run metrics n =
  finishing metrics @@
  handle
    (match B.log2_exact n with
    | None -> Error "n must be a power of two"
    | Some log_n ->
        let b = B.create ~log_n in
        let l = Bfly_networks.Layout.butterfly_grid b in
        let area = Bfly_networks.Layout.area l in
        let lb = if n >= 2 then Bfly_mos.Mos_analysis.butterfly_lower_bound n else 0 in
        Printf.printf
          "B_%d grid layout: %d x %d = %d (%.2f n^2); Thompson bound BW^2 >= \
           %d\n"
          n l.Bfly_networks.Layout.width l.Bfly_networks.Layout.height area
          (float_of_int area /. float_of_int (n * n))
          (Bfly_networks.Layout.thompson_lower_bound ~bw:lb);
        Ok ())

let layout_cmd =
  let n = Arg.(required & pos 0 (some int) None & info [] ~docv:"N") in
  Cmd.v
    (Cmd.info "layout" ~doc:"VLSI grid layout area of B_n (Sections 1.1-1.2)")
    Term.(const layout_run $ metrics_arg $ n)

(* ---- bw ---- *)

(* [bw SOLVER NETWORK [N]]: the subcommand name is the solver field, and
   [extra] adds the solver's own flags. *)
let bw_solver_cmd solver ~doc extra =
  let run metrics no_cache deadline net n extra =
    run_job metrics no_cache deadline "bw"
      ((("solver", json_str (Some solver)) :: instance_fields net n) @ extra)
  in
  Cmd.v (Cmd.info solver ~doc)
    Term.(
      const run $ metrics_arg $ no_cache_arg $ deadline_arg $ net_arg $ n_arg
      $ extra)

let bw_exact_cmd =
  let max_nodes =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-nodes" ] ~docv:"K"
          ~doc:
            "Step budget: stop after about $(docv) search nodes and return \
             a certified interval.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Continue from the checkpoint a previous interrupted run stored \
             in the result cache, exploring only the remaining frontier. \
             The completed value is identical to an uninterrupted run's.")
  in
  bw_solver_cmd "exact"
    ~doc:
      "Exact bisection width under a budget: runs the supervised \
       branch-and-bound engine, which returns the exact value — or, if the \
       deadline or node budget fires first, a certified interval [lower, \
       upper] with a real witness cut achieving upper, plus a checkpoint \
       that $(b,--resume) continues from. Every result is re-validated \
       before being printed."
    Term.(
      const (fun max_nodes resume ->
          [ ("max_nodes", json_int max_nodes); ("resume", json_flag resume) ])
      $ max_nodes $ resume)

let bw_heuristic_cmd solver ~doc =
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"RNG seed for the heuristic's restarts (deterministic per seed).")
  in
  let restarts =
    Arg.(
      value
      & opt (some int) None
      & info [ "restarts" ] ~docv:"R"
          ~doc:"Independent seeded restarts; the best cut found wins.")
  in
  bw_solver_cmd solver ~doc
    Term.(
      const (fun seed restarts ->
          [ ("seed", json_int seed); ("restarts", json_int restarts) ])
      $ seed $ restarts)

let bw_cmd =
  Cmd.group
    (Cmd.info "bw"
       ~doc:
         "Bisection-width solvers with supervision (deadlines, budgets, \
          checkpoint/resume)")
    [
      bw_exact_cmd;
      bw_heuristic_cmd "kl"
        ~doc:"Kernighan-Lin heuristic upper bound on the bisection width";
      bw_heuristic_cmd "fm"
        ~doc:"Fiduccia-Mattheyses heuristic upper bound on the bisection width";
      bw_heuristic_cmd "sa"
        ~doc:"Simulated-annealing heuristic upper bound on the bisection width";
      bw_heuristic_cmd "spectral"
        ~doc:
          "Spectral (Fiedler-vector) heuristic upper bound on the bisection \
           width; deterministic, so --seed/--restarts are accepted but inert";
      bw_heuristic_cmd "ml"
        ~doc:
          "Multilevel heuristic upper bound on the bisection width: \
           heavy-edge matching coarsens the graph to a few dozen nodes, \
           gain-bucket FM refines each level under a balance constraint, and \
           seeded restarts run the V-cycle concurrently. Near-linear per \
           restart, so it scales to instances (n = 4096 and beyond) where the \
           flat heuristics stop converging.";
    ]

(* ---- check ---- *)

let check_run metrics no_cache seed rounds smoke chaos =
  set_cache no_cache;
  finishing metrics @@
  if rounds < 1 then handle (Error "rounds must be >= 1")
  else begin
    let json, ok = Bfly_check.Run.execute ~chaos ~seed ~rounds ~smoke () in
    print_endline (Bfly_obs.Json.to_string json);
    if ok then 0 else 1
  end

let check_cmd =
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Root seed; fixes every instance and every solver RNG.")
  in
  let rounds =
    Arg.(value & opt int 50 & info [ "rounds" ] ~docv:"N"
           ~doc:"Fuzzing rounds (one random instance per round). A served \
                 $(b,check) job defaults to 5 smoke rounds, this command to \
                 50: the two are different commands by design, since this \
                 one prints the full document and sets the exit status.")
  in
  let smoke =
    Arg.(value & flag & info [ "smoke" ]
           ~doc:"Cheap CI-gate subset: smallest families, at most 5 rounds.")
  in
  let chaos =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:
            "Run the fuzzing stage under fault injection (seeded by \
             $(b,--seed)): random disk-I/O errors, cache-entry corruption, \
             worker-domain exceptions and deadline expiries. Oracle \
             verdicts must be unchanged and the domain pool must survive.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Differential oracle suite: cross-check every solver against \
             naive references and the paper's theorems on random and \
             structured instances; print a machine-readable summary, exit \
             non-zero on any discrepancy")
    Term.(
      const check_run $ metrics_arg $ no_cache_arg $ seed $ rounds $ smoke
      $ chaos)

(* ---- campaign ---- *)

let campaign_run metrics no_cache deadline degree sizes seeds restarts
    json_file compare_file =
  set_cache no_cache;
  finishing metrics @@
  handle
    (let ( let* ) = Result.bind in
     let* () =
       (* a deadline can cancel the sweep mid-grid; diffing a run that may
          abort against a committed baseline would report phantom drift *)
       if compare_file <> None && deadline <> None then
         Error "--compare cannot be combined with --deadline"
       else Ok ()
     in
     supervised deadline @@ fun () ->
     let* t = Bfly_check.Campaign.run ~restarts ~degree ~sizes ~seeds () in
     print_string (Bfly_check.Campaign.render t);
     let doc = Bfly_check.Campaign.to_json t in
     let* () =
       match json_file with
       | None -> Ok ()
       | Some file -> (
           try
             Ok
               (Out_channel.with_open_text file (fun oc ->
                    Printf.fprintf oc "%s\n" (Bfly_obs.Json.to_string doc)))
           with Sys_error e -> Error e)
     in
     let* () =
       match compare_file with
       | None -> Ok ()
       | Some file -> (
           let* baseline =
             try
               Bfly_obs.Json.of_string
                 (In_channel.with_open_text file In_channel.input_all)
             with Sys_error e -> Error e
           in
           match Bfly_check.Campaign.compare_docs ~baseline doc with
           | [] ->
               Printf.eprintf "campaign: no drift against %s\n" file;
               Ok ()
           | drifts ->
               Error
                 (Printf.sprintf "campaign drift against %s:\n  %s" file
                    (String.concat "\n  " drifts)))
     in
     if t.Bfly_check.Campaign.ok then Ok ()
     else Error "campaign statistical oracle failed")

let campaign_cmd =
  let degree =
    Arg.(
      value & opt int 3
      & info [ "degree" ] ~docv:"D"
          ~doc:
            "Degree of the random-regular family (default 3, the only \
             degree with pinned statistical windows).")
  in
  let sizes =
    Arg.(
      value
      & opt (list int) Bfly_check.Campaign.default_sizes
      & info [ "sizes" ] ~docv:"N,N,..."
          ~doc:"Comma-separated instance sizes (default 64..4096).")
  in
  let seeds =
    Arg.(
      value & opt int Bfly_check.Campaign.default_seeds
      & info [ "seeds" ] ~docv:"K"
          ~doc:"Seeds 1..K per size (default 20).")
  in
  let restarts =
    Arg.(
      value & opt int Bfly_check.Campaign.default_restarts
      & info [ "restarts" ] ~docv:"R"
          ~doc:"Multilevel V-cycle restarts per instance (default 4).")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the bfly-campaign/1 document to $(docv).")
  in
  let compare_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "compare" ] ~docv:"FILE"
          ~doc:
            "Diff this run against a committed bfly-campaign/1 document; \
             any per-instance drift (the run may cover a sub-grid of the \
             baseline) exits non-zero.")
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Seeded random-regular bisection campaign: sweep a size x seed \
          grid, record [certified LB, multilevel, spectral] per instance, \
          aggregate cut/n convergence ratios, and judge them against the \
          literature windows (arXiv:2009.00598); exit non-zero on oracle \
          failure or baseline drift")
    Term.(
      const campaign_run $ metrics_arg $ no_cache_arg $ deadline_arg $ degree
      $ sizes $ seeds $ restarts $ json_out $ compare_file)

(* ---- cache ---- *)

let cache_stats_run metrics =
  finishing metrics @@
  (* stale tmp files (orphaned by crashed writers) are swept here too, so
     `cache stats` doubles as the manual cleanup entry point *)
  let swept = Bfly_cache.Store.sweep_tmp () in
  let s = Bfly_cache.Store.stats () in
  Printf.printf "cache %s, dir %s\n"
    (if s.Bfly_cache.Store.enabled then "enabled" else "disabled")
    s.Bfly_cache.Store.dir;
  Printf.printf "  memory: %d entries (capacity %d)\n" s.memory_entries
    s.memory_capacity;
  Printf.printf "  disk:   %d entries, %d bytes\n" s.disk.entries s.disk.bytes;
  Printf.printf "  tmp:    %d in-flight temp files (%d stale swept)\n"
    s.disk.tmp swept;
  List.iter
    (fun (solver, count) -> Printf.printf "    %-44s %d\n" solver count)
    s.solvers;
  0

let cache_stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~doc:"Show result-cache configuration and contents")
    Term.(const cache_stats_run $ metrics_arg)

let cache_clear_run metrics =
  finishing metrics @@
  let dir = Bfly_cache.Config.dir () in
  let removed = Bfly_cache.Store.clear () in
  Printf.printf "removed %d cached entries from %s\n" removed dir;
  0

let cache_clear_cmd =
  Cmd.v
    (Cmd.info "clear" ~doc:"Delete every cached result (both tiers)")
    Term.(const cache_clear_run $ metrics_arg)

let cache_warm_run metrics max_n =
  finishing metrics @@
  if max_n < 2 then handle (Error "max-n must be >= 2")
  else if not (Bfly_cache.Config.enabled ()) then
    handle (Error "cache is disabled (BFLY_CACHE=off); nothing to warm")
  else begin
    let n = ref 2 in
    while !n <= max_n do
      let nn = !n in
      Printf.printf "warming n=%d...\n%!" nn;
      ignore (Bfly_core.Bw.butterfly ~use_heuristics:(nn <= 64) nn);
      if nn >= 4 then begin
        ignore (Bfly_core.Bw.wrapped nn);
        ignore (Bfly_core.Bw.ccc nn)
      end;
      ignore (Bfly_mos.Mos_analysis.bw_m2 nn);
      (match B.log2_exact nn with
      | Some log_n when log_n >= 2 ->
          ignore (Bfly_cuts.Constructions.best_mos_pullback (B.create ~log_n))
      | _ -> ());
      n := !n * 2
    done;
    let s = Bfly_cache.Store.stats () in
    Printf.printf "cache now holds %d on-disk entries in %s\n"
      s.Bfly_cache.Store.disk.entries s.Bfly_cache.Store.dir;
    0
  end

let cache_warm_cmd =
  let max_n =
    Arg.(
      value & opt int 8
      & info [ "max-n" ] ~docv:"N"
          ~doc:
            "Largest network size to precompute (inclusive); every power of \
             two from 2 up is warmed.")
  in
  Cmd.v
    (Cmd.info "warm"
       ~doc:
         "Precompute bisection brackets, MOS widths and pullback sweeps for \
          small networks so later runs start hot")
    Term.(const cache_warm_run $ metrics_arg $ max_n)

let cache_cmd =
  Cmd.group
    (Cmd.info "cache"
       ~doc:
         "Inspect and maintain the persistent result cache (see BFLY_CACHE, \
          BFLY_CACHE_DIR)")
    [ cache_stats_cmd; cache_clear_cmd; cache_warm_cmd ]

(* ---- serve ---- *)

let parse_host_port s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "expected HOST:PORT, got %S" s)
  | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p >= 0 && p < 65536 ->
          Ok ((if host = "" then "127.0.0.1" else host), p)
      | _ -> Error (Printf.sprintf "invalid port in %S" s))

let serve_run metrics no_cache socket tcp port_file workers client_queue
    max_line queue =
  set_cache no_cache;
  finishing metrics @@
  handle
    (let bad name = function
       | Some q when q < 1 -> Some (name ^ " must be >= 1")
       | _ -> None
     in
     match
       List.find_map Fun.id
         [
           bad "queue" queue; bad "client-queue" client_queue;
           bad "workers" workers; bad "max-line" max_line;
         ]
     with
     | Some msg -> Error msg
     | None -> (
         let tcp_addr =
           match tcp with
           | None -> Ok None
           | Some s -> Result.map Option.some (parse_host_port s)
         in
         match tcp_addr with
         | Error e -> Error e
         | Ok tcp ->
             let server =
               Bfly_serve.Server.create ?queue_bound:queue
                 ?client_bound:client_queue ()
             in
             let stdio = socket = None && tcp = None in
             Bfly_serve.Transport.serve ?workers ?max_line ~stdio
               ?unix_path:socket ?tcp ?port_file server;
             Printf.eprintf "%s\n" (Bfly_serve.Server.summary server);
             Ok ()))

let serve_cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket at $(docv); any number of \
             clients may connect concurrently. May be combined with \
             $(b,--tcp). Without either, requests are served on \
             stdin/stdout.")
  in
  let tcp =
    Arg.(
      value
      & opt (some string) None
      & info [ "tcp" ] ~docv:"HOST:PORT"
          ~doc:
            "Listen for TCP clients on $(docv). Port 0 picks an ephemeral \
             port; the actual address goes to stderr and, with \
             $(b,--port-file), to a file.")
  in
  let port_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "port-file" ] ~docv:"PATH"
          ~doc:
            "Write the bound TCP address as one HOST:PORT line to $(docv) \
             once listening — how a supervisor or test harness finds an \
             ephemeral port.")
  in
  let workers =
    Arg.(
      value
      & opt (some int) None
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Solve up to $(docv) batches concurrently on the domain pool \
             (default: the configured domain count, see BFLY_DOMAINS). \
             Response bytes do not depend on this; 1 reproduces the \
             sequential loop.")
  in
  let client_queue =
    Arg.(
      value
      & opt (some int) None
      & info [ "client-queue" ] ~docv:"N"
          ~doc:
            "Per-client admission bound: at most $(docv) outstanding \
             requests per connection before that client — and only that \
             client — gets \"overloaded\" rejections. Defaults to \
             BFLY_SERVE_CLIENT_QUEUE, else to the global queue bound.")
  in
  let max_line =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-line" ] ~docv:"BYTES"
          ~doc:
            "Reject request lines longer than $(docv) bytes with a \
             structured error instead of buffering them (default 262144).")
  in
  let queue =
    Arg.(
      value
      & opt (some int) None
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Admission bound: at most $(docv) requests queued or in flight \
             (coalesced ones included); beyond it requests are rejected \
             with \"overloaded\". Defaults to BFLY_SERVE_QUEUE, else 128.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Batch query service: newline-delimited JSON requests in, one JSON \
          response line per request out, over stdio, a Unix socket and/or \
          TCP. Batches solve concurrently on the domain pool; duplicate \
          in-flight requests coalesce into one solve; each client's \
          responses arrive in its own request order, and each response's \
          output field is byte-identical to the matching one-shot \
          subcommand's stdout. SIGTERM/SIGINT drain gracefully: queued work \
          is answered, new work is rejected with \"draining\", then the \
          process exits and logs a summary line to stderr.")
    Term.(
      const serve_run $ metrics_arg $ no_cache_arg $ socket $ tcp $ port_file
      $ workers $ client_queue $ max_line $ queue)

(* ---- loadgen ---- *)

let loadgen_run metrics no_cache trace_file clients repeat seed qps workers
    sequential connect queue json_out compare_file slack no_timing =
  set_cache no_cache;
  finishing metrics @@
  handle
    (let ( let* ) = Result.bind in
     let* mode =
       match (sequential, connect) with
       | true, Some _ -> Error "--sequential and --connect are exclusive"
       | true, None -> Ok Bfly_serve.Loadgen.Sequential
       | false, None -> Ok Bfly_serve.Loadgen.Concurrent
       | false, Some s -> (
           match String.index_opt s ':' with
           | Some i when String.sub s 0 i = "unix" ->
               Ok
                 (Bfly_serve.Loadgen.Connect
                    (`Unix (String.sub s (i + 1) (String.length s - i - 1))))
           | Some i when String.sub s 0 i = "tcp" ->
               let* hp =
                 parse_host_port
                   (String.sub s (i + 1) (String.length s - i - 1))
               in
               Ok (Bfly_serve.Loadgen.Connect (`Tcp hp))
           | _ -> Error "expected --connect tcp:HOST:PORT or unix:PATH")
     in
     let* trace =
       try Ok (In_channel.with_open_text trace_file In_channel.input_lines)
       with Sys_error e -> Error e
     in
     let* doc =
       Bfly_serve.Loadgen.run ~seed ~clients ~repeat ~qps ?workers
         ?queue_bound:queue ~mode ~trace ()
     in
     let text = Bfly_obs.Json.to_string doc in
     (match json_out with
     | Some file -> Out_channel.with_open_text file (fun oc ->
           Printf.fprintf oc "%s\n" text)
     | None -> ());
     print_endline text;
     match compare_file with
     | None -> Ok ()
     | Some file -> (
         let* baseline =
           try
             Bfly_obs.Json.of_string
               (In_channel.with_open_text file In_channel.input_all)
           with Sys_error e -> Error e
         in
         match
           Bfly_serve.Loadgen.compare_docs ~slack ~timing:(not no_timing)
             ~baseline doc
         with
         | [] ->
             Printf.eprintf "loadgen: no drift against %s\n" file;
             Ok ()
         | drifts ->
             Error
               (Printf.sprintf "loadgen drift against %s:\n  %s" file
                  (String.concat "\n  " drifts))))

let loadgen_cmd =
  let trace =
    Arg.(
      required
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"NDJSON request trace to replay (one request per line).")
  in
  let clients =
    Arg.(
      value & opt int 4
      & info [ "clients" ] ~docv:"N" ~doc:"Simulated clients (default 4).")
  in
  let repeat =
    Arg.(
      value & opt int 10
      & info [ "repeat" ] ~docv:"N"
          ~doc:
            "Rounds over the trace; each round is a seeded permutation \
             (default 10).")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Schedule seed. The whole request schedule is a pure function \
             of (trace, seed, clients, repeat): same inputs, same replay.")
  in
  let qps =
    Arg.(
      value & opt float 0.
      & info [ "qps" ] ~docv:"RATE"
          ~doc:
            "Target request rate across all clients; 0 (the default) \
             issues requests as fast as possible.")
  in
  let workers =
    Arg.(
      value
      & opt (some int) None
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Concurrent batch executions for the in-process concurrent \
             mode (default: the configured domain count).")
  in
  let sequential =
    Arg.(
      value & flag
      & info [ "sequential" ]
          ~doc:
            "Replay in process, solving every batch inline — the baseline \
             the concurrent modes must match byte for byte.")
  in
  let connect =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"TARGET"
          ~doc:
            "Replay against a live server instead of in process: \
             $(b,tcp:HOST:PORT) or $(b,unix:PATH), one real connection per \
             client.")
  in
  let queue =
    Arg.(
      value
      & opt (some int) None
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Queue bound for the in-process server (default: above the \
             request count, so admission control stays out of the way; set \
             it low to measure overload behaviour).")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the bfly-loadgen/1 document to $(docv).")
  in
  let compare_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "compare" ] ~docv:"FILE"
          ~doc:
            "Gate against a baseline bfly-loadgen/1 document: exit non-zero \
             on deterministic drift, or on p99/throughput beyond the slack \
             factor.")
  in
  let slack =
    Arg.(
      value & opt float 3.0
      & info [ "slack" ] ~docv:"FACTOR"
          ~doc:
            "Timing tolerance for --compare: fail when p99 exceeds the \
             baseline, or throughput falls below it, by more than $(docv)x \
             (default 3.0).")
  in
  let no_timing =
    Arg.(
      value & flag
      & info [ "no-timing" ]
          ~doc:
            "Compare only deterministic fields — for gating against a \
             baseline recorded on different hardware.")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Replay a request trace at load, deterministically: a seeded \
          schedule spread over simulated clients, replayed in process \
          (sequentially or concurrently on the domain pool) or against a \
          live server over TCP or a Unix socket. Prints a bfly-loadgen/1 \
          JSON document separating deterministic replay facts (request \
          counts, output fingerprints) from timing (achieved QPS, \
          p50/p90/p99), and with --compare gates both against a baseline.")
    Term.(
      const loadgen_run $ metrics_arg $ no_cache_arg $ trace $ clients
      $ repeat $ seed $ qps $ workers $ sequential $ connect $ queue
      $ json_out $ compare_file $ slack $ no_timing)

(* ---- experiments ---- *)

(* C1 is registered here (and in bench/main.ml) rather than in
   Experiments.all: it lives in bfly_check, which depends on bfly_core *)
let all_experiments () =
  Bfly_core.Experiments.all @ [ ("C1", Bfly_check.Campaign.c1) ]

let experiments_run metrics no_cache ids =
  set_cache no_cache;
  finishing metrics @@
  let selected =
    match ids with
    | [] -> all_experiments ()
    | ids ->
        List.filter
          (fun (name, _) -> List.mem (String.lowercase_ascii name) (List.map String.lowercase_ascii ids))
          (all_experiments ())
  in
  if selected = [] then begin
    Printf.eprintf "no matching experiments; available: %s\n"
      (String.concat ", " (List.map fst (all_experiments ())));
    1
  end
  else begin
    List.iter
      (fun (name, f) -> Printf.printf "--- %s ---\n%s\n%!" name (f ()))
      selected;
    0
  end

let experiments_cmd =
  let ids = Arg.(value & pos_all string [] & info [] ~docv:"ID") in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Reproduce the paper's tables (E1-E13, F1-F2)")
    Term.(const experiments_run $ metrics_arg $ no_cache_arg $ ids)

let () =
  let doc = "bisection width and expansion of butterfly networks" in
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "bfly_tool" ~version:"1.0.0" ~doc)
          [
            info_cmd; bisect_cmd; bw_cmd; expansion_cmd; render_cmd;
            route_cmd; mos_cmd; iosep_cmd; layout_cmd; check_cmd;
            campaign_cmd; serve_cmd; loadgen_cmd; experiments_cmd; cache_cmd;
          ]))
