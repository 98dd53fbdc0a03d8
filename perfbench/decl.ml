(* Every metric the benchmark emits, with its unit. BENCHMARK.json declares
   the same names and units; test_perfbench.ml keeps the two in step. *)

(* Printed with --trace 0, measured with tracing off. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("jobs_per_s", "jobs/s");
    ("job_p50_ms", "ms");
    ("job_p90_ms", "ms");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
    ("slo_share", "fraction");
    ("peak_rss_mb", "MiB");
  ]

(* Printed with --trace 1, from the traced run, grouped by layer. *)
let per_layer =
  [
    (* bfly_expansion: direct ee_exact/ne_exact calls, cache off *)
    ("expansion.subsets", "count");
    ("expansion.busy_ms", "ms");
    ("expansion.ns_per_subset", "ns");
    ("expansion.minor_words_per_subset", "words");
    (* bfly_cuts: registry deltas around Job.run / the served pass *)
    ("ml.coarsen_ms", "ms");
    ("ml.refine_ms", "ms");
    ("ml.coarsen_share", "fraction");
    ("ml.job_share", "fraction");
    ("ml.levels", "count");
    ("ml.refine.moves", "count");
    ("heuristics.kl_ms", "ms");
    ("heuristics.fm_ms", "ms");
    ("heuristics.sa_ms", "ms");
    ("exact.busy_ms", "ms");
    ("exact.bb.nodes", "count");
    ("cuts.certificate_ms", "ms");
    ("cuts.scratch_hit_ratio", "fraction");
    (* bfly_networks: direct Job.graph_of calls *)
    ("networks.build_ms", "ms");
    (* bfly_cache *)
    ("cache.lookups", "count");
    ("cache.hit_ratio", "fraction");
    ("cache.lookup_us", "us");
    ("cache.store_ms", "ms");
    ("cache.recounts_per_hit", "ratio");
    ("cache.verify_fail", "count");
    (* bfly_check and rendering: what Job.run adds around the solver *)
    ("job.count", "count");
    ("job.total_ms", "ms");
    ("job.overhead_ms", "ms");
    (* bfly_serve *)
    ("serve.requests", "count");
    ("serve.parse_us", "us");
    ("serve.submit_us", "us");
    ("serve.batches", "count");
    ("serve.coalesce_ratio", "ratio");
    ("serve.joined_inflight", "count");
    ("serve.reuse_share", "fraction");
    ("serve.solve_ms", "ms");
    ("serve.wait_ms", "ms");
    ("serve.pending_max", "count");
    ("serve.rejected", "count");
    (* bfly_graph: the domain pool *)
    ("parallel.tasks", "count");
    ("parallel.batches", "count");
    ("parallel.async_jobs", "count");
    ("parallel.workers_rescued", "count");
    (* runtime and harness *)
    ("gc.minor_words", "words");
    ("gc.major_collections", "count");
    ("loadgen.lag_p99_ms", "ms");
    ("trace.overhead_share", "fraction");
  ]

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> u
  | None -> List.assoc name per_layer
