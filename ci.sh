#!/bin/sh
# Tier-1 CI pipeline, as named stages:
#
#   ./ci.sh              run every stage, in order
#   ./ci.sh build fmt    run only the named stages
#   ./ci.sh list         print the stage names and exit
#
# Stages (CI.md maps each gate to the invariant it protects):
#
#   build    dune build
#   fmt      dune build @fmt (skipped when ocamlformat is not installed)
#   unused-exports
#            grep-only: every val in lib/*/*.mli must be named by some
#            .ml file other than its own module's
#   runtest  dune runtest (alcotest/qcheck suites, bench+check smoke rules)
#   check    differential-oracle smoke battery, fixed seed, plus
#            multilevel and product-network (torus:4x4x4) CLI smokes
#   chaos    the same battery under fault injection — faults may cost
#            work, never correctness
#   doc      dune build @doc-private — the libraries are private, so the
#            plain @doc alias is empty (skipped when odoc is not
#            installed) — plus the perf-docs check: every gate counter
#            named in test/test_bench_json.ml's gate_fields must appear
#            backtick-quoted in PERFORMANCE.md
#   serve    bfly_serve smoke: coalescing, one-shot byte-identity, two
#            jobs on one (memoized) network, a structured error for an
#            n beyond 2^61, CLI/serve parity on a fabric expansion job,
#            admission control, a sequential replay whose repeats are
#            answered from the memo of finished outputs, a
#            concurrent 4-client TCP replay byte-identical to it,
#            drained by SIGTERM, and the same under `ulimit -n 24`
#            with 48 clients
#   loadgen  deterministic load replay: committed-baseline gate
#            (deterministic fields, cross-machine), the data-center
#            fabric mix against its own committed baseline, self-baseline
#            latency gate (p99/throughput within slack), and — on boxes
#            with enough cores — a concurrency speedup check
#   campaign random-regular bisection campaign smoke: a small seed x size
#            sub-grid at one domain, zero per-instance drift against the
#            committed CAMPAIGN_*.json full run, statistical oracle green
#   warm     warm-cache determinism: second bench run serves from cache,
#            values byte-identical; a repeated `bw ml butterfly 8` CLI
#            run is one verified hit with the cold run's answer
#   resume   interrupted exact search resumes to the uninterrupted value
#   compare  bench --compare against the committed baseline: experiment
#            outputs, gate counters and oracle summary must not drift
#
# Every run ends with a per-stage wall-clock summary; under GitHub
# Actions the same rows are appended to $GITHUB_STEP_SUMMARY as a
# markdown table (one row per stage, accumulated across the per-stage
# workflow steps).
set -eu

cd "$(dirname "$0")"

ALL_STAGES="build fmt unused-exports runtest check chaos doc serve loadgen campaign warm resume compare"
BASELINE=BENCH_2026-08-08.json
CAMPAIGN_BASELINE=CAMPAIGN_2026-08-08.json
LOADGEN_BASELINE=LOADGEN_2026-08-08.json
LOADGEN_TRACE=bench/loadgen_trace.ndjson
LOADGEN_DC_BASELINE=LOADGEN_DC_2026-08-08.json
LOADGEN_DC_TRACE=bench/loadgen_dc_trace.ndjson

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

extract() { # extract FIELD FILE -> first integer value of "FIELD":N
  # the first occurrence in a bench JSON document is the pre-Bechamel
  # "gate" snapshot, which is the deterministic one. The document is a
  # single line, so this must be grep -o (all matches, in order), not a
  # greedy sed s///, which would land on the LAST occurrence — the
  # post-Bechamel metrics dump, polluted by micro-benchmark iterations.
  grep -o "\"$(printf '%s' "$1" | sed 's/\./\\./g')\":[0-9][0-9]*" "$2" \
    | head -n 1 | cut -d: -f2
}

# ---- stages ----

stage_build() {
  dune build
}

stage_fmt() {
  if command -v ocamlformat >/dev/null 2>&1; then
    dune build @fmt
  else
    echo "ocamlformat not installed; skipping @fmt check"
  fi
}

# An interface lists what other modules use. A val that no .ml file names
# outside its own module is either used only inside it (drop it from the
# .mli) or not at all (delete it). Word matching over every .ml tree that
# can reach the libraries; grep only, no build.
stage_unused_exports() {
  unused=$(
    for mli in lib/*/*.mli; do
      own=${mli%i}
      sed -n "s/^ *val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" | sort -u |
        while read -r name; do
          grep -rlw --include='*.ml' -e "$name" \
            lib bin bench perfbench test examples | grep -qvxF "$own" ||
            echo "  $own: $name"
        done
    done
  )
  [ -z "$unused" ] || {
    echo "FAIL: exported but used by no other module:" >&2
    echo "$unused" >&2
    exit 1
  }
  echo "unused-exports: every val in lib/*/*.mli is used outside its module"
}

stage_runtest() {
  dune runtest
}

# `dune runtest` already runs the smoke battery via the bin/dune rule;
# running it explicitly keeps a visible, non-cached pass in the CI log and
# fails loudly (non-zero exit) on any solver disagreement.
stage_check() {
  dune exec -- bin/bfly_tool.exe check --smoke --seed 42 --rounds 5
  # multilevel partitioner smoke: must produce a validated bisection (the
  # subcommand exits non-zero when the witness fails Invariants) at a size
  # the flat kernels also handle, so regressions surface before the
  # bench-scale sweeps
  dune exec -- bin/bfly_tool.exe bw ml butterfly 64
  # product-network smoke: the heuristic on a small 3-D torus must land
  # exactly on the certified closed form 2N/a_max = 32 (the oracle battery
  # above already runs the full sandwich family; this pins the CLI path)
  out=$(dune exec -- bin/bfly_tool.exe bw ml torus:4x4x4)
  echo "$out"
  case $out in
  *"BW <= 32"*) ;;
  *)
    echo "FAIL: torus:4x4x4 heuristic drifted from the certified width 32" >&2
    exit 1
    ;;
  esac
}

# Same differential suite with every fault class armed (disk I/O errors,
# corrupted cache entries, crashing pool tasks, spurious deadline expiry)
# at a fixed seed: any changed oracle verdict, escaped injected exception,
# or shrunken domain pool fails the run.
stage_chaos() {
  dune exec -- bin/bfly_tool.exe check --smoke --chaos --seed 7 --rounds 5
}

stage_doc() {
  if command -v odoc >/dev/null 2>&1; then
    # every library here is private (no public_name), so the plain @doc
    # alias builds nothing; @doc-private is the alias that renders them
    # all — lib/serve included
    dune build @doc-private
  else
    echo "odoc not installed; skipping @doc-private check"
  fi
  # perf-docs: PERFORMANCE.md documents the gate counters by name; keep
  # that list honest against the one the bench-JSON tests enforce
  # (gate_fields in test/test_bench_json.ml). Each counter must appear
  # backtick-quoted so renames fail CI instead of silently drifting.
  fields=$(sed -n '/^let gate_fields/,/\]/p' test/test_bench_json.ml \
    | grep -o '"[a-z._]*"' | tr -d '"')
  [ -n "$fields" ] || {
    echo "FAIL: could not extract gate_fields from test/test_bench_json.ml" >&2
    exit 1
  }
  for f in $fields; do
    grep -qF "\`$f\`" PERFORMANCE.md || {
      echo "FAIL: gate counter $f is not documented in PERFORMANCE.md" >&2
      exit 1
    }
  done
  echo "perf-docs: all $(printf '%s\n' $fields | wc -l) gate counters documented in PERFORMANCE.md"
}

# Query-service smoke: a small trace with six duplicate requests must
# coalesce into one solve ("batch":6 on every copy), the served output
# must be byte-identical to the one-shot subcommand's stdout, two jobs on
# one network (one graph, shared through Job.graph_of's memo) must both
# answer, an n beyond 2^61 must get a structured error instead of a
# spinning worker, the one-shot CLI must print the served output and the
# served error for a fabric job, a shrunken admission bound must
# produce explicit "overloaded" rejections, and a sequential replay must
# answer its repeats from the memo of finished outputs.
stage_serve() {
  trace="$scratch/serve-trace.ndjson"
  out="$scratch/serve-out.ndjson"
  : > "$trace"
  i=1
  while [ "$i" -le 6 ]; do
    echo '{"id":"dup'"$i"'","job":"bw","solver":"kl","network":"butterfly","n":16,"seed":7}' >> "$trace"
    i=$((i + 1))
  done
  echo '{"id":"spec","job":"bw","solver":"spectral","network":"butterfly","n":16}' >> "$trace"
  echo '{"id":"mos","job":"mos","j":8}' >> "$trace"
  echo '{"id":"net1","job":"bw","solver":"fm","network":"wrapped","n":8,"seed":3}' >> "$trace"
  echo '{"id":"net2","job":"ee","network":"wrapped","n":8,"k":4,"exact":true}' >> "$trace"
  echo '{"id":"huge","job":"bw","solver":"kl","network":"butterfly","n":3000000000000000000}' >> "$trace"
  echo '{"id":"stats","job":"stats"}' >> "$trace"

  # under timeout: a power-of-two test that loops on the huge n would pin
  # a worker and never drain
  BFLY_CACHE_DIR="$scratch/serve-cache" timeout 120 dune exec -- \
    bin/bfly_tool.exe serve < "$trace" > "$out" 2> "$scratch/serve-err.log" || {
    echo "FAIL: serve exited $? on the smoke trace" >&2
    cat "$scratch/serve-err.log" "$out" >&2
    exit 1
  }
  cat "$scratch/serve-err.log"

  ok_count=$(grep -c '"ok":true' "$out")
  [ "$ok_count" -eq 11 ] || {
    echo "FAIL: expected 11 ok responses, got $ok_count" >&2
    cat "$out" >&2
    exit 1
  }
  grep -F '"id":"huge","ok":false,"error":"n must be a power of two"' "$out" \
    > /dev/null || {
    echo "FAIL: n = 3e18 should answer \"n must be a power of two\"" >&2
    cat "$out" >&2
    exit 1
  }
  for id in net1 net2; do
    grep -F "\"id\":\"$id\",\"ok\":true" "$out" | grep -F '"output":"W_8' \
      > /dev/null || {
      echo "FAIL: $id on the repeated network W_8 did not answer" >&2
      cat "$out" >&2
      exit 1
    }
  done
  batch6=$(grep -c '"batch":6' "$out")
  [ "$batch6" -eq 6 ] || {
    echo "FAIL: 6 duplicate requests should coalesce into one solve of width 6 (got $batch6 responses with \"batch\":6)" >&2
    cat "$out" >&2
    exit 1
  }

  # byte-identity: the served output field must contain exactly the
  # one-shot subcommand's stdout (JSON-escaped, trailing newline included)
  oneshot=$(BFLY_CACHE_DIR="$scratch/serve-cache" dune exec -- \
    bin/bfly_tool.exe bw spectral butterfly 16)
  grep -F "\"output\":\"$oneshot\\n\"" "$out" > /dev/null || {
    echo "FAIL: served output differs from one-shot '$oneshot'" >&2
    cat "$out" >&2
    exit 1
  }

  # CLI/serve parity on a fabric job: the one-shot subcommand reads its
  # fields with the same Job.of_fields the server parses requests with, so
  # a fabric spec takes no N and prints the served bytes, and an explicit
  # N fails with the served message
  parity="$scratch/serve-parity.ndjson"
  printf '%s\n' \
    '{"id":"p1","job":"ee","network":"mesh:3x3","k":4,"exact":true}' \
    '{"id":"p2","job":"ee","network":"mesh:3x3","n":9,"k":4,"exact":true}' \
    | BFLY_CACHE_DIR="$scratch/serve-cache" dune exec -- \
      bin/bfly_tool.exe serve > "$parity" 2> /dev/null
  oneshot=$(BFLY_CACHE_DIR="$scratch/serve-cache" dune exec -- \
    bin/bfly_tool.exe expansion mesh:3x3 -k 4 --exact --only ee) || {
    echo "FAIL: 'expansion mesh:3x3 -k 4' rejected a fabric spec without N" >&2
    exit 1
  }
  grep -F "\"id\":\"p1\",\"ok\":true,\"batch\":1,\"output\":\"$oneshot\\n\"}" \
    "$parity" > /dev/null || {
    echo "FAIL: served fabric expansion differs from one-shot '$oneshot'" >&2
    cat "$parity" >&2
    exit 1
  }
  if err=$(dune exec -- bin/bfly_tool.exe expansion mesh:3x3 9 -k 4 --exact \
    --only ee 2>&1 > /dev/null); then
    echo "FAIL: 'expansion mesh:3x3 9' accepted an N for a fabric spec" >&2
    exit 1
  fi
  case $err in
  "error: field \"n\""*) ;;
  *)
    echo "FAIL: 'expansion mesh:3x3 9' printed '$err', not the served n message" >&2
    exit 1
    ;;
  esac
  json_err=$(printf '%s' "${err#error: }" | sed 's/"/\\"/g')
  grep -F "\"id\":\"p2\",\"ok\":false,\"error\":\"$json_err\"}" "$parity" \
    > /dev/null || {
    echo "FAIL: CLI error '$err' differs from the served one" >&2
    cat "$parity" >&2
    exit 1
  }

  # hostile input must not stall the select loop: one request line of
  # 23,000 distinct keys (about 242 KB, under the transport's 262,144-byte
  # line cap) that repeats its first key at the end, then a mos request.
  # Both must be answered under a short timeout; screening the keys
  # pairwise took about 5 s on this line.
  wide="$scratch/serve-wide.ndjson"
  awk 'BEGIN {
    printf "{\"id\":\"wide\""
    for (i = 0; i < 23000; i++) printf ",\"k%d\":0", i
    print ",\"k0\":1}"
  }' > "$wide"
  echo '{"id":"after","job":"mos","j":8}' >> "$wide"
  dune build bin/bfly_tool.exe 2> /dev/null
  BFLY_CACHE_DIR="$scratch/serve-cache" timeout 3 dune exec -- \
    bin/bfly_tool.exe serve < "$wide" > "$out" 2> /dev/null || {
    echo "FAIL: serve did not answer a 23,000-key line and the next request within 3 s" >&2
    exit 1
  }
  # an ambiguous line is rejected, but answered under its id, which occurs
  # once at the top level
  grep -F '"id":"wide","ok":false,"error":"duplicate key \"k0\" in request object"' \
    "$out" > /dev/null && grep -F '"id":"after","ok":true' "$out" > /dev/null || {
    echo "FAIL: the 23,000-key line or the request after it was not answered" >&2
    cat "$out" >&2
    exit 1
  }

  # admission control: 10 distinct jobs against a queue bound of 2 — the
  # transport reads the whole burst before solving, so exactly 8 must be
  # rejected with "overloaded"
  : > "$trace"
  j=1
  while [ "$j" -le 10 ]; do
    echo '{"id":"q'"$j"'","job":"mos","j":'"$j"'}' >> "$trace"
    j=$((j + 1))
  done
  BFLY_CACHE_DIR="$scratch/serve-cache" dune exec -- \
    bin/bfly_tool.exe serve --queue 2 < "$trace" > "$out" 2> /dev/null
  rejected=$(grep -c '"error":"overloaded"' "$out")
  [ "$rejected" -eq 8 ] || {
    echo "FAIL: queue bound 2 against 10 requests should reject 8, got $rejected" >&2
    cat "$out" >&2
    exit 1
  }

  # concurrent TCP smoke: a live server on an ephemeral port, 4 clients
  # replaying the committed trace concurrently. The replay's response
  # payloads must be byte-identical to the sequential in-process replay
  # of the same schedule (loadgen --compare diffs the fingerprints), and
  # SIGTERM must drain cleanly: exit 0 and a summary line on stderr.
  port_file="$scratch/serve-port"
  BFLY_CACHE_DIR="$scratch/serve-cache" dune exec -- bin/bfly_tool.exe serve \
    --tcp 127.0.0.1:0 --port-file "$port_file" \
    > /dev/null 2> "$scratch/serve-tcp.log" &
  serve_pid=$!
  i=0
  while [ ! -s "$port_file" ] && [ "$i" -lt 100 ]; do
    sleep 0.1
    i=$((i + 1))
  done
  [ -s "$port_file" ] || {
    echo "FAIL: serve --tcp never wrote its port file" >&2
    cat "$scratch/serve-tcp.log" >&2
    exit 1
  }
  addr=$(cat "$port_file")
  BFLY_CACHE_DIR="$scratch/serve-cache" dune exec -- bin/bfly_tool.exe \
    loadgen --trace "$LOADGEN_TRACE" --seed 2 --clients 4 --repeat 3 \
    --sequential --json "$scratch/lg-seq.json" > /dev/null
  # the sequential replay solves each of the 11 distinct ok lines once and
  # answers their 22 repeats from the memo of finished outputs; the
  # erroring line is solved on each of its 3 repeats. Its outputs are
  # pinned: the memo must return the bytes the solves returned.
  seq_batches=$(extract batches "$scratch/lg-seq.json")
  seq_memo=$(extract memo_hits "$scratch/lg-seq.json")
  [ "$seq_batches" -eq 14 ] && [ "$seq_memo" -eq 22 ] || {
    echo "FAIL: sequential replay ran $seq_batches batches and $seq_memo memo answers, expected 14 and 22" >&2
    exit 1
  }
  grep -qF '"outputs_fingerprint":"bb19b9effbc375c6"' "$scratch/lg-seq.json" || {
    echo "FAIL: sequential replay outputs drifted from bb19b9effbc375c6" >&2
    exit 1
  }
  BFLY_CACHE_DIR="$scratch/serve-cache" dune exec -- bin/bfly_tool.exe \
    loadgen --trace "$LOADGEN_TRACE" --seed 2 --clients 4 --repeat 3 \
    --connect "tcp:$addr" --compare "$scratch/lg-seq.json" --no-timing \
    > /dev/null || {
    echo "FAIL: concurrent TCP replay drifted from the sequential replay" >&2
    cat "$scratch/serve-tcp.log" >&2
    exit 1
  }
  kill -TERM "$serve_pid"
  wait "$serve_pid" || {
    echo "FAIL: serve --tcp did not drain cleanly on SIGTERM" >&2
    cat "$scratch/serve-tcp.log" >&2
    exit 1
  }
  grep -q "served" "$scratch/serve-tcp.log" || {
    echo "FAIL: drained server logged no summary line" >&2
    cat "$scratch/serve-tcp.log" >&2
    exit 1
  }

  # descriptor exhaustion: the built server under `ulimit -n 24`, which
  # leaves room for about 20 connections, against 48 concurrent clients
  # (paced at 200 requests/s, so they hold their connections together).
  # Past the limit accept fails with EMFILE; the server must stop watching
  # its listener until a connection closes (neither spin nor exit), so
  # the rest wait in the listen backlog and every client is served in
  # turn. The outputs must equal the sequential replay's, the server must
  # have paused at least once, and SIGTERM must still drain to exit 0.
  BFLY_CACHE_DIR="$scratch/serve-cache" dune exec -- bin/bfly_tool.exe \
    loadgen --trace "$LOADGEN_TRACE" --seed 2 --clients 48 --repeat 8 \
    --sequential --json "$scratch/lg-seq-48.json" > /dev/null
  port_file="$scratch/serve-port-low"
  (
    ulimit -n 24
    BFLY_CACHE_DIR="$scratch/serve-cache" exec _build/default/bin/bfly_tool.exe \
      serve --tcp 127.0.0.1:0 --port-file "$port_file" --metrics
  ) > "$scratch/serve-low.json" 2> "$scratch/serve-low.log" &
  serve_pid=$!
  i=0
  while [ ! -s "$port_file" ] && [ "$i" -lt 100 ]; do
    sleep 0.1
    i=$((i + 1))
  done
  [ -s "$port_file" ] || {
    echo "FAIL: serve --tcp under ulimit -n 24 never wrote its port file" >&2
    cat "$scratch/serve-low.log" >&2
    exit 1
  }
  BFLY_CACHE_DIR="$scratch/serve-cache" dune exec -- bin/bfly_tool.exe \
    loadgen --trace "$LOADGEN_TRACE" --seed 2 --clients 48 --repeat 8 \
    --qps 200 --connect "tcp:$(cat "$port_file")" --compare "$scratch/lg-seq-48.json" \
    --no-timing > /dev/null || {
    echo "FAIL: 48 clients against a server out of descriptors drifted from the sequential replay" >&2
    cat "$scratch/serve-low.log" >&2
    exit 1
  }
  kill -TERM "$serve_pid"
  wait "$serve_pid" || {
    echo "FAIL: serve --tcp under ulimit -n 24 did not drain cleanly on SIGTERM" >&2
    cat "$scratch/serve-low.log" >&2
    exit 1
  }
  paused=$(extract serve.accept_paused "$scratch/serve-low.json")
  [ "${paused:-0}" -ge 1 ] || {
    echo "FAIL: 48 clients never ran the server under ulimit -n 24 out of descriptors" >&2
    exit 1
  }
  echo "serve: coalescing, byte-identity, CLI/serve parity, wide-line screening, admission control, TCP drain and descriptor exhaustion OK"
}

# Deterministic load replay and the latency regression gate. Three parts:
# the committed baseline's deterministic fields (schedule and output
# fingerprints) must be reproducible on any machine; a self-recorded
# baseline must gate p99/throughput within the slack factor on this
# machine; and when the box has enough cores, concurrent serving must
# actually outrun the sequential replay.
stage_loadgen() {
  [ -f "$LOADGEN_BASELINE" ] || {
    echo "FAIL: committed baseline $LOADGEN_BASELINE is missing" >&2
    exit 1
  }
  # cross-machine deterministic gate against the committed document
  BFLY_CACHE_DIR="$scratch/lg-cache" dune exec -- bin/bfly_tool.exe \
    loadgen --trace "$LOADGEN_TRACE" --seed 1 --clients 4 --repeat 10 \
    --compare "$LOADGEN_BASELINE" --no-timing > /dev/null
  # data-center mix: the fabric-job trace (ml/exact/spectral on meshes,
  # tori, bcubes, plus malformed-request probes) against its own
  # committed baseline — deterministic fields only, cross-machine
  [ -f "$LOADGEN_DC_BASELINE" ] || {
    echo "FAIL: committed baseline $LOADGEN_DC_BASELINE is missing" >&2
    exit 1
  }
  BFLY_CACHE_DIR="$scratch/lg-dc-cache" dune exec -- bin/bfly_tool.exe \
    loadgen --trace "$LOADGEN_DC_TRACE" --seed 1 --clients 4 --repeat 10 \
    --compare "$LOADGEN_DC_BASELINE" --no-timing > /dev/null
  # same-machine latency gate: record, re-run, compare with slack — this
  # is the stage that fails on an injected p99/throughput regression.
  # 1,200 requests, so each p99 rests on 12 samples beyond it (at
  # --repeat 10 it was the 2nd-largest of 120, and failed 1 run in 4 at
  # equal code)
  BFLY_CACHE_DIR="$scratch/lg-cache" dune exec -- bin/bfly_tool.exe \
    loadgen --trace "$LOADGEN_TRACE" --seed 1 --clients 4 --repeat 100 \
    --json "$scratch/lg-here.json" > /dev/null
  BFLY_CACHE_DIR="$scratch/lg-cache" dune exec -- bin/bfly_tool.exe \
    loadgen --trace "$LOADGEN_TRACE" --seed 1 --clients 4 --repeat 100 \
    --compare "$scratch/lg-here.json" --slack 5 > /dev/null
  # concurrency speedup: 4 workers vs the 1-domain sequential replay,
  # cold caches both sides. Only meaningful with real cores to spread
  # over, so it is guarded — laptops and 1-core runners skip it.
  cores=$(nproc 2>/dev/null || echo 1)
  if [ "$cores" -ge 4 ]; then
    BFLY_DOMAINS=1 dune exec -- bin/bfly_tool.exe loadgen \
      --trace "$LOADGEN_TRACE" --seed 3 --clients 4 --repeat 3 \
      --sequential --no-cache --json "$scratch/lg-1.json" > /dev/null
    BFLY_DOMAINS=4 dune exec -- bin/bfly_tool.exe loadgen \
      --trace "$LOADGEN_TRACE" --seed 3 --clients 4 --repeat 3 \
      --workers 4 --no-cache --json "$scratch/lg-4.json" > /dev/null
    seq_qps=$(sed -n 's/.*"achieved_qps":\([0-9.]*\).*/\1/p' "$scratch/lg-1.json" | head -n 1)
    conc_qps=$(sed -n 's/.*"achieved_qps":\([0-9.]*\).*/\1/p' "$scratch/lg-4.json" | head -n 1)
    echo "sequential $seq_qps qps; 4-worker concurrent $conc_qps qps"
    awk "BEGIN { exit !($conc_qps >= 2 * $seq_qps) }" || {
      echo "FAIL: 4 workers did not reach 2x the sequential throughput" >&2
      exit 1
    }
  else
    echo "skipping speedup check ($cores cores < 4)"
  fi
  echo "loadgen: deterministic replay and latency gate OK"
}

# Campaign smoke: replay a small sub-grid of the committed full campaign
# at one domain with a fresh cache. The determinism contract makes the
# sub-grid's per-instance [edges, certified LB, ml, spectral] rows
# byte-comparable against the committed document (--compare exits
# non-zero on any drift), and the per-instance statistical oracle must
# stay green. The JSON lands in _build/ so the workflow can upload it as
# a per-compiler artifact.
stage_campaign() {
  [ -f "$CAMPAIGN_BASELINE" ] || {
    echo "FAIL: committed baseline $CAMPAIGN_BASELINE is missing" >&2
    exit 1
  }
  mkdir -p _build
  BFLY_DOMAINS=1 BFLY_CACHE_DIR="$scratch/campaign-cache" dune exec -- \
    bin/bfly_tool.exe campaign --degree 3 --sizes 64,128 --seeds 3 \
    --json _build/campaign_smoke.json --compare "$CAMPAIGN_BASELINE"
}

# Warm-cache determinism: run the bench smoke suite twice against a fresh
# result-cache directory. The second (warm) run must serve from the cache
# — nonzero cache.hit, zero exact B&B search nodes in the gate snapshot —
# and both runs must produce byte-identical measured values.
stage_warm() {
  BFLY_CACHE_DIR="$scratch/cache" dune exec -- bench/main.exe --smoke \
    --json "$scratch/cold.json" --values "$scratch/cold-values.json" \
    > "$scratch/cold.log"
  BFLY_CACHE_DIR="$scratch/cache" dune exec -- bench/main.exe --smoke \
    --json "$scratch/warm.json" --values "$scratch/warm-values.json" \
    > "$scratch/warm.log"

  cmp "$scratch/cold-values.json" "$scratch/warm-values.json" || {
    echo "FAIL: warm-cache run changed measured values" >&2
    exit 1
  }

  cold_nodes=$(extract 'exact.bb.nodes' "$scratch/cold.json")
  warm_nodes=$(extract 'exact.bb.nodes' "$scratch/warm.json")
  warm_hits=$(extract 'cache.hit' "$scratch/warm.json")
  warm_misses=$(extract 'cache.miss' "$scratch/warm.json")
  echo "cold: bb nodes $cold_nodes; warm: bb nodes $warm_nodes," \
    "cache hits $warm_hits, misses $warm_misses"
  [ "$cold_nodes" -gt 0 ] || {
    echo "FAIL: cold run did not search (bb nodes = $cold_nodes)" >&2
    exit 1
  }
  [ "$warm_hits" -gt 0 ] || {
    echo "FAIL: warm run had no cache hits" >&2
    exit 1
  }
  [ "$warm_nodes" -eq 0 ] || {
    echo "FAIL: warm run re-searched (bb nodes = $warm_nodes)" >&2
    exit 1
  }

  # CLI hit probe: the second of two identical runs against one fresh
  # store is exactly one verified hit — one cache.hit, one verify-on-hit
  # recount (cuts.kernel.recounts; the answer's own validation recounts
  # through Reference, which counts nothing), no verify failure — and
  # prints the first run's answer
  for run in cold warm; do
    BFLY_CACHE_DIR="$scratch/cli-cache" dune exec -- bin/bfly_tool.exe \
      bw ml butterfly 8 --metrics > "$scratch/cli-$run.txt"
  done
  [ "$(head -n 1 "$scratch/cli-cold.txt")" = "$(head -n 1 "$scratch/cli-warm.txt")" ] || {
    echo "FAIL: warm CLI answer differs from the cold one" >&2
    exit 1
  }
  cli_hits=$(extract 'cache.hit' "$scratch/cli-warm.txt")
  cli_recounts=$(extract 'cuts.kernel.recounts' "$scratch/cli-warm.txt")
  cli_fails=$(extract 'cache.verify_fail' "$scratch/cli-warm.txt")
  echo "warm CLI hit: $(head -n 1 "$scratch/cli-warm.txt") —" \
    "cache.hit $cli_hits, cuts.kernel.recounts $cli_recounts," \
    "cache.verify_fail $cli_fails"
  [ "$cli_hits" = 1 ] && [ "$cli_recounts" = 1 ] && [ "$cli_fails" = 0 ] || {
    echo "FAIL: a warm CLI answer must be one verified hit" \
      "(want cache.hit 1, cuts.kernel.recounts 1, cache.verify_fail 0)" >&2
    exit 1
  }
}

# Deadline/resume determinism: an exact search interrupted by a step
# budget must return a certified interval, and resuming from its
# checkpoint must land on the same value an uninterrupted run computes.
stage_resume() {
  baseline=$(BFLY_CACHE_DIR="$scratch/exact-a" dune exec -- \
    bin/bfly_tool.exe bw exact butterfly 8)
  baseline_bw=${baseline##* = }
  echo "baseline: $baseline"

  first=$(BFLY_CACHE_DIR="$scratch/exact-b" dune exec -- \
    bin/bfly_tool.exe bw exact butterfly 8 --max-nodes 200)
  echo "budgeted: $first"
  case $first in
  *"BW in ["*)
    resumed=$(BFLY_CACHE_DIR="$scratch/exact-b" dune exec -- \
      bin/bfly_tool.exe bw exact butterfly 8 --resume)
    echo "resumed:  $resumed"
    resumed_bw=${resumed##* = }
    [ "$resumed_bw" = "$baseline_bw" ] || {
      echo "FAIL: resumed value '$resumed_bw' != baseline '$baseline_bw'" >&2
      exit 1
    }
    ;;
  *"BW = $baseline_bw"*)
    # the budget sufficed outright; the determinism claim is trivially met
    echo "budgeted run completed within budget"
    ;;
  *)
    echo "FAIL: unexpected budgeted output '$first'" >&2
    exit 1
    ;;
  esac
}

# Counter-based regression gate: re-run the deterministic bench stages
# (full reproduction tables + oracle battery, no Bechamel) and diff
# experiment outputs, gate counters and the oracle summary against the
# committed baseline. The domain count and cache state are pinned because
# both feed the compared counters.
stage_compare() {
  [ -f "$BASELINE" ] || {
    echo "FAIL: committed baseline $BASELINE is missing" >&2
    exit 1
  }
  BFLY_DOMAINS=1 BFLY_CACHE_DIR="$scratch/compare-cache" dune exec -- \
    bench/main.exe --compare "$BASELINE" > "$scratch/compare.log" || {
    tail -n 20 "$scratch/compare.log" >&2
    exit 1
  }
  tail -n 1 "$scratch/compare.log"
}

# ---- driver ----

case "${1-}" in
list)
  echo "$ALL_STAGES"
  exit 0
  ;;
esac

stages="$*"
[ -n "$stages" ] || stages=$ALL_STAGES
for s in $stages; do
  case " $ALL_STAGES " in
  *" $s "*) ;;
  *)
    echo "unknown stage '$s' (available: $ALL_STAGES)" >&2
    exit 2
    ;;
  esac
done

summary=""
for s in $stages; do
  echo "== $s =="
  t0=$(date +%s)
  "stage_$(printf '%s' "$s" | tr - _)"
  t1=$(date +%s)
  summary="$summary$(printf '  %-14s %4ds' "$s" $((t1 - t0)))
"
  # Under GitHub Actions, accumulate the same timings as one markdown
  # table in the job summary. The workflow runs one stage per step, each
  # a fresh ci.sh process, so the header is written only when the
  # summary file is still empty — later steps append bare rows and the
  # table joins up across steps.
  if [ -n "${GITHUB_STEP_SUMMARY-}" ]; then
    if [ ! -s "$GITHUB_STEP_SUMMARY" ]; then
      printf '| stage | wall |\n| --- | ---: |\n' >> "$GITHUB_STEP_SUMMARY"
    fi
    printf '| %s | %ss |\n' "$s" $((t1 - t0)) >> "$GITHUB_STEP_SUMMARY"
  fi
done

echo "---- stage timings ----"
printf '%s' "$summary"
echo "CI OK"
