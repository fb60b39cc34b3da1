#!/usr/bin/env bash
# Tier-1 verification: configure, build and run the tier-1 test suite
# (`ctest -L tier1`), first plain, then under AddressSanitizer + UBSan
# (the copy-on-write instance stores and the union-find value layer make
# ASan coverage non-optional: an aliasing bug between a branch and its
# snapshot — stores or resolver — is exactly what it catches), then the
# `parallel`-labeled tests under ThreadSanitizer (TSan and ASan cannot
# share a build tree, so the TSan pass builds only the concurrency
# tests in its own tree and runs just that label). The ASan suite runs
# once, over the library's one executor (compiled plans on the match VM,
# which the chase, the solvers, Satisfies*, queries, implication and
# Datalog all run on) and over the test-only reference interpreter
# (tests/reference_matcher.h) through which the restricted-chase trace
# checker replays the chase's journals.
# The TSan suite runs once: it sanitizes the chase's one pooled tgd collect,
# the pooled egd slot collect, the solution-aware chase's pooled collect
# and both paths of Figure 3's pooled step 3 (head probes by trigger, and
# the block checks a Σ_ts frontier null falls back to).
#
# The plain pass is followed by two perf smoke gates (`bench_chase
# --quick`: a restricted-chase trace check of pipeline_n512 and
# egd_heavy_n2048 plus conservative throughput floors on both;
# `bench_stream
# --quick`: incremental ±Δ re-solve vs full re-chase at 10% churn,
# fingerprint-cross-checked with a conservative speedup floor) and a
# pdxcli smoke stage: check/chase/solve on
# the shipped Example 1 setting with --metrics-out/--trace-out, failing on
# malformed exporter output, on a chase or ctract solve whose output
# differs between 1 and 8 threads, on a generic solve of Section 4(a)'s
# setting (data/egd_boundary*) with the wrong verdict or whose output
# differs between 1 and 8 threads, or on a flag pdxcli should reject but
# accepts, plus a
# -DPDX_OBS_NOOP=ON build gate proving
# the library and CLI still compile with the observability layer stubbed
# out (the stubs are all-inline, so nothing short of building exercises
# them).
#
# Also available as a build target: `cmake --build build --target check`.
#
# Usage: tools/check.sh [--plain-only|--smoke-only|--sanitize-only|--tsan-only]
set -euo pipefail

cd "$(dirname "$0")/.."

mode="${1:-all}"
jobs="$(nproc 2>/dev/null || echo 4)"

run_suite() {
  local build_dir="$1"; shift
  cmake -B "$build_dir" -S . "$@"
  cmake --build "$build_dir" -j "$jobs"
  ctest --test-dir "$build_dir" -L tier1 --output-on-failure -j "$jobs" \
    --timeout 600
}

if [[ "$mode" == "all" || "$mode" == "--plain-only" ]]; then
  echo "== plain build =="
  run_suite build
fi

if [[ "$mode" == "all" || "$mode" == "--smoke-only" ]]; then
  echo "== pdxcli smoke (exporters) =="
  cmake -B build -S .
  cmake --build build -j "$jobs" --target pdxcli
  smoke_dir="$(mktemp -d)"
  trap 'rm -rf "$smoke_dir"' EXIT

  ./build/tools/pdxcli check --setting data/example1.pdx \
    --metrics-out "$smoke_dir/check.prom" >/dev/null
  ./build/tools/pdxcli chase --setting data/example1.pdx \
    --source data/example1_path.facts --threads 2 \
    --metrics-out "$smoke_dir/chase.prom" \
    --trace-out "$smoke_dir/chase.trace.json" >/dev/null
  ./build/tools/pdxcli solve --setting data/example1.pdx \
    --source data/example1_path.facts --threads 2 \
    --metrics-out "$smoke_dir/solve.prom" \
    --trace-out "$smoke_dir/solve.trace.json" >/dev/null

  # The Prometheus files must contain TYPE'd samples and the chase run must
  # have moved the chase counters; the traces must be valid JSON with a
  # traceEvents array.
  for prom in check chase solve; do
    grep -q '^# TYPE pdx_' "$smoke_dir/$prom.prom" ||
      { echo "smoke: $prom.prom has no # TYPE lines" >&2; exit 1; }
  done
  grep -q '^pdx_chase_steps_total [1-9]' "$smoke_dir/chase.prom" ||
    { echo "smoke: chase.prom did not count chase steps" >&2; exit 1; }
  for trace in chase solve; do
    grep -q '"traceEvents"' "$smoke_dir/$trace.trace.json" ||
      { echo "smoke: $trace.trace.json has no traceEvents" >&2; exit 1; }
    if command -v python3 >/dev/null 2>&1; then
      python3 -m json.tool "$smoke_dir/$trace.trace.json" >/dev/null ||
        { echo "smoke: $trace.trace.json is not valid JSON" >&2; exit 1; }
    fi
  done

  # The chase and the Figure 3 solver (ctract) print the same output, null
  # ids included, at every thread count. The genomics target decides
  # Figure 3 by trigger; genomics_target_nulls puts a null at a Σ_ts
  # frontier, so it takes the block decomposition.
  for threads in 1 8; do
    ./build/tools/pdxcli chase --setting data/genomics.pdx \
      --source data/genomics_source.facts --threads "$threads" \
      >"$smoke_dir/chase_t$threads.txt"
    ./build/tools/pdxcli solve --solver ctract --setting data/genomics.pdx \
      --source data/genomics_source.facts \
      --target data/genomics_target.facts --threads "$threads" \
      >"$smoke_dir/solve_t$threads.txt"
    ./build/tools/pdxcli solve --solver ctract --setting data/genomics.pdx \
      --source data/genomics_source.facts \
      --target data/genomics_target_nulls.facts --threads "$threads" \
      >"$smoke_dir/solve_nulls_t$threads.txt"
  done
  cmp -s "$smoke_dir/chase_t1.txt" "$smoke_dir/chase_t8.txt" ||
    { echo "smoke: chase output differs between 1 and 8 threads" >&2
      exit 1; }
  cmp -s "$smoke_dir/solve_t1.txt" "$smoke_dir/solve_t8.txt" ||
    { echo "smoke: solve output differs between 1 and 8 threads" >&2
      exit 1; }
  cmp -s "$smoke_dir/solve_nulls_t1.txt" "$smoke_dir/solve_nulls_t8.txt" ||
    { echo "smoke: solve output on a target with frontier nulls differs" \
        "between 1 and 8 threads" >&2
      exit 1; }

  # The generic search on Section 4(a)'s setting (CLIQUE with k = 3 through
  # target egds) answers by the graph: the 4-node path has no triangle, K3
  # is one. Its output, witness included, is the same at every thread
  # count.
  for graph in path4 k3; do
    for threads in 1 8; do
      ./build/tools/pdxcli solve --solver generic \
        --setting data/egd_boundary.pdx \
        --source "data/egd_boundary_$graph.facts" --threads "$threads" \
        >"$smoke_dir/generic_${graph}_t$threads.txt"
    done
    cmp -s "$smoke_dir/generic_${graph}_t1.txt" \
      "$smoke_dir/generic_${graph}_t8.txt" ||
      { echo "smoke: generic solve on $graph differs between 1 and 8" \
          "threads" >&2
        exit 1; }
  done
  grep -q '^no solution$' "$smoke_dir/generic_path4_t1.txt" ||
    { echo "smoke: the 4-node path must have no solution" >&2; exit 1; }
  grep -q '^solution (' "$smoke_dir/generic_k3_t1.txt" ||
    { echo "smoke: K3 must have a solution" >&2; exit 1; }

  # pdxcli rejects what it does not read: a flag its command does not
  # take, and a --threads value that is not a non-negative integer, both
  # exit 2 instead of being ignored or read as 0 (all cores).
  for bad in "--schedule speculative" "--threads x"; do
    rc=0
    # $bad is a flag and its value: split on purpose.
    # shellcheck disable=SC2086
    ./build/tools/pdxcli chase --setting data/example1.pdx \
      --source data/example1_path.facts $bad >/dev/null 2>&1 || rc=$?
    [[ "$rc" == 2 ]] ||
      { echo "smoke: pdxcli chase $bad exited $rc, want 2" >&2; exit 1; }
  done

  echo "== perf smoke gate (bench_chase --quick) =="
  cmake --build build -j "$jobs" --target bench_chase
  # Replays a journaled chase of pipeline_n512 through the restricted-
  # chase trace checker and fails if VM throughput drops below a
  # conservative facts/sec floor; then trace-checks egd_heavy_n2048, runs
  # it at 1 thread against a pooled run (same steps and fingerprint) and
  # fails below a merges/sec floor, which the quadratic find-one-then-rescan egd loop could not
  # reach — a regression tripwire, not a benchmark (full numbers live in
  # BENCH_chase.json).
  ./build/bench/bench_chase --quick

  echo "== streaming smoke gate (bench_stream --quick) =="
  cmake --build build -j "$jobs" --target bench_stream
  # Replays a 10% churn stream into ResumeWithDeltas and a from-scratch
  # chase per batch, cross-checked for identical canonicalized
  # fingerprints, and fails if the incremental path is not comfortably
  # faster — a regression tripwire for deletion propagation (full numbers
  # live in BENCH_stream.json).
  ./build/bench/bench_stream --quick

  echo "== pdxd smoke (serving daemon) =="
  cmake --build build -j "$jobs" --target pdxd pdxctl bench_serve
  sock="$smoke_dir/pdxd.sock"
  msock="$smoke_dir/pdxd_metrics.sock"
  ./build/tools/pdxd --listen "unix:$sock" --metrics "unix:$msock" \
    --threads 4 >"$smoke_dir/pdxd.log" 2>&1 &
  pdxd_pid=$!
  trap 'kill "$pdxd_pid" 2>/dev/null || true; rm -rf "$smoke_dir"' EXIT
  for _ in $(seq 1 100); do [[ -S "$sock" ]] && break; sleep 0.1; done
  [[ -S "$sock" ]] ||
    { echo "smoke: pdxd did not come up" >&2; cat "$smoke_dir/pdxd.log" >&2
      exit 1; }

  # Scripted request mix: every pdxctl call exits nonzero on an ok=false
  # response, so under `set -e` each line is an assertion.
  ./build/tools/pdxctl call --addr "unix:$sock" \
    --json '{"verb":"ping"}' >/dev/null
  ./build/tools/pdxctl load --addr "unix:$sock" \
    --setting data/example1.pdx \
    --facts data/example1_triangle.facts >"$smoke_dir/load.json"
  tenant="$(grep -o '"tenant":"[0-9a-f]\{16\}"' "$smoke_dir/load.json" |
    head -1 | cut -d'"' -f4)"
  [[ -n "$tenant" ]] ||
    { echo "smoke: load response has no tenant id" >&2; exit 1; }
  # A disjoint edge keeps the instance transitively closed, so a solution
  # still exists after the write (E(c,a) would close the a->c->a cycle
  # and force the unjustified H(a,a)).
  ./build/tools/pdxctl call --addr "unix:$sock" --json \
    '{"verb":"write","tenant":"'"$tenant"'","facts":"E(d,e)."}' >/dev/null
  ./build/tools/pdxctl call --addr "unix:$sock" --json \
    '{"verb":"exists","tenant":"'"$tenant"'"}' |
    grep -q '"exists":true' ||
    { echo "smoke: triangle must have a solution" >&2; exit 1; }
  ./build/tools/pdxctl call --addr "unix:$sock" --json \
    '{"verb":"certain","tenant":"'"$tenant"'","query":"q(x,y) :- H(x,y)."}' \
    >/dev/null
  ./build/tools/pdxctl call --addr "unix:$sock" --json \
    '{"verb":"contains","tenant":"'"$tenant"'","facts":"H(a,c)."}' |
    grep -q '"contains":true' ||
    { echo "smoke: H(a,c) must be in the canonical instance" >&2; exit 1; }
  # Retraction round-trip: the disjoint edge leaves, its retraction is a
  # generation bump, and the fact is gone from the canonical instance
  # (the triangle — and hence existence — is untouched).
  ./build/tools/pdxctl call --addr "unix:$sock" --json \
    '{"verb":"retract","tenant":"'"$tenant"'","facts":"E(d,e)."}' >/dev/null
  ./build/tools/pdxctl call --addr "unix:$sock" --json \
    '{"verb":"contains","tenant":"'"$tenant"'","facts":"E(d,e)."}' |
    grep -q '"contains":false' ||
    { echo "smoke: retracted E(d,e) must leave the instance" >&2; exit 1; }
  ./build/tools/pdxctl call --addr "unix:$sock" --json \
    '{"verb":"exists","tenant":"'"$tenant"'"}' |
    grep -q '"exists":true' ||
    { echo "smoke: retraction must not break the triangle's solution" >&2
      exit 1; }
  ./build/tools/pdxctl call --addr "unix:$sock" \
    --json '{"verb":"stats"}' >/dev/null
  # Malformed input must come back as a clean error response (pdxctl
  # exits 1 on ok=false, so invert).
  ! ./build/tools/pdxctl call --addr "unix:$sock" \
    --json '{"verb":"frobnicate"}' >/dev/null ||
    { echo "smoke: unknown verb must be rejected" >&2; exit 1; }

  # The /metrics endpoint must serve Prometheus 0.0.4 text with the
  # pdx_serve_* families populated by the mix above.
  ./build/tools/pdxctl scrape --addr "unix:$msock" >"$smoke_dir/pdxd.prom"
  grep -q '^# TYPE pdx_serve_requests_total counter' "$smoke_dir/pdxd.prom" ||
    { echo "smoke: pdxd.prom has no serve counter TYPE line" >&2; exit 1; }
  grep -q '^pdx_serve_write_requests_total [1-9]' "$smoke_dir/pdxd.prom" ||
    { echo "smoke: pdxd.prom did not count writes" >&2; exit 1; }
  grep -q '^pdx_serve_retract_requests_total [1-9]' "$smoke_dir/pdxd.prom" ||
    { echo "smoke: pdxd.prom did not count retractions" >&2; exit 1; }
  grep -q 'pdx_serve_latency_micros_write_bucket{le="+Inf"}' \
    "$smoke_dir/pdxd.prom" ||
    { echo "smoke: pdxd.prom has no write latency histogram" >&2; exit 1; }

  # Graceful drain: the shutdown verb answers first, then the daemon
  # exits 0 on its own — with a timeout guard so a hung drain fails loudly.
  ./build/tools/pdxctl call --addr "unix:$sock" \
    --json '{"verb":"shutdown"}' | grep -q '"draining":true' ||
    { echo "smoke: shutdown did not acknowledge" >&2; exit 1; }
  for _ in $(seq 1 100); do
    kill -0 "$pdxd_pid" 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 "$pdxd_pid" 2>/dev/null; then
    echo "smoke: pdxd did not drain within 10s" >&2
    kill -9 "$pdxd_pid"
    exit 1
  fi
  wait "$pdxd_pid" ||
    { echo "smoke: pdxd exited nonzero" >&2
      cat "$smoke_dir/pdxd.log" >&2; exit 1; }
  trap 'rm -rf "$smoke_dir"' EXIT

  echo "== serve smoke gate (bench_serve --quick) =="
  # In-process daemon + concurrent socket clients: fails on any error
  # response or if a frozen-writer burst fails to coalesce into fewer
  # chase rounds than writes.
  ./build/bench/bench_serve --quick

  echo "== PDX_OBS_NOOP build gate =="
  cmake -B build-noop -S . -DPDX_OBS_NOOP=ON
  cmake --build build-noop -j "$jobs" --target pdx pdxcli
  # The stubbed CLI must still run; its exporters emit empty documents.
  ./build-noop/tools/pdxcli check --setting data/example1.pdx \
    --metrics-out "$smoke_dir/noop.prom" >/dev/null
fi

if [[ "$mode" == "all" || "$mode" == "--sanitize-only" ]]; then
  echo "== address+undefined sanitizer build =="
  run_suite build-asan "-DPDX_SANITIZE=address;undefined" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
fi

if [[ "$mode" == "all" || "$mode" == "--tsan-only" ]]; then
  echo "== thread sanitizer build (parallel tests) =="
  cmake -B build-tsan -S . -DPDX_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan -j "$jobs" \
    --target thread_pool_test chase_parallel_test ctract_solver_test \
    fuzz_test generic_solver_test obs_test serve_test \
    solution_aware_chase_test stream_test flat_index_test
  # One pass: the chase's pooled tgd collect (workers probe heads and build
  # head rows), the pooled egd slot collect (also run per search node by
  # generic_solver_test), the solution-aware chase's pooled collect
  # (solution_aware_chase_test) and both paths of Figure 3's pooled step 3
  # (ctract_solver_test: head probes by trigger, and the block checks a
  # frontier null falls back to) run concurrently; every apply is
  # sequential.
  # flat_index_test races first probes of a shared store's lazy index
  # against a clone of that store.
  ctest --test-dir build-tsan -L parallel \
    --output-on-failure -j "$jobs" --timeout 600
fi

echo "check.sh: all suites passed"
