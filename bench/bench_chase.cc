// Chase bench: runs the delta-driven restricted chase (union-find egd
// merges in the value layer) over a set of workloads and writes the
// results as machine-readable JSON (BENCH_chase.json) so they are
// trackable across commits.
//
// Per workload it reports wall time (best of `kRepeats`), chase steps,
// resolved result facts, and derived facts per second. Every workload is
// also chased once more, outside the timed repeats, with a firing journal
// attached, and the restricted-chase trace checker
// (tests/chase_trace_check.h) replays that journal: a run doubles as a
// correctness gate. The egd_heavy workloads stress the union-find value
// layer: every invented null is merged by a key egd, so the chase pays one
// union plus re-examination of the dirty tuples per merge.
//
// A second axis (thread_scaling) runs the chase at 1/2/4/8 threads, each
// point reported against the 1-thread sequential run and checked to
// produce the same raw fingerprint and step count.
//
// Usage: bench_chase [output.json]   (default BENCH_chase.json in cwd)
//        bench_chase --quick         (perf smoke gate: pipeline_n512 and
//                                     egd_heavy_n2048, each trace-checked;
//                                     the latter at 1 thread vs a pooled
//                                     run; exits nonzero if either falls
//                                     below its conservative floor or the
//                                     runs disagree)

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "chase/chase.h"
#include "chase/journal.h"
#include "logic/parser.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "tests/chase_trace_check.h"
#include "workload/random.h"

namespace pdx {
namespace {

constexpr int kRepeats = 5;

struct RunStats {
  double wall_ms = 0;
  int64_t steps = 0;
  int64_t egd_merges = 0;  // successful unions; -1 when metrics are off
  int64_t result_facts = 0;
  double facts_per_sec = 0;
  uint64_t fingerprint = 0;
};

struct WorkloadResult {
  std::string name;
  int64_t input_facts = 0;
  RunStats stats;
};

// One num_threads point of the thread-scaling dimension.
struct ThreadPoint {
  int threads = 0;
  double wall_ms = 0;
  int64_t steps = 0;
  double speedup_vs_1t = 0;
};

struct ThreadScalingResult {
  std::string name;
  int64_t input_facts = 0;
  std::vector<ThreadPoint> points;
};

struct BenchContext {
  Schema schema;
  SymbolTable symbols;
  std::vector<Tgd> pipeline_tgds;
  std::vector<Tgd> existential_tgds;
  std::vector<Egd> key_egds;
  std::vector<Tgd> egd_heavy_tgds;
  std::vector<Egd> egd_heavy_egds;

  BenchContext() {
    PDX_CHECK(schema.AddRelation("E", 2).ok());
    PDX_CHECK(schema.AddRelation("H", 2).ok());
    PDX_CHECK(schema.AddRelation("F", 2).ok());
    auto deps = ParseDependencies(
        "E(x,z) & E(z,y) -> H(x,y)."
        "H(x,y) -> exists w: F(y,w).",
        schema, &symbols);
    PDX_CHECK(deps.ok());
    pipeline_tgds = std::move(deps).value().tgds;
    auto deps_ex = ParseDependencies("E(x,y) -> exists z: H(x,z). "
                                     "H(x,y) -> exists w: F(y,w).",
                                     schema, &symbols);
    PDX_CHECK(deps_ex.ok());
    existential_tgds = std::move(deps_ex).value().tgds;
    auto deps2 =
        ParseDependencies("H(x,y) & H(x,z) -> y = z.", schema, &symbols);
    PDX_CHECK(deps2.ok());
    key_egds = std::move(deps2).value().egds;
    // Egd-heavy: the existential shared across the two head atoms forces
    // one fresh null per E-edge (no single H-fact can satisfy two edges'
    // triggers), and the two key egds then merge them in cascades — an
    // H-merge on x dirties the F-facts of x's neighbors and vice versa —
    // until each connected component keeps one null. Nearly every chase
    // step is a merge.
    auto deps3 = ParseDependencies(
        "E(x,y) -> exists z: H(x,z) & F(y,z).", schema, &symbols);
    PDX_CHECK(deps3.ok());
    egd_heavy_tgds = std::move(deps3).value().tgds;
    auto deps4 = ParseDependencies(
        "H(x,y) & H(x,z) -> y = z. F(x,y) & F(x,z) -> y = z.", schema,
        &symbols);
    PDX_CHECK(deps4.ok());
    egd_heavy_egds = std::move(deps4).value().egds;
  }

  // A random E-graph with `n` nodes and ~`edges_per_node * n` edges.
  Instance RandomEdges(int n, int edges_per_node, uint64_t seed) {
    Rng rng(seed);
    Instance instance(&schema);
    for (int i = 0; i < edges_per_node * n; ++i) {
      Value u =
          symbols.InternConstant("n" + std::to_string(rng.UniformInt(n)));
      Value v =
          symbols.InternConstant("n" + std::to_string(rng.UniformInt(n)));
      instance.AddFact(0, {u, v});
    }
    return instance;
  }
};

RunStats RunOne(SymbolTable* symbols, const Instance& start,
                const std::vector<Tgd>& tgds, const std::vector<Egd>& egds,
                int num_threads = 1) {
  ChaseOptions options;
  options.num_threads = num_threads;
  options.max_steps = 10'000'000;
  RunStats stats;
  // The metrics registry is the authoritative step count: the JSON below
  // reports the registry delta of pdx_chase_steps_total around each run,
  // pinned equal to the engine's own count, so BENCH_chase.json and a
  // --metrics-out dump can never disagree. (A PDX_OBS_NOOP build has no
  // registry and falls back to the engine's count.)
  static obs::Counter chase_steps =
      obs::MetricsRegistry::Global().GetCounter("pdx_chase_steps_total");
  static obs::Counter egd_merges =
      obs::MetricsRegistry::Global().GetCounter("pdx_chase_egd_merges_total");
  for (int rep = 0; rep < kRepeats; ++rep) {
    int64_t steps_before = chase_steps.Value();
    int64_t merges_before = egd_merges.Value();
    auto t0 = std::chrono::steady_clock::now();
    ChaseResult result = Chase(start, tgds, egds, symbols, options);
    auto t1 = std::chrono::steady_clock::now();
    PDX_CHECK(result.outcome == ChaseOutcome::kSuccess);
    double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (rep == 0 || ms < stats.wall_ms) stats.wall_ms = ms;
#ifndef PDX_OBS_NOOP
    stats.steps = chase_steps.Value() - steps_before;
    PDX_CHECK(stats.steps == result.steps)
        << "registry steps diverged from ChaseResult::steps";
    stats.egd_merges = egd_merges.Value() - merges_before;
#else
    (void)steps_before;
    (void)merges_before;
    stats.steps = result.steps;
    stats.egd_merges = -1;  // no registry, and steps also count tgd steps
#endif
    // Resolved counts/fingerprints: the view a materialized result would
    // have, whatever merges the raw stores still carry.
    stats.result_facts =
        static_cast<int64_t>(result.instance.ResolvedFactCount());
    if (rep == 0) stats.fingerprint = result.instance.CanonicalFingerprint();
  }
  // Throughput in derived facts (result minus input) per second.
  double derived =
      static_cast<double>(stats.result_facts) -
      static_cast<double>(start.fact_count());
  stats.facts_per_sec =
      stats.wall_ms > 0 ? derived / (stats.wall_ms / 1000.0) : 0;
  return stats;
}

// Chases `start` once with a firing journal attached, untimed, and aborts
// unless the restricted-chase trace checker accepts the run. Called before
// a workload's timed repeats, so it also warms the plan cache.
void CheckTrace(SymbolTable* symbols, const std::string& name,
                const Instance& start, const std::vector<Tgd>& tgds,
                const std::vector<Egd>& egds) {
  ChaseJournal journal;
  ChaseOptions options;
  options.num_threads = 1;
  options.max_steps = 10'000'000;
  options.journal = &journal;
  ChaseResult result = Chase(start, tgds, egds, symbols, options);
  Status trace = testing_util::CheckChaseTrace(
      start, tgds, egds, options.max_steps, result, journal);
  PDX_CHECK(trace.ok()) << "trace check failed on workload " << name << ": "
                        << trace.ToString();
}

WorkloadResult RunWorkload(BenchContext& ctx, const std::string& name,
                           const Instance& start,
                           const std::vector<Tgd>& tgds,
                           const std::vector<Egd>& egds) {
  WorkloadResult result;
  result.name = name;
  result.input_facts = static_cast<int64_t>(start.fact_count());
  CheckTrace(&ctx.symbols, name, start, tgds, egds);
  result.stats = RunOne(&ctx.symbols, start, tgds, egds);
  std::fprintf(stderr, "%-24s %9.2f ms (%6lld steps), trace checked\n",
               name.c_str(), result.stats.wall_ms,
               static_cast<long long>(result.stats.steps));
  return result;
}

// The thread-scaling dimension: the same workload at 1/2/4/8 worker
// threads, trace-checked once. Every point's speedup is against the
// 1-thread sequential run, and every point is cross-checked against it
// for an identical raw fingerprint and step count — the pool must change
// wall time only. The egd fixpoint runs the same batched passes at every
// thread count; the pool only fans out their collect half.
ThreadScalingResult RunThreadScaling(SymbolTable* symbols,
                                     const std::string& name,
                                     const Instance& start,
                                     const std::vector<Tgd>& tgds,
                                     const std::vector<Egd>& egds) {
  ThreadScalingResult result;
  result.name = name;
  result.input_facts = static_cast<int64_t>(start.fact_count());
  CheckTrace(symbols, name, start, tgds, egds);
  RunStats base;
  for (int threads : {1, 2, 4, 8}) {
    RunStats stats = RunOne(symbols, start, tgds, egds, threads);
    if (threads == 1) {
      base = stats;
    } else {
      PDX_CHECK(stats.fingerprint == base.fingerprint)
          << "thread count changed the result on " << name;
      PDX_CHECK(stats.steps == base.steps)
          << "thread count changed the step count on " << name;
    }
    ThreadPoint point;
    point.threads = threads;
    point.wall_ms = stats.wall_ms;
    point.steps = stats.steps;
    point.speedup_vs_1t = stats.wall_ms > 0 ? base.wall_ms / stats.wall_ms : 0;
    result.points.push_back(point);
    std::fprintf(stderr, "%-24s %d threads %9.2f ms (speedup %5.2fx)\n",
                 name.c_str(), threads, stats.wall_ms, point.speedup_vs_1t);
  }
  return result;
}

std::string ToJson(const std::vector<WorkloadResult>& results,
                   const std::vector<ThreadScalingResult>& scaling) {
  JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("chase");
  w.Key("repeats").Int(kRepeats);
  // Honest-hardware annotation: the thread_scaling numbers below are only
  // meaningful up to this core count.
  w.Key("nproc").Int(
      static_cast<int64_t>(std::thread::hardware_concurrency()));
  w.Key("workloads").BeginArray();
  for (const WorkloadResult& r : results) {
    w.BeginObject();
    w.Key("name").String(r.name);
    w.Key("input_facts").Int(r.input_facts);
    w.Key("wall_ms").Double(r.stats.wall_ms, 3);
    w.Key("chase_steps").Int(r.stats.steps);
    w.Key("result_facts").Int(r.stats.result_facts);
    w.Key("facts_per_sec").Double(r.stats.facts_per_sec, 1);
    w.EndObject();
  }
  w.EndArray();
  w.Key("thread_scaling").BeginArray();
  for (const ThreadScalingResult& r : scaling) {
    w.BeginObject();
    w.Key("name").String(r.name);
    w.Key("input_facts").Int(r.input_facts);
    w.Key("points").BeginArray();
    for (const ThreadPoint& p : r.points) {
      w.BeginObject();
      w.Key("threads").Int(p.threads);
      w.Key("wall_ms").Double(p.wall_ms, 3);
      w.Key("chase_steps").Int(p.steps);
      w.Key("speedup_vs_1t").Double(p.speedup_vs_1t, 2);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return std::move(w).Take();
}

// Conservative facts/sec floor for the --quick perf smoke gate on
// pipeline_n512 (compiled plans on the match VM).
// The reference single-core box measures ~3.0M facts/sec here, dipping to
// ~1.0M under heavy scheduler contention; the floor sits far below both
// so noise or a debug-ish build never trips it, while a real hot-path
// regression (e.g. a quadratic index) still does.
constexpr double kQuickFactsPerSecFloor = 500'000.0;

// Conservative egd merges/sec floor for the --quick gate on
// egd_heavy_n2048 at 1 thread (chase wall time, tgd phase included). The
// batched egd fixpoint measures ~195K–340K merges/sec here on a shared
// 4-vCPU box; a fixpoint that rescans the delta after every merge is
// quadratic in the merges of a pass and measured ~10K, far under the
// floor.
constexpr double kQuickMergesPerSecFloor = 50'000.0;

int Main(int argc, char** argv) {
  BenchContext ctx;
  // Perf smoke gate (tools/check.sh): pipeline_n512, trace-checked by
  // RunWorkload, then gated on an absolute throughput floor.
  if (argc > 1 && std::strcmp(argv[1], "--quick") == 0) {
    Instance start = ctx.RandomEdges(512, 2, 17);
    WorkloadResult r =
        RunWorkload(ctx, "pipeline_n512", start, ctx.pipeline_tgds, {});
    if (r.stats.facts_per_sec < kQuickFactsPerSecFloor) {
      std::fprintf(stderr,
                   "FAIL: match VM throughput %.0f facts/sec below the "
                   "smoke floor %.0f on pipeline_n512\n",
                   r.stats.facts_per_sec, kQuickFactsPerSecFloor);
      return 1;
    }
    std::fprintf(stderr,
                 "quick gate OK: %.0f facts/sec (floor %.0f), trace "
                 "checked\n",
                 r.stats.facts_per_sec, kQuickFactsPerSecFloor);
    // Egd gate: the 1-thread fixpoint, trace-checked, then step- and
    // fingerprint-checked against a pooled run (same merge order at every
    // thread count).
    Instance egd_start = ctx.RandomEdges(2048, 2, 29);
    CheckTrace(&ctx.symbols, "egd_heavy_n2048", egd_start,
               ctx.egd_heavy_tgds, ctx.egd_heavy_egds);
    RunStats seq = RunOne(&ctx.symbols, egd_start, ctx.egd_heavy_tgds,
                          ctx.egd_heavy_egds, 1);
    RunStats pooled = RunOne(&ctx.symbols, egd_start, ctx.egd_heavy_tgds,
                             ctx.egd_heavy_egds, 4);
    PDX_CHECK(pooled.steps == seq.steps)
        << "thread count changed the step count on egd_heavy_n2048";
    PDX_CHECK(pooled.fingerprint == seq.fingerprint)
        << "thread count changed the result on egd_heavy_n2048";
    if (seq.egd_merges < 0) {
      std::fprintf(stderr,
                   "quick gate OK: egd merges/sec floor skipped (metrics "
                   "compiled out; %.2f ms at 1 thread)\n",
                   seq.wall_ms);
      return 0;
    }
    const double merges_per_sec =
        seq.wall_ms > 0 ? static_cast<double>(seq.egd_merges) /
                              (seq.wall_ms / 1000.0)
                        : 0;
    if (merges_per_sec < kQuickMergesPerSecFloor) {
      std::fprintf(stderr,
                   "FAIL: 1-thread egd fixpoint %.0f merges/sec below the "
                   "smoke floor %.0f on egd_heavy_n2048\n",
                   merges_per_sec, kQuickMergesPerSecFloor);
      return 1;
    }
    std::fprintf(stderr,
                 "quick gate OK: %.0f egd merges/sec at 1 thread (floor "
                 "%.0f, %lld merges, %.2f ms; 4 threads %.2f ms)\n",
                 merges_per_sec, kQuickMergesPerSecFloor,
                 static_cast<long long>(seq.egd_merges), seq.wall_ms,
                 pooled.wall_ms);
    return 0;
  }
  std::vector<WorkloadResult> results;
  // Weakly acyclic tgd pipeline at growing scale; the largest size is the
  // headline number the README/DESIGN quote.
  for (int n : {64, 128, 256, 512}) {
    Instance start = ctx.RandomEdges(n, 2, 17);
    results.push_back(RunWorkload(ctx, "pipeline_n" + std::to_string(n),
                                  start, ctx.pipeline_tgds, {}));
  }
  // Existential tgds with a key egd merging the invented nulls.
  for (int n : {64, 128, 256}) {
    Instance start = ctx.RandomEdges(n, 2, 23);
    results.push_back(RunWorkload(ctx, "existential_egd_n" + std::to_string(n),
                                  start, ctx.existential_tgds, ctx.key_egds));
  }
  // Egd-heavy runs of the union-find value layer: dense graph, one null
  // per edge and per H-fact, two key egds merging nearly all of them.
  for (int n : {64, 128, 256}) {
    Instance start = ctx.RandomEdges(n, 4, 29);
    results.push_back(RunWorkload(ctx, "egd_heavy_n" + std::to_string(n),
                                  start, ctx.egd_heavy_tgds,
                                  ctx.egd_heavy_egds));
  }
  // Thread scaling on the two headline workloads, plus a wide workload of
  // four tgd families over disjoint relations.
  std::vector<ThreadScalingResult> scaling;
  {
    Instance start = ctx.RandomEdges(512, 2, 17);
    scaling.push_back(RunThreadScaling(&ctx.symbols, "pipeline_n512", start,
                                       ctx.pipeline_tgds, {}));
  }
  {
    Instance start = ctx.RandomEdges(256, 4, 29);
    scaling.push_back(RunThreadScaling(&ctx.symbols, "egd_heavy_n256", start,
                                       ctx.egd_heavy_tgds,
                                       ctx.egd_heavy_egds));
  }
  {
    // Heads keyed on (x,y): nearly every collected trigger fires, so the
    // apply phase is insert-heavy and the workers' pre-built head rows
    // carry most of the apply's tuple work. A head keyed on x alone would
    // fire once per node and collect ~16 triggers per fire.
    Schema wide;
    SymbolTable wide_symbols;
    std::string rules;
    for (int i = 0; i < 4; ++i) {
      std::string a = "A" + std::to_string(i), b = "B" + std::to_string(i);
      PDX_CHECK(wide.AddRelation(a, 2).ok());
      PDX_CHECK(wide.AddRelation(b, 3).ok());
      rules += a + "(x,z) & " + a + "(z,y) -> exists w: " + b + "(x,y,w). ";
    }
    auto deps = ParseDependencies(rules, wide, &wide_symbols);
    PDX_CHECK(deps.ok());
    Rng rng(37);
    Instance start(&wide);
    for (int group = 0; group < 4; ++group) {
      for (int i = 0; i < 2048; ++i) {
        Value u = wide_symbols.InternConstant(
            "n" + std::to_string(rng.UniformInt(512)));
        Value v = wide_symbols.InternConstant(
            "n" + std::to_string(rng.UniformInt(512)));
        start.AddFact(static_cast<RelationId>(2 * group), {u, v});
      }
    }
    scaling.push_back(RunThreadScaling(&wide_symbols, "disjoint_4x_n512",
                                       start, deps->tgds, {}));
  }

  std::string path = argc > 1 ? argv[1] : "BENCH_chase.json";
  std::string json = ToJson(results, scaling);
  std::FILE* f = std::fopen(path.c_str(), "w");
  PDX_CHECK(f != nullptr) << "cannot open " << path;
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace pdx

int main(int argc, char** argv) { return pdx::Main(argc, argv); }
