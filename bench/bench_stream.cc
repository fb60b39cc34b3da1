// Streaming chase A/B bench: replays deterministic ±Δ churn streams
// (workload/churn.h) into StreamingChase::ResumeWithDeltas and, per
// batch, into a journaled full re-chase of the stream's net instance
// (StreamingChase::Initialize — the path a caller without deletion
// propagation pays, since the serving contract keeps every generation
// retractable), and writes the results as machine-readable JSON
// (BENCH_stream.json) so the incremental-vs-full speedup is trackable
// across commits.
//
// Two n512-scale workload shapes: the relay pipeline (E feeding a chain
// of copy stages; fan-in 1, so the affected cone tracks the churn rate
// — the headline, where the ≥3x claim is stated) and the composition
// pipeline (bench_chase's pipeline_n512: E∘E -> H -> F; join fan-in
// amplifies the cone ~3x, structurally capping the advantage — reported
// for contrast). Churn rates are total batch size over live facts,
// split evenly between deletes and inserts.
//
// Per workload it reports wall time (best of `kRepeats`, summed across
// the batches of one replay), chase steps, and the deletion-propagation
// counters (retracted / rederived / dead triggers); the headline number
// is the full/incremental wall-time speedup at each churn rate. Both
// sides are cross-checked after every batch for identical canonicalized
// fingerprints — the workloads are tgd-only and confluent up to null
// renaming — so a run doubles as a correctness gate, and the
// incremental side's step total is checked against the from-scratch
// bound (deletion propagation never re-fires more than a re-chase
// would).
//
// Usage: bench_stream [output.json]  (default BENCH_stream.json in cwd)
//        bench_stream --quick        (perf smoke gate: pipeline_relay_n512
//                                     at 10% churn; exits nonzero if the
//                                     incremental path is not at least
//                                     kQuickSpeedupFloor× faster than
//                                     full re-chase or the sides
//                                     disagree)

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "chase/chase.h"
#include "chase/stream.h"
#include "hom/instance_hom.h"
#include "logic/parser.h"
#include "obs/json_writer.h"
#include "workload/churn.h"
#include "workload/random.h"

namespace pdx {
namespace {

constexpr int kRepeats = 5;
constexpr int kBatches = 8;

struct StreamBenchContext {
  Schema schema;
  SymbolTable symbols;
  // Composition shape — bench_chase's pipeline_n512: E∘E -> H, H -> F.
  // Deletion fan-in is 2 (every H depends on two edges), so b% edge churn
  // dirties roughly 3b% of the derived facts: the affected cone, not the
  // implementation, caps the incremental advantage on this shape.
  std::vector<Tgd> pipeline_tgds;
  // Relay shape — the same n512 scale, pipeline depth instead of join
  // width: E feeds a chain of six copy stages. Fan-in is 1, so the
  // affected cone stays proportional to the churn rate and deletion
  // propagation shows its full advantage.
  std::vector<Tgd> relay_tgds;

  StreamBenchContext() {
    PDX_CHECK(schema.AddRelation("E", 2).ok());
    PDX_CHECK(schema.AddRelation("H", 2).ok());
    PDX_CHECK(schema.AddRelation("F", 2).ok());
    for (int i = 1; i <= 6; ++i) {
      PDX_CHECK(schema.AddRelation("R" + std::to_string(i), 2).ok());
    }
    auto deps = ParseDependencies(
        "E(x,z) & E(z,y) -> H(x,y)."
        "H(x,y) -> exists w: F(y,w).",
        schema, &symbols);
    PDX_CHECK(deps.ok());
    pipeline_tgds = std::move(deps).value().tgds;
    std::string relay = "E(x,y) -> R1(x,y).";
    for (int i = 2; i <= 6; ++i) {
      relay += "R" + std::to_string(i - 1) + "(x,y) -> R" +
               std::to_string(i) + "(x,y).";
    }
    auto relay_deps = ParseDependencies(relay, schema, &symbols);
    PDX_CHECK(relay_deps.ok());
    relay_tgds = std::move(relay_deps).value().tgds;
  }

  // A duplicate-free random E-universe with `n` nodes and up to
  // `edges_per_node * n` edges — the same shape as bench_chase's
  // RandomEdges, deduped through an instance so ChurnStream's
  // duplicate-free universe contract holds.
  std::vector<Fact> EdgeUniverse(int n, int edges_per_node, uint64_t seed) {
    Rng rng(seed);
    Instance dedup(&schema);
    for (int i = 0; i < edges_per_node * n; ++i) {
      Value u =
          symbols.InternConstant("n" + std::to_string(rng.UniformInt(n)));
      Value v =
          symbols.InternConstant("n" + std::to_string(rng.UniformInt(n)));
      dedup.AddFact(0, {u, v});
    }
    return dedup.AllFacts();
  }
};

ChaseOptions StreamOptions() {
  ChaseOptions options;
  options.strategy = ChaseStrategy::kRestricted;
  options.num_threads = 1;
  options.max_steps = 10'000'000;
  return options;
}

// A pre-generated churn replay: the initial net instance, the batch
// sequence, and the net instance after each batch. Generating it once up
// front keeps both sides — and every repeat — on byte-identical input.
struct ChurnScript {
  Instance initial;
  std::vector<ChurnBatch> batches;
  std::vector<Instance> nets;
};

// `rate` is the *total* churn per batch — the fraction of live facts
// replaced, split evenly between deletes and inserts (churn10 = 5%
// deleted + 5% inserted).
ChurnScript MakeScript(StreamBenchContext& ctx,
                       const std::vector<Fact>& universe, double rate,
                       uint64_t seed) {
  ChurnOptions copts;
  copts.delete_rate = rate / 2;
  copts.insert_rate = rate / 2;
  copts.overlap = 0.5;
  copts.seed = seed;
  // Start at 3/4 live so inserts have a fresh pool from batch one.
  ChurnStream stream(universe, universe.size() * 3 / 4, copts);
  ChurnScript script{stream.NetInstance(&ctx.schema), {}, {}};
  for (int b = 0; b < kBatches; ++b) {
    script.batches.push_back(stream.Next());
    script.nets.push_back(stream.NetInstance(&ctx.schema));
  }
  return script;
}

struct SideStats {
  double wall_ms = 0;
  int64_t steps = 0;
};

struct StreamWorkloadResult {
  std::string name;
  double churn_rate = 0;
  int64_t initial_facts = 0;
  SideStats incremental;
  SideStats full;
  // Deletion-propagation counters summed across the replay's batches.
  int64_t retracted = 0;
  int64_t rederived = 0;
  int64_t dead_triggers = 0;
  // full wall time over incremental wall time (> 1 = streaming wins).
  double speedup = 0;
};

StreamWorkloadResult RunStreamWorkload(StreamBenchContext& ctx,
                                       const std::vector<Tgd>& tgds,
                                       const std::string& name, double rate,
                                       const ChurnScript& script) {
  StreamWorkloadResult result;
  result.name = name;
  result.churn_rate = rate;
  result.initial_facts = static_cast<int64_t>(script.initial.fact_count());
  std::vector<uint64_t> inc_fps, full_fps;

  // Incremental side: one StreamingChase consumes every batch. The
  // Initialize (the from-scratch build both sides start from) is outside
  // the timed region; only the ±Δ batches are measured. Fingerprints are
  // computed between batches, also untimed.
  for (int rep = 0; rep < kRepeats; ++rep) {
    StreamingChase stream(&ctx.schema, tgds, {}, &ctx.symbols,
                          StreamOptions());
    PDX_CHECK(stream.Initialize(script.initial).ok());
    double ms = 0;
    int64_t steps = 0, retracted = 0, rederived = 0, dead = 0;
    for (size_t b = 0; b < script.batches.size(); ++b) {
      auto t0 = std::chrono::steady_clock::now();
      StatusOr<StreamStats> stats = stream.ResumeWithDeltas(
          script.batches[b].adds, script.batches[b].deletes);
      auto t1 = std::chrono::steady_clock::now();
      PDX_CHECK(stats.ok()) << "batch " << b << " failed on " << name;
      ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
      steps += stats->steps;
      retracted += stats->retracted;
      rederived += stats->rederived;
      dead += stats->dead_triggers;
      if (rep == 0) {
        inc_fps.push_back(
            CanonicalizeNulls(stream.instance()).CanonicalFingerprint());
      }
    }
    if (rep == 0 || ms < result.incremental.wall_ms) {
      result.incremental.wall_ms = ms;
    }
    result.incremental.steps = steps;
    result.retracted = retracted;
    result.rederived = rederived;
    result.dead_triggers = dead;
  }

  // Full side: re-Initialize from the post-batch net instance, per batch
  // — what a caller without deletion propagation pays. This is the
  // journaled full re-chase (StreamingChase::FullChase's path), not a
  // bare Chase: the serving contract keeps every generation retractable,
  // so the honest competitor maintains the same firing journal the
  // incremental side does.
  for (int rep = 0; rep < kRepeats; ++rep) {
    double ms = 0;
    int64_t steps = 0;
    for (size_t b = 0; b < script.nets.size(); ++b) {
      StreamingChase full(&ctx.schema, tgds, {}, &ctx.symbols,
                          StreamOptions());
      auto t0 = std::chrono::steady_clock::now();
      PDX_CHECK(full.Initialize(script.nets[b]).ok());
      auto t1 = std::chrono::steady_clock::now();
      ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
      steps += full.total_steps();
      if (rep == 0) {
        full_fps.push_back(
            CanonicalizeNulls(full.instance()).CanonicalFingerprint());
      }
    }
    if (rep == 0 || ms < result.full.wall_ms) result.full.wall_ms = ms;
    result.full.steps = steps;
  }

  PDX_CHECK(inc_fps.size() == full_fps.size());
  for (size_t b = 0; b < inc_fps.size(); ++b) {
    PDX_CHECK(inc_fps[b] == full_fps[b])
        << "incremental result diverged from full re-chase after batch "
        << b << " on " << name;
  }
  PDX_CHECK(result.incremental.steps <= result.full.steps)
      << "deletion propagation fired more steps than a re-chase on "
      << name;

  result.speedup = result.incremental.wall_ms > 0
                       ? result.full.wall_ms / result.incremental.wall_ms
                       : 0;
  std::fprintf(stderr,
               "%-24s incremental %9.2f ms (%6lld steps)   full %9.2f ms "
               "(%6lld steps)   speedup %5.2fx\n",
               name.c_str(), result.incremental.wall_ms,
               static_cast<long long>(result.incremental.steps),
               result.full.wall_ms,
               static_cast<long long>(result.full.steps), result.speedup);
  return result;
}

void WriteSide(JsonWriter& w, const char* key, const SideStats& stats) {
  w.Key(key).BeginObject();
  w.Key("wall_ms").Double(stats.wall_ms, 3);
  w.Key("chase_steps").Int(stats.steps);
  w.EndObject();
}

std::string ToJson(const std::vector<StreamWorkloadResult>& results) {
  JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("stream");
  w.Key("repeats").Int(kRepeats);
  w.Key("batches_per_workload").Int(kBatches);
  w.Key("nproc").Int(
      static_cast<int64_t>(std::thread::hardware_concurrency()));
  w.Key("workloads").BeginArray();
  for (const StreamWorkloadResult& r : results) {
    w.BeginObject();
    w.Key("name").String(r.name);
    w.Key("churn_rate").Double(r.churn_rate, 2);
    w.Key("initial_facts").Int(r.initial_facts);
    WriteSide(w, "incremental", r.incremental);
    WriteSide(w, "full", r.full);
    w.Key("retracted").Int(r.retracted);
    w.Key("rederived").Int(r.rederived);
    w.Key("dead_triggers").Int(r.dead_triggers);
    w.Key("speedup").Double(r.speedup, 2);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return std::move(w).Take();
}

// Conservative speedup floor for the --quick perf smoke gate on
// pipeline_relay_n512 at 10% churn. The committed claim
// (BENCH_stream.json, DESIGN.md §4h) is ≥3x at ≤10% churn on this
// workload; the floor sits below that so scheduler noise on a loaded
// single-core box never trips it, while a real regression (e.g. the
// support index degenerating into a per-batch rebuild, or retraction
// falling back to full re-chase on a tgd-only workload) still does.
constexpr double kQuickSpeedupFloor = 2.0;

int Main(int argc, char** argv) {
  StreamBenchContext ctx;
  // Perf smoke gate (tools/check.sh): the headline churn point,
  // fingerprint- and step-cross-checked by RunStreamWorkload, then gated
  // on the incremental-vs-full speedup.
  if (argc > 1 && std::strcmp(argv[1], "--quick") == 0) {
    std::vector<Fact> universe = ctx.EdgeUniverse(512, 2, 17);
    ChurnScript script = MakeScript(ctx, universe, 0.10, 41);
    StreamWorkloadResult r = RunStreamWorkload(
        ctx, ctx.relay_tgds, "pipeline_relay_n512_churn10", 0.10, script);
    if (r.speedup < kQuickSpeedupFloor) {
      std::fprintf(stderr,
                   "FAIL: incremental re-solve only %.2fx faster than full "
                   "re-chase at 10%% churn (floor %.2fx)\n",
                   r.speedup, kQuickSpeedupFloor);
      return 1;
    }
    std::fprintf(stderr,
                 "quick gate OK: incremental %.2fx faster than full "
                 "re-chase at 10%% churn (floor %.2fx)\n",
                 r.speedup, kQuickSpeedupFloor);
    return 0;
  }

  std::vector<StreamWorkloadResult> results;
  std::vector<Fact> universe = ctx.EdgeUniverse(512, 2, 17);
  struct RatePoint {
    double rate;
    const char* name;
  };
  // Headline sweep: the relay pipeline at n512 scale. The ≤10% regime is
  // where the ≥3x claim is stated; 25% shows the advantage eroding as
  // re-derivation approaches the size of the instance.
  for (RatePoint p : {RatePoint{0.01, "pipeline_relay_n512_churn1"},
                      RatePoint{0.05, "pipeline_relay_n512_churn5"},
                      RatePoint{0.10, "pipeline_relay_n512_churn10"},
                      RatePoint{0.25, "pipeline_relay_n512_churn25"}}) {
    ChurnScript script = MakeScript(ctx, universe, p.rate, 41);
    results.push_back(
        RunStreamWorkload(ctx, ctx.relay_tgds, p.name, p.rate, script));
  }
  // The composition shape (bench_chase's pipeline_n512) for contrast:
  // join fan-in amplifies the affected cone ~3x, so the structural
  // ceiling on the speedup is far lower — reported, not gated.
  for (RatePoint p : {RatePoint{0.01, "pipeline_n512_churn1"},
                      RatePoint{0.05, "pipeline_n512_churn5"},
                      RatePoint{0.10, "pipeline_n512_churn10"}}) {
    ChurnScript script = MakeScript(ctx, universe, p.rate, 41);
    results.push_back(
        RunStreamWorkload(ctx, ctx.pipeline_tgds, p.name, p.rate, script));
  }
  // A smaller scale point at the headline rate, so the speedup's growth
  // with instance size is visible.
  {
    std::vector<Fact> small = ctx.EdgeUniverse(128, 2, 17);
    ChurnScript script = MakeScript(ctx, small, 0.10, 41);
    results.push_back(RunStreamWorkload(ctx, ctx.relay_tgds,
                                        "pipeline_relay_n128_churn10", 0.10,
                                        script));
  }

  std::string path = argc > 1 ? argv[1] : "BENCH_stream.json";
  std::string json = ToJson(results);
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
