// Ablation experiment for the engineering choice DESIGN.md calls out:
//   A1  restricted naive vs. semi-naive (incremental) trigger search —
//       the re-scan cost dominates chase time at scale.

#include <benchmark/benchmark.h>

#include "chase/chase.h"
#include "logic/parser.h"
#include "workload/random.h"

namespace pdx {
namespace {

struct AblationContext {
  Schema schema;
  SymbolTable symbols;
  std::vector<Tgd> pipeline;

  AblationContext() {
    PDX_CHECK(schema.AddRelation("E", 2).ok());
    PDX_CHECK(schema.AddRelation("H", 2).ok());
    PDX_CHECK(schema.AddRelation("F", 2).ok());
    auto deps = ParseDependencies(
        "E(x,z) & E(z,y) -> H(x,y). H(x,y) -> F(x,y).", schema, &symbols);
    PDX_CHECK(deps.ok());
    pipeline = std::move(deps).value().tgds;
  }

  Instance RandomEdges(int n, uint64_t seed) {
    Rng rng(seed);
    Instance instance(&schema);
    for (int i = 0; i < 2 * n; ++i) {
      Value u = symbols.InternConstant("n" + std::to_string(
                                                 rng.UniformInt(n)));
      Value v = symbols.InternConstant("n" + std::to_string(
                                                 rng.UniformInt(n)));
      instance.AddFact(0, {u, v});
    }
    return instance;
  }
};

AblationContext& Context() {
  static AblationContext* context = new AblationContext();
  return *context;
}

// ---- A1: naive vs. incremental trigger search --------------------------

void BM_A1_ChaseNaive(benchmark::State& state) {
  AblationContext& ctx = Context();
  Instance start = ctx.RandomEdges(static_cast<int>(state.range(0)), 101);
  ChaseOptions options;
  options.strategy = ChaseStrategy::kRestrictedNaive;
  int64_t steps = 0;
  for (auto _ : state) {
    ChaseResult result = Chase(start, ctx.pipeline, {}, &ctx.symbols,
                               options);
    PDX_CHECK(result.outcome == ChaseOutcome::kSuccess);
    steps = result.steps;
    benchmark::DoNotOptimize(result.instance);
  }
  state.counters["chase_steps"] = static_cast<double>(steps);
}
BENCHMARK(BM_A1_ChaseNaive)
    ->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_A1_ChaseIncremental(benchmark::State& state) {
  AblationContext& ctx = Context();
  Instance start = ctx.RandomEdges(static_cast<int>(state.range(0)), 101);
  ChaseOptions options;
  options.strategy = ChaseStrategy::kRestricted;
  int64_t steps = 0;
  for (auto _ : state) {
    ChaseResult result =
        Chase(start, ctx.pipeline, {}, &ctx.symbols, options);
    PDX_CHECK(result.outcome == ChaseOutcome::kSuccess);
    steps = result.steps;
    benchmark::DoNotOptimize(result.instance);
  }
  state.counters["chase_steps"] = static_cast<double>(steps);
}
BENCHMARK(BM_A1_ChaseIncremental)
    ->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pdx

BENCHMARK_MAIN();
