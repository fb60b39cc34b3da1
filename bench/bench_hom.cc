// Experiment E8: the homomorphism engine is the inner loop of the PTIME
// algorithm (one check per block of I_can). Its cost is exponential only
// in the per-block null count (constant inside C_tract, per Theorem 6).
// Series:
//   * chain blocks (tree-like patterns): cheap even with many nulls,
//   * clique-pattern blocks into sparse graphs: cost explodes with the
//     null count — exactly why Theorem 6's constant bound matters,
//   * null-free blocks: plain subset checks.

#include <benchmark/benchmark.h>

#include "hom/core.h"
#include "hom/instance_hom.h"
#include "workload/graph_gen.h"
#include "workload/random.h"

namespace pdx {
namespace {

struct HomBenchContext {
  Schema schema;
  SymbolTable symbols;

  HomBenchContext() { PDX_CHECK(schema.AddRelation("E", 2).ok()); }

  Instance GraphInstance(const Graph& g) {
    Instance instance(&schema);
    for (const auto& [u, v] : g.edges) {
      Value a = symbols.InternConstant("g" + std::to_string(u));
      Value b = symbols.InternConstant("g" + std::to_string(v));
      instance.AddFact(0, {a, b});
      instance.AddFact(0, {b, a});
    }
    return instance;
  }
};

HomBenchContext& Context() {
  static HomBenchContext* context = new HomBenchContext();
  return *context;
}

// A chain pattern n0 - n1 - ... - nL of nulls.
Instance ChainPattern(int length, SymbolTable* symbols,
                      const Schema* schema) {
  Instance pattern(schema);
  Value prev = symbols->FreshNull();
  for (int i = 0; i < length; ++i) {
    Value next = symbols->FreshNull();
    pattern.AddFact(0, {prev, next});
    prev = next;
  }
  return pattern;
}

// A clique pattern on k nulls (every ordered pair).
Instance CliquePattern(int k, SymbolTable* symbols, const Schema* schema) {
  Instance pattern(schema);
  std::vector<Value> nulls;
  for (int i = 0; i < k; ++i) nulls.push_back(symbols->FreshNull());
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < k; ++j) {
      if (i != j) pattern.AddFact(0, {nulls[i], nulls[j]});
    }
  }
  return pattern;
}

void BM_ChainPatternIntoRandomGraph(benchmark::State& state) {
  HomBenchContext& ctx = Context();
  Rng rng(71);
  Instance target = ctx.GraphInstance(ErdosRenyi(40, 0.15, &rng));
  Instance pattern = ChainPattern(static_cast<int>(state.range(0)),
                                  &ctx.symbols, &ctx.schema);
  bool found = false;
  for (auto _ : state) {
    auto h = FindInstanceHomomorphism(pattern, target);
    found = h.has_value();
    benchmark::DoNotOptimize(h);
  }
  state.counters["pattern_nulls"] = static_cast<double>(state.range(0) + 1);
  state.counters["found"] = found ? 1 : 0;
}
BENCHMARK(BM_ChainPatternIntoRandomGraph)
    ->Arg(4)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

void BM_CliquePatternIntoTriangleFreeGraph(benchmark::State& state) {
  HomBenchContext& ctx = Context();
  // Bipartite-by-parity graph: no triangles, so clique patterns of size
  // >= 3 cannot embed and the search must exhaust.
  Graph g;
  g.node_count = 24;
  for (int u = 0; u < g.node_count; ++u) {
    for (int v = u + 1; v < g.node_count; ++v) {
      if ((u + v) % 2 == 1) g.edges.emplace_back(u, v);
    }
  }
  Instance target = ctx.GraphInstance(g);
  Instance pattern = CliquePattern(static_cast<int>(state.range(0)),
                                   &ctx.symbols, &ctx.schema);
  for (auto _ : state) {
    auto h = FindInstanceHomomorphism(pattern, target);
    PDX_CHECK(!h.has_value());
    benchmark::DoNotOptimize(h);
  }
  state.counters["pattern_nulls"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_CliquePatternIntoTriangleFreeGraph)
    ->Arg(3)->Arg(4)->Arg(5)
    ->Unit(benchmark::kMillisecond);

void BM_NullFreeBlockSubsetCheck(benchmark::State& state) {
  HomBenchContext& ctx = Context();
  Rng rng(73);
  int n = static_cast<int>(state.range(0));
  Instance target = ctx.GraphInstance(CompleteGraph(n));
  // The pattern is a random subset of the target's facts: null-free block.
  Instance pattern(&ctx.schema);
  target.ForEachFact([&](const Fact& f) {
    if (rng.Bernoulli(0.5)) pattern.AddFact(f);
  });
  for (auto _ : state) {
    auto h = FindInstanceHomomorphism(pattern, target);
    PDX_CHECK(h.has_value());
    benchmark::DoNotOptimize(h);
  }
  state.counters["pattern_facts"] =
      static_cast<double>(pattern.fact_count());
}
BENCHMARK(BM_NullFreeBlockSubsetCheck)
    ->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMicrosecond);

// Core computation ([7]) on instances with redundant null facts: each
// ground edge is shadowed by one null fact that folds onto it, so the
// core halves the instance. Cost tracks the retraction count.
void BM_CoreOfRedundantInstance(benchmark::State& state) {
  HomBenchContext& ctx = Context();
  int n = static_cast<int>(state.range(0));
  Instance instance(&ctx.schema);
  for (int i = 0; i < n; ++i) {
    Value a = ctx.symbols.InternConstant("ca" + std::to_string(i));
    Value b = ctx.symbols.InternConstant("cb" + std::to_string(i));
    instance.AddFact(0, {a, b});
    instance.AddFact(0, {a, ctx.symbols.FreshNull()});  // folds onto (a,b)
  }
  CoreStats stats;
  for (auto _ : state) {
    Instance core = ComputeCore(instance, &stats);
    PDX_CHECK(core.fact_count() == static_cast<size_t>(n));
    benchmark::DoNotOptimize(core);
  }
  state.counters["facts_removed"] = static_cast<double>(stats.facts_removed);
}
BENCHMARK(BM_CoreOfRedundantInstance)
    ->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_BlockDecomposition(benchmark::State& state) {
  HomBenchContext& ctx = Context();
  int blocks = static_cast<int>(state.range(0));
  Instance instance(&ctx.schema);
  // Many small independent blocks of 3 facts / 3 nulls each.
  for (int b = 0; b < blocks; ++b) {
    Value n1 = ctx.symbols.FreshNull();
    Value n2 = ctx.symbols.FreshNull();
    Value n3 = ctx.symbols.FreshNull();
    instance.AddFact(0, {n1, n2});
    instance.AddFact(0, {n2, n3});
    instance.AddFact(0, {n3, n1});
  }
  for (auto _ : state) {
    BlockDecomposition decomposition(instance);
    PDX_CHECK(static_cast<int>(decomposition.size()) == blocks);
    benchmark::DoNotOptimize(decomposition);
  }
  state.counters["facts"] = static_cast<double>(instance.fact_count());
}
BENCHMARK(BM_BlockDecomposition)
    ->Arg(16)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace pdx

BENCHMARK_MAIN();
