// Substrate benchmark: Datalog evaluation for PDMS definitional mappings
// ([14]), which runs as the delta-driven chase over the rules as full
// tgds. Transitive closure over paths and random graphs; the shape of
// interest is polynomial growth in the derived facts.

#include <benchmark/benchmark.h>

#include "logic/datalog.h"
#include "workload/graph_gen.h"
#include "workload/random.h"

namespace pdx {
namespace {

struct DatalogBenchContext {
  Schema schema;
  SymbolTable symbols;
  DatalogProgram closure;

  DatalogBenchContext() {
    PDX_CHECK(schema.AddRelation("E", 2).ok());
    PDX_CHECK(schema.AddRelation("T", 2).ok());
    auto program = ParseDatalogProgram(
        "T(x,y) :- E(x,y). T(x,z) :- T(x,y), E(y,z).", schema, &symbols);
    PDX_CHECK(program.ok());
    closure = std::move(program).value();
  }

  Instance GraphInstance(const Graph& g) {
    Instance instance(&schema);
    for (const auto& [u, v] : g.edges) {
      instance.AddFact(0, {symbols.InternConstant("n" + std::to_string(u)),
                           symbols.InternConstant("n" + std::to_string(v))});
    }
    return instance;
  }
};

DatalogBenchContext& Context() {
  static DatalogBenchContext* context = new DatalogBenchContext();
  return *context;
}

void BM_TransitiveClosurePath(benchmark::State& state) {
  DatalogBenchContext& ctx = Context();
  int n = static_cast<int>(state.range(0));
  Instance input = ctx.GraphInstance(PathGraph(n));
  DatalogStats stats;
  for (auto _ : state) {
    Instance fixpoint = EvaluateDatalog(ctx.closure, input, &stats);
    benchmark::DoNotOptimize(fixpoint);
  }
  state.counters["derived"] = static_cast<double>(stats.derived_facts);
}
BENCHMARK(BM_TransitiveClosurePath)
    ->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_TransitiveClosureRandomGraph(benchmark::State& state) {
  DatalogBenchContext& ctx = Context();
  int n = static_cast<int>(state.range(0));
  Rng rng(77);
  Instance input = ctx.GraphInstance(ErdosRenyi(n, 4.0 / n, &rng));
  DatalogStats stats;
  for (auto _ : state) {
    Instance fixpoint = EvaluateDatalog(ctx.closure, input, &stats);
    benchmark::DoNotOptimize(fixpoint);
  }
  state.counters["derived"] = static_cast<double>(stats.derived_facts);
}
BENCHMARK(BM_TransitiveClosureRandomGraph)
    ->Arg(16)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pdx

BENCHMARK_MAIN();
