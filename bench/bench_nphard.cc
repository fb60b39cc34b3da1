// Experiment E2 (Theorem 3): SOL(P) is NP-complete; the complete solver's
// cost on the CLIQUE reduction grows super-polynomially with the graph
// size, and "no" instances (which require exhausting the space) are the
// expensive ones. Series:
//   * generic search on graphs without a k-clique (worst case),
//   * generic search on graphs with a planted k-clique (finds early),
//   * the Theorem 5 homomorphism algorithm on the same instances (correct
//     here by condition 1, but its blocks grow with the input, so it is
//     exponential too — just with much smaller constants).

#include <benchmark/benchmark.h>

#include "pde/ctract_solver.h"
#include "pde/generic_solver.h"
#include "workload/graph_gen.h"
#include "workload/reductions.h"

namespace pdx {
namespace {

constexpr int kCliqueSize = 3;

void BM_GenericSearchNoClique(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Graph graph = TriangleFreeGraph(n);
  PDX_CHECK(!HasClique(graph, kCliqueSize));
  SymbolTable symbols;
  auto setting = MakeCliqueSetting(&symbols);
  PDX_CHECK(setting.ok());
  Instance source =
      MakeCliqueSourceInstance(*setting, graph, kCliqueSize, &symbols);
  GenericSolverOptions options;
  options.max_nodes = 50'000'000;
  int64_t nodes = 0;
  for (auto _ : state) {
    auto result = GenericExistsSolution(*setting, source,
                                        setting->EmptyInstance(), &symbols,
                                        options);
    PDX_CHECK(result.ok());
    PDX_CHECK(result->outcome == SolveOutcome::kNoSolution);
    nodes = result->nodes_explored;
  }
  state.counters["graph_nodes"] = n;
  state.counters["search_nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_GenericSearchNoClique)
    ->Arg(4)->Arg(5)->Arg(6)->Arg(7)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_GenericSearchPlantedClique(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(61);
  Graph graph = PlantClique(TriangleFreeGraph(n), kCliqueSize, &rng);
  PDX_CHECK(HasClique(graph, kCliqueSize));
  SymbolTable symbols;
  auto setting = MakeCliqueSetting(&symbols);
  PDX_CHECK(setting.ok());
  Instance source =
      MakeCliqueSourceInstance(*setting, graph, kCliqueSize, &symbols);
  GenericSolverOptions options;
  options.max_nodes = 50'000'000;
  int64_t nodes = 0;
  for (auto _ : state) {
    auto result = GenericExistsSolution(*setting, source,
                                        setting->EmptyInstance(), &symbols,
                                        options);
    PDX_CHECK(result.ok());
    PDX_CHECK(result->outcome == SolveOutcome::kSolutionFound);
    nodes = result->nodes_explored;
  }
  state.counters["graph_nodes"] = n;
  state.counters["search_nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_GenericSearchPlantedClique)
    ->Arg(4)->Arg(5)->Arg(6)->Arg(7)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_HomSolverNoClique(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Graph graph = TriangleFreeGraph(n);
  SymbolTable symbols;
  auto setting = MakeCliqueSetting(&symbols);
  PDX_CHECK(setting.ok());
  Instance source =
      MakeCliqueSourceInstance(*setting, graph, kCliqueSize, &symbols);
  int64_t max_block_nulls = 0;
  for (auto _ : state) {
    auto result = CtractExistsSolution(*setting, source,
                                       setting->EmptyInstance(), &symbols);
    PDX_CHECK(result.ok());
    PDX_CHECK(!result->has_solution);
    max_block_nulls = result->max_block_nulls;
  }
  state.counters["graph_nodes"] = n;
  state.counters["max_block_nulls"] = static_cast<double>(max_block_nulls);
}
BENCHMARK(BM_HomSolverNoClique)
    ->Arg(4)->Arg(6)->Arg(8)->Arg(10)->Arg(12)
    ->Unit(benchmark::kMillisecond);

void BM_HomSolverPlantedClique(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(67);
  Graph graph = PlantClique(TriangleFreeGraph(n), kCliqueSize, &rng);
  SymbolTable symbols;
  auto setting = MakeCliqueSetting(&symbols);
  PDX_CHECK(setting.ok());
  Instance source =
      MakeCliqueSourceInstance(*setting, graph, kCliqueSize, &symbols);
  for (auto _ : state) {
    auto result = CtractExistsSolution(*setting, source,
                                       setting->EmptyInstance(), &symbols);
    PDX_CHECK(result.ok());
    PDX_CHECK(result->has_solution);
    benchmark::DoNotOptimize(*result);
  }
  state.counters["graph_nodes"] = n;
}
BENCHMARK(BM_HomSolverPlantedClique)
    ->Arg(4)->Arg(6)->Arg(8)->Arg(10)->Arg(12)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pdx

BENCHMARK_MAIN();
