// Experiment E6 (Section 4 tightness): each minimal relaxation of C_tract
// re-creates super-polynomial behaviour even though Σ_st and Σ_ts alone
// look tractable:
//   * one target egd        (conditions 1 + 2.1 hold)   — CLIQUE-hard,
//   * one full target tgd   (conditions 1 + 2.1 hold)   — CLIQUE-hard,
//   * disjunctive ts head   (conditions 1 + 2.2 hold)   — 3-COL-hard.
// A genomics control series at comparable fact counts shows the C_tract
// baseline staying flat.

#include <benchmark/benchmark.h>

#include "pde/ctract_solver.h"
#include "pde/generic_solver.h"
#include "workload/genomics.h"
#include "workload/graph_gen.h"
#include "workload/random.h"
#include "workload/reductions.h"

namespace pdx {
namespace {

constexpr int kCliqueSize = 3;

void RunGeneric(benchmark::State& state, const PdeSetting& setting,
                const Instance& source, SymbolTable* symbols,
                bool expect_solution) {
  GenericSolverOptions options;
  options.max_nodes = 50'000'000;
  int64_t nodes = 0;
  for (auto _ : state) {
    auto result = GenericExistsSolution(setting, source,
                                        setting.EmptyInstance(), symbols,
                                        options);
    PDX_CHECK(result.ok());
    PDX_CHECK((result->outcome == SolveOutcome::kSolutionFound) ==
              expect_solution);
    nodes = result->nodes_explored;
  }
  state.counters["source_facts"] = static_cast<double>(source.fact_count());
  state.counters["search_nodes"] = static_cast<double>(nodes);
}

void BM_EgdBoundary(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  SymbolTable symbols;
  auto setting = MakeEgdBoundarySetting(&symbols);
  PDX_CHECK(setting.ok());
  Graph graph = TriangleFreeGraph(n);
  Instance source =
      MakeEgdBoundarySourceInstance(*setting, graph, kCliqueSize, &symbols);
  RunGeneric(state, *setting, source, &symbols, /*expect_solution=*/false);
}
BENCHMARK(BM_EgdBoundary)
    ->Arg(4)->Arg(5)->Arg(6)->Arg(7)->Arg(8)->Arg(9)->Arg(10)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// Column (a) with k growing: the complete (k-1)-partite graph with parts
// of two nodes (K_n minus a perfect matching, n = 2(k-1)) has 2^(k-1)
// cliques of size k - 1 and none of size k, so the answer is "no" and the
// search meets ever more near-cliques. With k fixed (BM_EgdBoundary) the
// search is polynomial in n, as CLIQUE is for fixed k. k = 5 runs for
// minutes, so the series stops at 4.
void BM_EgdBoundaryGrowingK(benchmark::State& state) {
  int k = static_cast<int>(state.range(0));
  SymbolTable symbols;
  auto setting = MakeEgdBoundarySetting(&symbols);
  PDX_CHECK(setting.ok());
  Graph graph;
  graph.node_count = 2 * (k - 1);
  for (int u = 0; u < graph.node_count; ++u) {
    for (int v = u + 1; v < graph.node_count; ++v) {
      if (u / 2 != v / 2) graph.edges.emplace_back(u, v);
    }
  }
  PDX_CHECK(!HasClique(graph, k));
  Instance source =
      MakeEgdBoundarySourceInstance(*setting, graph, k, &symbols);
  state.counters["k"] = k;
  RunGeneric(state, *setting, source, &symbols, /*expect_solution=*/false);
}
BENCHMARK(BM_EgdBoundaryGrowingK)
    ->Arg(3)->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_TargetTgdBoundary(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  SymbolTable symbols;
  auto setting = MakeTargetTgdBoundarySetting(&symbols);
  PDX_CHECK(setting.ok());
  Graph graph = TriangleFreeGraph(n);
  Instance source = MakeTargetTgdBoundarySourceInstance(
      *setting, graph, kCliqueSize, &symbols);
  RunGeneric(state, *setting, source, &symbols, /*expect_solution=*/false);
}
BENCHMARK(BM_TargetTgdBoundary)
    ->Arg(4)->Arg(5)->Arg(6)->Arg(7)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_ThreeColBoundary(benchmark::State& state) {
  int cycle = static_cast<int>(state.range(0));  // odd
  SymbolTable symbols;
  auto setting = MakeThreeColSetting(&symbols);
  PDX_CHECK(setting.ok());
  // Odd wheels W_n (odd cycle + hub) are 4-chromatic, but the obstruction
  // is global: the solver must exhaust the cycle's colorings before
  // concluding "no", so the search grows with the cycle length.
  Graph graph;
  graph.node_count = cycle + 1;
  for (int i = 0; i < cycle; ++i) {
    graph.edges.emplace_back(std::min(i, (i + 1) % cycle),
                             std::max(i, (i + 1) % cycle));
    graph.edges.emplace_back(i, cycle);  // spoke to the hub
  }
  PDX_CHECK(!Is3Colorable(graph));
  Instance source = MakeThreeColSourceInstance(*setting, graph, &symbols);
  RunGeneric(state, *setting, source, &symbols, /*expect_solution=*/false);
}
BENCHMARK(BM_ThreeColBoundary)
    ->Arg(5)->Arg(7)->Arg(9)->Arg(11)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// Control: a C_tract workload at comparable-and-larger fact counts solved
// by the Figure 3 algorithm stays polynomial.
void BM_CtractControl(benchmark::State& state) {
  SymbolTable symbols;
  auto setting = MakeGenomicsSetting(&symbols);
  PDX_CHECK(setting.ok());
  Rng rng(17);
  GenomicsWorkloadOptions opts;
  opts.proteins = static_cast<int>(state.range(0));
  GenomicsWorkload workload =
      MakeGenomicsWorkload(*setting, opts, &rng, &symbols);
  for (auto _ : state) {
    auto result = CtractExistsSolution(*setting, workload.source,
                                       workload.target, &symbols);
    PDX_CHECK(result.ok());
    benchmark::DoNotOptimize(*result);
  }
  state.counters["source_facts"] =
      static_cast<double>(workload.source.fact_count());
}
BENCHMARK(BM_CtractControl)
    ->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pdx

BENCHMARK_MAIN();
