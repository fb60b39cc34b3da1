// Experiment E4 (Theorem 6): in C_tract settings, every block of I_can has
// a constant number of nulls regardless of the input size; outside C_tract
// (the CLIQUE setting) blocks grow with the input. This bench reproduces
// that contrast by running the two chases of Figure 3 and decomposing
// I_can into blocks, without the final homomorphism step.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "chase/chase.h"
#include "hom/instance_hom.h"
#include "workload/genomics.h"
#include "workload/random.h"
#include "workload/reductions.h"
#include "workload/setting_gen.h"

namespace pdx {
namespace {

// Runs steps 1-2 of Figure 3 and returns the block-size profile of I_can.
struct BlockProfile {
  int64_t block_count = 0;
  int64_t max_block_nulls = 0;
  int64_t max_block_facts = 0;
  int64_t i_can_facts = 0;
};

BlockProfile ProfileBlocks(const PdeSetting& setting, const Instance& source,
                           const Instance& target, SymbolTable* symbols) {
  Instance combined = setting.CombineInstances(source, target);
  ChaseResult st_chase = Chase(combined, setting.st_tgds(), symbols);
  PDX_CHECK(st_chase.outcome == ChaseOutcome::kSuccess);
  Instance j_can = setting.TargetPart(st_chase.instance);
  ChaseResult ts_chase = Chase(j_can, setting.ts_tgds(), symbols);
  PDX_CHECK(ts_chase.outcome == ChaseOutcome::kSuccess);
  Instance i_can = setting.SourcePart(ts_chase.instance);
  BlockProfile profile;
  profile.i_can_facts = static_cast<int64_t>(i_can.fact_count());
  const BlockDecomposition blocks(i_can);
  profile.block_count = static_cast<int64_t>(blocks.size());
  for (size_t b = 0; b < blocks.size(); ++b) {
    profile.max_block_nulls = std::max(
        profile.max_block_nulls, static_cast<int64_t>(blocks.null_count(b)));
    profile.max_block_facts = std::max(
        profile.max_block_facts, static_cast<int64_t>(blocks.facts(b).size()));
  }
  return profile;
}

void ReportProfile(benchmark::State& state, const BlockProfile& profile,
                   size_t source_facts) {
  state.counters["source_facts"] = static_cast<double>(source_facts);
  state.counters["i_can_facts"] = static_cast<double>(profile.i_can_facts);
  state.counters["blocks"] = static_cast<double>(profile.block_count);
  state.counters["max_block_nulls"] =
      static_cast<double>(profile.max_block_nulls);
}

// C_tract family 1: the genomics setting (conditions 1 + 2.1).
void BM_BlocksGenomics(benchmark::State& state) {
  SymbolTable symbols;
  auto setting = MakeGenomicsSetting(&symbols);
  PDX_CHECK(setting.ok());
  Rng rng(3);
  GenomicsWorkloadOptions opts;
  opts.proteins = static_cast<int>(state.range(0));
  GenomicsWorkload workload =
      MakeGenomicsWorkload(*setting, opts, &rng, &symbols);
  BlockProfile profile;
  for (auto _ : state) {
    profile = ProfileBlocks(*setting, workload.source, workload.target,
                            &symbols);
    benchmark::DoNotOptimize(profile);
  }
  ReportProfile(state, profile, workload.source.fact_count());
}
BENCHMARK(BM_BlocksGenomics)
    ->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);

// C_tract family 2: random LAV settings.
void BM_BlocksLav(benchmark::State& state) {
  Rng rng(5);
  SymbolTable symbols;
  SettingGenOptions opts;
  opts.max_arity = 2;
  auto generated = MakeRandomLavSetting(opts, &rng, &symbols);
  PDX_CHECK(generated.ok());
  int facts = static_cast<int>(state.range(0));
  Instance source = MakeRandomSourceInstance(generated->setting, facts,
                                             facts / 2 + 2, &rng, &symbols);
  Instance target = generated->setting.EmptyInstance();
  BlockProfile profile;
  for (auto _ : state) {
    profile = ProfileBlocks(generated->setting, source, target, &symbols);
    benchmark::DoNotOptimize(profile);
  }
  ReportProfile(state, profile, source.fact_count());
}
BENCHMARK(BM_BlocksLav)
    ->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);

// Outside C_tract: the CLIQUE setting; block null counts grow linearly
// with k(k-1) and connect through the shared S-atoms.
void BM_BlocksClique(benchmark::State& state) {
  int k = static_cast<int>(state.range(0));
  SymbolTable symbols;
  auto setting = MakeCliqueSetting(&symbols);
  PDX_CHECK(setting.ok());
  Graph graph = CompleteGraph(k + 1);
  Instance source = MakeCliqueSourceInstance(*setting, graph, k, &symbols);
  Instance target = setting->EmptyInstance();
  BlockProfile profile;
  for (auto _ : state) {
    profile = ProfileBlocks(*setting, source, target, &symbols);
    benchmark::DoNotOptimize(profile);
  }
  ReportProfile(state, profile, source.fact_count());
}
BENCHMARK(BM_BlocksClique)
    ->Arg(2)->Arg(3)->Arg(4)->Arg(5)->Arg(6)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pdx

BENCHMARK_MAIN();
