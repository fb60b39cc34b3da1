#include "pde/ctract_solver.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "base/string_util.h"
#include "base/thread_pool.h"
#include "chase/chase.h"
#include "hom/instance_hom.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pdx {

namespace {

// Blocks per pooled check task: fixed, so chunk boundaries do not depend
// on the thread count.
constexpr size_t kBlocksPerChunk = 1024;

struct CtractMetrics {
  obs::Counter runs, blocks, block_checks;
  static CtractMetrics& Get() {
    static CtractMetrics* m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      auto* metrics = new CtractMetrics();
      metrics->runs = reg.GetCounter("pdx_ctract_runs_total");
      metrics->blocks = reg.GetCounter("pdx_ctract_blocks_total");
      metrics->block_checks = reg.GetCounter("pdx_ctract_block_checks_total");
      return metrics;
    }();
    return *m;
  }
};

}  // namespace

StatusOr<CtractSolveResult> CtractExistsSolution(
    const PdeSetting& setting, const Instance& source, const Instance& target,
    SymbolTable* symbols, const ChaseOptions& chase_options) {
  PDX_CHECK(symbols != nullptr);
  if (setting.HasTargetConstraints()) {
    return FailedPreconditionError(
        "ExistsSolution requires Σ_t = ∅ (Definition 9 settings)");
  }
  if (setting.HasDisjunctiveTsTgds()) {
    return FailedPreconditionError(
        "ExistsSolution does not support disjunctive ts-tgds");
  }
  if (!setting.ctract_report().theorem5_applicable()) {
    return FailedPreconditionError(
        StrCat("ExistsSolution requires condition 1 of Definition 9; ",
               StrJoin(setting.ctract_report().violations, "; ")));
  }
  PDX_RETURN_IF_ERROR(setting.ValidateSourceInstance(source));
  PDX_RETURN_IF_ERROR(setting.ValidateTargetInstance(target));

  CtractSolveResult result;
  obs::Span run_span(obs::Tracer::Global(), "solve.ctract");
  CtractMetrics& metrics = CtractMetrics::Get();
  metrics.runs.Inc();

  // Step 1: (I, J_can) = chase of (I, J) with Σ_st. Σ_st bodies are over S
  // and heads over T, so the chase adds only target facts and terminates
  // after one pass over the (fixed) source triggers. Both chases of this
  // procedure run through compiled plans: the Σ_st and Σ_ts plan sets are
  // cached process-wide, so repeated solves — and the repeated ctract
  // invocations the pdxcli bench loop issues — compile each of them
  // exactly once.
  Instance combined = setting.CombineInstances(source, target);
  Instance j_can(&setting.schema());
  {
    obs::Span st_span(obs::Tracer::Global(), "ctract.st_chase");
    ChaseResult st_chase =
        Chase(combined, setting.st_tgds(), {}, symbols, chase_options);
    PDX_CHECK(st_chase.outcome == ChaseOutcome::kSuccess)
        << "Σ_st chase cannot fail or diverge";
    result.chase_steps += st_chase.steps;
    j_can = setting.TargetPart(st_chase.instance);
    result.j_can_size = static_cast<int64_t>(j_can.fact_count());
    st_span.AttrInt("steps", st_chase.steps)
        .AttrInt("j_can_size", result.j_can_size);
  }

  // Step 2: (J_can, I_can) = chase of (J_can, ∅) with Σ_ts. Bodies over T
  // (fixed), heads over S: again a single-pass terminating chase.
  Instance i_can(&setting.schema());
  {
    obs::Span ts_span(obs::Tracer::Global(), "ctract.ts_chase");
    ChaseResult ts_chase =
        Chase(j_can, setting.ts_tgds(), {}, symbols, chase_options);
    PDX_CHECK(ts_chase.outcome == ChaseOutcome::kSuccess)
        << "Σ_ts chase cannot fail or diverge";
    result.chase_steps += ts_chase.steps;
    i_can = setting.SourcePart(ts_chase.instance);
    result.i_can_size = static_cast<int64_t>(i_can.fact_count());
    ts_span.AttrInt("steps", ts_chase.steps)
        .AttrInt("i_can_size", result.i_can_size);
  }

  // Step 3: per-block homomorphism checks from I_can into I. Blocks own
  // disjoint nulls (Theorem 5), so fixed chunks of them fan across a pool
  // and every check writes its nulls' images into their own dense slots:
  // the verdict and h are the same at every thread count. After a failing
  // block, chunks not yet started are skipped.
  const BlockDecomposition blocks(i_can);
  result.block_count = static_cast<int64_t>(blocks.size());
  metrics.blocks.Inc(result.block_count);
  for (size_t b = 0; b < blocks.size(); ++b) {
    result.max_block_nulls = std::max(
        result.max_block_nulls, static_cast<int64_t>(blocks.null_count(b)));
  }
  std::vector<Value> images(blocks.nulls().size());
  const Instance into = source.has_merges() ? source.CompactResolved() : source;
  const size_t chunks =
      (blocks.size() + kBlocksPerChunk - 1) / kBlocksPerChunk;
  std::atomic<bool> failed{false};
  {
    obs::Span check_span(obs::Tracer::Global(), "ctract.block_check");
    const auto check_chunk = [&](size_t c) {
      if (failed.load(std::memory_order_relaxed)) return;
      obs::Span chunk_span(obs::Tracer::Global(), "ctract.block_chunk",
                           check_span.id());
      const size_t begin = c * kBlocksPerChunk;
      const size_t end = std::min(blocks.size(), begin + kBlocksPerChunk);
      const size_t failing =
          MapBlocks(blocks, begin, end, into, images.data());
      const bool mapped = failing == end;
      if (!mapped) failed.store(true, std::memory_order_relaxed);
      metrics.block_checks.Inc(
          static_cast<int64_t>(failing - begin + (mapped ? 0 : 1)));
      chunk_span.AttrInt("chunk", static_cast<int64_t>(c))
          .AttrInt("blocks", static_cast<int64_t>(end - begin))
          .AttrBool("mapped", mapped);
    };
    const int threads = std::min<int>(ResolveThreadCount(chase_options),
                                      static_cast<int>(chunks));
    if (threads > 1) {
      ThreadPool pool(threads);
      pool.ParallelFor(chunks, check_chunk);
    } else {
      for (size_t c = 0; c < chunks; ++c) check_chunk(c);
    }
    check_span.AttrInt("blocks", result.block_count)
        .AttrInt("chunks", static_cast<int64_t>(chunks))
        .AttrBool("mapped", !failed.load());
  }
  result.has_solution = !failed.load();
  run_span.AttrInt("blocks", result.block_count)
      .AttrBool("has_solution", result.has_solution);
  if (!result.has_solution) return result;

  // Witness construction (Theorem 5, ⇐): J_img = h_J(J_can) where h_J maps
  // the nulls that J_can shares with I_can per h and fixes everything
  // else. ApplyAssignment leaves nulls outside `h` unchanged, which is
  // exactly h_J, and rebuilds only the J_can relations holding a null h
  // maps.
  result.solution =
      ApplyAssignment(j_can, NullAssignment(blocks.slots(), std::move(images)));
  return result;
}

}  // namespace pdx
