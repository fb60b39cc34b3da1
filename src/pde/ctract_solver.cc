#include "pde/ctract_solver.h"

#include <algorithm>

#include "base/string_util.h"
#include "chase/chase.h"
#include "hom/instance_hom.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pdx {

namespace {

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

  // Step 3: per-block homomorphism checks from I_can into I.
  NullAssignment h;
  bool all_blocks_map = true;
  for (const Block& block : DecomposeIntoBlocks(i_can)) {
    ++result.block_count;
    metrics.blocks.Inc();
    result.max_block_nulls = std::max(
        result.max_block_nulls, static_cast<int64_t>(block.nulls.size()));
    if (!all_blocks_map) continue;  // keep collecting stats
    obs::Span check_span(obs::Tracer::Global(), "ctract.block_check");
    check_span.AttrInt("nulls", static_cast<int64_t>(block.nulls.size()));
    metrics.block_checks.Inc();
    std::optional<NullAssignment> block_h =
        FindBlockHomomorphism(block, source);
    check_span.AttrBool("mapped", block_h.has_value());
    if (!block_h.has_value()) {
      all_blocks_map = false;
      continue;
    }
    for (const auto& [packed, value] : *block_h) h[packed] = value;
  }
  result.has_solution = all_blocks_map;
  run_span.AttrInt("blocks", result.block_count)
      .AttrBool("has_solution", result.has_solution);
  if (!all_blocks_map) return result;

  // Witness construction (Theorem 5, ⇐): J_img = h_J(J_can) where h_J maps
  // the nulls that J_can shares with I_can per h and fixes everything
  // else. ApplyAssignment leaves nulls outside `h` unchanged, which is
  // exactly h_J.
  result.solution = ApplyAssignment(j_can, h);
  return result;
}

}  // namespace pdx
