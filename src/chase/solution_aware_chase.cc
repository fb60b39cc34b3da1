#include "chase/solution_aware_chase.h"

#include <memory>

#include "base/thread_pool.h"
#include "chase/delta_phase.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/ir.h"
#include "plan/plan_cache.h"

namespace pdx {

namespace {

// The chase-family metrics (shared names with chase.cc: the registry
// find-or-creates, so both files increment the same slots).
struct SaMetrics {
  obs::Counter runs, steps, rounds, tgd_matches;
  static SaMetrics& Get() {
    static SaMetrics* m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      auto* metrics = new SaMetrics();
      metrics->runs = reg.GetCounter("pdx_chase_runs_total");
      metrics->steps = reg.GetCounter("pdx_chase_steps_total");
      metrics->rounds = reg.GetCounter("pdx_chase_rounds_total");
      metrics->tgd_matches = reg.GetCounter("pdx_chase_tgd_matches_total");
      return metrics;
    }();
    return *m;
  }
};

// A violated trigger to fire: the body homomorphism found in the chased
// instance plus its extension into `solution` witnessing the existential
// variables.
struct SolutionAwareTrigger {
  Binding body;
  Binding extended;
};

// The per-match collection step: skip satisfied triggers, extend violated
// ones into `solution` (guaranteed possible since solution ⊇ instance
// satisfies the tgd). Pure reads of `instance` and `solution`, so workers
// may run it concurrently. The satisfaction probe and the witness search
// both execute the compiled head program (compiled with the universal
// variables pre-bound — exactly this call shape). Returns true iff it
// kept the trigger.
bool CollectOneTrigger(const Instance& instance, const Instance& solution,
                       const plan::TgdPlan& plan, const Binding& body_match,
                       std::vector<SolutionAwareTrigger>* out) {
  if (HasMatchPlanned(plan.head, instance, body_match)) {
    return false;  // satisfied trigger
  }
  SaMetrics::Get().tgd_matches.Inc();
  // Violated in `instance`; find the witness inside `solution`.
  bool witnessed = EnumerateMatchesPlanned(
      plan.head, solution, body_match, [&](const Binding& full) {
        out->push_back({body_match, full});
        return false;  // first witness suffices
      });
  PDX_CHECK(witnessed)
      << "solution-aware chase: the provided solution violates a tgd";
  return true;
}

ChaseResult SolutionAwareChaseImpl(const Instance& start,
                                   const std::vector<Tgd>& tgds,
                                   const std::vector<Egd>& egds,
                                   const Instance& solution,
                                   const ChaseOptions& options) {
  PDX_CHECK(start.IsSubsetOf(solution))
      << "solution-aware chase requires start ⊆ solution";
  ChaseResult result(start);
  Instance& instance = result.instance;
  // Same parallel discipline as the delta chase: collect in parallel,
  // apply sequentially. num_threads 1 (or a one-core box) keeps the fully
  // sequential path. Witnesses come from the solution, so the result is
  // bit-identical at every thread count.
  const int threads = ResolveThreadCount(options);
  std::unique_ptr<ThreadPool> owned_pool =
      threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr;
  ThreadPool* pool = owned_pool.get();
  // Compiled plans, shared with the plain chase via the process cache.
  std::shared_ptr<const plan::CompiledSetting> compiled =
      plan::PlanCache::Global().GetOrCompile(tgds, egds);
  // Delta-driven fixpoint: per round, only triggers touching facts added
  // (or tuples dirtied by an egd merge) since the previous round are
  // evaluated. Round one sees everything as new.
  InstanceWatermark mark = InstanceWatermark::Origin(instance);
  std::vector<std::vector<int>> extras;
  // Collect slots shared across rounds and tgds: cleared, not freed.
  std::vector<std::vector<SolutionAwareTrigger>> slots;
  std::vector<Value> head;  // one trigger's flat head row, reused
  int64_t round = 0;
  while (true) {
    obs::Span round_span(obs::Tracer::Global(), "chase.round");
    round_span.AttrInt("round", round);
    SaMetrics::Get().rounds.Inc();
    ++round;
    if (result.steps >= options.max_steps) {
      result.outcome = ChaseOutcome::kBudgetExhausted;
      return result;
    }
    // Egds to fixpoint over the pending delta: union-find merges in the
    // instance's value layer, which leave tuple indexes (and thus the
    // round's watermark) intact and report the dirty tuples into `extras`.
    EgdFixpointOutcome egd_out = RunEgdsToFixpointDelta(
        egds, compiled->egds, &instance, mark,
        options.max_steps - result.steps, /*symbols=*/nullptr, &extras, pool);
    result.steps += egd_out.steps;
    if (egd_out.failed) {
      result.outcome = ChaseOutcome::kFailed;
      result.failure = egd_out.failure;
      return result;
    }
    if (egd_out.budget_exhausted) {
      result.outcome = ChaseOutcome::kBudgetExhausted;
      return result;
    }
    DeltaView delta(instance, mark, extras);
    if (!delta.any()) {
      result.outcome = ChaseOutcome::kSuccess;
      return result;
    }
    InstanceWatermark frontier = instance.TakeWatermark();
    for (size_t d = 0; d < tgds.size(); ++d) {
      const plan::TgdPlan& plan = compiled->tgds[d];
      if (!TouchesDelta(plan.body, delta)) continue;
      obs::Span tgd_span(obs::Tracer::Global(), "chase.tgd");
      tgd_span.AttrInt("dep", static_cast<int64_t>(d));
      const size_t used = CollectDeltaSlots(
          plan.body, instance, delta, pool, tgd_span.id(), &slots,
          [&](std::vector<SolutionAwareTrigger>* buffer, const Binding& m) {
            return CollectOneTrigger(instance, solution, plan, m, buffer);
          });
      size_t collected = 0;
      for (size_t s = 0; s < used; ++s) collected += slots[s].size();
      // The collect checked the pre-batch instance, as the chase's does,
      // so the tgd's apply mode rules out the same in-batch repeats
      // (chase.cc, RunTgdPhase). The witness binding supplies every head
      // slot, existentials included.
      const plan::ApplyMode mode = ApplyModeOn(plan.apply, instance);
      int64_t applied = 0;
      int64_t rechecked = 0;
      for (size_t s = 0; s < used; ++s) {
        for (const SolutionAwareTrigger& trigger : slots[s]) {
          head.clear();
          AppendHeadRow(plan.apply, trigger.extended.values.data(), &head);
          if (mode == plan::ApplyMode::kLive) {
            ++rechecked;
            if (HeadHoldsLive(plan, instance, trigger.body, head.data())) {
              continue;
            }
          }
          if (!AddHeadRow(plan.apply, head.data(), &instance) &&
              mode == plan::ApplyMode::kInsert) {
            continue;  // the head already held
          }
          ++applied;
          ++result.steps;
          if (result.steps >= options.max_steps) {
            result.outcome = ChaseOutcome::kBudgetExhausted;
            return result;
          }
        }
      }
      tgd_span.AttrInt("collected", static_cast<int64_t>(collected))
          .AttrInt("applied", applied)
          .AttrInt("rechecked", rechecked);
    }
    mark = std::move(frontier);
    extras.clear();
  }
}

}  // namespace

ChaseResult SolutionAwareChase(const Instance& start,
                               const std::vector<Tgd>& tgds,
                               const std::vector<Egd>& egds,
                               const Instance& solution,
                               const ChaseOptions& options) {
  obs::Span run_span(obs::Tracer::Global(), "chase");
  run_span.AttrStr("strategy", "solution_aware")
      .AttrInt("tgds", static_cast<int64_t>(tgds.size()))
      .AttrInt("egds", static_cast<int64_t>(egds.size()));
  ChaseResult result =
      SolutionAwareChaseImpl(start, tgds, egds, solution, options);
  run_span.AttrInt("steps", result.steps)
      .AttrBool("failed", result.outcome == ChaseOutcome::kFailed);
  SaMetrics& metrics = SaMetrics::Get();
  metrics.runs.Inc();
  metrics.steps.Inc(result.steps);
  return result;
}

}  // namespace pdx
