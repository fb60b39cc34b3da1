#include "chase/solution_aware_chase.h"

#include <memory>

#include "base/string_util.h"
#include "base/thread_pool.h"
#include "hom/matcher.h"
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

// True if some body atom's relation has new facts in `delta`.
bool TouchesDelta(const std::vector<Atom>& body, const DeltaView& delta) {
  for (const Atom& atom : body) {
    if (delta.dirty(atom.relation)) return true;
  }
  return false;
}

// The per-match collection step: skip satisfied triggers, extend violated
// ones into `solution` (guaranteed possible since solution ⊇ instance
// satisfies the tgd). Pure reads of `instance` and `solution`, so workers
// may run it concurrently. The satisfaction probe and the witness search
// both execute the compiled head program (compiled with the universal
// variables pre-bound — exactly this call shape).
void CollectOneTrigger(const Instance& instance, const Instance& solution,
                       const plan::TgdPlan& plan, const Binding& body_match,
                       std::vector<SolutionAwareTrigger>* out) {
  if (HasMatchPlanned(plan.head, instance, body_match)) {
    return;  // satisfied trigger
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
}

// Collects one tgd's violated triggers, each extended into `solution`.
// With a pool the delta partitions fan across its workers and the
// per-partition buffers are concatenated in partition order: the trigger
// order the sequential enumeration produces.
std::vector<SolutionAwareTrigger> CollectTriggers(
    const Instance& instance, const DeltaView& delta,
    const Instance& solution, const Tgd& tgd, const plan::TgdPlan& plan,
    ThreadPool* pool, uint64_t parent_span) {
  std::vector<SolutionAwareTrigger> out;
  const Binding empty = Binding::Empty(tgd.var_count);
  if (pool == nullptr) {
    EnumerateMatchesDeltaPlanned(
        plan.body, instance, delta, empty, [&](const Binding& body_match) {
          CollectOneTrigger(instance, solution, plan, body_match, &out);
          return true;
        });
    return out;
  }
  const std::vector<DeltaPartition> parts = PartitionDeltaMatches(
      tgd.body, delta, static_cast<size_t>(pool->size()) * 4);
  std::vector<std::vector<SolutionAwareTrigger>> buffers(parts.size());
  pool->ParallelFor(parts.size(), [&](size_t p) {
    obs::Span part_span(obs::Tracer::Global(), "chase.collect_part",
                        parent_span);
    part_span.AttrInt("partition", static_cast<int64_t>(p));
    EnumerateMatchesDeltaPartitionPlanned(
        plan.body, instance, delta, parts[p], empty,
        [&](const Binding& body_match) {
          CollectOneTrigger(instance, solution, plan, body_match,
                            &buffers[p]);
          return true;
        });
    part_span.AttrInt("collected", static_cast<int64_t>(buffers[p].size()));
  });
  for (std::vector<SolutionAwareTrigger>& buffer : buffers) {
    out.insert(out.end(), std::make_move_iterator(buffer.begin()),
               std::make_move_iterator(buffer.end()));
  }
  return out;
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
      const Tgd& tgd = tgds[d];
      if (!TouchesDelta(tgd.body, delta)) continue;
      const plan::TgdPlan& plan = compiled->tgds[d];
      obs::Span tgd_span(obs::Tracer::Global(), "chase.tgd");
      tgd_span.AttrInt("dep", static_cast<int64_t>(d));
      const std::vector<SolutionAwareTrigger> pending = CollectTriggers(
          instance, delta, solution, tgd, plan, pool, tgd_span.id());
      tgd_span.AttrInt("collected", static_cast<int64_t>(pending.size()));
      for (const SolutionAwareTrigger& trigger : pending) {
        // Re-check on the body match: an earlier application this round
        // may have satisfied it.
        if (HasMatchPlanned(plan.head, instance, trigger.body)) continue;
        // Head rows through the fused apply template; the witness binding
        // supplies every slot, existentials included.
        size_t cursor = 0;
        for (const plan::HeadAtom& atom : plan.apply.head_atoms) {
          Tuple tuple;
          tuple.reserve(atom.arity);
          for (int s = 0; s < atom.arity; ++s) {
            const plan::HeadSlot& slot = plan.apply.slots[cursor++];
            tuple.push_back(slot.is_const ? slot.key
                                          : trigger.extended.values[slot.var]);
          }
          instance.AddFact(atom.relation, std::move(tuple));
        }
        ++result.steps;
        if (result.steps >= options.max_steps) {
          result.outcome = ChaseOutcome::kBudgetExhausted;
          return result;
        }
      }
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
