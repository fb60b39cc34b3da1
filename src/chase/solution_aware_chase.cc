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
  obs::Counter runs, steps, rounds, tgd_matches, pipeline_overlaps;
  static SaMetrics& Get() {
    static SaMetrics* m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      auto* metrics = new SaMetrics();
      metrics->runs = reg.GetCounter("pdx_chase_runs_total");
      metrics->steps = reg.GetCounter("pdx_chase_steps_total");
      metrics->rounds = reg.GetCounter("pdx_chase_rounds_total");
      metrics->tgd_matches = reg.GetCounter("pdx_chase_tgd_matches_total");
      metrics->pipeline_overlaps =
          reg.GetCounter("pdx_chase_pipeline_overlaps_total");
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

// The asynchronously startable collection of one tgd's violated triggers,
// each extended into `solution`: the delta partitions fan across the
// pool's workers and Join() concatenates the per-partition buffers in
// partition order — the same trigger order the sequential enumeration
// produces. Run() collects synchronously; Start() hands the partitions to
// the workers while the caller applies the previous tgd's triggers.
class SaCollectJob {
 public:
  SaCollectJob(const Instance* instance, const DeltaView* delta,
               const Instance* solution, const Tgd* tgd,
               const plan::TgdPlan* plan, ThreadPool* pool,
               uint64_t parent_span, bool pipelined)
      : instance_(instance),
        delta_(delta),
        solution_(solution),
        plan_(plan),
        pool_(pool),
        parent_span_(parent_span),
        pipelined_(pipelined) {
    parts_ = PartitionDeltaMatches(tgd->body, *delta,
                                   static_cast<size_t>(pool->size()) * 4);
    buffers_.resize(parts_.size());
  }

  void Run() {
    pool_->ParallelFor(parts_.size(),
                       [this](size_t p) { RunPartition(p); });
  }

  void Start() {
    pool_->ParallelForAsync(parts_.size(),
                            [this](size_t p) { RunPartition(p); });
    started_async_ = true;
  }

  std::vector<SolutionAwareTrigger> Join() {
    if (started_async_) {
      pool_->Wait();
      started_async_ = false;
    }
    std::vector<SolutionAwareTrigger> out;
    for (std::vector<SolutionAwareTrigger>& buffer : buffers_) {
      out.insert(out.end(), std::make_move_iterator(buffer.begin()),
                 std::make_move_iterator(buffer.end()));
    }
    return out;
  }

 private:
  void RunPartition(size_t p) {
    obs::Span part_span(obs::Tracer::Global(), "chase.collect_part",
                        parent_span_);
    part_span.AttrInt("partition", static_cast<int64_t>(p))
        .AttrBool("pipelined", pipelined_);
    EnumerateMatchesDeltaPartitionPlanned(
        plan_->body, *instance_, *delta_, parts_[p],
        Binding::Empty(plan_->body.var_count), [&](const Binding& body_match) {
          CollectOneTrigger(*instance_, *solution_, *plan_, body_match,
                            &buffers_[p]);
          return true;
        });
    part_span.AttrInt("collected", static_cast<int64_t>(buffers_[p].size()));
  }

  const Instance* instance_;
  const DeltaView* delta_;
  const Instance* solution_;
  const plan::TgdPlan* plan_;
  ThreadPool* pool_;
  uint64_t parent_span_;
  bool pipelined_;
  bool started_async_ = false;
  std::vector<DeltaPartition> parts_;
  std::vector<std::vector<SolutionAwareTrigger>> buffers_;
};

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
  // sequential path.
  int threads = options.num_threads <= 0 ? ThreadPool::HardwareConcurrency()
                                         : options.num_threads;
  std::unique_ptr<ThreadPool> owned_pool =
      threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr;
  ThreadPool* pool = owned_pool.get();
  // Compiled plans, shared with the plain chase via the process cache.
  std::shared_ptr<const plan::CompiledSetting> compiled =
      plan::PlanCache::Global().GetOrCompile(tgds, egds);
  // The speculative schedule here enables only cross-dependency
  // pipelining (there is no null invention to speculate on). Footprints
  // follow the chase's rule: collecting a tgd reads its body and head
  // relations of the chased instance (the witness search runs in the
  // immutable `solution`), applying writes its head relations. Witnesses
  // come from the solution, so pipelining leaves the result bit-identical,
  // not just canonically equal.
  const bool pipelining =
      pool != nullptr &&
      ResolveSchedule(options) == ChaseSchedule::kSpeculative;
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
    std::vector<size_t> active;
    for (size_t d = 0; d < tgds.size(); ++d) {
      if (TouchesDelta(tgds[d].body, delta)) active.push_back(d);
    }
    std::unique_ptr<SaCollectJob> ahead;
    bool exhausted = false;
    for (size_t i = 0; i < active.size() && !exhausted; ++i) {
      const size_t d = active[i];
      const Tgd& tgd = tgds[d];
      const plan::TgdPlan& plan = compiled->tgds[d];
      obs::Span tgd_span(obs::Tracer::Global(), "chase.tgd");
      tgd_span.AttrInt("dep", static_cast<int64_t>(d));
      std::vector<SolutionAwareTrigger> pending;
      if (ahead != nullptr) {
        // Collected while the previous tgd was applying.
        pending = ahead->Join();
        ahead.reset();
      } else if (pool != nullptr) {
        SaCollectJob job(&instance, &delta, &solution, &tgd, &plan, pool,
                         tgd_span.id(), /*pipelined=*/false);
        job.Run();
        pending = job.Join();
      } else {
        EnumerateMatchesDeltaPlanned(
            plan.body, instance, delta, Binding::Empty(tgd.var_count),
            [&](const Binding& body_match) {
              CollectOneTrigger(instance, solution, plan, body_match,
                                &pending);
              return true;
            });
      }
      tgd_span.AttrInt("collected", static_cast<int64_t>(pending.size()));
      // Overlap the next active tgd's collection with this apply phase
      // when the footprints permit.
      if (pipelining && i + 1 < active.size() &&
          plan::FootprintsCompatible(compiled->footprints[d],
                                     compiled->footprints[active[i + 1]])) {
        const size_t next = active[i + 1];
        ahead = std::make_unique<SaCollectJob>(
            &instance, &delta, &solution, &tgds[next], &compiled->tgds[next],
            pool, tgd_span.id(), /*pipelined=*/true);
        ahead->Start();
        SaMetrics::Get().pipeline_overlaps.Inc();
      }
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
          exhausted = true;
          break;
        }
      }
    }
    // Join any still-running collect-ahead before the round state goes
    // away (its results are dropped on budget exhaustion).
    if (ahead != nullptr) ahead->Join();
    if (exhausted) return result;
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
