#include "chase/chase.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "base/string_util.h"
#include "base/thread_pool.h"
#include "chase/delta_phase.h"
#include "chase/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/ir.h"
#include "plan/plan_cache.h"

namespace pdx {

namespace {

// Chase metrics on the process registry, each a deterministic function of
// the chase inputs — identical at every num_threads setting (obs_test pins
// this): the per-run totals are added once at the Chase() wrapper, the
// per-match and per-merge counters on the hot path (the egd fixpoint's
// merge counter per merge, the tgd phase's match counts once per batch).
struct ChaseMetrics {
  obs::Counter runs;
  obs::Counter steps;
  obs::Counter nulls;
  obs::Counter rounds;
  obs::Counter tgd_matches;
  obs::Counter egd_merges;
  obs::Counter compactions;
  obs::Histogram batch_triggers;  // violated triggers per dependency batch

  static ChaseMetrics& Get() {
    static ChaseMetrics* m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      auto* metrics = new ChaseMetrics();
      metrics->runs = reg.GetCounter("pdx_chase_runs_total");
      metrics->steps = reg.GetCounter("pdx_chase_steps_total");
      metrics->nulls = reg.GetCounter("pdx_chase_nulls_created_total");
      metrics->rounds = reg.GetCounter("pdx_chase_rounds_total");
      metrics->tgd_matches = reg.GetCounter("pdx_chase_tgd_matches_total");
      metrics->egd_merges = reg.GetCounter("pdx_chase_egd_merges_total");
      metrics->compactions = reg.GetCounter("pdx_chase_compactions_total");
      metrics->batch_triggers = reg.GetHistogram(
          "pdx_chase_batch_triggers", {1, 4, 16, 64, 256, 1024, 4096});
      return metrics;
    }();
    return *m;
  }
};

// The egd fixpoint's working storage, per thread, so that a steady-state
// fixpoint allocates nothing (the generic solver runs one per search
// node, and its egd probe another): the violated-trigger rows (one flat
// buffer per collect slot, one var_count-strided row per violated body
// match), the dirty tuples of the previous and the current pass, the
// pass's DeltaView and the merge result. On scope exit every collect
// slot grown past kKeepValues is freed, and the rest is freed once a
// call dirtied more than kKeepValues tuples, so no thread keeps a large
// fixpoint's peak.
struct EgdScratch {
  static constexpr size_t kKeepValues = size_t{1} << 14;
  struct Buffers {
    std::vector<std::vector<Value>> slots;
    std::vector<std::vector<int>> frontier;  // dirtied by the last pass
    std::vector<std::vector<int>> dirty;     // dirtied by this pass
    DeltaView delta;
    Instance::MergeResult merge;
  };
  Buffers& b = *[] {
    thread_local Buffers buffers;
    return &buffers;
  }();
  int64_t dirtied = 0;  // tuples this call's views were built over
  ~EgdScratch() {
    for (std::vector<Value>& slot : b.slots) {
      if (slot.capacity() > kKeepValues) std::vector<Value>().swap(slot);
    }
    if (dirtied > static_cast<int64_t>(kKeepValues)) {
      b.frontier = {};
      b.dirty = {};
      b.delta = DeltaView();
      b.merge = Instance::MergeResult();
    }
  }
};

// One collect slot of the tgd phase, in flat buffers rather than
// per-trigger objects: `rows` holds each kept match's binding values
// (var_count per trigger) and `heads` its head rows (head_width per
// trigger, atoms concatenated in tgd.head order), built by the worker that
// found the match. The existential slots of both stay unfilled until the
// apply mints the trigger's nulls. A worker only appends values, so the
// collect allocates no per-trigger objects and the apply is a streaming
// scan in enumeration order.
struct TgdRows {
  std::vector<Value> rows;
  std::vector<Value> heads;
  size_t count = 0;     // kept triggers
  int64_t matches = 0;  // body matches enumerated, kept or not

  void clear() {
    rows.clear();
    heads.clear();
    count = 0;
    matches = 0;
  }
};

// One round's tgd phase at every thread count. For each tgd touching the
// delta:
//   - Collect (CollectDeltaSlots into the run-owned `slots`): keep each
//     match whose head does not already hold (HasMatchPlanned) and build
//     its head rows.
//   - Apply, on the calling thread in slot order, which is the sequential
//     enumeration order. An earlier trigger of the batch may have
//     satisfied a later one; the tgd's ApplyMode (plan/ir.h) says how
//     that is ruled out. kLive re-checks the head against the live
//     instance, kInsert fires a trigger only if its inserts add a fact,
//     and kNone needs no check. A firing trigger mints its nulls
//     (FreshNull, in existential order), inserts its head rows and
//     journals its extended row.
// Null ids thus follow the apply order alone, so results are bit-identical
// at every thread count and no null id is drawn for a skipped trigger.
// Returns false when the step budget was exhausted (`result` is
// finalized).
bool RunTgdPhase(const std::vector<Tgd>& tgds,
                 const plan::CompiledSetting& compiled, const DeltaView& delta,
                 SymbolTable* symbols, ThreadPool* pool, int64_t max_steps,
                 ChaseJournal* journal, std::vector<TgdRows>* slots,
                 ChaseResult* result) {
  ChaseMetrics& metrics = ChaseMetrics::Get();
  Instance& instance = result->instance;
  for (size_t d = 0; d < tgds.size(); ++d) {
    const Tgd& tgd = tgds[d];
    const plan::TgdPlan& plan = compiled.tgds[d];
    if (!TouchesDelta(plan.body, delta)) continue;
    const plan::ApplyTemplate& apply = plan.apply;
    obs::Span tgd_span(obs::Tracer::Global(), "chase.tgd");
    tgd_span.AttrInt("dep", static_cast<int64_t>(d));
    const size_t used = CollectDeltaSlots(
        plan.body, instance, delta, pool, tgd_span.id(), slots,
        [&](TgdRows* buffer, const Binding& m) {
          ++buffer->matches;
          if (HasMatchPlanned(plan.head, instance, m)) return false;
          buffer->rows.insert(buffer->rows.end(), m.values.begin(),
                              m.values.end());
          AppendHeadRow(apply, m.values.data(), &buffer->heads);
          ++buffer->count;
          return true;
        });
    int64_t matches = 0;
    size_t collected = 0;
    for (size_t s = 0; s < used; ++s) {
      matches += (*slots)[s].matches;
      collected += (*slots)[s].count;
    }
    metrics.tgd_matches.Inc(matches);
    metrics.batch_triggers.Observe(static_cast<int64_t>(collected));
    // Every trigger binds exactly the body variables (ApplyTemplate), so
    // one scratch Binding with that mask serves the whole scan: only its
    // values are refreshed from the rows, and the existential slots stay
    // masked off, as the head re-check needs.
    Binding scratch = Binding::Empty(tgd.var_count);
    scratch.bound = apply.body_bound;
    const size_t var_count = static_cast<size_t>(tgd.var_count);
    const plan::ApplyMode mode = ApplyModeOn(apply, instance);
    int64_t applied = 0;
    int64_t rechecked = 0;
    for (size_t s = 0; s < used; ++s) {
      TgdRows& buffer = (*slots)[s];
      Value* row = buffer.rows.data();
      Value* head = buffer.heads.data();
      for (size_t t = 0; t < buffer.count;
           ++t, row += var_count, head += apply.head_width) {
        if (mode == plan::ApplyMode::kLive) {
          ++rechecked;
          std::copy(row, row + var_count, scratch.values.begin());
          if (HeadHoldsLive(plan, instance, scratch, head)) continue;
        }
        for (VariableId v : apply.existentials) row[v] = symbols->FreshNull();
        for (const auto& [pos, v] : apply.head_null_slots) head[pos] = row[v];
        if (!AddHeadRow(apply, head, &instance) &&
            mode == plan::ApplyMode::kInsert) {
          continue;  // the head already held
        }
        if (journal != nullptr) {
          journal->RecordTgd(d, row, var_count, tgd.existential);
        }
        result->nulls_created += apply.fresh_per_trigger;
        ++result->tgd_fired[d];
        ++applied;
        if (++result->steps >= max_steps) {
          result->outcome = ChaseOutcome::kBudgetExhausted;
          return false;
        }
      }
    }
    tgd_span.AttrInt("collected", static_cast<int64_t>(collected))
        .AttrInt("applied", applied)
        .AttrInt("rechecked", rechecked);
  }
  return true;
}

// Copies an egd fixpoint outcome into a ChaseResult. Returns false if the
// chase must stop (clash or budget).
bool AbsorbEgdOutcome(const EgdFixpointOutcome& egd_out, ChaseResult* result) {
  result->steps += egd_out.steps;
  if (egd_out.failed) {
    result->outcome = ChaseOutcome::kFailed;
    result->failure = egd_out.failure;
    return false;
  }
  if (egd_out.budget_exhausted) {
    result->outcome = ChaseOutcome::kBudgetExhausted;
    return false;
  }
  return true;
}

// Auto-compaction of merge-heavy raw stores: once at least
// kCompactDuplicateRatio of the raw tuples are duplicates under resolution
// and the store holds at least kCompactMinFacts of them, the chase swaps
// in CompactResolved(keep_resolver=true) and restarts its watermark.
// Reclaims memory on long egd-heavy runs without changing any result.
constexpr double kCompactDuplicateRatio = 0.5;
constexpr size_t kCompactMinFacts = 4096;

// The delta-driven restricted chase: the fixpoint loop works off a
// watermark into the instance; each round evaluates only triggers whose
// body touches a fact beyond the watermark (semi-naive evaluation over the
// compiled bodies' delta partitions, PartitionDeltaMatches) or a tuple
// dirtied by an egd merge, then advances the watermark to the round's
// frontier. Egd steps are union-find merges in the instance's value
// layer: O(α) unions that never rewrite tuples, so watermarks stay valid
// and only the dirty equivalence classes are re-examined.
//
// Each round's tgd phase is RunTgdPhase: with a pool, each tgd's collect
// fans across the delta partitions; the apply stays sequential in
// enumeration order and mints every fresh null there, and later tgds still
// see earlier tgds' additions, so the per-round state sequence — and with
// it every fresh-null assignment — is bit-identical to the single-threaded
// run.
ChaseResult ChaseRestrictedDelta(Instance start,
                                 const std::vector<Tgd>& tgds,
                                 const std::vector<Egd>& egds,
                                 SymbolTable* symbols,
                                 const ChaseOptions& options,
                                 ThreadPool* pool,
                                 const plan::CompiledSetting& compiled) {
  ChaseResult result(std::move(start));
  result.tgd_fired.assign(tgds.size(), 0);
  Instance& instance = result.instance;
  // Everything is "new" before the first round, so round one degenerates
  // to a full scan — exactly once. An
  // incremental caller (ChaseOptions::resume_from) instead seeds the
  // round with its own watermark: only facts added past it are pending,
  // which is sound because the pre-watermark state was already a
  // fixpoint of these dependencies.
  InstanceWatermark mark = options.resume_from != nullptr
                               ? *options.resume_from
                               : InstanceWatermark::Origin(instance);
  // Per-relation indexes of pre-watermark tuples dirtied by this round's
  // merges; the tgd phase re-examines them alongside the additive delta.
  std::vector<std::vector<int>> extras;
  // Dirty-tuple entries reported by merges since the last exact duplicate
  // count: an upper bound on new resolved duplicates, so the O(n)
  // ResolvedFactCount check runs only when compaction could plausibly
  // trigger.
  int64_t dirty_accum = 0;
  ChaseMetrics& metrics = ChaseMetrics::Get();
  int64_t round = 0;
  // Collect slots shared across rounds and dependencies: cleared, not
  // freed, so steady-state rounds append into retained capacity.
  std::vector<TgdRows> slots;
  while (true) {
    if (result.steps >= options.max_steps) {
      result.outcome = ChaseOutcome::kBudgetExhausted;
      return result;
    }
    obs::Span round_span(obs::Tracer::Global(), "chase.round");
    round_span.AttrInt("round", round);
    metrics.rounds.Inc();
    ++round;
    EgdFixpointOutcome egd_out = RunEgdsToFixpointDelta(
        egds, compiled.egds, &instance, mark, options.max_steps - result.steps,
        symbols, &extras, pool, options.journal);
    if (!AbsorbEgdOutcome(egd_out, &result)) return result;
    dirty_accum += egd_out.dirtied;
    DeltaView delta(instance, mark, extras);
    if (!delta.any()) {
      // Nothing new since the last full round: every trigger has been
      // examined against a state it still holds in. Fixpoint.
      result.outcome = ChaseOutcome::kSuccess;
      return result;
    }
    // Facts present now are covered once this round's triggers have been
    // evaluated; facts the round itself adds become the next delta.
    InstanceWatermark frontier = instance.TakeWatermark();
    if (!RunTgdPhase(tgds, compiled, delta, symbols, pool, options.max_steps,
                     options.journal, &slots, &result)) {
      return result;
    }
    mark = std::move(frontier);
    extras.clear();
    // Auto-compaction: merges leave resolved-duplicate raw tuples behind.
    // Once enough dirt has accumulated for the duplicate ratio to
    // plausibly exceed the threshold, count exactly; if it does, swap in
    // the compacted store (keeping the resolver, so earlier merge history
    // still resolves) and restart the watermark. The extra rescan round
    // fires nothing — satisfied triggers stay satisfied — so outcome,
    // steps and fingerprint are unchanged.
    if (instance.has_merges() && instance.fact_count() >= kCompactMinFacts &&
        static_cast<double>(dirty_accum) >=
            kCompactDuplicateRatio *
                static_cast<double>(instance.fact_count())) {
      size_t duplicates =
          instance.fact_count() - instance.ResolvedFactCount();
      if (static_cast<double>(duplicates) >=
          kCompactDuplicateRatio *
              static_cast<double>(instance.fact_count())) {
        obs::Span compact_span(obs::Tracer::Global(), "chase.compact");
        compact_span.AttrInt("duplicates",
                             static_cast<int64_t>(duplicates));
        instance = instance.CompactResolved(/*keep_resolver=*/true);
        mark = InstanceWatermark::Origin(instance);
        ++result.compactions;
      }
      dirty_accum = 0;
    }
  }
}

}  // namespace

EgdFixpointOutcome RunEgdsToFixpointDelta(
    const std::vector<Egd>& egds, const std::vector<plan::EgdPlan>& egd_plans,
    Instance* instance, const InstanceWatermark& mark, int64_t max_steps,
    const SymbolTable* symbols, std::vector<std::vector<int>>* extras,
    ThreadPool* pool, ChaseJournal* journal) {
  EgdFixpointOutcome out;
  if (egds.empty()) return out;
  PDX_CHECK_EQ(egd_plans.size(), egds.size());
  obs::Span fixpoint_span(obs::Tracer::Global(), "chase.egd_fixpoint");
  obs::Counter& merge_counter = ChaseMetrics::Get().egd_merges;
  int64_t passes = 0;
  const size_t n = static_cast<size_t>(instance->schema().relation_count());
  if (extras->empty()) extras->resize(n);
  // Pass 1 pivots on the additive delta beyond `mark` (plus any extras the
  // caller already accumulated). A merge changes the resolved content of
  // exactly the tuples holding the losing class, so any trigger it newly
  // violates must bind one of them: pass k+1 pivots only on the tuples
  // pass k dirtied, until no merge fires.
  EgdScratch scratch;
  for (const std::vector<int>& list : *extras) {
    scratch.dirtied += static_cast<int64_t>(list.size());
  }
  DeltaView& delta = scratch.b.delta;
  std::vector<std::vector<int>>& frontier = scratch.b.frontier;
  std::vector<std::vector<int>>& pass_dirty = scratch.b.dirty;
  Instance::MergeResult& merge = scratch.b.merge;
  bool first_pass = true;
  while (true) {
    obs::Span pass_span(obs::Tracer::Global(), "chase.egd_pass");
    pass_span.AttrInt("pass", passes);
    ++passes;
    // Later passes have no additive delta: the view is the instance's
    // current extent plus the tuples the previous pass dirtied.
    if (first_pass) {
      delta.Reset(*instance, &mark, extras);
    } else {
      delta.Reset(*instance, nullptr, &frontier);
    }
    pass_dirty.resize(n);
    ClearLists(&pass_dirty);
    bool merged_any = false;
    for (size_t e = 0; e < egds.size(); ++e) {
      const Egd& egd = egds[e];
      if (!TouchesDelta(egd_plans[e].body, delta)) continue;
      // Collect every trigger violated under the pre-pass resolution, then
      // merge in collection order, skipping rows an earlier merge of the
      // batch already equated. Triggers a merge newly enables bind a tuple
      // it dirtied, so the next pass's frontier catches them.
      const size_t slots = CollectDeltaSlots(
          egd_plans[e].body, *instance, delta, pool, pass_span.id(),
          &scratch.b.slots,
          [&egd](std::vector<Value>* buffer, const Binding& m) {
            if (m.values[egd.left_var] == m.values[egd.right_var]) {
              return false;
            }
            buffer->insert(buffer->end(), m.values.begin(), m.values.end());
            return true;
          });
      const size_t width = static_cast<size_t>(egd.var_count);
      for (size_t slot = 0; slot < slots; ++slot) {
        const std::vector<Value>& buffer = scratch.b.slots[slot];
        for (size_t r = 0; r < buffer.size(); r += width) {
          const Value* row = buffer.data() + r;
          Value a = instance->ResolveValue(row[egd.left_var]);
          Value b = instance->ResolveValue(row[egd.right_var]);
          if (a == b) continue;
          instance->MergeValues(a, b, &merge);
          ++out.steps;
          if (merge.conflict) {
            out.failed = true;
            out.failure =
                symbols != nullptr
                    ? StrCat("egd equates distinct constants ",
                             symbols->ValueToString(merge.winner), " and ",
                             symbols->ValueToString(merge.loser))
                    : "egd equates distinct constants";
            return out;
          }
          PDX_DCHECK(merge.merged);
          merge_counter.Inc();
          // Journal the forcing row: deletion propagation re-checks it.
          if (journal != nullptr) journal->RecordEgd(e, row, width);
          for (const auto& [relation, idx] : merge.dirty) {
            (*extras)[relation].push_back(idx);
            pass_dirty[relation].push_back(idx);
          }
          out.dirtied += static_cast<int64_t>(merge.dirty.size());
          scratch.dirtied += static_cast<int64_t>(merge.dirty.size());
          merged_any = true;
          if (out.steps >= max_steps) {
            out.budget_exhausted = true;
            return out;
          }
        }
      }
    }
    if (!merged_any) {
      fixpoint_span.AttrInt("passes", passes).AttrInt("merges", out.steps);
      return out;
    }
    first_pass = false;
    frontier.swap(pass_dirty);
  }
}

int ResolveThreadCount(const ChaseOptions& options) {
  return options.num_threads <= 0 ? ThreadPool::HardwareConcurrency()
                                  : options.num_threads;
}

namespace {

ChaseResult ChaseRun(Instance start, const std::vector<Tgd>& tgds,
                     const std::vector<Egd>& egds, SymbolTable* symbols,
                     const ChaseOptions& options) {
  PDX_CHECK(symbols != nullptr);
  obs::Span run_span(obs::Tracer::Global(), "chase");
  const int threads = ResolveThreadCount(options);
  run_span.AttrStr("strategy", "restricted")
      .AttrInt("threads", threads)
      .AttrInt("tgds", static_cast<int64_t>(tgds.size()))
      .AttrInt("egds", static_cast<int64_t>(egds.size()));
  // One cache probe per run; re-chases of the same setting hit and reuse
  // the plans compiled on first sight.
  std::shared_ptr<const plan::CompiledSetting> compiled =
      plan::PlanCache::Global().GetOrCompile(tgds, egds);
  std::unique_ptr<ThreadPool> pool =
      threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr;
  ChaseResult result = ChaseRestrictedDelta(std::move(start), tgds, egds,
                                            symbols, options, pool.get(),
                                            *compiled);
  run_span.AttrInt("steps", result.steps)
      .AttrBool("failed", result.outcome == ChaseOutcome::kFailed);
  ChaseMetrics& metrics = ChaseMetrics::Get();
  metrics.runs.Inc();
  metrics.steps.Inc(result.steps);
  metrics.nulls.Inc(result.nulls_created);
  metrics.compactions.Inc(result.compactions);
  return result;
}

}  // namespace

ChaseResult Chase(const Instance& start, const std::vector<Tgd>& tgds,
                  const std::vector<Egd>& egds, SymbolTable* symbols,
                  const ChaseOptions& options) {
  return ChaseRun(start, tgds, egds, symbols, options);
}

ChaseResult Chase(Instance&& start, const std::vector<Tgd>& tgds,
                  const std::vector<Egd>& egds, SymbolTable* symbols,
                  const ChaseOptions& options) {
  return ChaseRun(std::move(start), tgds, egds, symbols, options);
}

ChaseResult Chase(const Instance& start, const std::vector<Tgd>& tgds,
                  SymbolTable* symbols, const ChaseOptions& options) {
  return Chase(start, tgds, {}, symbols, options);
}

// The Satisfies* checks run on the compiled plans of the setting's own
// dependencies (PlanCache): each body match must extend to a match of a
// head plan, which is compiled with the body variables bound.
bool SatisfiesTgd(const Instance& instance, const Tgd& tgd) {
  const std::shared_ptr<const plan::CompiledSetting> compiled =
      plan::PlanCache::Global().GetOrCompile({tgd}, {});
  const plan::TgdPlan& plan = compiled->tgds[0];
  return !EnumerateMatchesPlanned(
      plan.body, instance, Binding::Empty(tgd.var_count),
      [&](const Binding& body_match) {
        // Keep searching while the trigger is satisfied.
        return HasMatchPlanned(plan.head, instance, body_match);
      });
}

bool SatisfiesEgd(const Instance& instance, const Egd& egd) {
  const std::shared_ptr<const plan::CompiledSetting> compiled =
      plan::PlanCache::Global().GetOrCompile({}, {egd});
  return !EnumerateMatchesPlanned(
      compiled->egds[0].body, instance, Binding::Empty(egd.var_count),
      [&](const Binding& body_match) {
        return body_match.values[egd.left_var] ==
               body_match.values[egd.right_var];
      });
}

bool SatisfiesDisjunctiveTgd(const Instance& instance,
                             const DisjunctiveTgd& tgd) {
  // One plan per disjunct, all with the tgd's body.
  const std::shared_ptr<const plan::CompiledSetting> compiled =
      plan::PlanCache::Global().GetOrCompile(SplitDisjuncts(tgd), {});
  return !EnumerateMatchesPlanned(
      compiled->tgds[0].body, instance, Binding::Empty(tgd.var_count),
      [&](const Binding& body_match) {
        for (const plan::TgdPlan& disjunct : compiled->tgds) {
          if (HasMatchPlanned(disjunct.head, instance, body_match)) {
            return true;  // this trigger satisfied; keep searching
          }
        }
        return false;  // violated trigger found; stop (=> not satisfied)
      });
}

bool SatisfiesAll(const Instance& instance, const DependencySet& deps) {
  for (const Tgd& tgd : deps.tgds) {
    if (!SatisfiesTgd(instance, tgd)) return false;
  }
  for (const Egd& egd : deps.egds) {
    if (!SatisfiesEgd(instance, egd)) return false;
  }
  for (const DisjunctiveTgd& tgd : deps.disjunctive_tgds) {
    if (!SatisfiesDisjunctiveTgd(instance, tgd)) return false;
  }
  return true;
}

}  // namespace pdx
