#include "chase/chase.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <utility>

#include "base/string_util.h"
#include "base/thread_pool.h"
#include "chase/journal.h"
#include "chase/trigger_ledger.h"
#include "hom/matcher.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/ir.h"
#include "plan/plan_cache.h"

namespace pdx {

namespace {

// Chase metrics on the process registry. Everything above the speculative
// block is a deterministic function of the chase inputs — identical at
// every num_threads setting (obs_test pins this): the per-run totals are
// added once at the Chase() wrapper, the per-match and per-merge counters
// are incremented on the hot path (match counting runs inside pool
// workers, exercising the registry's thread-local shards). The speculative
// counters move only under ChaseSchedule::kSpeculative and sit outside the
// invariance contract: how many reserved null ids go unused depends on
// partitioning and block-allocation accidents, not on the chase result.
struct ChaseMetrics {
  obs::Counter runs;
  obs::Counter steps;
  obs::Counter nulls;
  obs::Counter rounds;
  obs::Counter tgd_matches;
  obs::Counter egd_merges;
  obs::Counter compactions;
  obs::Histogram batch_triggers;  // violated triggers per dependency batch
  // Speculative-schedule extras (see RunTgdPhaseSpeculative).
  obs::Counter spec_triggers;       // head instantiations done in workers
  obs::Counter spec_nulls_retired;  // reserved null ids never inserted
  obs::Counter pipeline_overlaps;   // collections overlapped with an apply

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
      metrics->spec_triggers =
          reg.GetCounter("pdx_chase_speculative_triggers_total");
      metrics->spec_nulls_retired =
          reg.GetCounter("pdx_chase_speculative_nulls_retired_total");
      metrics->pipeline_overlaps =
          reg.GetCounter("pdx_chase_pipeline_overlaps_total");
      return metrics;
    }();
    return *m;
  }
};

// Finds one violated trigger for `tgd` in `instance`: a body homomorphism
// with no head extension. Returns true and fills `binding` if found.
bool FindViolatedTgdTrigger(const Instance& instance, const Tgd& tgd,
                            Binding* out) {
  return EnumerateMatches(
      tgd.body, tgd.var_count, instance, Binding::Empty(tgd.var_count),
      [&](const Binding& body_match) {
        if (HasMatch(tgd.head, tgd.var_count, instance, body_match)) {
          return true;  // satisfied trigger; keep searching
        }
        *out = body_match;
        return false;  // violated trigger found; stop
      });
}

// Finds one violated egd trigger: a body homomorphism with
// h(left) != h(right). Returns true and fills `out` if found.
bool FindViolatedEgdTrigger(const Instance& instance, const Egd& egd,
                            Binding* out) {
  return EnumerateMatches(
      egd.body, egd.var_count, instance, Binding::Empty(egd.var_count),
      [&](const Binding& body_match) {
        if (body_match.values[egd.left_var] ==
            body_match.values[egd.right_var]) {
          return true;  // satisfied; keep searching
        }
        *out = body_match;
        return false;
      });
}

// True if some body atom could match inside the delta at all.
bool TouchesDelta(const std::vector<Atom>& body, const DeltaView& delta) {
  for (const Atom& atom : body) {
    if (delta.dirty(atom.relation)) return true;
  }
  return false;
}

// Enumerates the delta matches of a compiled body — all of them, or one
// partition's when `part` is non-null.
bool EnumerateDelta(const plan::BodyPlan& body, const Instance& instance,
                    const DeltaView& delta, const DeltaPartition* part,
                    const std::function<bool(const Binding&)>& fn) {
  const Binding empty = Binding::Empty(body.var_count);
  return part == nullptr
             ? EnumerateMatchesDeltaPlanned(body, instance, delta, empty, fn)
             : EnumerateMatchesDeltaPartitionPlanned(body, instance, delta,
                                                     *part, empty, fn);
}

// The collect half of every chase phase: runs `collect(&slots[i], m)`,
// which returns true iff it kept m, over the delta matches of `body`
// (compiled from `atoms`, which the partitioning reads). Without a pool
// all matches go to slot 0; with one, the delta partitions fan across its
// workers, one slot each, so `collect` must be a pure read apart from its
// own slot. Returns the slots used; read in slot order they hold the
// sequential enumeration order. Slots are cleared, not shrunk.
template <typename Buffer, typename Collect>
size_t CollectDeltaSlots(const std::vector<Atom>& atoms,
                         const plan::BodyPlan& body, const Instance& instance,
                         const DeltaView& delta, ThreadPool* pool,
                         uint64_t parent_span, std::vector<Buffer>* slots,
                         const Collect& collect) {
  if (pool == nullptr) {
    if (slots->empty()) slots->resize(1);
    Buffer& buffer = (*slots)[0];
    buffer.clear();
    EnumerateDelta(body, instance, delta, /*part=*/nullptr,
                   [&](const Binding& m) {
                     collect(&buffer, m);
                     return true;
                   });
    return 1;
  }
  // A few partitions per participant so uneven pivot widths still balance
  // via stealing.
  std::vector<DeltaPartition> parts = PartitionDeltaMatches(
      atoms, delta, static_cast<size_t>(pool->size()) * 4);
  if (slots->size() < parts.size()) slots->resize(parts.size());
  pool->ParallelFor(parts.size(), [&](size_t p) {
    // One span per dependency × partition task, parented to the batch
    // span of the issuing thread (the thread_local nesting stack does not
    // cross into workers).
    obs::Span part_span(obs::Tracer::Global(), "chase.collect_part",
                        parent_span);
    part_span.AttrInt("partition", static_cast<int64_t>(p));
    Buffer& buffer = (*slots)[p];
    buffer.clear();
    int64_t kept = 0;
    EnumerateDelta(body, instance, delta, &parts[p], [&](const Binding& m) {
      if (collect(&buffer, m)) ++kept;
      return true;
    });
    part_span.AttrInt("collected", kept);
  });
  return parts.size();
}

// Collects the body matches for which `keep` returns true (see
// CollectDeltaSlots) into the first `returned` entries of `out`. Entries
// beyond are capacity kept from earlier rounds, so steady-state rounds
// copy-assign into existing Bindings instead of allocating per trigger.
size_t CollectDeltaMatches(
    const std::vector<Atom>& atoms, const plan::BodyPlan& body,
    const Instance& instance, const DeltaView& delta, ThreadPool* pool,
    const std::function<bool(const Binding&)>& keep,
    std::vector<Binding>* out, uint64_t parent_span = 0) {
  size_t used = 0;
  const auto emit = [&](const Binding& m) {
    if (used < out->size()) {
      (*out)[used] = m;
    } else {
      out->push_back(m);
    }
    ++used;
  };
  if (pool == nullptr) {
    EnumerateDelta(body, instance, delta, /*part=*/nullptr,
                   [&](const Binding& m) {
                     if (keep(m)) emit(m);
                     return true;
                   });
    return used;
  }
  std::vector<std::vector<Binding>> buffers;
  const size_t n = CollectDeltaSlots(
      atoms, body, instance, delta, pool, parent_span, &buffers,
      [&](std::vector<Binding>* buffer, const Binding& m) {
        if (!keep(m)) return false;
        buffer->push_back(m);
        return true;
      });
  for (size_t p = 0; p < n; ++p) {
    for (const Binding& m : buffers[p]) emit(m);
  }
  return used;
}

// The egd fixpoint's violated-trigger rows: one flat buffer per collect
// slot, one var_count-strided row per violated body match. They live per
// thread so steady-state collects allocate nothing (the generic solver
// runs one fixpoint per search node); on scope exit every slot grown past
// kKeepValues is freed, so no thread keeps a large fixpoint's peak.
struct EgdRows {
  static constexpr size_t kKeepValues = size_t{1} << 14;
  std::vector<std::vector<Value>>& slots = *[] {
    thread_local std::vector<std::vector<Value>> rows;
    return &rows;
  }();
  ~EgdRows() {
    for (std::vector<Value>& slot : slots) {
      if (slot.capacity() > kKeepValues) std::vector<Value>().swap(slot);
    }
  }
};

// The naive oracle's tgd chase step for the trigger `binding`, straight
// off the AST: extends the binding with fresh nulls for existential
// variables and inserts the head image. Returns the number of fresh nulls
// created.
int ApplyTgdStep(const Tgd& tgd, const Binding& binding, Instance* instance,
                 SymbolTable* symbols) {
  Binding extended = binding;
  int fresh = 0;
  for (VariableId v = 0; v < tgd.var_count; ++v) {
    if (tgd.existential[v] && !extended.bound[v]) {
      extended.Bind(v, symbols->FreshNull());
      ++fresh;
    }
  }
  for (const Atom& atom : tgd.head) {
    Tuple tuple;
    tuple.reserve(atom.terms.size());
    for (const Term& t : atom.terms) {
      if (t.is_constant()) {
        tuple.push_back(t.constant());
      } else {
        PDX_DCHECK(extended.bound[t.var()]);
        tuple.push_back(extended.values[t.var()]);
      }
    }
    instance->AddFact(atom.relation, std::move(tuple));
  }
  return fresh;
}

// Applies one tgd chase step for the trigger `binding` through the fused
// apply template: fresh nulls drawn in the template's existential order
// (ascending variable ids), head rows built slot by slot. Returns the
// number of fresh nulls created. With a journal, the extended row is
// recorded under `dep` for deletion propagation; `tgd` is only consulted
// then (the existential fingerprint mask).
int ApplyTgdStepPlanned(const plan::ApplyTemplate& apply,
                        const Binding& binding, Instance* instance,
                        SymbolTable* symbols, const Tgd* tgd = nullptr,
                        size_t dep = 0, ChaseJournal* journal = nullptr) {
  // Zero-allocation apply: fresh nulls land in a stack array parallel to
  // apply.existentials and each head row is staged in a stack buffer for
  // the span AddFact. Exotic shapes fall back to the Binding-extension
  // path.
  constexpr size_t kStack = 16;
  const size_t n_exist = apply.existentials.size();
  bool narrow = n_exist <= kStack;
  for (const plan::HeadAtom& atom : apply.head_atoms) {
    narrow = narrow && static_cast<size_t>(atom.arity) <= kStack;
  }
  if (narrow) {
    Value fresh[kStack];
    for (size_t i = 0; i < n_exist; ++i) {
      PDX_DCHECK(!binding.bound[apply.existentials[i]]);
      fresh[i] = symbols->FreshNull();
    }
    if (journal != nullptr) {
      // Journaled runs pay one extended-row materialization per firing;
      // the journal-off hot path stays allocation-free.
      std::vector<Value> full = binding.values;
      for (size_t i = 0; i < n_exist; ++i) {
        full[apply.existentials[i]] = fresh[i];
      }
      journal->RecordTgd(dep, full.data(), full.size(), tgd->existential);
    }
    Value row[kStack];
    size_t cursor = 0;
    for (const plan::HeadAtom& atom : apply.head_atoms) {
      for (int i = 0; i < atom.arity; ++i) {
        const plan::HeadSlot& slot = apply.slots[cursor++];
        if (slot.is_const) {
          row[i] = slot.key;
        } else if (binding.bound[slot.var]) {
          row[i] = binding.values[slot.var];
        } else {
          // Existential: the list is tiny (fresh_per_trigger), so a
          // linear scan beats any per-trigger map.
          size_t e = 0;
          while (e < n_exist && apply.existentials[e] != slot.var) ++e;
          PDX_DCHECK(e < n_exist);
          row[i] = e < n_exist ? fresh[e] : Value();
        }
      }
      instance->AddFact(atom.relation, row,
                        static_cast<size_t>(atom.arity));
    }
    return apply.fresh_per_trigger;
  }
  Binding extended = binding;
  for (VariableId v : apply.existentials) {
    PDX_DCHECK(!extended.bound[v]);
    extended.Bind(v, symbols->FreshNull());
  }
  if (journal != nullptr) {
    journal->RecordTgd(dep, extended.values.data(), extended.values.size(),
                       tgd->existential);
  }
  size_t cursor = 0;
  for (const plan::HeadAtom& atom : apply.head_atoms) {
    Tuple tuple;
    tuple.reserve(atom.arity);
    for (int i = 0; i < atom.arity; ++i) {
      const plan::HeadSlot& slot = apply.slots[cursor++];
      tuple.push_back(slot.is_const ? slot.key : extended.values[slot.var]);
    }
    instance->AddFact(atom.relation, std::move(tuple));
  }
  return apply.fresh_per_trigger;
}

// TriggerFingerprint and TriggerLedger moved to chase/trigger_ledger.h:
// the deletion-propagation journal (chase/journal.h) shares the ledger's
// exactly-once/retire discipline, so the class is now a public header.

// --- Speculative parallel execution (ChaseSchedule::kSpeculative) -----
//
// In barrier mode, workers only *collect* triggers and the sequential
// apply phase invents nulls and inserts, so results are bit-identical at
// every thread count. Speculative mode moves head instantiation (and, for
// the oblivious engine, ledger admission) into the workers and overlaps
// collection of the next compatible dependency with the current apply
// phase. The per-round trigger sets, apply order, outcome, steps,
// nulls_created and every resolved-view property are unchanged — but
// which null *ids* the existential witnesses get depends on which worker
// instantiated them, so results equal the barrier mode's only up to a
// bijective null renaming (CanonicalizeNulls in hom/instance_hom.h).

// Relation read/write footprints (plan::TgdFootprint, carried on the
// compiled setting) drive the cross-dependency scheduler. Collecting a
// tgd's triggers reads its body relations (the matcher) and its head
// relations (the restricted violated-trigger filter probes the head; kept
// in the read set for both engines); applying a tgd writes its head
// relations. Collection
// of B may safely overlap application of A iff A's writes are disjoint
// from B's reads: the copy-on-write stores never move on append — only
// the written relation's store changes — so every relation outside A's
// write set is stable under concurrent readers, and B's trigger set is
// the same whether it is collected before or after A's facts land.
using plan::FootprintsCompatible;
using plan::TgdFootprint;

// Speculatively collected triggers live in flat, partition-local
// buffers rather than per-trigger objects: `rows` holds the binding
// values (var_count per trigger, existential slots already filled with
// nulls from the worker's private range) and `heads` the fully
// instantiated head-atom values (head_width per trigger, atoms
// concatenated in tgd.head order). Flat storage is what makes
// speculation pay off — the worker's per-trigger cost is appending
// values (no per-trigger heap objects, so the allocator never sees
// cross-thread traffic), and the sequential apply phase becomes a
// streaming scan in prefetch order instead of a pointer chase over
// worker-allocated triggers.
struct SpecBuffer {
  std::vector<Value> rows;
  std::vector<Value> heads;
  std::vector<uint64_t> fps;  // admitted fingerprints (oblivious only)
  size_t count = 0;
};

// Speculative collection of one dependency's pending triggers: the delta
// partitions fan across the pool and each partition task instantiates the
// heads of the matches it admits through the tgd's apply template, drawing
// nulls from one exact-size partition-local range. With a null ledger the
// admission filter is the restricted engine's head probe; otherwise it is
// concurrent ledger admission (exactly one partition wins each
// fingerprint, which also collapses the duplicate matches the extras
// overlap can produce). The job either Run()s synchronously with the
// caller participating, or has its partitions driven externally by the
// scheduler's combined lookahead batch (RunPartition is safe from any pool
// worker); `buffers()` exposes the results in partition order — the
// sequential enumeration order, so the apply order is schedule-invariant.
class SpecCollectJob {
 public:
  SpecCollectJob(const Tgd* tgd, size_t dep_index, const plan::TgdPlan* plan,
                 const Instance* instance, const DeltaView* delta,
                 SymbolTable* symbols, TriggerLedger* ledger,
                 ThreadPool* pool, uint64_t parent_span, bool pipelined)
      : tgd_(tgd),
        dep_(dep_index),
        plan_(plan),
        instance_(instance),
        delta_(delta),
        symbols_(symbols),
        ledger_(ledger),
        pool_(pool),
        parent_span_(parent_span),
        pipelined_(pipelined) {
    parts_ = PartitionDeltaMatches(tgd->body, *delta,
                                   static_cast<size_t>(pool->size()) * 4);
    buffers_.resize(parts_.size());
  }

  // Collects synchronously, the caller participating.
  void Run() {
    pool_->ParallelFor(parts_.size(),
                       [this](size_t p) { RunPartition(p); });
  }

  size_t partition_count() const { return parts_.size(); }

  // The collected buffers, in partition order. Only valid once every
  // partition has run (after Run(), or after the scheduler joined the
  // async batch driving RunPartition); they stay owned by the job, so
  // the job must outlive the apply scan that reads them.
  const std::vector<SpecBuffer>& buffers() const { return buffers_; }

  // One partition's work; reentrant across distinct `p`, so a combined
  // lookahead batch can interleave partitions of several jobs on the
  // pool's workers.
  void RunPartition(size_t p) {
    obs::Span part_span(obs::Tracer::Global(), "chase.collect_part",
                        parent_span_);
    part_span.AttrInt("partition", static_cast<int64_t>(p))
        .AttrBool("speculative", true)
        .AttrBool("pipelined", pipelined_);
    ChaseMetrics& metrics = ChaseMetrics::Get();
    SpecBuffer& buffer = buffers_[p];
    const plan::ApplyTemplate& apply = plan_->apply;
    const auto admit = [&](const Binding& m) {
      metrics.tgd_matches.Inc();
      if (ledger_ != nullptr) {
        uint64_t fp = TriggerFingerprint(dep_, *tgd_, m);
        if (!ledger_->Admit(fp)) return true;
        buffer.fps.push_back(fp);
      } else if (HasMatchPlanned(plan_->head, *instance_, m)) {
        return true;
      }
      const size_t row = buffer.rows.size();
      buffer.rows.insert(buffer.rows.end(), m.values.begin(),
                         m.values.end());
      for (VariableId v : apply.existentials) PDX_DCHECK(!m.bound[v]);
      // Existential row/head slots hold junk until the patch pass
      // below fills them from the partition's exact null range.
      for (const plan::HeadSlot& slot : apply.slots) {
        buffer.heads.push_back(slot.is_const ? slot.key
                                             : buffer.rows[row + slot.var]);
      }
      ++buffer.count;
      return true;
    };
    EnumerateDelta(plan_->body, *instance_, *delta_, &parts_[p], admit);
    // Reserve the partition's nulls in one exact fetch_add only now that
    // the admitted count is known: block-sized draws would retire their
    // unused tails, and the resulting holes in the null id space inflate
    // every id-indexed structure downstream (the union-find resolver
    // arrays most of all — sparse ids measurably slow the egd fixpoint).
    const size_t fresh = apply.existentials.size();
    if (buffer.count > 0 && fresh > 0) {
      const uint32_t base = symbols_->ReserveNullRange(
          static_cast<uint32_t>(buffer.count * fresh));
      const size_t var_count = static_cast<size_t>(tgd_->var_count);
      for (size_t t = 0; t < buffer.count; ++t) {
        Value* row = buffer.rows.data() + t * var_count;
        for (size_t e = 0; e < fresh; ++e) {
          row[apply.existentials[e]] =
              Value::Null(base + static_cast<uint32_t>(t * fresh + e));
        }
        Value* head = buffer.heads.data() + t * apply.head_width;
        for (const auto& [pos, v] : apply.head_null_slots) {
          head[pos] = row[v];
        }
      }
    }
    metrics.spec_triggers.Inc(static_cast<int64_t>(buffer.count));
    part_span.AttrInt("collected", static_cast<int64_t>(buffer.count));
  }

 private:
  const Tgd* tgd_;
  size_t dep_;
  const plan::TgdPlan* plan_;
  const Instance* instance_;
  const DeltaView* delta_;
  SymbolTable* symbols_;
  TriggerLedger* ledger_;  // nullptr => restricted head-probe filter
  ThreadPool* pool_;
  uint64_t parent_span_;
  bool pipelined_;
  std::vector<DeltaPartition> parts_;
  std::vector<SpecBuffer> buffers_;
};

// One round's tgd phase under the kSpeculative schedule, shared by the
// restricted (ledger == nullptr) and oblivious engines: for each
// dependency touching the delta, collect fully instantiated triggers (see
// SpecCollectJob), then apply them sequentially in enumeration order.
//
// Scheduling is topological over the footprint DAG rather than one-ahead:
// before applying dependency i, the scheduler gathers *every* not-yet-
// collected dependency j > i whose read footprint is disjoint from the
// writes of every dependency that will apply before it (positions [i, j)
// — applied or not, their inserts land before j's buffers are consumed),
// and starts their collections as one combined async batch on the pool's
// workers (the pool runs one job at a time, so the batch interleaves all
// their partitions). Independent tgd families thus run collect → apply
// concurrently end-to-end instead of overlapping a single dependency.
// Applies still happen in active-list order, which keeps steps and
// nulls_created schedule-invariant.
//
// The apply re-checks each restricted head physically and inserts inline;
// oblivious triggers were admitted by the workers, so the apply only
// records their roots and inserts. Returns false when the step budget was
// exhausted (`result` is finalized).
bool RunTgdPhaseSpeculative(const std::vector<Tgd>& tgds,
                            const plan::CompiledSetting& compiled,
                            Instance* instance, const DeltaView& delta,
                            SymbolTable* symbols, TriggerLedger* ledger,
                            ThreadPool* pool, const ChaseOptions& options,
                            ChaseResult* result,
                            ChaseJournal* journal = nullptr) {
  ChaseMetrics& metrics = ChaseMetrics::Get();
  const std::vector<TgdFootprint>& footprints = compiled.footprints;
  std::vector<size_t> active;
  for (size_t d = 0; d < tgds.size(); ++d) {
    if (TouchesDelta(tgds[d].body, delta)) active.push_back(d);
  }
  // The jobs own the flat trigger buffers the apply scans read; each is
  // released once its dependency has applied.
  std::vector<std::unique_ptr<SpecCollectJob>> jobs(active.size());
  std::vector<bool> collected(active.size(), false);
  // Active-list positions whose collections run in the current combined
  // async batch; empty when no batch is in flight.
  std::vector<size_t> inflight;
  const auto make_job = [&](size_t i, bool pipelined, uint64_t parent) {
    const size_t d = active[i];
    return std::make_unique<SpecCollectJob>(
        &tgds[d], d, &compiled.tgds[d], instance, &delta, symbols, ledger,
        pool, parent, pipelined);
  };
  const auto join_batch = [&] {
    if (inflight.empty()) return;
    pool->Wait();
    for (size_t j : inflight) collected[j] = true;
    inflight.clear();
  };
  // Starts the combined lookahead batch for the apply at position i.
  const auto start_lookahead = [&](size_t i, uint64_t parent) {
    if (!inflight.empty()) return;  // pool runs one async job at a time
    for (size_t j = i + 1; j < active.size(); ++j) {
      if (collected[j]) continue;
      bool ready = true;
      for (size_t k = i; k < j && ready; ++k) {
        ready = FootprintsCompatible(footprints[active[k]],
                                     footprints[active[j]]);
      }
      if (ready) inflight.push_back(j);
    }
    if (inflight.empty()) return;
    auto units = std::make_shared<
        std::vector<std::pair<SpecCollectJob*, size_t>>>();
    for (size_t j : inflight) {
      jobs[j] = make_job(j, /*pipelined=*/true, parent);
      for (size_t p = 0; p < jobs[j]->partition_count(); ++p) {
        units->emplace_back(jobs[j].get(), p);
      }
    }
    metrics.pipeline_overlaps.Inc(static_cast<int64_t>(inflight.size()));
    if (units->empty()) {
      // Nothing to enumerate (empty partitions): collected trivially.
      for (size_t j : inflight) collected[j] = true;
      inflight.clear();
      return;
    }
    pool->ParallelForAsync(units->size(), [units](size_t u) {
      (*units)[u].first->RunPartition((*units)[u].second);
    });
  };
  bool exhausted = false;
  for (size_t i = 0; i < active.size() && !exhausted; ++i) {
    const size_t d = active[i];
    const Tgd& tgd = tgds[d];
    const plan::TgdPlan& plan = compiled.tgds[d];
    const plan::ApplyTemplate& apply = plan.apply;
    obs::Span tgd_span(obs::Tracer::Global(), "chase.tgd");
    tgd_span.AttrInt("dep", static_cast<int64_t>(d))
        .AttrStr("schedule", ScheduleName(ChaseSchedule::kSpeculative));
    const bool was_inflight =
        std::find(inflight.begin(), inflight.end(), i) != inflight.end();
    if (was_inflight || (!collected[i] && !inflight.empty())) {
      // Either our own collection runs in the batch, or we must collect
      // synchronously and the pool is busy: join the batch first.
      join_batch();
    }
    if (!collected[i]) {
      jobs[i] = make_job(i, /*pipelined=*/false, tgd_span.id());
      jobs[i]->Run();
      collected[i] = true;
    }
    const std::vector<SpecBuffer>& pending = jobs[i]->buffers();
    size_t total = 0;
    for (const SpecBuffer& buffer : pending) total += buffer.count;
    metrics.batch_triggers.Observe(static_cast<int64_t>(total));
    // Launch the lookahead before applying so collections of every ready
    // dependency overlap this apply phase.
    start_lookahead(i, tgd_span.id());
    // Every trigger binds exactly the body variables (ApplyTemplate), so
    // one scratch Binding with that mask serves the whole scan: only its
    // values are refreshed from the flat rows, and the existential slots
    // stay masked off, as the head re-check and the oblivious root index
    // both require.
    Binding scratch = Binding::Empty(tgd.var_count);
    scratch.bound = apply.body_bound;
    const size_t var_count = static_cast<size_t>(tgd.var_count);
    int64_t applied = 0;
    for (const SpecBuffer& buffer : pending) {
      const Value* row = buffer.rows.data();
      const Value* head = buffer.heads.data();
      for (size_t t = 0; t < buffer.count;
           ++t, row += var_count, head += apply.head_width) {
        std::copy(row, row + var_count, scratch.values.begin());
        if (ledger == nullptr) {
          if (HasMatchPlanned(plan.head, *instance, scratch)) {
            // Re-check: an earlier application may have satisfied it. The
            // skipped trigger's speculative nulls are retired unused.
            metrics.spec_nulls_retired.Inc(apply.fresh_per_trigger);
            continue;
          }
        } else {
          // Admission already happened in the worker; only the
          // generation index is still owed.
          ledger->RecordRoots(buffer.fps[t], tgd, scratch);
        }
        if (journal != nullptr) {
          // `row` is the full extended binding: the workers already
          // patched the existential slots from their reserved ranges.
          journal->RecordTgd(d, row, var_count, tgd.existential);
        }
        const Value* cursor = head;
        for (const plan::HeadAtom& atom : apply.head_atoms) {
          instance->AddFact(atom.relation,
                            Tuple(cursor, cursor + atom.arity));
          cursor += atom.arity;
        }
        result->nulls_created += apply.fresh_per_trigger;
        ++result->steps;
        ++applied;
        if (result->steps >= options.max_steps) {
          result->outcome = ChaseOutcome::kBudgetExhausted;
          exhausted = true;
          break;
        }
      }
      if (exhausted) break;
    }
    tgd_span.AttrInt("collected", static_cast<int64_t>(total))
        .AttrInt("applied", applied);
    jobs[i].reset();
  }
  // A lookahead batch may still be in flight when the budget cuts the
  // apply loop short; its results are dropped, but the workers must check
  // out before the round state goes away.
  if (!inflight.empty()) pool->Wait();
  return !exhausted;
}

// Applies one egd substitution for the violated trigger (a, b), or fails
// on a constant/constant clash. Used by the Substitute-based naive
// baseline; the delta engines use RunEgdsToFixpointDelta instead.
bool ApplyEgdStep(Value a, Value b, Instance* instance, SymbolTable* symbols,
                  const ChaseOptions& options, ChaseResult* result) {
  if (a.is_constant() && b.is_constant()) {
    result->outcome = ChaseOutcome::kFailed;
    result->failure = StrCat("egd equates distinct constants ",
                             symbols->ValueToString(a), " and ",
                             symbols->ValueToString(b));
    ++result->steps;
    return false;
  }
  if (a.is_null()) {
    instance->Substitute(a, b);
    result->merges[a.packed()] = b;
  } else {
    instance->Substitute(b, a);
    result->merges[b.packed()] = a;
  }
  ++result->steps;
  if (result->steps >= options.max_steps) {
    result->outcome = ChaseOutcome::kBudgetExhausted;
    return false;
  }
  return true;
}

// Applies target egds to fixpoint by full rescans (naive baseline).
// Returns false on a constant/constant clash or budget exhaustion (filling
// `result`); `merged` reports whether any substitution happened.
bool RunEgdsToFixpoint(const std::vector<Egd>& egds, Instance* instance,
                       SymbolTable* symbols, const ChaseOptions& options,
                       ChaseResult* result, bool* merged) {
  for (const Egd& egd : egds) {
    Binding trigger = Binding::Empty(egd.var_count);
    while (FindViolatedEgdTrigger(*instance, egd, &trigger)) {
      if (!ApplyEgdStep(trigger.values[egd.left_var],
                        trigger.values[egd.right_var], instance, symbols,
                        options, result)) {
        return false;
      }
      *merged = true;
    }
  }
  return true;
}

// The classic scan-from-scratch restricted chase with Substitute-based egd
// steps, interpreted straight off the AST: the test and bench oracle the
// compiled delta engines are cross-checked against.
ChaseResult ChaseRestrictedNaive(Instance start,
                                 const std::vector<Tgd>& tgds,
                                 const std::vector<Egd>& egds,
                                 SymbolTable* symbols,
                                 const ChaseOptions& options) {
  ChaseResult result(std::move(start));
  Instance& instance = result.instance;
  while (true) {
    if (result.steps >= options.max_steps) {
      result.outcome = ChaseOutcome::kBudgetExhausted;
      return result;
    }
    bool applied = false;
    bool merged = false;
    if (!RunEgdsToFixpoint(egds, &instance, symbols, options, &result,
                           &merged)) {
      return result;
    }
    applied |= merged;
    for (const Tgd& tgd : tgds) {
      Binding trigger = Binding::Empty(tgd.var_count);
      while (FindViolatedTgdTrigger(instance, tgd, &trigger)) {
        result.nulls_created += ApplyTgdStep(tgd, trigger, &instance,
                                             symbols);
        ++result.steps;
        applied = true;
        if (result.steps >= options.max_steps) {
          result.outcome = ChaseOutcome::kBudgetExhausted;
          return result;
        }
      }
    }
    if (!applied) {
      result.outcome = ChaseOutcome::kSuccess;
      return result;
    }
  }
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

// The delta-driven restricted chase: the fixpoint loop works off a
// watermark into the instance; each round evaluates only triggers whose
// body touches a fact beyond the watermark (semi-naive evaluation via
// EnumerateMatchesDelta) or a tuple dirtied by an egd merge, then advances
// the watermark to the round's frontier. Egd steps are union-find merges
// in the instance's value layer: O(α) unions that never rewrite tuples,
// so watermarks stay valid and only the dirty equivalence classes are
// re-examined.
//
// With a pool, each tgd's trigger collection is fanned across the delta
// partitions; the apply phase stays sequential in enumeration order, and
// later tgds still see earlier tgds' additions, so the per-round state
// sequence — and with it every fresh-null assignment — is bit-identical
// to the single-threaded run. Under ChaseSchedule::kSpeculative the
// workers additionally instantiate heads and pipeline across dependencies
// (RunTgdPhaseSpeculative); the result is then equal only up to a
// bijective null renaming.
ChaseResult ChaseRestrictedDelta(Instance start,
                                 const std::vector<Tgd>& tgds,
                                 const std::vector<Egd>& egds,
                                 SymbolTable* symbols,
                                 const ChaseOptions& options,
                                 ThreadPool* pool,
                                 const plan::CompiledSetting& compiled) {
  ChaseResult result(std::move(start));
  Instance& instance = result.instance;
  // Sequential runs always take the barrier path (ResolveSchedule's
  // choice only matters once a pool exists).
  const bool speculative =
      pool != nullptr &&
      ResolveSchedule(options) == ChaseSchedule::kSpeculative;
  // Everything is "new" before the first round, so round one degenerates
  // to the full scan the naive chase would do — exactly once. An
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
  // Trigger buffer shared across rounds and dependencies: steady-state
  // collects assign into retained Binding capacity (see
  // CollectDeltaMatches) instead of re-allocating two vectors per
  // trigger.
  std::vector<Binding> pending;
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
    if (speculative) {
      if (!RunTgdPhaseSpeculative(tgds, compiled, &instance, delta, symbols,
                                  /*ledger=*/nullptr, pool, options, &result,
                                  options.journal)) {
        return result;
      }
    } else {
      for (size_t d = 0; d < tgds.size(); ++d) {
        const Tgd& tgd = tgds[d];
        if (!TouchesDelta(tgd.body, delta)) continue;
        const plan::TgdPlan& plan = compiled.tgds[d];
        obs::Span tgd_span(obs::Tracer::Global(), "chase.tgd");
        tgd_span.AttrInt("dep", static_cast<int64_t>(d));
        // Collect the violated triggers for this delta, then apply them.
        // (Applying while enumerating would mutate the instance under the
        // matcher.) Body matches are counted locally and flushed to the
        // registry once per batch: the keep filter is the hottest lambda
        // in the engine and a sharded atomic per call is measurable.
        // (Relaxed atomic: pooled collection invokes the filter from
        // partition workers.)
        std::atomic<int64_t> n_matches{0};
        const size_t n_pending = CollectDeltaMatches(
            tgd.body, plan.body, instance, delta, pool,
            [&](const Binding& body_match) {
              n_matches.fetch_add(1, std::memory_order_relaxed);
              return !HasMatchPlanned(plan.head, instance, body_match);
            },
            &pending, tgd_span.id());
        metrics.tgd_matches.Inc(n_matches.load(std::memory_order_relaxed));
        metrics.batch_triggers.Observe(static_cast<int64_t>(n_pending));
        // The apply stays sequential at every thread count: each trigger
        // is re-checked against the live instance, so an earlier
        // application in this batch may already satisfy it.
        int64_t applied = 0;
        for (size_t t = 0; t < n_pending; ++t) {
          const Binding& trigger = pending[t];
          if (HasMatchPlanned(plan.head, instance, trigger)) continue;
          result.nulls_created +=
              ApplyTgdStepPlanned(plan.apply, trigger, &instance, symbols,
                                  &tgd, d, options.journal);
          ++result.steps;
          ++applied;
          if (result.steps >= options.max_steps) {
            result.outcome = ChaseOutcome::kBudgetExhausted;
            return result;
          }
        }
        tgd_span.AttrInt("collected", static_cast<int64_t>(n_pending))
            .AttrInt("applied", applied);
      }
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
    if (options.compact_duplicate_ratio > 0 &&
        options.compact_duplicate_ratio < 1 && instance.has_merges() &&
        instance.fact_count() >= options.compact_min_facts &&
        static_cast<double>(dirty_accum) >=
            options.compact_duplicate_ratio *
                static_cast<double>(instance.fact_count())) {
      size_t duplicates =
          instance.fact_count() - instance.ResolvedFactCount();
      if (static_cast<double>(duplicates) >=
          options.compact_duplicate_ratio *
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

// The delta-driven oblivious chase: every body homomorphism of every tgd
// fires exactly once, tracked by the generation-scoped TriggerLedger. Only
// matches touching the delta (additive or merge-dirtied) are enumerated
// per round; a match wholly over old, unmerged facts was enumerated (and
// fingerprinted) in the round its newest fact arrived, so nothing is
// missed.
ChaseResult ChaseOblivious(Instance start,
                           const std::vector<Tgd>& tgds,
                           const std::vector<Egd>& egds,
                           SymbolTable* symbols, const ChaseOptions& options,
                           ThreadPool* pool,
                           const plan::CompiledSetting& compiled) {
  ChaseResult result(std::move(start));
  Instance& instance = result.instance;
  TriggerLedger fired;
  const bool speculative =
      pool != nullptr &&
      ResolveSchedule(options) == ChaseSchedule::kSpeculative;
  InstanceWatermark mark = InstanceWatermark::Origin(instance);
  std::vector<std::vector<int>> extras;
  ChaseMetrics& metrics = ChaseMetrics::Get();
  int64_t round = 0;
  // Trigger buffer shared across rounds and dependencies: steady-state
  // collects assign into retained Binding capacity (see
  // CollectDeltaMatches) instead of re-allocating two vectors per
  // trigger.
  std::vector<Binding> pending;
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
        symbols, &extras, pool);
    if (!AbsorbEgdOutcome(egd_out, &result)) return result;
    // Merged-away roots can never appear in a binding again: drop their
    // fingerprint generation.
    fired.RetireRoots(egd_out.retired);
    DeltaView delta(instance, mark, extras);
    if (!delta.any()) {
      result.outcome = ChaseOutcome::kSuccess;
      return result;
    }
    InstanceWatermark frontier = instance.TakeWatermark();
    if (speculative) {
      // Admission happens in the workers (TriggerLedger::Admit through the
      // concurrent fingerprint set); the apply loop only records roots and
      // inserts the pre-instantiated heads.
      if (!RunTgdPhaseSpeculative(tgds, compiled, &instance, delta, symbols,
                                  &fired, pool, options, &result)) {
        return result;
      }
    } else {
      for (size_t d = 0; d < tgds.size(); ++d) {
        const Tgd& tgd = tgds[d];
        if (!TouchesDelta(tgd.body, delta)) continue;
        const plan::TgdPlan& plan = compiled.tgds[d];
        obs::Span tgd_span(obs::Tracer::Global(), "chase.tgd");
        tgd_span.AttrInt("dep", static_cast<int64_t>(d));
        // Collect unfired triggers first (the instance must not change
        // under the matcher), then fire them. The ledger is only read
        // during collection (workers filter against it concurrently);
        // Insert runs in the sequential fire loop, which also collapses
        // the repeats the extras overlap can produce. As in the
        // restricted loop, matches are counted locally and flushed to
        // the registry once per batch.
        std::atomic<int64_t> n_matches{0};
        const size_t n_pending = CollectDeltaMatches(
            tgd.body, plan.body, instance, delta, pool,
            [&](const Binding& body_match) {
              n_matches.fetch_add(1, std::memory_order_relaxed);
              return !fired.Contains(TriggerFingerprint(d, tgd, body_match));
            },
            &pending, tgd_span.id());
        metrics.tgd_matches.Inc(n_matches.load(std::memory_order_relaxed));
        metrics.batch_triggers.Observe(static_cast<int64_t>(n_pending));
        for (size_t t = 0; t < n_pending; ++t) {
          const Binding& trigger = pending[t];
          if (!fired.Insert(TriggerFingerprint(d, tgd, trigger), tgd,
                            trigger)) {
            continue;
          }
          result.nulls_created +=
              ApplyTgdStepPlanned(plan.apply, trigger, &instance, symbols);
          ++result.steps;
          if (result.steps >= options.max_steps) {
            result.outcome = ChaseOutcome::kBudgetExhausted;
            return result;
          }
        }
      }
    }
    mark = std::move(frontier);
    extras.clear();
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
  int n = instance->schema().relation_count();
  if (extras->empty()) extras->resize(n);
  // Pass 1 pivots on the additive delta beyond `mark` (plus any extras the
  // caller already accumulated). A merge changes the resolved content of
  // exactly the tuples holding the losing class, so any trigger it newly
  // violates must bind one of them: pass k+1 pivots only on the tuples
  // pass k dirtied, until no merge fires.
  std::vector<std::vector<int>> frontier;
  EgdRows rows;
  bool first_pass = true;
  while (true) {
    obs::Span pass_span(obs::Tracer::Global(), "chase.egd_pass");
    pass_span.AttrInt("pass", passes);
    ++passes;
    DeltaView delta =
        first_pass ? DeltaView(*instance, mark, *extras)
                   : DeltaView(*instance, instance->TakeWatermark(), frontier);
    std::vector<std::vector<int>> pass_dirty(n);
    bool merged_any = false;
    for (size_t e = 0; e < egds.size(); ++e) {
      const Egd& egd = egds[e];
      if (!TouchesDelta(egd.body, delta)) continue;
      // Collect every trigger violated under the pre-pass resolution, then
      // merge in collection order, skipping rows an earlier merge of the
      // batch already equated. Triggers a merge newly enables bind a tuple
      // it dirtied, so the next pass's frontier catches them.
      const size_t slots = CollectDeltaSlots(
          egd.body, egd_plans[e].body, *instance, delta, pool, pass_span.id(),
          &rows.slots, [&egd](std::vector<Value>* buffer, const Binding& m) {
            if (m.values[egd.left_var] == m.values[egd.right_var]) {
              return false;
            }
            buffer->insert(buffer->end(), m.values.begin(), m.values.end());
            return true;
          });
      const size_t width = static_cast<size_t>(egd.var_count);
      for (size_t slot = 0; slot < slots; ++slot) {
        const std::vector<Value>& buffer = rows.slots[slot];
        for (size_t r = 0; r < buffer.size(); r += width) {
          const Value* row = buffer.data() + r;
          Value a = instance->ResolveValue(row[egd.left_var]);
          Value b = instance->ResolveValue(row[egd.right_var]);
          if (a == b) continue;
          Instance::MergeResult merge = instance->MergeValues(a, b);
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
          out.retired.insert(out.retired.end(), merge.reassigned.begin(),
                             merge.reassigned.end());
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
    frontier = std::move(pass_dirty);
  }
}

int ResolveThreadCount(const ChaseOptions& options) {
  return options.num_threads <= 0 ? ThreadPool::HardwareConcurrency()
                                  : options.num_threads;
}

namespace {

const char* StrategyName(ChaseStrategy strategy) {
  switch (strategy) {
    case ChaseStrategy::kOblivious: return "oblivious";
    case ChaseStrategy::kRestrictedNaive: return "restricted_naive";
    case ChaseStrategy::kRestricted: return "restricted";
  }
  return "unknown";
}

ChaseResult ChaseDispatch(Instance start, const std::vector<Tgd>& tgds,
                          const std::vector<Egd>& egds, SymbolTable* symbols,
                          const ChaseOptions& options) {
  if (options.strategy == ChaseStrategy::kRestrictedNaive) {
    return ChaseRestrictedNaive(std::move(start), tgds, egds, symbols,
                                options);
  }
  // One cache probe per run; re-chases of the same setting hit and reuse
  // the plans compiled on first sight.
  std::shared_ptr<const plan::CompiledSetting> compiled =
      plan::PlanCache::Global().GetOrCompile(tgds, egds);
  const int threads = ResolveThreadCount(options);
  std::unique_ptr<ThreadPool> pool =
      threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr;
  if (options.strategy == ChaseStrategy::kOblivious) {
    return ChaseOblivious(std::move(start), tgds, egds, symbols, options,
                          pool.get(), *compiled);
  }
  return ChaseRestrictedDelta(std::move(start), tgds, egds, symbols, options,
                              pool.get(), *compiled);
}

}  // namespace

const char* ScheduleName(ChaseSchedule schedule) {
  switch (schedule) {
    case ChaseSchedule::kBarrier: return "barrier";
    case ChaseSchedule::kSpeculative: return "speculative";
  }
  return "unknown";
}

std::optional<ChaseSchedule> ParseScheduleName(std::string_view name) {
  for (ChaseSchedule schedule :
       {ChaseSchedule::kBarrier, ChaseSchedule::kSpeculative}) {
    if (name == ScheduleName(schedule)) return schedule;
  }
  return std::nullopt;
}

ChaseSchedule ResolveSchedule(const ChaseOptions& options) {
  // The override is read once per process: sanitizer lanes pin a schedule
  // for a whole test binary.
  static const std::optional<ChaseSchedule> forced =
      []() -> std::optional<ChaseSchedule> {
    const char* env = std::getenv("PDX_FORCE_SCHEDULE");
    if (env == nullptr || env[0] == '\0') return std::nullopt;
    std::optional<ChaseSchedule> parsed = ParseScheduleName(env);
    PDX_CHECK(parsed.has_value())
        << "PDX_FORCE_SCHEDULE=" << env
        << " names no schedule (valid: barrier, speculative)";
    return parsed;
  }();
  return forced.value_or(options.schedule);
}

namespace {

ChaseResult ChaseRun(Instance start, const std::vector<Tgd>& tgds,
                     const std::vector<Egd>& egds, SymbolTable* symbols,
                     const ChaseOptions& options) {
  PDX_CHECK(symbols != nullptr);
  obs::Span run_span(obs::Tracer::Global(), "chase");
  run_span.AttrStr("strategy", StrategyName(options.strategy))
      .AttrInt("threads", ResolveThreadCount(options))
      .AttrStr("schedule", ScheduleName(ResolveSchedule(options)))
      .AttrInt("tgds", static_cast<int64_t>(tgds.size()))
      .AttrInt("egds", static_cast<int64_t>(egds.size()));
  ChaseResult result =
      ChaseDispatch(std::move(start), tgds, egds, symbols, options);
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

bool SatisfiesTgd(const Instance& instance, const Tgd& tgd) {
  Binding trigger = Binding::Empty(tgd.var_count);
  return !FindViolatedTgdTrigger(instance, tgd, &trigger);
}

bool SatisfiesEgd(const Instance& instance, const Egd& egd) {
  Binding trigger = Binding::Empty(egd.var_count);
  return !FindViolatedEgdTrigger(instance, egd, &trigger);
}

bool SatisfiesDisjunctiveTgd(const Instance& instance,
                             const DisjunctiveTgd& tgd) {
  return !EnumerateMatches(
      tgd.body, tgd.var_count, instance, Binding::Empty(tgd.var_count),
      [&](const Binding& body_match) {
        for (const std::vector<Atom>& disjunct : tgd.head_disjuncts) {
          if (HasMatch(disjunct, tgd.var_count, instance, body_match)) {
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
