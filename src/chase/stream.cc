#include "chase/stream.h"

#include <algorithm>
#include <optional>
#include <unordered_set>
#include <utility>

#include "base/logging.h"
#include "chase/delta_phase.h"
#include "obs/trace.h"
#include "plan/compiler.h"
#include "plan/ir.h"
#include "plan/plan_cache.h"

namespace pdx {

namespace {

Status OutcomeToStatus(const ChaseResult& result) {
  if (result.outcome == ChaseOutcome::kFailed) {
    return FailedPreconditionError("chase failed: " + result.failure);
  }
  return ResourceExhaustedError("chase step budget exhausted");
}

}  // namespace

StreamingChase::StreamingChase(const Schema* schema, std::vector<Tgd> tgds,
                               std::vector<Egd> egds, SymbolTable* symbols,
                               ChaseOptions options)
    : schema_(schema),
      tgds_(std::move(tgds)),
      egds_(std::move(egds)),
      symbols_(symbols),
      options_(options),
      base_(schema),
      instance_(schema) {
  // The journal belongs to this object; a caller-supplied one would be
  // cleared by the fallback path behind the caller's back.
  options_.journal = nullptr;
  compiled_ = plan::PlanCache::Global().GetOrCompile(tgds_, egds_);
  // Pivot-bound rederive plans: one per (tgd, head atom), with that atom's
  // universal variables assumed bound (see stream.h).
  rederive_plans_.resize(tgds_.size());
  for (size_t d = 0; d < tgds_.size(); ++d) {
    const Tgd& tgd = tgds_[d];
    rederive_plans_[d].reserve(tgd.head.size());
    for (const Atom& atom : tgd.head) {
      std::vector<bool> bound(tgd.var_count, false);
      for (const Term& t : atom.terms) {
        if (!t.is_constant() && !tgd.existential[t.var()]) {
          bound[t.var()] = true;
        }
      }
      rederive_plans_[d].push_back(
          plan::CompileBody(tgd.body, tgd.var_count, bound));
    }
  }
}

StreamingChase::~StreamingChase() = default;

Status StreamingChase::Initialize(const Instance& base) {
  initialized_ = false;
  index_valid_ = false;
  base_ = base;
  journal_.Clear();
  ChaseOptions opts = options_;
  opts.resume_from = nullptr;
  opts.journal = &journal_;
  ChaseResult result = Chase(base_, tgds_, egds_, symbols_, opts);
  if (result.outcome != ChaseOutcome::kSuccess) {
    journal_.Clear();
    return OutcomeToStatus(result);
  }
  instance_ = std::move(result.instance);
  mark_ = instance_.TakeWatermark();
  total_steps_ += result.steps;
  initialized_ = true;
  return Status::Ok();
}

Tuple StreamingChase::ResolveTupleHere(const Value* values, size_t n) const {
  Tuple out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(instance_.ResolveValue(values[i]));
  }
  return out;
}

void StreamingChase::EntryFacts(const std::vector<Atom>& atoms,
                                const Value* row,
                                std::vector<Fact>* out) const {
  out->clear();
  for (const Atom& atom : atoms) {
    Tuple tuple;
    tuple.reserve(atom.terms.size());
    for (const Term& t : atom.terms) {
      tuple.push_back(instance_.ResolveValue(
          t.is_constant() ? t.constant() : row[t.var()]));
    }
    Fact fact{atom.relation, std::move(tuple)};
    // Dependencies have a handful of atoms: linear dedup beats a set.
    if (std::find(out->begin(), out->end(), fact) == out->end()) {
      out->push_back(std::move(fact));
    }
  }
}

void StreamingChase::BodyFactsOf(const ChaseJournal::Entry& e,
                                 std::vector<Fact>* out) const {
  const std::vector<Atom>& atoms =
      e.egd ? egds_[e.dep].body : tgds_[e.dep].body;
  EntryFacts(atoms, journal_.row(e), out);
}

void StreamingChase::HeadFactsOf(const ChaseJournal::Entry& e,
                                 std::vector<Fact>* out) const {
  PDX_DCHECK(!e.egd);
  EntryFacts(tgds_[e.dep].head, journal_.row(e), out);
}

void StreamingChase::IndexEntry(uint32_t id, std::vector<Fact>* scratch) {
  const ChaseJournal::Entry& e = journal_.entry(id);
  if (!e.alive) return;
  BodyFactsOf(e, scratch);
  for (const Fact& f : *scratch) {
    support_[f.relation][f.tuple].consumers.push_back(id);
  }
  if (!e.egd) {
    HeadFactsOf(e, scratch);
    std::vector<HeadRef>& heads = entry_heads_[id];
    heads.clear();
    heads.reserve(scratch->size());
    for (const Fact& f : *scratch) {
      auto [it, inserted] = support_[f.relation].try_emplace(f.tuple);
      (void)inserted;
      ++it->second.producers;
      heads.push_back(HeadRef{f.relation, &*it});
    }
  }
}

void StreamingChase::EnsureSupportIndex() {
  const uint64_t version = instance_.resolver().version();
  if (!index_valid_ || version != index_version_) {
    // Full rebuild: merges re-key resolved facts (and a rollback leaves
    // counters mid-cascade), so incremental repair is not sound. Linear in
    // base + journal — amortized across every batch that keeps the
    // resolver still.
    support_.assign(static_cast<size_t>(schema_->relation_count()),
                    SupportMap());
    for (RelationId r = 0; r < schema_->relation_count(); ++r) {
      const TupleList list = base_.tuples(r);
      for (size_t i = 0; i < list.size(); ++i) {
        support_[r][ResolveTupleHere(list[i].data(),
                                     static_cast<size_t>(list.arity()))]
            .in_base = true;
      }
    }
    indexed_entries_ = 0;
    index_valid_ = true;
    index_version_ = version;
  }
  entry_heads_.resize(journal_.size());
  std::vector<Fact> scratch;
  for (size_t i = indexed_entries_; i < journal_.size(); ++i) {
    IndexEntry(static_cast<uint32_t>(i), &scratch);
  }
  indexed_entries_ = journal_.size();
}

int64_t StreamingChase::Rederive(const std::vector<RemovedRef>& removed,
                                 StreamStats* stats) {
  // Collect, across every removed fact, the tgd triggers whose body still
  // matches but whose head lost its witness: pivot the removed fact
  // through each head atom (universal positions only — an existential
  // witness slot constrains nothing) and enumerate the body under the
  // pivot's partial binding.
  std::vector<std::pair<size_t, Binding>> violated;
  std::unordered_set<uint64_t> seen;
  for (const RemovedRef& r : removed) {
    const RelationId removed_rel = r.first;
    const Tuple& removed_tuple = r.second->first;
    for (size_t d = 0; d < tgds_.size(); ++d) {
      const Tgd& tgd = tgds_[d];
      const plan::BodyPlan& head_plan = compiled_->tgds[d].head;
      for (size_t h = 0; h < tgd.head.size(); ++h) {
        const Atom& atom = tgd.head[h];
        if (atom.relation != removed_rel) continue;
        Binding partial = Binding::Empty(tgd.var_count);
        bool unifies = true;
        for (size_t i = 0; i < atom.terms.size() && unifies; ++i) {
          const Term& t = atom.terms[i];
          if (t.is_constant()) {
            unifies = instance_.ResolveValue(t.constant()) == removed_tuple[i];
          } else if (tgd.existential[t.var()]) {
            continue;
          } else if (partial.bound[t.var()]) {
            unifies = partial.values[t.var()] == removed_tuple[i];
          } else {
            partial.Bind(t.var(), removed_tuple[i]);
          }
        }
        if (!unifies) continue;
        EnumerateMatchesPlanned(
            rederive_plans_[d][h], instance_, partial, [&](const Binding& m) {
              if (!HasMatchPlanned(head_plan, instance_, m) &&
                  seen.insert(TriggerFingerprintRow(d, m.values.data(),
                                                    m.values.size(),
                                                    tgd.existential))
                      .second) {
                violated.emplace_back(d, m);
              }
              return true;
            });
      }
    }
  }
  // Fire with a physical re-check: an earlier firing of this pass may have
  // restored the witness another trigger was missing.
  int64_t fired = 0;
  for (const auto& [d, trigger] : violated) {
    const Tgd& tgd = tgds_[d];
    if (HasMatchPlanned(compiled_->tgds[d].head, instance_, trigger)) continue;
    Binding extended = trigger;
    for (VariableId v = 0; v < tgd.var_count; ++v) {
      if (tgd.existential[v] && !extended.bound[v]) {
        extended.Bind(v, symbols_->FreshNull());
      }
    }
    journal_.RecordTgd(d, extended.values.data(), extended.values.size(),
                       tgd.existential);
    AddHeadFacts(compiled_->tgds[d].apply, extended.values.data(), &instance_);
    ++fired;
  }
  stats->rederived += fired;
  stats->steps += fired;
  return fired;
}

Status StreamingChase::FullChase(StreamStats* stats) {
  ChaseJournal fresh;
  ChaseOptions opts = options_;
  opts.resume_from = nullptr;
  opts.journal = &fresh;
  ChaseResult result = Chase(base_, tgds_, egds_, symbols_, opts);
  if (result.outcome != ChaseOutcome::kSuccess) {
    return OutcomeToStatus(result);
  }
  instance_ = std::move(result.instance);
  mark_ = instance_.TakeWatermark();
  journal_.Swap(fresh);
  stats->steps += result.steps;
  index_valid_ = false;
  return Status::Ok();
}

StatusOr<StreamStats> StreamingChase::ResumeWithDeltas(
    const std::vector<Fact>& adds, const std::vector<Fact>& deletes) {
  if (!initialized_) {
    return FailedPreconditionError("StreamingChase not initialized");
  }
  for (const std::vector<Fact>* batch : {&adds, &deletes}) {
    for (const Fact& f : *batch) {
      if (f.relation < 0 || f.relation >= schema_->relation_count()) {
        return InvalidArgumentError("delta fact names an unknown relation");
      }
      if (f.tuple.size() != static_cast<size_t>(schema_->arity(f.relation))) {
        return InvalidArgumentError("delta fact arity mismatch");
      }
    }
  }
  obs::Span span(obs::Tracer::Global(), "stream.resume");
  span.AttrInt("adds", static_cast<int64_t>(adds.size()))
      .AttrInt("deletes", static_cast<int64_t>(deletes.size()));

  StreamStats stats;
  EnsureSupportIndex();

  // Rollback state. With egds a failed batch may have merged values
  // irreversibly, so the instances are snapshotted (COW copies are free
  // to take, but every store the batch then touches pays one deep
  // unshare — acceptable on the egd path, which can fall back to a full
  // re-chase anyway). Tgd-only settings skip the snapshots: no merges
  // can happen, the only failure is budget exhaustion, and everything a
  // batch does to the instances is additions at the tails plus removals
  // we already record — an undo log restores the exact fact set without
  // ever unsharing a store. The journal undoes itself entry-wise either
  // way (TruncateTo + Revive).
  const bool undoable = egds_.empty();
  std::optional<Instance> base0, instance0;
  if (!undoable) {
    base0 = base_;
    instance0 = instance_;
  }
  InstanceWatermark mark0 = mark_;
  const size_t journal0 = journal_.size();
  std::vector<size_t> killed;
  std::vector<RemovedRef> worklist;  // every fact removed from instance_
  std::vector<Fact> base_removed_log, base_added_log;
  std::vector<size_t> rows0;  // pre-batch instance_ row counts
  if (undoable) {
    rows0.resize(static_cast<size_t>(schema_->relation_count()));
    for (size_t r = 0; r < rows0.size(); ++r) {
      rows0[r] = instance_.tuples(static_cast<RelationId>(r)).size();
    }
  }
  const auto rollback = [&] {
    journal_.TruncateTo(journal0);
    for (size_t id : killed) journal_.Revive(id);
    if (!undoable) {
      base_ = std::move(*base0);
      instance_ = std::move(*instance0);
    } else {
      // Additions all sit past the post-removal row counts, so popping
      // each relation's tail down to (pre-batch count - removals) drops
      // exactly the batch's additions (popping the last row is a clean
      // swap-with-self); re-adding the logged removals then restores the
      // pre-batch fact set. Row order differs from the original, which
      // only dirties watermarks — the next batch re-takes them anyway.
      std::vector<size_t> removed(rows0.size(), 0);
      for (const RemovedRef& r : worklist) {
        ++removed[static_cast<size_t>(r.first)];
      }
      for (size_t r = 0; r < rows0.size(); ++r) {
        const RelationId rel = static_cast<RelationId>(r);
        const size_t floor = rows0[r] - removed[r];
        while (instance_.tuples(rel).size() > floor) {
          const TupleList list = instance_.tuples(rel);
          instance_.RemoveFact(rel, list[list.size() - 1].ToTuple());
        }
      }
      for (const RemovedRef& r : worklist) {
        instance_.AddFact(r.first, r.second->first);
      }
      for (const Fact& f : base_added_log) base_.RemoveFact(f);
      for (const Fact& f : base_removed_log) base_.AddFact(f.relation, f.tuple);
    }
    mark_ = mark0;
    index_valid_ = false;
  };

  // --- 1. Retract ------------------------------------------------------
  // Deletes are identified under the chase resolver: the caller names the
  // fact as admitted, but merges may since have folded its values.
  std::unordered_map<RelationId, std::unordered_set<Tuple, TupleHash>> wanted;
  for (const Fact& f : deletes) {
    wanted[f.relation].insert(ResolveTupleHere(f.tuple.data(),
                                               f.tuple.size()));
  }
  const bool trivial_resolver = instance_.resolver().trivial();
  for (auto& [relation, keys] : wanted) {
    std::unordered_set<Tuple, TupleHash> gone;
    if (trivial_resolver) {
      // No merge has ever happened, so stored raw tuples equal their
      // resolution and the deleted keys address base facts directly — no
      // relation scan. (Deletes of absent facts fall out as !removed.)
      for (const Tuple& key : keys) {
        if (base_.RemoveFact(relation, key)) {
          ++stats.base_removed;
          gone.insert(key);
          if (undoable) base_removed_log.push_back(Fact{relation, key});
        }
      }
    } else {
      // Base tuples may hold merged (stale) raw values: collect the raw
      // tuples resolving to a deleted key first, then remove — base_'s own
      // resolver is trivial, so RemoveFact needs the raw spelling.
      std::vector<std::pair<Tuple, const Tuple*>> doomed;
      const TupleList list = base_.tuples(relation);
      for (size_t i = 0; i < list.size(); ++i) {
        Tuple resolved = ResolveTupleHere(list[i].data(),
                                          static_cast<size_t>(list.arity()));
        auto it = keys.find(resolved);
        if (it != keys.end()) {
          doomed.emplace_back(list[i].ToTuple(), &*it);
        }
      }
      for (auto& [raw, key] : doomed) {
        if (base_.RemoveFact(relation, raw)) {
          ++stats.base_removed;
          if (undoable) base_removed_log.push_back(Fact{relation, raw});
        }
        gone.insert(*key);
      }
    }
    for (const Tuple& key : gone) {
      auto node = support_[relation].find(key);
      if (node == support_[relation].end()) continue;
      node->second.in_base = false;
      if (node->second.producers == 0 && instance_.RemoveFact(relation, key)) {
        worklist.push_back(RemovedRef{relation, &*node});
      }
    }
  }

  // Cascade: a firing whose body lost a fact dies; each head fact of a
  // dead firing loses a producer; a fact with no producers left and no
  // base membership is removed and propagates in turn.
  bool egd_died = false;
  for (size_t qi = 0; qi < worklist.size(); ++qi) {
    // Copy out: push_back below may reallocate the worklist. The support
    // maps themselves are never inserted into or erased from during the
    // cascade (IndexEntry never runs here), so node and head pointers
    // stay valid throughout.
    const auto [relation, node] = worklist[qi];
    (void)relation;
    ++stats.retracted;
    for (uint32_t id : node->second.consumers) {
      const ChaseJournal::Entry& entry = journal_.entry(id);
      if (!entry.alive) continue;
      journal_.Kill(id);
      killed.push_back(id);
      ++stats.dead_triggers;
      if (entry.egd) {
        // A merge lost its justification. Resolve-on-write folded the
        // winner into stored tuples long ago — un-merging is impossible —
        // so the whole resolver is invalidated: full re-chase below.
        egd_died = true;
        continue;
      }
      for (const HeadRef& head : entry_heads_[id]) {
        SupportNode& hn = head.node->second;
        if (--hn.producers == 0 && !hn.in_base &&
            instance_.RemoveFact(head.relation, head.node->first)) {
          worklist.push_back(RemovedRef{head.relation, head.node});
        }
      }
    }
  }

  // --- Fallback: dead egd => full re-chase of the net base -------------
  if (egd_died) {
    span.AttrBool("fell_back", true);
    for (const Fact& f : adds) base_.AddFact(f.relation, f.tuple);
    Status status = FullChase(&stats);
    if (!status.ok()) {
      rollback();
      return status;
    }
    stats.fell_back = true;
    total_steps_ += stats.steps;
    return stats;
  }

  // --- 2. Re-derive, 3. Resume -----------------------------------------
  // Watermark before re-derivation and adds: RemoveFact counts as a
  // rewrite (tuple indexes shifted), so a watermark taken earlier would
  // flag whole relations dirty; taken here, the resumed delta is exactly
  // the re-derived + added facts.
  const InstanceWatermark resume_mark = instance_.TakeWatermark();
  Rederive(worklist, &stats);
  for (const Fact& f : adds) {
    if (base_.AddFact(f.relation, f.tuple) && undoable) {
      base_added_log.push_back(f);
    }
    if (!instance_.Contains(f)) instance_.AddFact(f.relation, f.tuple);
  }

  const uint64_t version_before = instance_.resolver().version();
  ChaseOptions opts = options_;
  opts.resume_from = &resume_mark;
  opts.journal = &journal_;
  // Moved in, not copied: retraction already unshared every touched COW
  // store (or never shared them, on the undo-log path), so the resumed
  // chase extends the stores in place instead of re-materializing every
  // relation it touches.
  ChaseResult result =
      Chase(std::move(instance_), tgds_, egds_, symbols_, opts);
  if (result.outcome != ChaseOutcome::kSuccess) {
    // The chase consumed instance_ by move; the undo path reclaims its
    // final state (additions still at the tails) and unwinds it.
    if (undoable) instance_ = std::move(result.instance);
    rollback();
    return OutcomeToStatus(result);
  }
  instance_ = std::move(result.instance);
  mark_ = instance_.TakeWatermark();
  stats.steps += result.steps;
  total_steps_ += stats.steps;

  if (instance_.resolver().version() != version_before) {
    // New merges re-keyed resolved facts: rebuild lazily next batch.
    index_valid_ = false;
  } else {
    // Keep the index live: admitted facts gain base membership now; the
    // batch's new journal entries extend it lazily (indexed_entries_).
    for (const Fact& f : adds) {
      support_[f.relation][ResolveTupleHere(f.tuple.data(), f.tuple.size())]
          .in_base = true;
    }
  }
  return stats;
}

}  // namespace pdx
