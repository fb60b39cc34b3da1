#ifndef PDX_CHASE_DELTA_PHASE_H_
#define PDX_CHASE_DELTA_PHASE_H_

// What every compiled delta engine shares — the chase's tgd phase and egd
// fixpoint, the solution-aware chase, StreamingChase and the generic
// solver's candidate discovery: the delta touch test, the collect fan-out
// over a body's delta matches, and head instantiation from a value row.

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "base/thread_pool.h"
#include "hom/match_vm.h"
#include "obs/trace.h"
#include "plan/ir.h"
#include "relational/instance.h"

namespace pdx {

// True if some atom of `body` could match inside the delta at all.
inline bool TouchesDelta(const plan::BodyPlan& body, const DeltaView& delta) {
  for (const plan::BodyPlan::Pivot& pivot : body.pivots) {
    if (delta.dirty(pivot.relation)) return true;
  }
  return false;
}

// The collect half of every delta phase: runs `collect(&slots[i], m)`,
// which returns true iff it kept m, over the delta matches of `body`.
// Without a pool all matches go to slot 0, with no span; with one, the
// delta partitions fan across its workers, one slot each, so `collect`
// must be a pure read apart from its own slot. Returns the slots used;
// read in slot order they hold the sequential enumeration order. Slots
// are cleared, not shrunk. Once `*stop` (if given) reads true, every
// partition ends its enumeration at the next match and partitions not yet
// started are skipped, so slots then hold a prefix of their matches.
template <typename Buffer, typename Collect>
size_t CollectDeltaSlots(const plan::BodyPlan& body, const Instance& instance,
                         const DeltaView& delta, ThreadPool* pool,
                         uint64_t parent_span, std::vector<Buffer>* slots,
                         const Collect& collect,
                         const std::atomic<bool>* stop = nullptr) {
  const auto stopped = [stop] {
    return stop != nullptr && stop->load(std::memory_order_relaxed);
  };
  // The all-unbound partial binding, reused across calls. No `collect`
  // re-enters this function on the same thread. Workers read the calling
  // thread's copy through `empty` (a lambda naming the thread_local itself
  // would read the worker's own).
  thread_local Binding unbound;
  unbound.values.assign(static_cast<size_t>(body.var_count), Value());
  unbound.bound.assign(static_cast<size_t>(body.var_count), false);
  const Binding& empty = unbound;
  if (pool == nullptr) {
    // Reused across calls: the sequential path runs once per dependency per
    // egd pass, and a search runs one egd fixpoint per node.
    thread_local std::vector<DeltaPartition> parts;
    if (slots->empty()) slots->resize(1);
    Buffer& buffer = (*slots)[0];
    buffer.clear();
    PartitionDeltaMatches(body, delta, 1, &parts);
    // Passed by reference, so the std::function holds one pointer and
    // allocates nothing.
    const auto emit = [&](const Binding& m) {
      collect(&buffer, m);
      return !stopped();
    };
    for (const DeltaPartition& part : parts) {
      if (stopped()) break;
      EnumerateDeltaPartitionPlanned(body, instance, delta, part, empty,
                                     std::cref(emit));
    }
    return 1;
  }
  // A few partitions per participant so uneven pivot widths still balance
  // via stealing.
  std::vector<DeltaPartition> parts;
  PartitionDeltaMatches(body, delta, static_cast<size_t>(pool->size()) * 4,
                        &parts);
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
    if (stopped()) return;
    int64_t kept = 0;
    EnumerateDeltaPartitionPlanned(body, instance, delta, parts[p], empty,
                                   [&](const Binding& m) {
                                     if (collect(&buffer, m)) ++kept;
                                     return !stopped();
                                   });
    part_span.AttrInt("collected", kept);
  });
  return parts.size();
}

// Empties every per-relation list of `lists`, keeping their capacity:
// the dirty-tuple lists the egd fixpoint and the generic solver reuse.
inline void ClearLists(std::vector<std::vector<int>>* lists) {
  for (std::vector<int>& list : *lists) list.clear();
}

// Appends the flat head row of one trigger (ApplyTemplate::slots order)
// to `head`: `row` holds a value for every variable the head mentions
// (indexed by variable id); constants come from the template. Existential
// slots copy whatever `row` holds there.
inline void AppendHeadRow(const plan::ApplyTemplate& apply, const Value* row,
                          std::vector<Value>* head) {
  for (const plan::HeadSlot& slot : apply.slots) {
    head->push_back(slot.is_const ? slot.key : row[slot.var]);
  }
}

// Inserts the facts of one flat head row. Returns true iff any was new.
inline bool AddHeadRow(const plan::ApplyTemplate& apply, const Value* head,
                       Instance* instance) {
  bool added = false;
  for (const plan::HeadAtom& atom : apply.head_atoms) {
    added |= instance->AddFact(atom.relation, head,
                               static_cast<size_t>(atom.arity));
    head += atom.arity;
  }
  return added;
}

// Adds the head facts of one trigger whose `row` holds every head
// variable, existentials included. Returns true iff any fact was new.
// The head row is built on the stack unless the head is wider than
// kStackWidth values.
inline bool AddHeadFacts(const plan::ApplyTemplate& apply, const Value* row,
                         Instance* instance) {
  constexpr size_t kStackWidth = 32;
  Value stack[kStackWidth];
  std::vector<Value> wide;
  Value* head = stack;
  if (apply.slots.size() > kStackWidth) {
    wide.resize(apply.slots.size());
    head = wide.data();
  }
  Value* slot_value = head;
  for (const plan::HeadSlot& slot : apply.slots) {
    *slot_value++ = slot.is_const ? slot.key : row[slot.var];
  }
  return AddHeadRow(apply, head, instance);
}

// The apply mode a tgd phase uses on `instance`: the compiled one, or
// kLive once the instance has merges (plan/ir.h, ApplyMode).
inline plan::ApplyMode ApplyModeOn(const plan::ApplyTemplate& apply,
                                   const Instance& instance) {
  return instance.has_merges() ? plan::ApplyMode::kLive : apply.mode;
}

// The live re-check of one collected trigger: true iff its head holds in
// `instance`. `body` binds exactly the body variables and `head` is the
// trigger's flat head row (the refuting atom's slots at least). Without
// merges, a refuting atom that is absent decides it with one dedup-set
// probe; otherwise the compiled head program runs.
inline bool HeadHoldsLive(const plan::TgdPlan& plan, const Instance& instance,
                          const Binding& body, const Value* head) {
  const plan::ApplyTemplate& apply = plan.apply;
  if (apply.refute_atom >= 0 && !instance.has_merges()) {
    const plan::HeadAtom& atom = apply.head_atoms[apply.refute_atom];
    if (!instance.ContainsExact(atom.relation, head + apply.refute_offset,
                                static_cast<size_t>(atom.arity))) {
      return false;
    }
  }
  return HasMatchPlanned(plan.head, instance, body);
}

}  // namespace pdx

#endif  // PDX_CHASE_DELTA_PHASE_H_
