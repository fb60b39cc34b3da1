#ifndef PDX_CHASE_DELTA_PHASE_H_
#define PDX_CHASE_DELTA_PHASE_H_

// What every compiled delta engine shares — the chase's tgd phase and egd
// fixpoint, the solution-aware chase, StreamingChase and the generic
// solver's candidate discovery: the delta touch test, the collect fan-out
// over a body's delta matches, and head instantiation from a value row.

#include <cstdint>
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
// are cleared, not shrunk.
template <typename Buffer, typename Collect>
size_t CollectDeltaSlots(const plan::BodyPlan& body, const Instance& instance,
                         const DeltaView& delta, ThreadPool* pool,
                         uint64_t parent_span, std::vector<Buffer>* slots,
                         const Collect& collect) {
  const Binding empty = Binding::Empty(body.var_count);
  if (pool == nullptr) {
    // Reused across calls: the sequential path runs once per dependency per
    // egd pass, and a search runs one egd fixpoint per node. No `collect`
    // re-enters this function on the same thread.
    thread_local std::vector<DeltaPartition> parts;
    if (slots->empty()) slots->resize(1);
    Buffer& buffer = (*slots)[0];
    buffer.clear();
    PartitionDeltaMatches(body, delta, 1, &parts);
    for (const DeltaPartition& part : parts) {
      EnumerateMatchesDeltaPartitionPlanned(body, instance, delta, part, empty,
                                            [&](const Binding& m) {
                                              collect(&buffer, m);
                                              return true;
                                            });
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
    int64_t kept = 0;
    EnumerateMatchesDeltaPartitionPlanned(body, instance, delta, parts[p],
                                          empty, [&](const Binding& m) {
                                            if (collect(&buffer, m)) ++kept;
                                            return true;
                                          });
    part_span.AttrInt("collected", kept);
  });
  return parts.size();
}

// Adds the head facts of one trigger: `row` holds a value for every
// variable the head mentions (indexed by variable id), existentials
// included; constants come from the template.
inline void AddHeadFacts(const plan::ApplyTemplate& apply, const Value* row,
                         Instance* instance) {
  std::vector<Value> head;
  head.reserve(apply.head_width);
  for (const plan::HeadSlot& slot : apply.slots) {
    head.push_back(slot.is_const ? slot.key : row[slot.var]);
  }
  const Value* cursor = head.data();
  for (const plan::HeadAtom& atom : apply.head_atoms) {
    instance->AddFact(atom.relation, cursor, static_cast<size_t>(atom.arity));
    cursor += atom.arity;
  }
}

}  // namespace pdx

#endif  // PDX_CHASE_DELTA_PHASE_H_
