#ifndef PDX_RELATIONAL_SNAPSHOT_H_
#define PDX_RELATIONAL_SNAPSHOT_H_

#include <utility>

#include "relational/instance.h"

namespace pdx {

// A frozen view of an Instance at a point in time, taken in O(#relations):
// the snapshot shares every relation store with the instance it was taken
// from (copy-on-write), so neither taking it nor branching from it copies
// tuples or indexes.
//
// Branch() hands out an independently mutable Instance; the first mutation
// of a relation in a branch clones just that relation's store, leaving the
// snapshot (and every other branch) untouched. Search-based solvers
// (GenericSolver, Repairs) use this to explore alternatives in O(1) per
// branch instead of deep-copying the state.
//
// DeltaSince() pairs the snapshot with the delta machinery: given a branch
// descended from this snapshot, it returns the facts the branch added,
// which delta-restricted trigger evaluation can then scan exclusively.
class InstanceSnapshot {
 public:
  explicit InstanceSnapshot(const Instance& instance)
      : frozen_(instance), mark_(instance.TakeWatermark()) {}
  // Freezes `instance` itself, sparing the copy when the caller is done
  // with it.
  explicit InstanceSnapshot(Instance&& instance)
      : frozen_(std::move(instance)), mark_(frozen_.TakeWatermark()) {}

  // The frozen state. Never mutated by branches.
  const Instance& get() const { return frozen_; }

  // The watermark at which the snapshot was taken.
  const InstanceWatermark& watermark() const { return mark_; }

  // A mutable copy sharing all stores with the snapshot (O(#relations)).
  Instance Branch() const { return frozen_; }

  // The facts `descendant` (a branch of this snapshot) has added since the
  // snapshot was taken; relations it rewrote count as entirely new.
  DeltaView DeltaSince(const Instance& descendant) const {
    return DeltaView(descendant, mark_);
  }

 private:
  Instance frozen_;
  InstanceWatermark mark_;
};

}  // namespace pdx

#endif  // PDX_RELATIONAL_SNAPSHOT_H_
