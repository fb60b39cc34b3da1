#ifndef PDX_HOM_INSTANCE_HOM_H_
#define PDX_HOM_INSTANCE_HOM_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "relational/instance.h"
#include "relational/tuple.h"

namespace pdx {

// Dense slots for distinct labeled nulls: an open-addressing map from
// Value::packed() to slot numbers 0..size()-1, handed out in first-insert
// order. Flat arrays sized by the number of distinct nulls — never by the
// raw null-id span, which a long-lived symbol table makes unbounded.
class NullSlots {
 public:
  static constexpr uint32_t kNone = ~uint32_t{0};

  // The slot of `null`, assigning the next one if it is new.
  uint32_t Insert(Value null);
  // The slot of `v`, or kNone if it has none (constants never do).
  uint32_t Find(Value v) const;
  size_t size() const { return size_; }

 private:
  static constexpr uint64_t kEmpty = ~0ull;  // no packed Value is ~0
  void Rehash(size_t capacity);

  std::vector<uint64_t> keys_;  // power-of-two size, kEmpty when free
  std::vector<uint32_t> slots_;
  size_t size_ = 0;
};

// A mapping from labeled nulls to values; constants, and nulls it does
// not assign, map to themselves.
class NullAssignment {
 public:
  NullAssignment() = default;
  // Slot s of `slots` maps to images[s].
  NullAssignment(NullSlots slots, std::vector<Value> images);

  // Maps `null` to `image`, replacing any earlier image.
  void Set(Value null, Value image);
  // The image of `v`.
  Value Apply(Value v) const {
    const uint32_t slot = slots_.Find(v);
    return slot == NullSlots::kNone ? v : images_[slot];
  }
  size_t size() const { return slots_.size(); }

 private:
  NullSlots slots_;
  std::vector<Value> images_;
};

// One fact of a decomposed instance: tuples(relation)[tuple].
struct FactRef {
  RelationId relation = -1;
  int32_t tuple = -1;
};

// The blocks of an instance (Definition 10): the maximal sets of facts
// whose nulls form one connected component of the graph of nulls, plus
// the set of all null-free facts (last, and only if non-empty). Stored
// flat: block b's facts and nulls are compressed-sparse-row spans over
// one FactRef array and one null-slot numbering, in which b owns the
// null_count(b) slots from null_begin(b) on. Blocks are numbered by
// first occurrence in (relation, tuple index) order; within a block,
// facts and nulls keep that order too.
class BlockDecomposition {
 public:
  explicit BlockDecomposition(const Instance& instance);

  // The instance the FactRefs index: `instance` itself (a copy-on-write
  // share) or, when it carries egd merges, its resolved compaction.
  const Instance& instance() const { return instance_; }

  size_t size() const { return fact_begin_.size() - 1; }
  std::span<const FactRef> facts(size_t b) const {
    return {facts_.begin() + fact_begin_[b],
            facts_.begin() + fact_begin_[b + 1]};
  }
  uint32_t null_begin(size_t b) const { return null_begin_[b]; }
  size_t null_count(size_t b) const {
    return null_begin_[b + 1] - null_begin_[b];
  }

  // Every distinct null, by slot; slots() maps a null back to its slot.
  const std::vector<Value>& nulls() const { return nulls_; }
  const NullSlots& slots() const { return slots_; }

 private:
  Instance instance_;
  NullSlots slots_;
  std::vector<Value> nulls_;
  std::vector<uint32_t> fact_begin_;  // size() + 1 offsets into facts_
  std::vector<FactRef> facts_;
  std::vector<uint32_t> null_begin_;  // size() + 1 slot offsets
};

// Searches a homomorphism from each block in [begin, end) of `blocks`
// into `target` (which must carry no egd merges): an image for every null
// of the block such that every fact maps into `target`, constants fixed.
// Writes block b's images into images[null_begin(b) + i], i < null_count(b),
// which must have blocks.nulls().size() entries. Returns the first block
// that has no homomorphism, or `end` if all map. Blocks own disjoint
// slots, so concurrent calls over disjoint ranges may share `images`.
size_t MapBlocks(const BlockDecomposition& blocks, size_t begin, size_t end,
                 const Instance& target, Value* images);

// Searches for a homomorphism from `source` to `target` (constants fixed,
// nulls mapped freely). Per Proposition 1 this factorizes over blocks, so
// the cost is exponential only in the largest per-block null count.
// Returns the combined assignment for all nulls, or nullopt.
std::optional<NullAssignment> FindInstanceHomomorphism(
    const Instance& source, const Instance& target);

// Applies `assignment` to every fact of `source` (constants and unassigned
// nulls are kept), producing the homomorphic image instance. Relations
// holding no null the assignment maps share `source`'s copy-on-write
// stores; only the others are rebuilt.
Instance ApplyAssignment(const Instance& source,
                         const NullAssignment& assignment);

// Canonical renumbering of an instance's nulls: returns an instance with
// the same resolved facts whose nulls are Value::Null(0..k-1), numbered in
// an order determined by the facts' structure alone (color refinement over
// the null co-occurrence structure, plus individualization of residual
// symmetric classes). Instances equal up to a bijective renaming of nulls
// canonicalize to literally equal fact sets, so comparing
// CanonicalizeNulls(a).CanonicalFingerprint() against b's is a sound
// isomorphism check that — unlike the raw CanonicalFingerprint(), whose
// sort tie-breaks on original null ids — does not depend on which ids a
// thread schedule happened to hand out. Completeness caveat: members of a
// color class the refinement cannot split are individualized in original-
// id order; for truly automorphic nulls (every case the chase produces)
// the result is id-independent.
Instance CanonicalizeNulls(const Instance& instance);

}  // namespace pdx

#endif  // PDX_HOM_INSTANCE_HOM_H_
