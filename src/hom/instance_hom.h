#ifndef PDX_HOM_INSTANCE_HOM_H_
#define PDX_HOM_INSTANCE_HOM_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "relational/instance.h"
#include "relational/null_map.h"
#include "relational/tuple.h"

namespace pdx {

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
