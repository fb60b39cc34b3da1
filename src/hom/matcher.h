#ifndef PDX_HOM_MATCHER_H_
#define PDX_HOM_MATCHER_H_

// The interpreter: conjunctive matching straight off an atom list, for
// the one-shot callers that have no compiled plan (conjunctive queries,
// datalog, implication, Satisfies*) and as the independent evaluator of
// the chase trace checker (tests/chase_trace_check.h) and reference
// semantics the compiled path (hom/match_vm.h) is tested against. Also
// the match vocabulary both share: Binding and DeltaPartition.

#include <functional>
#include <vector>

#include "logic/atom.h"
#include "relational/instance.h"

namespace pdx {

// A partial assignment of values to the variables 0..var_count-1 of one
// dependency or query. `bound[v]` says whether `values[v]` is meaningful.
struct Binding {
  std::vector<Value> values;
  std::vector<bool> bound;

  static Binding Empty(int var_count) {
    Binding b;
    b.values.resize(var_count);
    b.bound.assign(var_count, false);
    return b;
  }

  void Bind(VariableId v, Value value) {
    values[v] = value;
    bound[v] = true;
  }
};

// Enumerates homomorphisms from the conjunction `atoms` into `instance`
// that extend `partial`: assignments h of values to all variables occurring
// in `atoms` such that h(A) is a fact of `instance` for every atom A.
// Values are matched literally; labeled nulls in the instance behave like
// ordinary values (the standard naive-evaluation semantics used by the
// chase and by monotone query evaluation).
//
// Matching is resolve-on-read against the instance's value layer: raw
// tuple values are resolved to their equivalence-class roots before
// unification (see Instance::resolver()), so bindings reported to `fn`
// always hold resolved values — as do the values of `partial`, which are
// resolved on entry.
//
// `fn` is invoked once per complete match; returning false stops the
// enumeration. EnumerateMatches returns true iff enumeration was stopped by
// `fn` (i.e. "found and accepted early").
//
// The search picks, at every step, the pending atom with the fewest
// candidate tuples according to the instance's positional index, which
// keeps chase trigger detection near-linear on typical inputs.
bool EnumerateMatches(const std::vector<Atom>& atoms, int var_count,
                      const Instance& instance, const Binding& partial,
                      const std::function<bool(const Binding&)>& fn);

// The interpreted delta enumerators below (EnumerateMatchesDelta and
// EnumerateMatchesDeltaPartition) have no production caller: every delta
// engine runs its compiled plans through the match VM (hom/match_vm.h).
// They stay as the reference semantics the VM is checked against
// (plan_compiler_test, DeltaExecutorMatchesInterpreterPerPartition).
//
// Delta-restricted enumeration (the semi-naive restriction): enumerates
// only homomorphisms that match at least one body atom to a fact inside
// `delta`, i.e. a fact added since the delta's watermark. Every such match
// is produced exactly once: the *first* atom (in `atoms` order) mapped to
// a delta fact acts as the pivot — it ranges over the delta, atoms before
// it are confined to pre-delta facts, atoms after it are unrestricted.
// Matches entirely over pre-delta facts are skipped; a caller that has
// already processed them (the previous chase rounds) loses nothing.
//
// If the delta carries merge-dirtied extras (DeltaView::extras), matches
// binding an atom to a dirtied pre-existing tuple are also enumerated —
// these pivots leave the other atoms unrestricted, so a match touching
// both an extra and an additive fact may be reported more than once;
// callers must be idempotent (chase triggers are: on an instance with
// merges the apply re-checks every head before firing).
//
// Callback and return semantics are identical to EnumerateMatches.
bool EnumerateMatchesDelta(const std::vector<Atom>& atoms, int var_count,
                           const Instance& instance, const DeltaView& delta,
                           const Binding& partial,
                           const std::function<bool(const Binding&)>& fn);

// One slice of the work EnumerateMatchesDelta performs: the pivot atom
// `pivot` ranges over a sub-range of the delta (PartitionDeltaMatches in
// hom/match_vm.h slices a compiled body into these). When `over_extras` is
// false, [begin, end) slices the additive tuple range
// [delta.begin, delta.end) of the pivot's relation; otherwise it slices
// positions of delta.extras(relation). Atoms before an additive pivot are
// confined to pre-delta facts, exactly as in EnumerateMatchesDelta.
struct DeltaPartition {
  size_t pivot = 0;
  size_t begin = 0;
  size_t end = 0;
  bool over_extras = false;
};

// Enumerates the matches of one partition. Callback and return semantics
// are identical to EnumerateMatches; `instance` and `delta` must be the
// ones the partition was built against and must not be mutated while any
// partition of the same batch is being enumerated (workers share them
// read-only).
bool EnumerateMatchesDeltaPartition(
    const std::vector<Atom>& atoms, int var_count, const Instance& instance,
    const DeltaView& delta, const DeltaPartition& partition,
    const Binding& partial, const std::function<bool(const Binding&)>& fn);

// True if at least one homomorphism extending `partial` exists.
bool HasMatch(const std::vector<Atom>& atoms, int var_count,
              const Instance& instance, const Binding& partial);

// Convenience: HasMatch from the empty binding.
bool HasMatch(const std::vector<Atom>& atoms, int var_count,
              const Instance& instance);

}  // namespace pdx

#endif  // PDX_HOM_MATCHER_H_
