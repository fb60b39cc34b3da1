#ifndef PDX_HOM_MATCH_VM_H_
#define PDX_HOM_MATCH_VM_H_

// The compiled match path: the register-style bytecode VM that executes
// the programs the dependency compiler emits (plan/compiler.h,
// plan/bytecode.h). One frame per join level (candidate cursor + trail
// mark), no recursion, no virtual dispatch, and no heap allocation in
// steady state (contexts are pooled per thread). Every delta engine — the
// chase's tgd phase and egd fixpoint, StreamingChase, SolutionAwareChase
// and GenericSolver — matches through the entry points below and nothing
// else.
//
// It is the only production executor. Conjunctive queries, containment,
// implication and the Satisfies* checks compile their atom lists too —
// the setting's own dependencies through the process-wide PlanCache,
// query text per call through plan::CompileBody — and Datalog runs as the
// chase. The plan's static join order, access paths and unification
// programs are fixed at compile time; the enumeration *order* therefore
// follows the plan, and every consumer tolerates any order
// (collect-then-apply phases gather full pending sets, and result
// contracts are stated on resolved views / canonical fingerprints).
// Bindings reported to `fn` hold resolved values. The partial binding may
// bind any subset of variables: plans compiled under a different
// assumed-bound set stay correct (kBind instrs verify at run time), only
// access-path quality is tuned to the compiled assumption. The tests
// check the VM against an independent, test-only interpreter
// (tests/reference_matcher.h).

#include <functional>
#include <vector>

#include "logic/atom.h"
#include "plan/ir.h"
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

// One slice of the semi-naive enumeration of a body over a DeltaView: the
// pivot atom `pivot` ranges over a sub-range of the delta. When
// `over_extras` is false, [begin, end) slices the additive tuple range
// [delta.begin, delta.end) of the pivot's relation, and atoms before the
// pivot are confined to pre-delta facts, so every match that uses an
// added fact is enumerated under exactly one pivot: the first atom whose
// image was added. Otherwise [begin, end) slices positions of
// delta.extras(relation), the tuples an egd merge dirtied, and the other
// atoms are unrestricted: a match touching several extras (or an extra
// plus an added fact) can be enumerated more than once, and consumers are
// idempotent (chase triggers are: on an instance with merges the apply
// re-checks every head before firing).
struct DeltaPartition {
  size_t pivot = 0;
  size_t begin = 0;
  size_t end = 0;
  bool over_extras = false;
};

// Enumerates the homomorphisms from the plan's conjunction into `instance`
// that extend `partial`, through the plan's full program. `fn` is invoked
// once per complete match; returning false stops the enumeration.
// Returns true iff `fn` stopped it.
bool EnumerateMatchesPlanned(const plan::BodyPlan& plan,
                             const Instance& instance, const Binding& partial,
                             const std::function<bool(const Binding&)>& fn);

// True if some match extending `partial` exists, through the plan's full
// program: existence only, stopping at the first match. Single-level
// fully-bound plans (the chase's dominant head-satisfaction shape on
// merge-free instances) collapse to one dedup-set point lookup with no
// context lease or binding copy.
bool HasMatchPlanned(const plan::BodyPlan& plan, const Instance& instance,
                     const Binding& partial);

// Slices the semi-naive enumeration of `plan` over `delta` into at most
// ~max_partitions independent partitions of comparable pivot width,
// reading each pivot's relation from plan.pivots. Additive pivots come
// first, in atom order, then the merge-dirtied extras pivots. Enumerating
// the partitions one after another, in the returned order, visits every
// delta match in that order, so a parallel caller that concatenates
// per-partition results in partition order reproduces the sequential
// enumeration bit for bit; with max_partitions == 1 there is one partition per non-empty
// pivot range. Deterministic: a pure function of (plan, delta,
// max_partitions). Replaces the contents of `parts`, keeping its capacity.
void PartitionDeltaMatches(const plan::BodyPlan& plan, const DeltaView& delta,
                           size_t max_partitions,
                           std::vector<DeltaPartition>* parts);

// Enumerates the matches of one partition (DeltaPartition) through
// plan.pivots[partition.pivot]; callback and return as in
// EnumerateMatchesPlanned. `instance` and `delta` must be the ones the
// partition was built against and must not be mutated while any
// partition of the same batch is being enumerated (workers share them
// read-only).
bool EnumerateDeltaPartitionPlanned(
    const plan::BodyPlan& plan, const Instance& instance,
    const DeltaView& delta, const DeltaPartition& partition,
    const Binding& partial, const std::function<bool(const Binding&)>& fn);

}  // namespace pdx

#endif  // PDX_HOM_MATCH_VM_H_
