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
// Each entry point mirrors an interpreted counterpart in hom/matcher.h:
// the plan's static join order, access paths and unification programs
// replace the interpreter's per-node fewest-candidates selection and
// per-call index probing. The enumerated match *set* is identical to the
// interpreter's (per delta partition, per pivot — the same pivot
// confinement semantics apply); the enumeration *order* may differ,
// which every consumer tolerates (collect-then-apply phases gather full
// pending sets, and result contracts are stated on resolved views /
// canonical fingerprints). Bindings reported to `fn` hold resolved
// values, exactly as in the interpreted paths. The partial binding may
// bind any subset of variables: plans compiled under a different
// assumed-bound set stay correct (kBind instrs verify at run time), only
// access-path quality is tuned to the compiled assumption. The
// interpreter stays as the reference oracle the VM is tested against
// (tests/plan_compiler_test.cc, tests/cross_validation_test.cc,
// tests/fuzz_test.cc).

#include <functional>
#include <vector>

#include "hom/matcher.h"
#include "plan/ir.h"

namespace pdx {

// EnumerateMatches through the plan's full program.
bool EnumerateMatchesPlanned(const plan::BodyPlan& plan,
                             const Instance& instance, const Binding& partial,
                             const std::function<bool(const Binding&)>& fn);

// HasMatch through the plan's full program: existence only, stopping at
// the first match. Single-level fully-bound plans (the chase's dominant
// head-satisfaction shape on merge-free instances) collapse to one
// dedup-set point lookup with no context lease or binding copy.
bool HasMatchPlanned(const plan::BodyPlan& plan, const Instance& instance,
                     const Binding& partial);

// Slices the semi-naive enumeration of `plan` over `delta` into at most
// ~max_partitions independent partitions of comparable pivot width,
// reading each pivot's relation from plan.pivots. Additive pivots come
// first, in atom order, then the merge-dirtied extras pivots — the order
// of the interpreter's EnumerateMatchesDelta. Enumerating the partitions
// one after another, in the returned order, visits every delta match in
// that order, so a parallel caller that concatenates per-partition
// results in partition order reproduces the sequential enumeration bit
// for bit; with max_partitions == 1 there is one partition per non-empty
// pivot range. Deterministic: a pure function of (plan, delta,
// max_partitions). Replaces the contents of `parts`, keeping its capacity.
void PartitionDeltaMatches(const plan::BodyPlan& plan, const DeltaView& delta,
                           size_t max_partitions,
                           std::vector<DeltaPartition>* parts);

// EnumerateMatchesDeltaPartition through plan.pivots[partition.pivot].
// `instance` and `delta` must be the ones the partition was built against
// and must not be mutated while any partition of the same batch is being
// enumerated (workers share them read-only).
bool EnumerateMatchesDeltaPartitionPlanned(
    const plan::BodyPlan& plan, const Instance& instance,
    const DeltaView& delta, const DeltaPartition& partition,
    const Binding& partial, const std::function<bool(const Binding&)>& fn);

}  // namespace pdx

#endif  // PDX_HOM_MATCH_VM_H_
