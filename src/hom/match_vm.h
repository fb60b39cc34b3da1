#ifndef PDX_HOM_MATCH_VM_H_
#define PDX_HOM_MATCH_VM_H_

// The register-style bytecode VM behind the planned match entry points: an
// iterative executor for the linear programs plan/bytecode.h lowers from
// compiled BodyPlans. One frame per join level (candidate cursor + trail
// mark), no recursion, no virtual dispatch, and no heap allocation in
// steady state (contexts are pooled per thread).
//
// The VM is the only planned executor. It enumerates exactly the match set
// the interpreter (EnumerateMatches* over the atom list) enumerates,
// including the delta-pivot confinement and the bind-or-check tolerance
// for callers whose partial binding differs from the compiled assumption;
// the interpreter stays as the reference oracle it is tested against
// (tests/plan_compiler_test.cc, tests/cross_validation_test.cc,
// tests/fuzz_test.cc).

#include <functional>

#include "hom/matcher.h"
#include "plan/ir.h"

namespace pdx {

// EnumerateMatchesPlanned through plan.code (full program).
bool VmEnumerateMatches(const plan::BodyPlan& plan, const Instance& instance,
                        const Binding& partial,
                        const std::function<bool(const Binding&)>& fn);

// HasMatchPlanned through plan.code: existence only, stopping at the
// first match. Single-level fully-bound plans (the chase's dominant
// head-satisfaction shape on merge-free instances) collapse to one
// dedup-set point lookup with no context lease or binding copy.
bool VmHasMatch(const plan::BodyPlan& plan, const Instance& instance,
                const Binding& partial);

// EnumerateMatchesDeltaPartitionPlanned through the variant entry point.
bool VmEnumerateMatchesDeltaPartition(
    const plan::BodyPlan& plan, const Instance& instance,
    const DeltaView& delta, const DeltaPartition& partition,
    const Binding& partial, const std::function<bool(const Binding&)>& fn);

}  // namespace pdx

#endif  // PDX_HOM_MATCH_VM_H_
