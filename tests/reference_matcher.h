#ifndef PDX_TESTS_REFERENCE_MATCHER_H_
#define PDX_TESTS_REFERENCE_MATCHER_H_

// The reference interpreter: conjunctive matching straight off an atom
// list, with no compiled plan, and the dependency checks built on it. It
// is test-only (the pdx_reference library, linked by the tests and
// bench_chase): the independent evaluator of the chase trace checker
// (tests/chase_trace_check.h) and the semantics the match VM
// (hom/match_vm.h) and the production Satisfies*, query and implication
// paths are tested against. It shares nothing with the VM but the
// instance's read-side accessors and the Binding type.

#include <functional>
#include <vector>

#include "hom/match_vm.h"
#include "logic/atom.h"
#include "logic/dependency.h"
#include "relational/instance.h"

namespace pdx {
namespace reference {

// Enumerates homomorphisms from the conjunction `atoms` into `instance`
// that extend `partial`: assignments h of values to all variables occurring
// in `atoms` such that h(A) is a fact of `instance` for every atom A.
// Values are matched literally; labeled nulls in the instance behave like
// ordinary values (naive-evaluation semantics).
//
// Matching is resolve-on-read against the instance's value layer: raw
// tuple values are resolved to their equivalence-class roots before
// unification (see Instance::resolver()), so bindings reported to `fn`
// always hold resolved values — as do the values of `partial`, which are
// resolved on entry.
//
// `fn` is invoked once per complete match; returning false stops the
// enumeration. Returns true iff enumeration was stopped by `fn`.
//
// The search picks, at every step, the pending atom with the fewest
// candidate tuples according to the instance's positional index.
bool EnumerateMatches(const std::vector<Atom>& atoms, int var_count,
                      const Instance& instance, const Binding& partial,
                      const std::function<bool(const Binding&)>& fn);

// True if at least one homomorphism extending `partial` exists.
bool HasMatch(const std::vector<Atom>& atoms, int var_count,
              const Instance& instance, const Binding& partial);

// Convenience: HasMatch from the empty binding.
bool HasMatch(const std::vector<Atom>& atoms, int var_count,
              const Instance& instance);

// True if `instance` satisfies the dependency under standard first-order
// semantics (nulls behave as ordinary values), decided on the interpreter.
bool SatisfiesTgd(const Instance& instance, const Tgd& tgd);
bool SatisfiesEgd(const Instance& instance, const Egd& egd);
bool SatisfiesDisjunctiveTgd(const Instance& instance,
                             const DisjunctiveTgd& tgd);

// True if all dependencies of `deps` are satisfied.
bool SatisfiesAll(const Instance& instance, const DependencySet& deps);

}  // namespace reference
}  // namespace pdx

#endif  // PDX_TESTS_REFERENCE_MATCHER_H_
