#ifndef PDX_PLAN_COMPILER_H_
#define PDX_PLAN_COMPILER_H_

// The dependency compiler's pass pipeline: lowers Tgd/Egd ASTs into the
// plan IR of plan/ir.h. Three passes per conjunction:
//
//   1. Atom reordering by selectivity heuristics — greedy: at each step
//      pick the pending atom with the most bound terms (constants plus
//      variables bound by earlier steps), tie-broken by original atom
//      index, so compilation is deterministic.
//   2. Index selection against Instance's existing accessors — each step
//      gets an access path: probe a bound-variable position (preferred:
//      join keys narrow with the binding, and the executor picks the raw
//      TuplesWithValueAt or class-aware TuplesWithResolvedValueAt lane at
//      run time depending on Instance::has_merges), else probe a constant
//      position, else scan.
//   3. Delta specialization — one pivot-rotation variant per body atom,
//      so EnumerateMatchesDeltaPartition's pivot semantics (atoms before
//      an additive pivot confined to pre-delta facts) execute through the
//      plan without re-deriving anything per partition.
//
// Plans are pure functions of dependency structure (never of instance
// contents), so a setting compiles once and is reusable for the life of
// the process — see plan/plan_cache.h.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "logic/dependency.h"
#include "plan/ir.h"

namespace pdx {
namespace plan {

// Structural fingerprint of a setting: a deterministic hash over the
// shapes the compiler reads (atom relations, term kinds, variable ids,
// packed constants, existential masks, egd equated variables). Two
// dependency sets with equal fingerprints compile to byte-identical plans,
// which is what makes the fingerprint a sound cache key.
uint64_t SettingFingerprint(const std::vector<Tgd>& tgds,
                            const std::vector<Egd>& egds);

// Compiles one conjunction. `initially_bound` marks variables the caller
// will have bound before execution (empty vector = none); it shapes
// access-path selection and which variable occurrences become kBind ops.
BodyPlan CompileBody(const std::vector<Atom>& atoms, int var_count,
                     const std::vector<bool>& initially_bound);

TgdPlan CompileTgd(const Tgd& tgd);
EgdPlan CompileEgd(const Egd& egd);

// Compiles a whole setting; fingerprint filled in.
std::shared_ptr<const CompiledSetting> CompileSetting(
    const std::vector<Tgd>& tgds, const std::vector<Egd>& egds);

// Human-readable plan dump (pdxcli --dump-plans and golden tests): one
// block per dependency with the chosen atom order, access paths and delta
// variants, rendered with schema relation names and the dependencies' own
// variable names.
std::string DumpPlans(const CompiledSetting& compiled,
                      const std::vector<Tgd>& tgds,
                      const std::vector<Egd>& egds, const Schema& schema,
                      const SymbolTable& symbols);

}  // namespace plan
}  // namespace pdx

#endif  // PDX_PLAN_COMPILER_H_
