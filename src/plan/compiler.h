#ifndef PDX_PLAN_COMPILER_H_
#define PDX_PLAN_COMPILER_H_

// The dependency compiler's pass pipeline: compiles Tgd/Egd ASTs into the
// plans of plan/ir.h, each pass writing the match VM's bytecode
// (plan/bytecode.h) directly. Three passes per conjunction:
//
//   1. Atom reordering by selectivity heuristics — greedy: at each step
//      pick the pending atom with the most bound terms (constants plus
//      variables bound by earlier steps), tie-broken by original atom
//      index, so compilation is deterministic. Each chosen atom is
//      emitted as one loop header plus its slot instrs.
//   2. Index selection against Instance's existing accessors — each loop
//      header probes a bound-variable position (preferred: join keys
//      narrow with the binding, and the VM picks the raw
//      TuplesWithValueAt or class-aware TuplesWithResolvedValueAt lane at
//      run time depending on Instance::has_merges), else a constant
//      position, else scans.
//   3. Delta specialization — one pivot entry per body atom (its slot
//      instrs, then the rest of the join in pass-1 order), so
//      DeltaPartition's pivot semantics (atoms before an additive
//      pivot confined to pre-delta facts) execute through the
//      plan without re-deriving anything per partition. Tgd heads skip
//      this pass: they only run from the full entry.
//
// The full program's existence-probe descriptor (ExistsProbe) is derived
// last. Plans are pure functions of dependency structure (never of
// instance contents), so a setting compiles once and is reusable for the
// life of the process — see plan/plan_cache.h.

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
// access-path selection and which variable occurrences become kBind
// instrs.
BodyPlan CompileBody(const std::vector<Atom>& atoms, int var_count,
                     const std::vector<bool>& initially_bound);

TgdPlan CompileTgd(const Tgd& tgd);
EgdPlan CompileEgd(const Egd& egd);

// Compiles a whole setting; fingerprint filled in.
std::shared_ptr<const CompiledSetting> CompileSetting(
    const std::vector<Tgd>& tgds, const std::vector<Egd>& egds);

// Human-readable plan dump (pdxcli --dump-plans and golden tests): one
// block per dependency with the disassembly of its body (and, for tgds,
// head) code — atom order, access paths and the body's delta pivots —
// rendered with schema relation names and the dependencies' own variable
// names.
std::string DumpPlans(const CompiledSetting& compiled,
                      const std::vector<Tgd>& tgds,
                      const std::vector<Egd>& egds, const Schema& schema,
                      const SymbolTable& symbols);

}  // namespace plan
}  // namespace pdx

#endif  // PDX_PLAN_COMPILER_H_
