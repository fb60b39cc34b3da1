#ifndef PDX_PDE_CTRACT_SOLVER_H_
#define PDX_PDE_CTRACT_SOLVER_H_

#include <cstdint>
#include <optional>

#include "base/status.h"
#include "chase/chase.h"
#include "pde/setting.h"
#include "relational/instance.h"
#include "relational/value.h"

namespace pdx {

// Result of the ExistsSolution algorithm (Figure 3).
struct CtractSolveResult {
  bool has_solution = false;
  // The witness solution J_img = h_J(J_can) constructed per the (⇐)
  // direction of Theorem 5; present iff has_solution. It may contain
  // labeled nulls (values invented by the chase that no constraint forces
  // into the source).
  std::optional<Instance> solution;

  // Diagnostics for the Theorem 6 experiments.
  int64_t j_can_size = 0;      // facts in J_can
  int64_t i_can_size = 0;      // facts in I_can
  int64_t block_count = 0;     // blocks of I_can
  int64_t max_block_nulls = 0; // nulls in the largest block of I_can
  int64_t chase_steps = 0;
  // Step 3 ran by trigger: no Σ_ts frontier bound a J_can null, so every
  // block was decided by one head probe into I rather than decomposed.
  bool by_trigger = false;
};

// Decides SOL(P) via the paper's polynomial-time algorithm:
//   1. chase (I, J) with Σ_st, yielding (I, J_can);
//   2. chase (J_can, ∅) with Σ_ts, yielding (J_can, I_can);
//   3. answer true iff every block of I_can maps homomorphically into I.
//      When no Σ_ts trigger's frontier binds a null, each block is the
//      fresh nulls of one trigger, and step 3 probes each trigger's head
//      in I instead of decomposing I_can (DESIGN.md "Pooled Figure 3
//      block checks"); the verdict, block statistics and witness are the
//      same either way.
//
// Preconditions (kFailedPrecondition otherwise):
//   * Σ_t = ∅ and no disjunctive ts-tgds;
//   * condition 1 of Definition 9 holds (every marked variable appears at
//     most once in each Σ_ts LHS) — Theorem 5 makes the algorithm *correct*
//     under condition 1 alone; polynomial running time is guaranteed only
//     when the setting is additionally in C_tract (condition 2), which the
//     caller can check via setting.InCtract().
//
// `source` must be a ground source-side instance; `target` a target-side
// instance (it may contain nulls; the paper's J is null-free but nothing
// here requires that).
// `chase_options` sets the thread count and step budget of both chase
// phases.
StatusOr<CtractSolveResult> CtractExistsSolution(
    const PdeSetting& setting, const Instance& source, const Instance& target,
    SymbolTable* symbols, const ChaseOptions& chase_options = ChaseOptions());

}  // namespace pdx

#endif  // PDX_PDE_CTRACT_SOLVER_H_
