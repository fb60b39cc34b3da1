#ifndef PDX_PDE_GENERIC_SOLVER_H_
#define PDX_PDE_GENERIC_SOLVER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "base/status.h"
#include "pde/setting.h"
#include "relational/instance.h"
#include "relational/value.h"

namespace pdx {

enum class SolveOutcome {
  kSolutionFound,
  kNoSolution,
  kBudgetExhausted,  // search budget hit before the space was exhausted
};

struct GenericSolverOptions {
  // Total search-node budget across the whole exploration. Only visited
  // nodes count: branches the egd probe prunes are never visited.
  int64_t max_nodes = 1'000'000;
  // Maximum recursion depth (= chase steps along one path). Weakly acyclic
  // settings stay far below this; the bound keeps non-weakly-acyclic Σ_t
  // from diverging.
  int max_depth = 5'000;
  // When true, the entire space is explored and every distinct solution
  // found at a search leaf is collected (deduplicated up to null renaming).
  // Used by certain-answer computation.
  bool enumerate_all = false;
  // Threads for the per-node egd fixpoint's trigger collection (0 =
  // hardware concurrency). The search itself is sequential, and the
  // fixpoint merges in the same order at every thread count, so the whole
  // search — outcome, nodes and the trigger-cache counters below — is
  // independent of this knob.
  int num_threads = 1;
};

struct GenericSolveResult {
  SolveOutcome outcome = SolveOutcome::kNoSolution;
  // Target part of the first solution found (present iff kSolutionFound).
  std::optional<Instance> solution;
  // All distinct leaf solutions, when enumerate_all. Every solution J* of
  // the setting contains (up to renaming of nulls) at least one member, so
  // intersecting a monotone query over this set yields the certain answers.
  std::vector<Instance> solutions;
  // Visited search nodes: what max_nodes budgets. Branches the egd probe
  // skipped are never visited, so they count in nodes_pruned only.
  int64_t nodes_explored = 0;
  // Node outcomes: visited nodes that died on a constant/constant clash in
  // their egd fixpoint, visited nodes whose state the memo already held,
  // and branches the egd probe skipped without visiting (one per skipped
  // value choice of an existential, plus one per node whose probe clashed
  // and so skipped its whole fan-out).
  int64_t nodes_clash = 0;
  int64_t nodes_memo = 0;
  int64_t nodes_pruned = 0;
  // Value choices the source-backed witness rule skipped without visiting:
  // every unbacked domain value, null and fresh null of a source-backed
  // existential (one per skipped choice, as for nodes_pruned). A node
  // whose existential has an empty backing set ends there, counting each
  // of that variable's choices (the domain values and the fresh null).
  int64_t values_unbacked = 0;
  // Instrumentation of the incremental violated-trigger cache that drives
  // the search loop (no full-instance trigger rescans happen per node):
  // body matches found by delta-driven discovery, and head-extension tests
  // of cached candidates. Both scale with what each node adds (its delta
  // and the triggers it affects), not with instance size — asserted in
  // generic_solver_test.
  int64_t candidates_discovered = 0;
  int64_t candidate_checks = 0;
};

// Sound and complete decision procedure for SOL(P) on arbitrary settings
// with Σ_t = egds + (preferably weakly acyclic) tgds, realizing the NP
// upper bound of Theorem 1 as an explicit backtracking search over
// solution-aware chase choices:
//
//   * a violated Σ_st / Σ_t tgd trigger branches over all assignments of
//     its existential variables to values of the current active domain or
//     fresh labeled nulls (including reuse of nulls introduced for earlier
//     variables of the same trigger);
//   * a violated Σ_t egd merges a null or kills the branch on a
//     constant/constant clash;
//   * before a trigger branches, one most-general egd probe runs: the
//     trigger's head with a fresh null per existential, chased to its egd
//     fixpoint. Mapping each probe null to the value an assignment picks
//     is a homomorphism from the probe state into that assignment's
//     state, so every clash and every forced equality of the probe holds
//     for every assignment. A probe clash prunes the node; an existential
//     the probe equates with a value r of the active domain skips its
//     fresh-null branch (after the fixpoint it is the state of choosing
//     r) and, when r is a constant, every other constant (a certain
//     clash). Enumeration order is otherwise unchanged, and merges that
//     cascade still run through each child's fixpoint;
//   * an existential written at a position that a plain LAV Σ_ts tgd
//     reads is *source-backed*: (I, J') ⊨ Σ_ts with I ground makes the
//     value there a constant of the source column the tgd's head copies
//     that position to, so the existential branches over those constants
//     only (intersected when several rules apply; no null, no fresh
//     null). The sets are derived once per solve;
//   * Σ_ts (and disjunctive Σ_ts) act as checks: a violated all-constant
//     trigger — or any violated trigger when Σ_t has no egds — is
//     permanent and prunes; otherwise the branch dies only at fixpoints.
//
// Completeness follows the paper's Lemma 2: for any solution J*, tracing
// the solution-aware chase against J* — choosing a witness's constant
// itself whenever the current state holds it — is one of the explored
// paths up to injective renaming of non-input values; that path gives a
// source-backed existential a constant of I, so the rule never cuts it
// (DESIGN.md, "Generic solver"). Visited states are memoized by
// canonical fingerprint. Trigger discovery, head checks and the per-node
// egd fixpoint run through compiled plans (plan/ir.h), fetched once per
// solve from the process-wide PlanCache, so node re-chases never
// recompile.
//
// kBudgetExhausted means "unknown": no claim is made either way.
StatusOr<GenericSolveResult> GenericExistsSolution(
    const PdeSetting& setting, const Instance& source, const Instance& target,
    SymbolTable* symbols,
    const GenericSolverOptions& options = GenericSolverOptions());

struct IncrementalSolveResult {
  GenericSolveResult result;
  // True when the prior witness revalidated and no search ran (the PTIME
  // path); result is then kSolutionFound with the witness as solution.
  bool revalidated = false;
};

// GenericExistsSolution after a ±Δ batch, reusing the previous answer's
// witness: if `prior_witness` (the J' of an earlier kSolutionFound, over
// the current setting) is still a solution for the *new* (source, target)
// — a PTIME IsSolution check — the NP search is skipped entirely. Reuse is
// positive-only: deletions can break a witness but a broken witness says
// nothing about other solutions, and additions to J can push J ⊄ J', so
// any failed check falls through to the full search. Pass null (or after a
// kNoSolution) to always search. Used by the serving layer to keep exists
// verdicts fresh across churn (serve/tenant.cc).
StatusOr<IncrementalSolveResult> GenericExistsSolutionIncremental(
    const PdeSetting& setting, const Instance& source, const Instance& target,
    const Instance* prior_witness, SymbolTable* symbols,
    const GenericSolverOptions& options = GenericSolverOptions());

}  // namespace pdx

#endif  // PDX_PDE_GENERIC_SOLVER_H_
