#include "pde/generic_solver.h"

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pde/solution.h"
#include "tests/test_util.h"
#include "workload/reductions.h"

namespace pdx {
namespace {

using testing_util::MakeExample1Setting;
using testing_util::MakePathSetting;
using testing_util::ParseOrDie;
using testing_util::Unwrap;

class GenericSolverTest : public ::testing::Test {
 protected:
  GenericSolverTest() : setting_(MakeExample1Setting(&symbols_)) {}

  GenericSolveResult Solve(const Instance& source, const Instance& target) {
    return Unwrap(
        GenericExistsSolution(setting_, source, target, &symbols_),
        "GenericExistsSolution");
  }

  SymbolTable symbols_;
  PdeSetting setting_;
};

TEST_F(GenericSolverTest, Example1NoSolution) {
  Instance source = ParseOrDie(setting_, "E(a,b). E(b,c).", &symbols_);
  GenericSolveResult result = Solve(source, setting_.EmptyInstance());
  EXPECT_EQ(result.outcome, SolveOutcome::kNoSolution);
  EXPECT_FALSE(result.solution.has_value());
}

TEST_F(GenericSolverTest, Example1UniqueSolution) {
  Instance source = ParseOrDie(setting_, "E(a,a).", &symbols_);
  GenericSolveResult result = Solve(source, setting_.EmptyInstance());
  ASSERT_EQ(result.outcome, SolveOutcome::kSolutionFound);
  EXPECT_TRUE(IsSolution(setting_, source, setting_.EmptyInstance(),
                         *result.solution, symbols_));
  EXPECT_EQ(result.solution->ToString(symbols_), "H(a,a).");
}

TEST_F(GenericSolverTest, Example1FindsVerifiedSolution) {
  Instance source =
      ParseOrDie(setting_, "E(a,b). E(b,c). E(a,c).", &symbols_);
  GenericSolveResult result = Solve(source, setting_.EmptyInstance());
  ASSERT_EQ(result.outcome, SolveOutcome::kSolutionFound);
  EXPECT_TRUE(IsSolution(setting_, source, setting_.EmptyInstance(),
                         *result.solution, symbols_));
}

TEST_F(GenericSolverTest, EnumeratesMinimalSolutions) {
  Instance source =
      ParseOrDie(setting_, "E(a,b). E(b,c). E(a,c).", &symbols_);
  GenericSolverOptions options;
  options.enumerate_all = true;
  GenericSolveResult result = Unwrap(GenericExistsSolution(
      setting_, source, setting_.EmptyInstance(), &symbols_, options));
  ASSERT_EQ(result.outcome, SolveOutcome::kSolutionFound);
  // The unique minimal solution is {H(a,c)} (the only Σ_st requirement).
  ASSERT_EQ(result.solutions.size(), 1u);
  EXPECT_EQ(result.solutions[0].ToString(symbols_), "H(a,c).");
}

TEST_F(GenericSolverTest, RespectsExistingTargetData) {
  Instance source =
      ParseOrDie(setting_, "E(a,b). E(b,c). E(a,c).", &symbols_);
  Instance target = ParseOrDie(setting_, "H(a,b).", &symbols_);
  GenericSolveResult result = Solve(source, target);
  ASSERT_EQ(result.outcome, SolveOutcome::kSolutionFound);
  EXPECT_TRUE(target.IsSubsetOf(*result.solution));
  EXPECT_TRUE(
      IsSolution(setting_, source, target, *result.solution, symbols_));

  // H(b,a) can never be repaired: (b,a) is not an edge.
  Instance bad_target = ParseOrDie(setting_, "H(b,a).", &symbols_);
  EXPECT_EQ(Solve(source, bad_target).outcome, SolveOutcome::kNoSolution);
}

TEST_F(GenericSolverTest, HandlesTsExistentialsViaSourceWitnesses) {
  SymbolTable symbols;
  PdeSetting setting = MakePathSetting(&symbols);
  Instance source = ParseOrDie(setting, "E(a,b). E(b,c).", &symbols);
  GenericSolveResult result = Unwrap(GenericExistsSolution(
      setting, source, setting.EmptyInstance(), &symbols));
  ASSERT_EQ(result.outcome, SolveOutcome::kSolutionFound);
  EXPECT_TRUE(IsSolution(setting, source, setting.EmptyInstance(),
                         *result.solution, symbols));
}

TEST_F(GenericSolverTest, TargetEgdsMergeNulls) {
  SymbolTable symbols;
  // Σ_st invents a null for H's second column; the key egd then forces all
  // of a's H-successors to coincide; Σ_ts requires the merged value to be
  // an E-successor of a.
  auto setting = Unwrap(PdeSetting::Create(
      {{"E", 2}}, {{"H", 2}},
      "E(x,y) -> exists z: H(x,z).",
      "H(x,y) -> E(x,y).",
      "H(x,y) & H(x,z) -> y = z.", &symbols));
  Instance source = ParseOrDie(setting, "E(a,b).", &symbols);
  GenericSolveResult result = Unwrap(GenericExistsSolution(
      setting, source, setting.EmptyInstance(), &symbols));
  ASSERT_EQ(result.outcome, SolveOutcome::kSolutionFound);
  EXPECT_TRUE(IsSolution(setting, source, setting.EmptyInstance(),
                         *result.solution, symbols));
  EXPECT_EQ(result.solution->ToString(symbols), "H(a,b).");

  // Two E-successors: the egd would force b = c on any solution covering
  // both... but H only needs *some* value per x, and b or c both work.
  Instance source2 = ParseOrDie(setting, "E(a,b). E(a,c).", &symbols);
  GenericSolveResult result2 = Unwrap(GenericExistsSolution(
      setting, source2, setting.EmptyInstance(), &symbols));
  EXPECT_EQ(result2.outcome, SolveOutcome::kSolutionFound);
}

// The only witness for z is a value outside the active domain: every
// domain value d has Dt(d) and no F(d), so only the fresh-null branch
// reaches a solution. With the key egd on T the egd probe runs too, and
// it must keep that branch: nothing forces z there.
TEST_F(GenericSolverTest, FreshNullWitnessIsExplored) {
  for (const char* egds : {"", "T(x,z) & T(x,z2) -> z = z2."}) {
    SymbolTable symbols;
    auto setting = Unwrap(PdeSetting::Create(
        {{"S", 1}, {"D", 1}, {"F", 1}}, {{"T", 2}, {"Dt", 1}},
        "S(x) -> exists z: T(x,z).\nD(x) -> Dt(x).",
        "T(x,z) & Dt(z) -> F(z).", egds, &symbols));
    Instance source = ParseOrDie(setting, "S(a). D(a). D(b).", &symbols);
    GenericSolveResult result = Unwrap(GenericExistsSolution(
        setting, source, setting.EmptyInstance(), &symbols));
    ASSERT_EQ(result.outcome, SolveOutcome::kSolutionFound) << egds;
    EXPECT_TRUE(IsSolution(setting, source, setting.EmptyInstance(),
                           *result.solution, symbols));
    EXPECT_TRUE(result.solution->HasNulls()) << egds;
  }
}

TEST_F(GenericSolverTest, EgdConstantClashMeansNoSolution) {
  SymbolTable symbols;
  auto setting = Unwrap(PdeSetting::Create(
      {{"E", 2}}, {{"H", 2}},
      "E(x,y) -> H(x,y).", "",
      "H(x,y) & H(x,z) -> y = z.", &symbols));
  Instance source = ParseOrDie(setting, "E(a,b). E(a,c).", &symbols);
  GenericSolveResult result = Unwrap(GenericExistsSolution(
      setting, source, setting.EmptyInstance(), &symbols));
  EXPECT_EQ(result.outcome, SolveOutcome::kNoSolution);
}

TEST_F(GenericSolverTest, WeaklyAcyclicTargetTgdsChaseThrough) {
  SymbolTable symbols;
  auto setting = Unwrap(PdeSetting::Create(
      {{"E", 2}}, {{"H", 2}, {"F", 2}},
      "E(x,y) -> H(x,y).", "",
      "H(x,y) -> exists z: F(y,z).", &symbols));
  Instance source = ParseOrDie(setting, "E(a,b).", &symbols);
  GenericSolveResult result = Unwrap(GenericExistsSolution(
      setting, source, setting.EmptyInstance(), &symbols));
  ASSERT_EQ(result.outcome, SolveOutcome::kSolutionFound);
  EXPECT_TRUE(IsSolution(setting, source, setting.EmptyInstance(),
                         *result.solution, symbols));
}

TEST_F(GenericSolverTest, BudgetExhaustionIsReported) {
  Instance source =
      ParseOrDie(setting_, "E(a,b). E(b,c). E(a,c).", &symbols_);
  GenericSolverOptions options;
  options.max_nodes = 1;
  GenericSolveResult result = Unwrap(GenericExistsSolution(
      setting_, source, setting_.EmptyInstance(), &symbols_, options));
  EXPECT_EQ(result.outcome, SolveOutcome::kBudgetExhausted);
}

TEST_F(GenericSolverTest, DisjunctiveTsConstraintsRespected) {
  SymbolTable symbols;
  PdeSetting setting = Unwrap(MakeThreeColSetting(&symbols));
  // A triangle is 3-colorable.
  Instance triangle =
      MakeThreeColSourceInstance(setting, CompleteGraph(3), &symbols);
  GenericSolveResult yes = Unwrap(GenericExistsSolution(
      setting, triangle, setting.EmptyInstance(), &symbols));
  ASSERT_EQ(yes.outcome, SolveOutcome::kSolutionFound);
  EXPECT_TRUE(IsSolution(setting, triangle, setting.EmptyInstance(),
                         *yes.solution, symbols));
  // K4 is not 3-colorable.
  Instance k4 =
      MakeThreeColSourceInstance(setting, CompleteGraph(4), &symbols);
  GenericSolveResult no = Unwrap(GenericExistsSolution(
      setting, k4, setting.EmptyInstance(), &symbols));
  EXPECT_EQ(no.outcome, SolveOutcome::kNoSolution);
}

TEST_F(GenericSolverTest, EmptyInputsTriviallySolvable) {
  GenericSolveResult result =
      Solve(setting_.EmptyInstance(), setting_.EmptyInstance());
  ASSERT_EQ(result.outcome, SolveOutcome::kSolutionFound);
  EXPECT_EQ(result.solution->fact_count(), 0u);
}

// The search loop maintains its trigger candidates incrementally off each
// node's delta instead of rescanning the instance: on a copy setting over
// an E-path of length N, the search walks ~N nodes, and both instrumented
// quantities — body matches found by discovery and head-extension checks
// of cached candidates — must stay linear in N. A full-rescan loop pays
// Θ(N) matches per node, Θ(N²) total, which the bounds below reject by a
// wide margin.
TEST_F(GenericSolverTest, CandidateCacheScalesWithDeltaNotInstance) {
  SymbolTable symbols;
  PdeSetting setting = Unwrap(
      PdeSetting::Create({{"E", 2}}, {{"H", 2}}, "E(x,y) -> H(x,y).",
                         "H(x,y) -> E(x,y).", "", &symbols),
      "copy setting");
  auto solve_path = [&](int n) {
    std::string text;
    for (int i = 0; i < n; ++i) {
      text += "E(n" + std::to_string(i) + ",n" + std::to_string(i + 1) +
              "). ";
    }
    Instance source = ParseOrDie(setting, text, &symbols);
    return Unwrap(GenericExistsSolution(setting, source,
                                        setting.EmptyInstance(), &symbols));
  };
  for (int n : {20, 60}) {
    GenericSolveResult result = solve_path(n);
    ASSERT_EQ(result.outcome, SolveOutcome::kSolutionFound);
    // One node per fired copy trigger (plus root and leaf bookkeeping).
    EXPECT_LE(result.nodes_explored, n + 2);
    // Discovery: the root finds the N violated st triggers; each child
    // then discovers only the one ts trigger its new H-fact enables
    // (immediately satisfied and filtered). Linear, not quadratic.
    EXPECT_LE(result.candidates_discovered, 4 * n + 8) << "n = " << n;
    // Selection: along the path each candidate is checked once when it is
    // selected and once when it is found satisfied and marked — a rescan
    // loop would pay ~n²/2 here (already > the bound at n = 20).
    EXPECT_LE(result.candidate_checks, 4 * n + 8) << "n = " << n;
  }
}

// The per-node egd fixpoint merges in the same order at every thread
// count, so the whole search — not only its verdict — is thread-invariant
// on a setting whose target egds fire at nearly every node (Section 4(a)).
TEST_F(GenericSolverTest, EgdSearchIsThreadInvariant) {
  SymbolTable symbols;
  PdeSetting setting = Unwrap(MakeEgdBoundarySetting(&symbols));
  // (graph, k): both verdicts, the larger search on K3 with k = 3.
  const std::pair<Graph, int> cases[] = {
      {CompleteGraph(3), 2}, {PathGraph(1), 2}, {CompleteGraph(3), 3}};
  for (const auto& [g, k] : cases) {
    Instance source = MakeEgdBoundarySourceInstance(setting, g, k, &symbols);
    auto solve = [&](int threads) {
      GenericSolverOptions options;
      options.num_threads = threads;
      return Unwrap(GenericExistsSolution(setting, source,
                                          setting.EmptyInstance(), &symbols,
                                          options));
    };
    GenericSolveResult one = solve(1);
    GenericSolveResult four = solve(4);
    ASSERT_NE(one.outcome, SolveOutcome::kBudgetExhausted);
    EXPECT_EQ(four.outcome, one.outcome);
    EXPECT_EQ(four.nodes_explored, one.nodes_explored);
    EXPECT_EQ(four.candidates_discovered, one.candidates_discovered);
    EXPECT_EQ(four.candidate_checks, one.candidate_checks);
    EXPECT_EQ(four.nodes_clash, one.nodes_clash);
    EXPECT_EQ(four.nodes_memo, one.nodes_memo);
    EXPECT_EQ(four.nodes_pruned, one.nodes_pruned);
    EXPECT_GT(one.candidates_discovered, 0);
  }
}

// A search depends on the instance it starts from, not on how many nulls
// its symbol table minted before: a long-lived tenant's millionth solve
// explores exactly the tree its first did (the resolver each node forks
// is sized by the merges on its path, not by the largest null id).
TEST_F(GenericSolverTest, SearchIsIndependentOfSymbolTableHistory) {
  auto solve = [](uint32_t preminted_nulls) {
    SymbolTable symbols;
    symbols.ReserveNullRange(preminted_nulls);
    PdeSetting setting = Unwrap(MakeEgdBoundarySetting(&symbols));
    Instance source =
        MakeEgdBoundarySourceInstance(setting, CompleteGraph(3), 3, &symbols);
    return Unwrap(GenericExistsSolution(setting, source,
                                        setting.EmptyInstance(), &symbols));
  };
  GenericSolveResult fresh = solve(0);
  GenericSolveResult aged = solve(1'000'000);
  ASSERT_NE(fresh.outcome, SolveOutcome::kBudgetExhausted);
  EXPECT_EQ(aged.outcome, fresh.outcome);
  EXPECT_EQ(aged.nodes_explored, fresh.nodes_explored);
  EXPECT_EQ(aged.candidates_discovered, fresh.candidates_discovered);
  EXPECT_EQ(aged.candidate_checks, fresh.candidate_checks);
}

// The egd probe on Section 4(a)'s setting: once a slot's P-fact exists,
// the target egds force the next trigger's existentials to known
// constants, so the probe skips the clashing constants and the fresh
// nulls before they are visited. The verdict stays what the CLIQUE oracle
// says (K3 has a 3-clique; a path has no 3-clique), and every visited
// node is accounted for by at most one dead-end outcome.
TEST_F(GenericSolverTest, EgdProbePrunesForcedBranches) {
  SymbolTable symbols;
  PdeSetting setting = Unwrap(MakeEgdBoundarySetting(&symbols));
  const std::pair<Graph, SolveOutcome> cases[] = {
      {CompleteGraph(3), SolveOutcome::kSolutionFound},
      {PathGraph(3), SolveOutcome::kNoSolution}};
  for (const auto& [g, want] : cases) {
    Instance source = MakeEgdBoundarySourceInstance(setting, g, 3, &symbols);
    GenericSolveResult result = Unwrap(GenericExistsSolution(
        setting, source, setting.EmptyInstance(), &symbols));
    EXPECT_EQ(result.outcome, want);
    EXPECT_GT(result.nodes_pruned, 0);
    EXPECT_LE(result.nodes_clash + result.nodes_memo, result.nodes_explored);
  }

  // The probe's nulls are reserved once per solve and reused by every
  // branching node. When the target egd forces every existential to a
  // target constant, the search explores no fresh-null branch, so the
  // symbol table grows by that one-null reservation alone, however many
  // nodes branch (one per D fact here).
  SymbolTable forced_symbols;
  PdeSetting forced = Unwrap(PdeSetting::Create(
      {{"D", 2}}, {{"P", 3}}, "D(x,y) -> exists z: P(x,y,z).", "",
      "P(x,y,z) & P(x,y2,z2) -> z = z2.", &forced_symbols));
  Instance source =
      ParseOrDie(forced, "D(a,b1). D(a,b2). D(a,b3).", &forced_symbols);
  Instance target = ParseOrDie(forced, "P(a,b0,c).", &forced_symbols);
  const uint32_t before = forced_symbols.null_count();
  GenericSolveResult result = Unwrap(
      GenericExistsSolution(forced, source, target, &forced_symbols));
  EXPECT_EQ(result.outcome, SolveOutcome::kSolutionFound);
  EXPECT_GE(result.nodes_explored, 4);
  EXPECT_EQ(forced_symbols.null_count() - before, 1u);
}

// Section 4(a)'s Σ_ts tgd P(x,z,y,w) -> E(z,w) is LAV, so it backs both
// existentials of D(x,y) -> ∃z,w P(x,z,y,w) by the graph's nodes: the
// search tries graph nodes only, never a null an egd merges later, so it
// meets no memo hit and no clash. The skipped choices are reported in
// the result, the registry counter and the solve.generic span alike.
TEST_F(GenericSolverTest, SourceBackedWitnessesAreObservable) {
  SymbolTable symbols;
  PdeSetting setting = Unwrap(MakeEgdBoundarySetting(&symbols));
  Instance source =
      MakeEgdBoundarySourceInstance(setting, PathGraph(4), 3, &symbols);
  obs::Counter counter = obs::MetricsRegistry::Global().GetCounter(
      "pdx_solver_values_unbacked_total");
  const int64_t before = counter.Value();
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Enable();
  GenericSolveResult result = Unwrap(GenericExistsSolution(
      setting, source, setting.EmptyInstance(), &symbols));
  std::vector<obs::SpanRecord> spans = tracer.Drain();
  tracer.Disable();
  EXPECT_EQ(result.outcome, SolveOutcome::kNoSolution);
  EXPECT_EQ(result.nodes_memo, 0);
  EXPECT_EQ(result.nodes_clash, 0);
  EXPECT_GT(result.values_unbacked, 0);
  EXPECT_EQ(counter.Value() - before, result.values_unbacked);
  int64_t attr = -1;
  for (const obs::SpanRecord& span : spans) {
    if (span.name != "solve.generic") continue;
    for (const obs::SpanAttr& a : span.attrs) {
      if (a.key == "values_unbacked") attr = a.i;
    }
  }
  EXPECT_EQ(attr, result.values_unbacked);
}

}  // namespace
}  // namespace pdx
