#include "pde/ctract_solver.h"

#include <string>

#include "base/string_util.h"
#include "gtest/gtest.h"
#include "pde/solution.h"
#include "tests/test_util.h"
#include "workload/reductions.h"

namespace pdx {
namespace {

using testing_util::MakeExample1Setting;
using testing_util::MakePathSetting;
using testing_util::ParseOrDie;
using testing_util::Unwrap;

class CtractSolverTest : public ::testing::Test {
 protected:
  CtractSolverTest() : setting_(MakeExample1Setting(&symbols_)) {}

  CtractSolveResult Solve(const Instance& source, const Instance& target) {
    return Unwrap(CtractExistsSolution(setting_, source, target, &symbols_),
                  "CtractExistsSolution");
  }

  SymbolTable symbols_;
  PdeSetting setting_;
};

// Example 1, case 1: no solution.
TEST_F(CtractSolverTest, Example1NoSolution) {
  Instance source = ParseOrDie(setting_, "E(a,b). E(b,c).", &symbols_);
  CtractSolveResult result = Solve(source, setting_.EmptyInstance());
  EXPECT_FALSE(result.has_solution);
  EXPECT_FALSE(result.solution.has_value());
  EXPECT_GT(result.j_can_size, 0);  // the chase did produce H(a,c)
}

// Example 1, case 2: unique solution {H(a,a)}.
TEST_F(CtractSolverTest, Example1UniqueSolution) {
  Instance source = ParseOrDie(setting_, "E(a,a).", &symbols_);
  CtractSolveResult result = Solve(source, setting_.EmptyInstance());
  ASSERT_TRUE(result.has_solution);
  ASSERT_TRUE(result.solution.has_value());
  EXPECT_TRUE(IsSolution(setting_, source, setting_.EmptyInstance(),
                         *result.solution, symbols_));
  EXPECT_EQ(result.solution->ToString(symbols_), "H(a,a).");
}

// Example 1, case 3: solutions exist; the solver's witness must verify.
TEST_F(CtractSolverTest, Example1WitnessIsVerifiedSolution) {
  Instance source =
      ParseOrDie(setting_, "E(a,b). E(b,c). E(a,c).", &symbols_);
  CtractSolveResult result = Solve(source, setting_.EmptyInstance());
  ASSERT_TRUE(result.has_solution);
  EXPECT_TRUE(IsSolution(setting_, source, setting_.EmptyInstance(),
                         *result.solution, symbols_));
}

TEST_F(CtractSolverTest, NonEmptyTargetInstanceConstrains) {
  Instance source =
      ParseOrDie(setting_, "E(a,b). E(b,c). E(a,c).", &symbols_);
  // J = {H(a,c)}: consistent, solution must contain it.
  Instance target = ParseOrDie(setting_, "H(a,c).", &symbols_);
  CtractSolveResult result = Solve(source, target);
  ASSERT_TRUE(result.has_solution);
  EXPECT_TRUE(target.IsSubsetOf(*result.solution));

  // J = {H(b,a)}: (b,a) is not an edge, so Σ_ts can never hold.
  Instance bad_target = ParseOrDie(setting_, "H(b,a).", &symbols_);
  CtractSolveResult bad = Solve(source, bad_target);
  EXPECT_FALSE(bad.has_solution);
}

// The path setting: Σ_ts has an existential, producing nulls in I_can.
TEST_F(CtractSolverTest, ExistentialTsWitnessedThroughHomomorphism) {
  SymbolTable symbols;
  PdeSetting setting = MakePathSetting(&symbols);
  // E: a->b->c. J_can = {H(a,c)}; Σ_ts asks for a 2-path from a to c,
  // witnessed by b in I.
  Instance source = ParseOrDie(setting, "E(a,b). E(b,c).", &symbols);
  CtractSolveResult result = Unwrap(
      CtractExistsSolution(setting, source, setting.EmptyInstance(),
                           &symbols));
  ASSERT_TRUE(result.has_solution);
  EXPECT_TRUE(IsSolution(setting, source, setting.EmptyInstance(),
                         *result.solution, symbols));
  EXPECT_GT(result.max_block_nulls, 0);
}

TEST_F(CtractSolverTest, ExistentialTsFailsWithoutWitness) {
  SymbolTable symbols;
  PdeSetting setting = MakePathSetting(&symbols);
  // J contains H(a,c) but I has no 2-path from a to c.
  Instance source = ParseOrDie(setting, "E(a,b).", &symbols);
  Instance target = ParseOrDie(setting, "H(a,c).", &symbols);
  CtractSolveResult result = Unwrap(
      CtractExistsSolution(setting, source, target, &symbols));
  EXPECT_FALSE(result.has_solution);
}

TEST_F(CtractSolverTest, EmptySourceEmptyTargetTriviallySolvable) {
  CtractSolveResult result =
      Solve(setting_.EmptyInstance(), setting_.EmptyInstance());
  ASSERT_TRUE(result.has_solution);
  EXPECT_EQ(result.solution->fact_count(), 0u);
}

TEST_F(CtractSolverTest, RejectsSettingsWithTargetConstraints) {
  SymbolTable symbols;
  auto setting = Unwrap(PdeSetting::Create(
      {{"E", 2}}, {{"H", 2}}, "E(x,y) -> H(x,y).", "H(x,y) -> E(x,y).",
      "H(x,y) & H(x,z) -> y = z.", &symbols));
  Instance source = ParseOrDie(setting, "E(a,b).", &symbols);
  auto result = CtractExistsSolution(setting, source,
                                     setting.EmptyInstance(), &symbols);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(CtractSolverTest, RejectsCondition1Violation) {
  SymbolTable symbols;
  auto setting = Unwrap(PdeSetting::Create(
      {{"E", 2}}, {{"T1", 2}, {"T2", 2}},
      "E(x,y) -> exists z: T1(x,z) & T2(z,y).",
      "T1(x,z) & T2(z,y) -> E(x,y).", "", &symbols));
  Instance source = ParseOrDie(setting, "E(a,b).", &symbols);
  auto result = CtractExistsSolution(setting, source,
                                     setting.EmptyInstance(), &symbols);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

// The CLIQUE setting satisfies condition 1, so the algorithm is *correct*
// on it (Theorem 5) even though blocks may be large. Cross-check against
// the brute-force clique oracle on small graphs.
TEST_F(CtractSolverTest, CorrectOnCliqueSettingViaTheorem5) {
  SymbolTable symbols;
  PdeSetting setting = Unwrap(MakeCliqueSetting(&symbols));
  // Triangle graph: has 3-clique.
  Graph triangle = CompleteGraph(3);
  Instance with_clique =
      MakeCliqueSourceInstance(setting, triangle, 3, &symbols);
  CtractSolveResult yes = Unwrap(CtractExistsSolution(
      setting, with_clique, setting.EmptyInstance(), &symbols));
  EXPECT_TRUE(yes.has_solution);
  EXPECT_TRUE(IsSolution(setting, with_clique, setting.EmptyInstance(),
                         *yes.solution, symbols));

  // Path graph: no 3-clique.
  Graph path = PathGraph(4);
  Instance without_clique =
      MakeCliqueSourceInstance(setting, path, 3, &symbols);
  CtractSolveResult no = Unwrap(CtractExistsSolution(
      setting, without_clique, setting.EmptyInstance(), &symbols));
  EXPECT_FALSE(no.has_solution);
  // Theorem 6's contrast: outside C_tract blocks can grow with the input.
  EXPECT_GT(no.max_block_nulls, 1);
}

// Figure 3's block checks fan fixed chunks of blocks over a pool sized by
// ChaseOptions::num_threads (this test is in the `parallel` label, so both
// TSan lanes sanitize it). Every key k contributes one block {D(k, w)};
// the verdict, the block statistics and the witness must match the
// sequential run at every thread count, with and without a failing block.
TEST(CtractPooledBlockCheckTest, ChunkedChecksMatchTheSequentialRun) {
  SymbolTable symbols;
  PdeSetting setting = Unwrap(PdeSetting::Create(
      {{"A", 2}, {"D", 2}}, {{"T", 2}}, "A(x,y) -> exists z: T(x,z).",
      "T(x,z) -> exists w: D(x,w).", "", &symbols));
  const RelationId a = Unwrap(setting.schema().FindRelation("A"));
  const RelationId d = Unwrap(setting.schema().FindRelation("D"));
  constexpr int kKeys = 5000;  // several chunks of blocks
  for (int missing : {-1, kKeys - 1}) {
    Instance source = setting.EmptyInstance();
    for (int i = 0; i < kKeys; ++i) {
      const Value k = symbols.InternConstant(StrCat("k", i));
      source.AddFact(a, {k, k});
      if (i != missing) source.AddFact(d, {k, k});
    }
    ChaseOptions sequential;
    sequential.num_threads = 1;
    CtractSolveResult reference = Unwrap(CtractExistsSolution(
        setting, source, setting.EmptyInstance(), &symbols, sequential));
    EXPECT_EQ(reference.has_solution, missing < 0);
    EXPECT_EQ(reference.block_count, kKeys);
    for (int threads : {2, 4}) {
      ChaseOptions pooled;
      pooled.num_threads = threads;
      CtractSolveResult run = Unwrap(CtractExistsSolution(
          setting, source, setting.EmptyInstance(), &symbols, pooled));
      EXPECT_EQ(run.has_solution, reference.has_solution) << threads;
      EXPECT_EQ(run.block_count, reference.block_count) << threads;
      EXPECT_EQ(run.max_block_nulls, 1) << threads;
      if (!run.has_solution) continue;
      EXPECT_EQ(testing_util::CanonicalizedFingerprint(*run.solution),
                testing_util::CanonicalizedFingerprint(*reference.solution))
          << threads;
      EXPECT_TRUE(IsSolution(setting, source, setting.EmptyInstance(),
                             *run.solution, symbols));
    }
  }
}

}  // namespace
}  // namespace pdx
