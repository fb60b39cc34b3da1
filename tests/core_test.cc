#include "hom/core.h"

#include "gtest/gtest.h"
#include "chase/chase.h"
#include "pde/data_exchange.h"
#include "pde/solution.h"
#include "tests/test_util.h"

namespace pdx {
namespace {

using testing_util::ParseOrDie;
using testing_util::Unwrap;

class CoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(schema_.AddRelation("E", 2).ok());
    a_ = symbols_.InternConstant("a");
    b_ = symbols_.InternConstant("b");
  }

  Schema schema_;
  SymbolTable symbols_;
  Value a_, b_;
};

TEST_F(CoreTest, GroundInstanceIsItsOwnCore) {
  Instance instance(&schema_);
  instance.AddFact(0, {a_, b_});
  instance.AddFact(0, {b_, a_});
  EXPECT_TRUE(IsCore(instance));
  CoreStats stats;
  Instance core = ComputeCore(instance, &stats);
  EXPECT_TRUE(core.FactsEqual(instance));
  EXPECT_EQ(stats.retractions, 0);
}

TEST_F(CoreTest, RedundantNullFactFoldsIntoGroundFact) {
  // E(a, n) is subsumed by E(a, b): the core drops it.
  Instance instance(&schema_);
  Value n = symbols_.FreshNull();
  instance.AddFact(0, {a_, b_});
  instance.AddFact(0, {a_, n});
  EXPECT_FALSE(IsCore(instance));
  CoreStats stats;
  Instance core = ComputeCore(instance, &stats);
  EXPECT_EQ(core.fact_count(), 1u);
  EXPECT_TRUE(core.Contains(0, {a_, b_}));
  EXPECT_EQ(stats.facts_removed, 1);
}

TEST_F(CoreTest, ChainOfNullsFoldsToSingleEdgeWhenLoopExists) {
  // E(a,a) plus a null chain a -> n1 -> n2: everything folds onto the
  // self-loop.
  Instance instance(&schema_);
  Value n1 = symbols_.FreshNull();
  Value n2 = symbols_.FreshNull();
  instance.AddFact(0, {a_, a_});
  instance.AddFact(0, {a_, n1});
  instance.AddFact(0, {n1, n2});
  Instance core = ComputeCore(instance);
  EXPECT_EQ(core.fact_count(), 1u);
  EXPECT_TRUE(core.Contains(0, {a_, a_}));
}

TEST_F(CoreTest, NonRedundantNullsSurvive) {
  // E(a, n): nothing subsumes it; the core keeps it.
  Instance instance(&schema_);
  Value n = symbols_.FreshNull();
  instance.AddFact(0, {a_, n});
  EXPECT_TRUE(IsCore(instance));
  Instance core = ComputeCore(instance);
  EXPECT_EQ(core.fact_count(), 1u);
}

TEST_F(CoreTest, IsomorphicInstancesHaveIsomorphicCores) {
  for (uint64_t variant = 0; variant < 2; ++variant) {
    Instance instance(&schema_);
    Value n1 = symbols_.FreshNull();
    Value n2 = symbols_.FreshNull();
    instance.AddFact(0, {a_, b_});
    if (variant == 0) {
      instance.AddFact(0, {a_, n1});
      instance.AddFact(0, {n1, n2});
    } else {
      instance.AddFact(0, {n2, n1});  // reversed roles
      instance.AddFact(0, {a_, n2});
    }
    Instance core = ComputeCore(instance);
    // Both variants: a->b, plus the chain a->n->m which cannot fold onto
    // a->b entirely (n has an outgoing edge, b does not)... it can fold
    // n->b? then needs b->m... no b successor. So the chain survives as
    // a->n, n->m? But a->n maps to a->b only if n ↦ b and then n->m needs
    // b->m: absent. Core keeps all three facts.
    EXPECT_EQ(core.fact_count(), 3u);
  }
}

// Data exchange integration: the core of the universal solution is still
// a solution and is no larger.
TEST_F(CoreTest, CoreOfUniversalSolutionIsSolution) {
  SymbolTable symbols;
  auto setting = Unwrap(PdeSetting::Create(
      {{"S", 2}}, {{"T", 2}},
      // Two tgds deriving overlapping content, the existential one first:
      // the restricted chase fires it before the full tgd, so each T(x,y)
      // arrives after a redundant T(x, null) witness.
      "S(x,y) -> exists z: T(x,z).\n"
      "S(x,y) -> T(x,y).",
      "", "", &symbols));
  Instance source = ParseOrDie(setting, "S(a,b). S(c,d).", &symbols);
  DataExchangeResult de = Unwrap(
      SolveDataExchange(setting, source, setting.EmptyInstance(), &symbols));
  ASSERT_TRUE(de.has_solution);
  ChaseResult chased = Chase(setting.CombineInstances(
                                 source, setting.EmptyInstance()),
                             setting.st_tgds(), &symbols);
  ASSERT_EQ(chased.outcome, ChaseOutcome::kSuccess);
  Instance universal = setting.TargetPart(chased.instance);
  EXPECT_TRUE(universal.HasNulls());

  CoreStats stats;
  Instance core = ComputeCore(universal, &stats);
  EXPECT_GT(stats.facts_removed, 0);
  EXPECT_FALSE(core.HasNulls());  // T(x,z) folds onto T(x,y)
  EXPECT_TRUE(IsSolution(setting, source, setting.EmptyInstance(), core,
                         symbols));
  EXPECT_TRUE(IsCore(core));
}

}  // namespace
}  // namespace pdx
