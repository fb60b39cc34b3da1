// Cross-validation of the chase variants: the delta-driven restricted
// chase must compute the same result as the naive full-rescan one (up to
// null renaming). Randomized generated settings widen the net beyond the
// hand-picked dependency sets.

#include <algorithm>

#include "gtest/gtest.h"
#include "chase/chase.h"
#include "hom/instance_hom.h"
#include "logic/parser.h"
#include "tests/test_util.h"
#include "workload/random.h"
#include "workload/setting_gen.h"

namespace pdx {
namespace {

using testing_util::Unwrap;

ChaseOptions NaiveOptions() {
  ChaseOptions options;
  options.strategy = ChaseStrategy::kRestrictedNaive;
  return options;
}

ChaseOptions DeltaOptions() {
  ChaseOptions options;
  options.strategy = ChaseStrategy::kRestricted;
  return options;
}

// Largest head atom count across `tgds`: a restricted chase step fires a
// violated trigger, so it adds between 1 and this many facts, bounding
// steps by the growth in both directions.
int64_t MaxHeadAtoms(const std::vector<Tgd>& tgds) {
  int64_t max_head = 1;
  for (const Tgd& tgd : tgds) {
    max_head = std::max(max_head, static_cast<int64_t>(tgd.head.size()));
  }
  return max_head;
}

struct ChaseCase {
  const char* name;
  const char* dependencies;
};

class ChaseStrategyTest
    : public ::testing::TestWithParam<std::tuple<ChaseCase, uint64_t>> {
 protected:
  void SetUp() override {
    ASSERT_TRUE(schema_.AddRelation("E", 2).ok());
    ASSERT_TRUE(schema_.AddRelation("H", 2).ok());
    ASSERT_TRUE(schema_.AddRelation("F", 2).ok());
  }

  Instance RandomStart(uint64_t seed) {
    Rng rng(seed);
    Instance instance(&schema_);
    int n = 6;
    for (int i = 0; i < 12; ++i) {
      Value u = symbols_.InternConstant("c" + std::to_string(
                                                  rng.UniformInt(n)));
      Value v = symbols_.InternConstant("c" + std::to_string(
                                                  rng.UniformInt(n)));
      instance.AddFact(rng.UniformInt(2) == 0 ? 0 : 1, {u, v});
    }
    return instance;
  }

  Schema schema_;
  SymbolTable symbols_;
};

TEST_P(ChaseStrategyTest, DeltaMatchesNaive) {
  const auto& [chase_case, seed] = GetParam();
  auto deps = ParseDependencies(chase_case.dependencies, schema_, &symbols_);
  ASSERT_TRUE(deps.ok()) << deps.status().ToString();
  Instance start = RandomStart(seed);

  ChaseResult naive =
      Chase(start, deps->tgds, deps->egds, &symbols_, NaiveOptions());
  ChaseResult delta =
      Chase(start, deps->tgds, deps->egds, &symbols_, DeltaOptions());

  ASSERT_EQ(naive.outcome, delta.outcome);
  if (naive.outcome != ChaseOutcome::kSuccess) return;
  // Same result instance up to renaming of invented nulls.
  EXPECT_EQ(naive.instance.CanonicalFingerprint(),
            delta.instance.CanonicalFingerprint())
      << "naive:\n" << naive.instance.ToString(symbols_)
      << "\ndelta:\n" << delta.instance.ToString(symbols_);
}

constexpr ChaseCase kCases[] = {
    {"FullComposition", "E(x,z) & E(z,y) -> H(x,y)."},
    {"ExistentialPipeline",
     "E(x,y) -> exists z: H(y,z). H(x,y) -> F(x,y)."},
    {"WithKeyEgd",
     "E(x,y) -> exists z: H(x,z). H(x,y) & H(x,z) -> y = z."},
    {"MultiHeadExistential",
     "E(x,y) -> exists u,v: H(x,u) & F(u,v)."},
    {"CrossFeeding",
     "E(x,y) -> H(x,y). H(x,y) -> F(y,x). E(x,y) & F(y,x) -> H(y,y)."},
};

INSTANTIATE_TEST_SUITE_P(
    Cases, ChaseStrategyTest,
    ::testing::Combine(::testing::ValuesIn(kCases),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)),
    [](const ::testing::TestParamInfo<std::tuple<ChaseCase, uint64_t>>&
           info) {
      return std::string(std::get<0>(info.param).name) + "Seed" +
             std::to_string(std::get<1>(info.param));
    });

// Randomized settings from the workload generator: chase a combined
// instance with Σ_st ∪ Σ_ts under both strategies and require agreement on
// outcome, homomorphic equivalence, and step bounds. The restricted chase
// is not confluent — different trigger orders can satisfy an existential
// with different witnesses (e.g. a pre-existing fact vs. a fresh null), so
// the two engines' results are only guaranteed equivalent up to
// homomorphism, not fingerprint-identical (the fixed-case suite above
// pins fingerprint equality where the dependency sets are confluent).
// The combination need not be weakly acyclic, so a step budget guards
// divergence; both engines must then agree they exhausted it.
class RandomSettingChaseTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomSettingChaseTest, DeltaMatchesNaiveOnGeneratedSettings) {
  uint64_t seed = GetParam();
  Rng rng(seed);
  SymbolTable symbols;
  SettingGenOptions opts;
  opts.max_arity = 2;
  opts.st_tgd_count = 2;
  opts.ts_tgd_count = 2;
  GeneratedSetting generated =
      Unwrap(seed % 2 == 0 ? MakeRandomLavSetting(opts, &rng, &symbols)
                           : MakeRandomFullStSetting(opts, &rng, &symbols));
  const PdeSetting& setting = generated.setting;
  Instance source = MakeRandomSourceInstance(setting, 6, 3, &rng, &symbols);
  Instance target = MakeRandomTargetInstance(setting, 3, 3, &rng, &symbols);
  Instance start = setting.CombineInstances(source, target);

  std::vector<Tgd> tgds = setting.st_tgds();
  tgds.insert(tgds.end(), setting.ts_tgds().begin(),
              setting.ts_tgds().end());

  // Σst ∪ Σts need not be weakly acyclic, and the naive engine pays a full
  // rescan per step, so the budget is kept small; on divergent seeds both
  // engines must agree they exhausted it.
  ChaseOptions naive_options = NaiveOptions();
  naive_options.max_steps = 500;
  ChaseOptions delta_options = DeltaOptions();
  delta_options.max_steps = 500;
  ChaseResult naive = Chase(start, tgds, {}, &symbols, naive_options);
  ChaseResult delta = Chase(start, tgds, {}, &symbols, delta_options);

  ASSERT_EQ(naive.outcome, delta.outcome)
      << "seed " << seed << "\nΣst:\n" << generated.sigma_st << "\nΣts:\n"
      << generated.sigma_ts;
  if (naive.outcome != ChaseOutcome::kSuccess) return;

  // Homomorphic equivalence in both directions: the two results represent
  // the same space of solutions.
  EXPECT_TRUE(
      FindInstanceHomomorphism(naive.instance, delta.instance).has_value())
      << "seed " << seed << "\nΣst:\n" << generated.sigma_st << "\nΣts:\n"
      << generated.sigma_ts << "\nnaive:\n" << naive.instance.ToString(symbols)
      << "\ndelta:\n" << delta.instance.ToString(symbols);
  EXPECT_TRUE(
      FindInstanceHomomorphism(delta.instance, naive.instance).has_value())
      << "seed " << seed << "\nnaive:\n" << naive.instance.ToString(symbols)
      << "\ndelta:\n" << delta.instance.ToString(symbols);
  // Ground facts (no nulls involved) must agree exactly.
  EXPECT_EQ(naive.instance.Nulls().empty(), delta.instance.Nulls().empty());

  // Step bounds: every restricted step fires a violated trigger, adding
  // between 1 and max-head-atoms facts, so either engine's step count is
  // bounded by the other's scaled by that factor.
  int64_t max_head = MaxHeadAtoms(tgds);
  EXPECT_LE(delta.steps, naive.steps * max_head)
      << "seed " << seed;
  EXPECT_LE(naive.steps, delta.steps * max_head)
      << "seed " << seed;
  int64_t added = static_cast<int64_t>(naive.instance.fact_count()) -
                  static_cast<int64_t>(start.fact_count());
  EXPECT_GE(delta.steps * max_head, added) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSettingChaseTest,
                         ::testing::Range(uint64_t{1}, uint64_t{17}));

// Both E(a, _) triggers share the head H(a, _): the restricted chase fires
// the first and finds the second satisfied, so it invents a single null.
TEST(ChaseStrategySpecialTest, RestrictedSharesOneWitnessAcrossTriggers) {
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("E", 2).ok());
  ASSERT_TRUE(schema.AddRelation("H", 2).ok());
  SymbolTable symbols;
  auto deps =
      ParseDependencies("E(x,y) -> exists z: H(x,z).", schema, &symbols);
  ASSERT_TRUE(deps.ok());
  Instance start(&schema);
  Value a = symbols.InternConstant("a");
  Value b = symbols.InternConstant("b");
  Value c = symbols.InternConstant("c");
  start.AddFact(0, {a, b});
  start.AddFact(0, {a, c});
  ChaseResult restricted = Chase(start, deps->tgds, &symbols);
  EXPECT_EQ(restricted.nulls_created, 1);
}

TEST(ChaseStrategySpecialTest, DeltaHandlesEgdSubstitutions) {
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("E", 2).ok());
  ASSERT_TRUE(schema.AddRelation("H", 2).ok());
  SymbolTable symbols;
  auto deps = ParseDependencies(
      "E(x,y) -> exists z: H(x,z). H(x,y) & H(x,z) -> y = z. "
      "H(x,y) -> E(x,y).",
      schema, &symbols);
  ASSERT_TRUE(deps.ok());
  Instance start(&schema);
  Value a = symbols.InternConstant("a");
  Value b = symbols.InternConstant("b");
  start.AddFact(0, {a, b});
  ChaseResult result =
      Chase(start, deps->tgds, deps->egds, &symbols, DeltaOptions());
  ASSERT_EQ(result.outcome, ChaseOutcome::kSuccess);
  DependencySet set;
  set.tgds = deps->tgds;
  set.egds = deps->egds;
  EXPECT_TRUE(SatisfiesAll(result.instance, set));
}

// An egd substitution must dirty only the relations it rewrote: H holds
// the nulls being merged while E stays untouched, and the chase must still
// re-fire the H-consuming tgd after each merge.
TEST(ChaseStrategySpecialTest, DeltaReexaminesRewrittenRelations) {
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("E", 2).ok());
  ASSERT_TRUE(schema.AddRelation("H", 2).ok());
  ASSERT_TRUE(schema.AddRelation("F", 2).ok());
  SymbolTable symbols;
  auto deps = ParseDependencies(
      "E(x,y) -> exists z: H(x,z). "
      "H(x,y) & H(x,z) -> y = z. "
      "H(x,y) -> F(x,y).",
      schema, &symbols);
  ASSERT_TRUE(deps.ok());
  Instance start(&schema);
  Value a = symbols.InternConstant("a");
  Value b = symbols.InternConstant("b");
  Value c = symbols.InternConstant("c");
  start.AddFact(0, {a, b});
  start.AddFact(0, {a, c});

  ChaseResult naive =
      Chase(start, deps->tgds, deps->egds, &symbols, NaiveOptions());
  ChaseResult delta =
      Chase(start, deps->tgds, deps->egds, &symbols, DeltaOptions());
  ASSERT_EQ(naive.outcome, ChaseOutcome::kSuccess);
  ASSERT_EQ(delta.outcome, ChaseOutcome::kSuccess);
  EXPECT_EQ(naive.instance.CanonicalFingerprint(),
            delta.instance.CanonicalFingerprint());
  DependencySet set;
  set.tgds = deps->tgds;
  set.egds = deps->egds;
  EXPECT_TRUE(SatisfiesAll(delta.instance, set));
}

TEST(ChaseStrategySpecialTest, NaiveRespectsBudget) {
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("H", 2).ok());
  SymbolTable symbols;
  auto deps =
      ParseDependencies("H(x,y) -> exists z: H(y,z).", schema, &symbols);
  ASSERT_TRUE(deps.ok());
  Instance start(&schema);
  start.AddFact(0, {symbols.InternConstant("a"),
                    symbols.InternConstant("b")});
  for (ChaseStrategy strategy :
       {ChaseStrategy::kRestricted, ChaseStrategy::kRestrictedNaive}) {
    ChaseOptions options;
    options.strategy = strategy;
    options.max_steps = 50;
    ChaseResult result = Chase(start, deps->tgds, {}, &symbols, options);
    EXPECT_EQ(result.outcome, ChaseOutcome::kBudgetExhausted);
  }
}

}  // namespace
}  // namespace pdx
