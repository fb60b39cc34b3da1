// The restricted-chase trace checker (tests/chase_trace_check.h) against
// the chase engine: hand-picked and randomly generated dependency sets
// must yield journals the checker accepts, and hand-built bad traces —
// each breaking one clause of the restricted-chase definition — must be
// rejected, so a checker that accepts everything cannot pass.

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "chase/chase.h"
#include "chase/journal.h"
#include "logic/parser.h"
#include "tests/chase_trace_check.h"
#include "tests/test_util.h"
#include "workload/random.h"
#include "workload/setting_gen.h"

namespace pdx {
namespace {

using testing_util::CheckChaseTrace;
using testing_util::CheckedChase;
using testing_util::Unwrap;

struct ChaseCase {
  const char* name;
  const char* dependencies;
};

class ChaseTraceTest
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

TEST_P(ChaseTraceTest, RunPassesTheTraceCheck) {
  const auto& [chase_case, seed] = GetParam();
  auto deps = ParseDependencies(chase_case.dependencies, schema_, &symbols_);
  ASSERT_TRUE(deps.ok()) << deps.status().ToString();
  Instance start = RandomStart(seed);
  CheckedChase(start, deps->tgds, deps->egds, &symbols_, ChaseOptions(),
               start.ToString(symbols_));
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
    Cases, ChaseTraceTest,
    ::testing::Combine(::testing::ValuesIn(kCases),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)),
    [](const ::testing::TestParamInfo<std::tuple<ChaseCase, uint64_t>>&
           info) {
      return std::string(std::get<0>(info.param).name) + "Seed" +
             std::to_string(std::get<1>(info.param));
    });

// Randomized settings from the workload generator: chase a combined
// instance with Σ_st ∪ Σ_ts and check the trace. The combination need not
// be weakly acyclic, so a step budget guards divergence; the checker then
// checks the exhausted budget instead of satisfaction.
class RandomSettingChaseTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomSettingChaseTest, GeneratedSettingsPassTheTraceCheck) {
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

  ChaseOptions options;
  options.max_steps = 500;
  CheckedChase(start, tgds, {}, &symbols, options,
               "seed " + std::to_string(seed) + "\nΣst:\n" +
                   generated.sigma_st + "\nΣts:\n" + generated.sigma_ts);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSettingChaseTest,
                         ::testing::Range(uint64_t{1}, uint64_t{17}));

// Both E(a, _) triggers share the head H(a, _): the restricted chase fires
// the first and finds the second satisfied, so it invents a single null.
TEST(ChaseTraceSpecialTest, RestrictedSharesOneWitnessAcrossTriggers) {
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
  ChaseResult restricted = CheckedChase(start, deps->tgds, {}, &symbols);
  EXPECT_EQ(restricted.nulls_created, 1);
}

TEST(ChaseTraceSpecialTest, EgdMergesPassTheTraceCheck) {
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
  start.AddFact(0, {symbols.InternConstant("a"), symbols.InternConstant("b")});
  ChaseResult result = CheckedChase(start, deps->tgds, deps->egds, &symbols);
  EXPECT_EQ(result.outcome, ChaseOutcome::kSuccess);
}

// An egd merge must dirty only the relations holding the merged nulls: H
// holds them while E stays untouched, and the chase must still re-fire
// the H-consuming tgd after each merge.
TEST(ChaseTraceSpecialTest, MergesReexamineDirtiedRelations) {
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
  start.AddFact(0, {a, symbols.InternConstant("b")});
  start.AddFact(0, {a, symbols.InternConstant("c")});
  ChaseResult result = CheckedChase(start, deps->tgds, deps->egds, &symbols);
  EXPECT_EQ(result.outcome, ChaseOutcome::kSuccess);
}

TEST(ChaseTraceSpecialTest, BudgetExhaustionPassesTheTraceCheck) {
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("H", 2).ok());
  SymbolTable symbols;
  auto deps =
      ParseDependencies("H(x,y) -> exists z: H(y,z).", schema, &symbols);
  ASSERT_TRUE(deps.ok());
  Instance start(&schema);
  start.AddFact(0, {symbols.InternConstant("a"),
                    symbols.InternConstant("b")});
  ChaseOptions options;
  options.max_steps = 50;
  ChaseResult result = CheckedChase(start, deps->tgds, {}, &symbols, options);
  EXPECT_EQ(result.outcome, ChaseOutcome::kBudgetExhausted);
}

// The checker's own tests: each bad trace breaks one clause of the
// definition and must be rejected for that clause.
class BadTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(schema_.AddRelation("E", 2).ok());
    ASSERT_TRUE(schema_.AddRelation("H", 2).ok());
    a_ = symbols_.InternConstant("a");
    b_ = symbols_.InternConstant("b");
    c_ = symbols_.InternConstant("c");
  }

  DependencySet Parse(const char* text) {
    return Unwrap(ParseDependencies(text, schema_, &symbols_), "deps");
  }

  // A binding row of `var_names`' variables, filled by name.
  static std::vector<Value> Row(
      const std::vector<std::string>& var_names,
      const std::vector<std::pair<std::string, Value>>& values) {
    std::vector<Value> row(var_names.size());
    for (const auto& [name, value] : values) {
      auto it = std::find(var_names.begin(), var_names.end(), name);
      EXPECT_NE(it, var_names.end()) << name;
      row[it - var_names.begin()] = value;
    }
    return row;
  }

  // The first `n` entries of `journal`, re-recorded in order.
  static ChaseJournal Prefix(const ChaseJournal& journal, size_t n,
                             const std::vector<Tgd>& tgds) {
    ChaseJournal copy;
    for (size_t i = 0; i < n; ++i) {
      const ChaseJournal::Entry& e = journal.entry(i);
      if (e.egd) {
        copy.RecordEgd(e.dep, journal.row(e), e.len);
      } else {
        copy.RecordTgd(e.dep, journal.row(e), e.len, tgds[e.dep].existential);
      }
    }
    return copy;
  }

  static void ExpectRejected(const Status& status, const std::string& why) {
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find(why), std::string::npos)
        << "rejected for the wrong reason: " << status.ToString();
  }

  Schema schema_;
  SymbolTable symbols_;
  Value a_, b_, c_;
};

// The oblivious chase fires E(a,c) although E(a,b)'s firing already made
// H(a, _) hold.
TEST_F(BadTraceTest, RejectsAFiringWhoseHeadAlreadyHolds) {
  DependencySet deps = Parse("E(x,y) -> exists z: H(x,z).");
  const Tgd& tgd = deps.tgds[0];
  Instance start(&schema_);
  start.AddFact(0, {a_, b_});
  start.AddFact(0, {a_, c_});
  const Value n1 = symbols_.FreshNull();
  const Value n2 = symbols_.FreshNull();
  ChaseJournal journal;
  for (auto [y, z] : {std::pair{b_, n1}, std::pair{c_, n2}}) {
    std::vector<Value> row =
        Row(tgd.var_names, {{"x", a_}, {"y", y}, {"z", z}});
    ASSERT_TRUE(journal.RecordTgd(0, row.data(), row.size(), tgd.existential));
  }
  ChaseResult result(start);
  result.instance.AddFact(1, {a_, n1});
  result.instance.AddFact(1, {a_, n2});
  result.steps = 2;
  result.nulls_created = 2;
  ExpectRejected(CheckChaseTrace(start, deps.tgds, {}, 100, result, journal),
                 "entry 1 (tgd 0): head already holds");
}

// The second merge re-equates the two nulls the first already merged.
TEST_F(BadTraceTest, RejectsAMergeWhoseSidesAreAlreadyEqual) {
  DependencySet deps = Parse("H(x,y) & H(x,z) -> y = z.");
  const Egd& egd = deps.egds[0];
  const Value n1 = symbols_.FreshNull();
  const Value n2 = symbols_.FreshNull();
  Instance start(&schema_);
  start.AddFact(1, {a_, n1});
  start.AddFact(1, {a_, n2});
  ChaseJournal journal;
  for (auto [y, z] : {std::pair{n1, n2}, std::pair{n2, n1}}) {
    std::vector<Value> row =
        Row(egd.var_names, {{"x", a_}, {"y", y}, {"z", z}});
    ASSERT_TRUE(journal.RecordEgd(0, row.data(), row.size()));
  }
  ChaseResult result(start);
  result.instance.MergeValues(n1, n2);
  result.steps = 2;
  ExpectRejected(CheckChaseTrace(start, {}, deps.egds, 100, result, journal),
                 "entry 1 (egd 0): sides already equal");
}

TEST_F(BadTraceTest, RejectsAnEntryWhoseBodyIsAbsent) {
  DependencySet deps = Parse("E(x,y) -> exists z: H(x,z).");
  const Tgd& tgd = deps.tgds[0];
  Instance start(&schema_);
  start.AddFact(0, {a_, b_});
  const Value n = symbols_.FreshNull();
  std::vector<Value> row = Row(tgd.var_names, {{"x", b_}, {"y", a_}, {"z", n}});
  ChaseJournal journal;
  ASSERT_TRUE(journal.RecordTgd(0, row.data(), row.size(), tgd.existential));
  ChaseResult result(start);
  result.instance.AddFact(1, {b_, n});
  result.steps = 1;
  result.nulls_created = 1;
  ExpectRejected(CheckChaseTrace(start, deps.tgds, {}, 100, result, journal),
                 "entry 0 (tgd 0): body absent");
}

// A real run, accepted whole, is rejected once its journal loses the last
// entry or its result gains a fact.
TEST_F(BadTraceTest, RejectsATruncatedJournalAndAnExtraFact) {
  DependencySet deps = Parse(
      "E(x,y) -> exists z: H(x,z). H(x,y) & H(x,z) -> y = z. "
      "E(x,z) & E(z,y) -> H(x,y).");
  Instance start(&schema_);
  start.AddFact(0, {a_, b_});
  start.AddFact(0, {b_, c_});
  ChaseJournal journal;
  ChaseOptions options;
  options.journal = &journal;
  ChaseResult result = Chase(start, deps.tgds, deps.egds, &symbols_, options);
  ASSERT_EQ(result.outcome, ChaseOutcome::kSuccess);
  ASSERT_GE(journal.size(), 2u);
  const Status whole = CheckChaseTrace(start, deps.tgds, deps.egds,
                                       options.max_steps, result, journal);
  EXPECT_TRUE(whole.ok()) << whole.ToString();

  ChaseJournal truncated = Prefix(journal, journal.size() - 1, deps.tgds);
  ExpectRejected(CheckChaseTrace(start, deps.tgds, deps.egds,
                                 options.max_steps, result, truncated),
                 "journal entries");

  ChaseResult extra = result;
  extra.instance.AddFact(0, {c_, a_});
  ExpectRejected(CheckChaseTrace(start, deps.tgds, deps.egds,
                                 options.max_steps, extra, journal),
                 "the fact sets differ");
}

}  // namespace
}  // namespace pdx
