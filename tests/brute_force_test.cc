// Ground-truth cross-validation: on tiny inputs, compare the generic
// solver against an exhaustive enumeration of candidate target instances.
// This covers settings *outside* condition 1 of Definition 9, where the
// Theorem 5 homomorphism algorithm is inapplicable and no other oracle
// exists in the suite.
//
// Solutions may require values outside adom(I, J) (witnesses of
// existential variables); any such value can be renamed to a fresh
// constant, so the enumeration draws from adom plus a small reserve of
// fresh constants. The reserve (2) exceeds the number of existential
// witnesses any minimal solution of these tiny inputs can need.

#include <functional>
#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "pde/generic_solver.h"
#include "pde/solution.h"
#include "tests/test_util.h"
#include "workload/random.h"

namespace pdx {
namespace {

using testing_util::ParseOrDie;
using testing_util::Unwrap;

// Enumerates every target instance J' ⊇ J with at most `max_extra` facts
// beyond J, over the value pool, and reports whether any is a solution.
bool BruteForceHasSolution(const PdeSetting& setting, const Instance& source,
                           const Instance& target,
                           const std::vector<Value>& pool, int max_extra,
                           const SymbolTable& symbols) {
  // Candidate facts: every target relation × every tuple over the pool.
  std::vector<Fact> candidates;
  for (RelationId r = 0; r < setting.schema().relation_count(); ++r) {
    if (!setting.is_target(r)) continue;
    int arity = setting.schema().arity(r);
    std::vector<int> index(arity, 0);
    while (true) {
      Tuple tuple;
      for (int i = 0; i < arity; ++i) tuple.push_back(pool[index[i]]);
      if (!target.Contains(r, tuple)) {
        candidates.push_back(Fact{r, std::move(tuple)});
      }
      int pos = arity - 1;
      while (pos >= 0 &&
             ++index[pos] == static_cast<int>(pool.size())) {
        index[pos--] = 0;
      }
      if (pos < 0) break;
    }
  }
  // Enumerate subsets of size <= max_extra (combinations, smallest first).
  std::vector<int> chosen;
  std::function<bool(int, int)> search = [&](int start, int remaining) {
    Instance j_prime = target;
    for (int c : chosen) j_prime.AddFact(candidates[c]);
    if (IsSolution(setting, source, target, j_prime, symbols)) return true;
    if (remaining == 0) return false;
    for (int c = start; c < static_cast<int>(candidates.size()); ++c) {
      chosen.push_back(c);
      if (search(c + 1, remaining - 1)) return true;
      chosen.pop_back();
    }
    return false;
  };
  return search(0, max_extra);
}

struct BruteForceCase {
  const char* name;
  const char* sigma_st;
  const char* sigma_ts;
  const char* sigma_t;
};

// Settings chosen to violate condition 1 or otherwise sit outside the
// reach of the homomorphism algorithm.
constexpr BruteForceCase kCases[] = {
    // Condition 1 violated: marked variable z repeated in the ts LHS.
    {"RepeatedMarkedVariable",
     "E(x,y) -> exists z: T1(x,z) & T2(z,y).",
     "T1(x,z) & T2(z,y) -> E(x,y).", ""},
    // Condition 1 violated + a join on the marked position.
    {"MarkedJoin",
     "E(x,y) -> exists z: T1(x,z) & T2(z,x).",
     "T1(x,z) & T2(z,y) -> E(x,y).", ""},
    // Target egd interacting with ts checks.
    {"EgdPlusTs",
     "E(x,y) -> exists z: T1(x,z).",
     "T1(x,z) -> E(x,z).",
     "T1(x,y) & T1(x,z) -> y = z."},
    // Target tgd cascade with ts restriction.
    {"TargetCascade",
     "E(x,y) -> T1(x,y).",
     "T2(x,y) -> E(x,y).",
     "T1(x,y) -> T2(y,x)."},
};

class BruteForceTest
    : public ::testing::TestWithParam<std::tuple<BruteForceCase, uint64_t>> {
};

TEST_P(BruteForceTest, GenericSolverMatchesExhaustiveSearch) {
  const auto& [test_case, seed] = GetParam();
  SymbolTable symbols;
  auto setting = PdeSetting::Create({{"E", 2}}, {{"T1", 2}, {"T2", 2}},
                                    test_case.sigma_st, test_case.sigma_ts,
                                    test_case.sigma_t, &symbols);
  ASSERT_TRUE(setting.ok()) << setting.status().ToString();

  // Tiny random source instance over 2 constants (the exhaustive search
  // below is exponential in the candidate-fact count, so the domain must
  // stay minimal while max_extra stays generous enough for any minimal
  // solution: 2 edges x 2 facts each).
  Rng rng(seed);
  Instance source = setting->EmptyInstance();
  RelationId e = setting->schema().FindRelation("E").value();
  std::vector<Value> pool;
  for (int i = 0; i < 2; ++i) {
    pool.push_back(symbols.InternConstant("c" + std::to_string(i)));
  }
  int edges = 1 + rng.UniformInt(2);
  for (int i = 0; i < edges; ++i) {
    source.AddFact(e, {pool[rng.UniformInt(2)], pool[rng.UniformInt(2)]});
  }
  // Fresh-constant reserve for existential witnesses.
  pool.push_back(symbols.InternConstant("fresh0"));
  pool.push_back(symbols.InternConstant("fresh1"));

  Instance target = setting->EmptyInstance();
  bool expected = BruteForceHasSolution(*setting, source, target, pool,
                                        /*max_extra=*/4, symbols);

  GenericSolverOptions options;
  options.max_nodes = 500'000;
  GenericSolveResult result = Unwrap(GenericExistsSolution(
      *setting, source, target, &symbols, options));
  ASSERT_NE(result.outcome, SolveOutcome::kBudgetExhausted);
  EXPECT_EQ(result.outcome == SolveOutcome::kSolutionFound, expected)
      << "setting " << test_case.name << " seed " << seed << "\nI:\n"
      << source.ToString(symbols);
  if (result.outcome == SolveOutcome::kSolutionFound) {
    EXPECT_TRUE(
        IsSolution(*setting, source, target, *result.solution, symbols));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BruteForceTest,
    ::testing::Combine(::testing::ValuesIn(kCases),
                       ::testing::Range(uint64_t{1}, uint64_t{11})),
    [](const ::testing::TestParamInfo<std::tuple<BruteForceCase, uint64_t>>&
           info) {
      return std::string(std::get<0>(info.param).name) + "Seed" +
             std::to_string(std::get<1>(info.param));
    });

// With a pre-existing target instance J, the J ⊆ J' requirement interacts
// with the egd; cross-validate that path too.
class BruteForceWithTargetTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BruteForceWithTargetTest, GenericSolverMatchesExhaustiveSearch) {
  SymbolTable symbols;
  auto setting = PdeSetting::Create(
      {{"E", 2}}, {{"T1", 2}, {"T2", 2}},
      "E(x,y) -> exists z: T1(x,z).",
      "T1(x,z) -> E(x,z).",
      "T1(x,y) & T1(x,z) -> y = z.", &symbols);
  ASSERT_TRUE(setting.ok());
  Rng rng(GetParam());
  std::vector<Value> pool;
  for (int i = 0; i < 2; ++i) {
    pool.push_back(symbols.InternConstant("c" + std::to_string(i)));
  }
  Instance source = setting->EmptyInstance();
  RelationId e = setting->schema().FindRelation("E").value();
  RelationId t1 = setting->schema().FindRelation("T1").value();
  for (int i = 0; i < 2; ++i) {
    source.AddFact(e, {pool[rng.UniformInt(2)], pool[rng.UniformInt(2)]});
  }
  Instance target = setting->EmptyInstance();
  target.AddFact(t1, {pool[rng.UniformInt(2)], pool[rng.UniformInt(2)]});
  pool.push_back(symbols.InternConstant("fresh0"));
  pool.push_back(symbols.InternConstant("fresh1"));

  bool expected = BruteForceHasSolution(*setting, source, target, pool, 3,
                                        symbols);
  GenericSolveResult result = Unwrap(
      GenericExistsSolution(*setting, source, target, &symbols));
  ASSERT_NE(result.outcome, SolveOutcome::kBudgetExhausted);
  EXPECT_EQ(result.outcome == SolveOutcome::kSolutionFound, expected)
      << "seed " << GetParam() << "\nI:\n" << source.ToString(symbols)
      << "\nJ:\n" << target.ToString(symbols);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BruteForceWithTargetTest,
                         ::testing::Range(uint64_t{1}, uint64_t{16}));

// The source-backed witness rule: an existential written at a position a
// plain LAV Σ_ts tgd reads branches only over the source constants that
// tgd's head copies the position to (GenericSolveResult::values_unbacked
// counts the skipped choices). The verdicts below are checked against the
// exhaustive enumeration, whose pool holds values the rule never tries.

// Solves (I, J) with both the generic solver and the enumeration over
// adom(I) plus two fresh constants; returns the solver's result.
GenericSolveResult SolveAgainstBruteForce(const PdeSetting& setting,
                                          const Instance& source,
                                          const Instance& target,
                                          int max_extra, SymbolTable* symbols,
                                          const std::string& context) {
  std::vector<Value> pool = source.ActiveDomain();
  pool.push_back(symbols->InternConstant("fresh0"));
  pool.push_back(symbols->InternConstant("fresh1"));
  bool expected = BruteForceHasSolution(setting, source, target, pool,
                                        max_extra, *symbols);
  GenericSolverOptions options;
  options.max_nodes = 500'000;
  GenericSolveResult result = Unwrap(
      GenericExistsSolution(setting, source, target, symbols, options));
  EXPECT_NE(result.outcome, SolveOutcome::kBudgetExhausted) << context;
  EXPECT_EQ(result.outcome == SolveOutcome::kSolutionFound, expected)
      << context;
  if (result.outcome == SolveOutcome::kSolutionFound) {
    EXPECT_TRUE(IsSolution(setting, source, target, *result.solution,
                           *symbols))
        << context;
  }
  return result;
}

// Random settings over S = {E/2, F/1}, T = {T1/2, T2/2}: one Σ_st tgd
// E(x,y) -> ∃z (one or two target atoms over x, y, z), a LAV Σ_ts tgd
// per target relation with probability 0.8 (its head one E or F atom,
// possibly with an existential), and a key egd per target relation with
// probability 0.5. At most two E facts and two head atoms keep every
// minimal solution within the enumeration's four extra facts.
TEST(SourceBackedWitnessTest, RandomLavSettingsMatchExhaustiveSearch) {
  int64_t unbacked = 0;
  int solvable = 0;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(seed);
    auto pick = [&](std::initializer_list<const char*> options) {
      return std::string(options.begin()[rng.UniformInt(
          static_cast<uint32_t>(options.size()))]);
    };
    std::string head;
    bool has_z = false;
    int atoms = 1 + static_cast<int>(rng.UniformInt(2));
    for (int a = 0; a < atoms; ++a) {
      std::string t0 = pick({"x", "y", "z"});
      std::string t1 = pick({"x", "y", "z"});
      if (a + 1 == atoms && !has_z && t0 != "z" && t1 != "z") t1 = "z";
      has_z = has_z || t0 == "z" || t1 == "z";
      head += (a > 0 ? " & " : "") + pick({"T1", "T2"}) + "(" + t0 + "," +
              t1 + ")";
    }
    std::string st = "E(x,y) -> exists z: " + head + ".";
    std::string ts;
    std::string t;
    for (const char* rel : {"T1", "T2"}) {
      if (rng.Bernoulli(0.8)) {
        std::string body = std::string(rel) + "(a,b)";
        ts += rng.Bernoulli(0.3)
                  ? body + " -> F(" + pick({"a", "b"}) + ").\n"
                  : body + " -> E(" + pick({"a", "b", "u"}) + "," +
                        pick({"a", "b", "u"}) + ").\n";
      }
      if (rng.Bernoulli(0.5)) {
        t += std::string(rel) + "(a,b) & " + rel + "(a,c) -> b = c.\n";
      }
    }
    SymbolTable symbols;
    auto setting = PdeSetting::Create({{"E", 2}, {"F", 1}},
                                      {{"T1", 2}, {"T2", 2}}, st, ts, t,
                                      &symbols);
    ASSERT_TRUE(setting.ok()) << setting.status().ToString();
    Value c[2] = {symbols.InternConstant("c0"), symbols.InternConstant("c1")};
    Instance source = setting->EmptyInstance();
    RelationId e = setting->schema().FindRelation("E").value();
    RelationId f = setting->schema().FindRelation("F").value();
    int edges = 1 + static_cast<int>(rng.UniformInt(2));
    for (int i = 0; i < edges; ++i) {
      source.AddFact(e, {c[rng.UniformInt(2)], c[rng.UniformInt(2)]});
    }
    if (rng.Bernoulli(0.5)) source.AddFact(f, {c[rng.UniformInt(2)]});
    std::string context = "seed " + std::to_string(seed) + "\n" + st +
                          "\n" + ts + t + "I:\n" + source.ToString(symbols);
    GenericSolveResult result =
        SolveAgainstBruteForce(*setting, source, setting->EmptyInstance(),
                               /*max_extra=*/4, &symbols, context);
    unbacked += result.values_unbacked;
    if (result.outcome == SolveOutcome::kSolutionFound) ++solvable;
  }
  // The rule fired, and the settings drawn hold both verdicts.
  EXPECT_GT(unbacked, 0);
  EXPECT_GT(solvable, 0);
  EXPECT_LT(solvable, 16);
}

struct BackedCase {
  const char* name;
  std::vector<RelationSchema> source_schema;
  std::vector<RelationSchema> target_schema;
  const char* sigma_st;
  const char* sigma_ts;
  const char* sigma_t;
  const char* source;
  const char* target;
  int max_extra;  // the size of the largest minimal solution
  bool backed;    // whether the rule applies, i.e. values_unbacked > 0
};

void PrintTo(const BackedCase& c, std::ostream* os) { *os << c.name; }

const BackedCase kBackedCases[] = {
    // The only viable witness for the backed z is the source constant c:
    // A's trigger branches first (w is unbacked, so it may take a fresh
    // null), then the key egd merges w into B's z, which may be b or c,
    // and the two-atom Σ_ts check on U accepts only c. On the path where w
    // took a fresh null, the egd merges that null into the source
    // constant c.
    {"EgdMergeIntoSourceConstant",
     {{"A", 1}, {"B", 1}, {"E", 1}, {"G", 1}},
     {{"T", 2}, {"U", 2}},
     "A(x) -> exists w: U(x,w).\nB(x) -> exists z: T(x,z).",
     "T(x,z) -> E(z).\nU(x,w) & U(y,w) -> G(w).",
     "T(x,z) & U(x,w) -> z = w.", "A(a). B(a). E(b). E(c). G(c).", "", 2,
     true},
    // The same with c missing from E: no backed witness survives.
    {"EgdMergeIntoUnbackedConstant",
     {{"A", 1}, {"B", 1}, {"E", 1}, {"G", 1}},
     {{"T", 2}, {"U", 2}},
     "A(x) -> exists w: U(x,w).\nB(x) -> exists z: T(x,z).",
     "T(x,z) -> E(z).\nU(x,w) & U(y,w) -> G(w).",
     "T(x,z) & U(x,w) -> z = w.", "A(a). B(a). E(b). G(c).", "", 2, true},
    // An empty projection: the Σ_ts head relation F has no facts, so no
    // value backs z and the node ends without a child.
    {"EmptyProjection", {{"E", 2}, {"F", 1}}, {{"T", 2}},
     "E(x,y) -> exists z: T(x,z).", "T(x,z) -> F(z).", "", "E(a,b).", "", 2,
     true},
    // Look-alikes from which no rule may be derived. Each Σ_ts tgd reads
    // the existential's position, but is not a plain LAV tgd. In each,
    // the search tries a value outside the would-be backing set (a, the
    // first domain value) before it finds its answer, so a derived rule
    // would show in values_unbacked.
    {"TwoAtomBody", {{"E", 2}}, {{"T", 2}, {"U", 2}},
     "E(x,y) -> exists z: T(x,z) & U(x,z).", "T(x,z) & U(x,w) -> E(x,z).",
     "", "E(a,b).", "", 4, false},
    {"RepeatedBodyVariable", {{"D", 2}, {"E", 2}}, {{"P", 4}},
     "D(x,y) -> exists z,w: P(x,z,y,w).", "P(x,z,z,w) -> E(z,w).",
     "P(x,z,y,w) & P(x,z2,y2,w2) -> z = z2.", "D(a,b). D(b,a). E(a,b).", "",
     2, false},
    {"ConstantInBody", {{"E", 2}}, {{"T", 2}},
     "E(x,y) -> exists z: T(x,z).", "T('a',z) -> E('a',z).", "",
     "E(a,b). E(b,b).", "", 4, false},
    {"DisjunctiveHead", {{"E", 2}, {"F", 1}}, {{"T", 2}},
     "E(x,y) -> exists z: T(x,z).", "T(x,z) -> (E(x,z)) | (F(z)).", "",
     "E(a,b). F(a).", "", 4, false},
    // The LAV twin of the look-alikes: the rule applies.
    {"PlainLav", {{"E", 2}}, {{"T", 2}}, "E(x,y) -> exists z: T(x,z).",
     "T(x,z) -> E(x,z).", "", "E(a,b). E(b,b).", "", 4, true},
};

class SourceBackedCaseTest : public ::testing::TestWithParam<BackedCase> {};

TEST_P(SourceBackedCaseTest, MatchesExhaustiveSearch) {
  const BackedCase& c = GetParam();
  SymbolTable symbols;
  auto setting = PdeSetting::Create(c.source_schema, c.target_schema,
                                    c.sigma_st, c.sigma_ts, c.sigma_t,
                                    &symbols);
  ASSERT_TRUE(setting.ok()) << setting.status().ToString();
  Instance source = ParseOrDie(*setting, c.source, &symbols);
  Instance target = ParseOrDie(*setting, c.target, &symbols);
  GenericSolveResult result =
      SolveAgainstBruteForce(*setting, source, target, c.max_extra,
                             &symbols, c.name);
  if (c.backed) {
    EXPECT_GT(result.values_unbacked, 0);
  } else {
    EXPECT_EQ(result.values_unbacked, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SourceBackedCaseTest, ::testing::ValuesIn(kBackedCases),
    [](const ::testing::TestParamInfo<BackedCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace pdx
