#include "tests/reference_matcher.h"

#include <set>

#include "gtest/gtest.h"
#include "logic/parser.h"

namespace pdx {
namespace {

using reference::EnumerateMatches;
using reference::HasMatch;

class MatcherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(schema_.AddRelation("E", 2).ok());
    ASSERT_TRUE(schema_.AddRelation("U", 1).ok());
    instance_ = std::make_unique<Instance>(&schema_);
    a_ = symbols_.InternConstant("a");
    b_ = symbols_.InternConstant("b");
    c_ = symbols_.InternConstant("c");
    // A directed path a -> b -> c plus a self-loop on a.
    instance_->AddFact(0, {a_, b_});
    instance_->AddFact(0, {b_, c_});
    instance_->AddFact(0, {a_, a_});
  }

  // Parses the body of a query as a conjunction to match.
  std::pair<std::vector<Atom>, int> ParseConjunction(const char* text) {
    auto query = ParseQuery(text, schema_, &symbols_);
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    return {query->body, query->var_count};
  }

  Schema schema_;
  SymbolTable symbols_;
  std::unique_ptr<Instance> instance_;
  Value a_, b_, c_;
};

TEST_F(MatcherTest, FindsAllMatchesOfSingleAtom) {
  auto [atoms, var_count] = ParseConjunction("q(x,y) :- E(x,y).");
  int count = 0;
  EnumerateMatches(atoms, var_count, *instance_, Binding::Empty(var_count),
                   [&](const Binding&) {
                     ++count;
                     return true;
                   });
  EXPECT_EQ(count, 3);
}

TEST_F(MatcherTest, JoinsShareVariables) {
  auto [atoms, var_count] = ParseConjunction("q(x,y,z) :- E(x,y) & E(y,z).");
  std::set<std::vector<uint64_t>> results;
  EnumerateMatches(atoms, var_count, *instance_, Binding::Empty(var_count),
                   [&](const Binding& b) {
                     std::vector<uint64_t> row;
                     for (const Value& v : b.values) row.push_back(v.packed());
                     results.insert(row);
                     return true;
                   });
  // Paths of length 2: a->b->c, a->a->b, a->a->a.
  EXPECT_EQ(results.size(), 3u);
}

TEST_F(MatcherTest, RepeatedVariableForcesEquality) {
  auto [atoms, var_count] = ParseConjunction("q(x) :- E(x,x).");
  int count = 0;
  EnumerateMatches(atoms, var_count, *instance_, Binding::Empty(var_count),
                   [&](const Binding& b) {
                     EXPECT_EQ(b.values[0], a_);
                     ++count;
                     return true;
                   });
  EXPECT_EQ(count, 1);
}

TEST_F(MatcherTest, ConstantsInAtomsRestrictMatches) {
  auto [atoms, var_count] = ParseConjunction("q(x) :- E('a', x).");
  std::set<uint64_t> seen;
  EnumerateMatches(atoms, var_count, *instance_, Binding::Empty(var_count),
                   [&](const Binding& b) {
                     seen.insert(b.values[0].packed());
                     return true;
                   });
  EXPECT_EQ(seen.size(), 2u);  // b and a (self-loop)
}

TEST_F(MatcherTest, PartialBindingIsRespected) {
  auto [atoms, var_count] = ParseConjunction("q(x,y) :- E(x,y).");
  Binding partial = Binding::Empty(var_count);
  partial.Bind(0, b_);
  int count = 0;
  EnumerateMatches(atoms, var_count, *instance_, partial,
                   [&](const Binding& b) {
                     EXPECT_EQ(b.values[0], b_);
                     EXPECT_EQ(b.values[1], c_);
                     ++count;
                     return true;
                   });
  EXPECT_EQ(count, 1);
}

TEST_F(MatcherTest, EarlyStopReturnsTrue) {
  auto [atoms, var_count] = ParseConjunction("q(x,y) :- E(x,y).");
  bool stopped =
      EnumerateMatches(atoms, var_count, *instance_,
                       Binding::Empty(var_count),
                       [](const Binding&) { return false; });
  EXPECT_TRUE(stopped);
}

TEST_F(MatcherTest, HasMatchBasics) {
  auto [path, path_vars] = ParseConjunction("q() :- E(x,y) & E(y,z).");
  EXPECT_TRUE(HasMatch(path, path_vars, *instance_));
  auto [triangle, tri_vars] =
      ParseConjunction("q() :- E(x,y) & E(y,z) & E(z,x).");
  // Only the self-loop forms a "triangle" x=y=z=a.
  EXPECT_TRUE(HasMatch(triangle, tri_vars, *instance_));
  auto [into_c, c_vars] = ParseConjunction("q() :- E('c', x).");
  EXPECT_FALSE(HasMatch(into_c, c_vars, *instance_));
}

TEST_F(MatcherTest, EmptyConjunctionMatchesVacuously) {
  std::vector<Atom> empty;
  int calls = 0;
  EnumerateMatches(empty, 0, *instance_, Binding::Empty(0),
                   [&](const Binding&) {
                     ++calls;
                     return true;
                   });
  EXPECT_EQ(calls, 1);
}

TEST_F(MatcherTest, NullsMatchLiterally) {
  Value n = symbols_.FreshNull();
  instance_->AddFact(0, {c_, n});
  auto [atoms, var_count] = ParseConjunction("q(x) :- E('c', x).");
  int count = 0;
  EnumerateMatches(atoms, var_count, *instance_, Binding::Empty(var_count),
                   [&](const Binding& b) {
                     EXPECT_EQ(b.values[b.values.size() - 1].packed(),
                               n.packed());
                     ++count;
                     return true;
                   });
  EXPECT_EQ(count, 1);
}

}  // namespace
}  // namespace pdx
