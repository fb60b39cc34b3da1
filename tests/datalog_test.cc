#include "logic/datalog.h"

#include "gtest/gtest.h"
#include "tests/reference_matcher.h"

namespace pdx {
namespace {

class DatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(schema_.AddRelation("E", 2).ok());
    ASSERT_TRUE(schema_.AddRelation("T", 2).ok());
    ASSERT_TRUE(schema_.AddRelation("U", 1).ok());
    e_ = schema_.FindRelation("E").value();
    t_ = schema_.FindRelation("T").value();
    a_ = symbols_.InternConstant("a");
    b_ = symbols_.InternConstant("b");
    c_ = symbols_.InternConstant("c");
    d_ = symbols_.InternConstant("d");
  }

  DatalogProgram Parse(const char* text) {
    auto program = ParseDatalogProgram(text, schema_, &symbols_);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    return std::move(program).value();
  }

  Schema schema_;
  SymbolTable symbols_;
  RelationId e_ = 0, t_ = 0;
  Value a_, b_, c_, d_;
};

TEST_F(DatalogTest, ParsesBothSyntaxes) {
  DatalogProgram turnstile =
      Parse("T(x,y) :- E(x,y). T(x,z) :- T(x,y), E(y,z).");
  EXPECT_EQ(turnstile.rules.size(), 2u);
  DatalogProgram arrows =
      Parse("E(x,y) -> T(x,y). T(x,y) & E(y,z) -> T(x,z).");
  EXPECT_EQ(arrows.rules.size(), 2u);
}

TEST_F(DatalogTest, RejectsNonDatalogRules) {
  // Existential head variable.
  EXPECT_FALSE(
      ParseDatalogProgram("E(x,y) -> exists z: T(x,z).", schema_, &symbols_)
          .ok());
  // Multiple head atoms.
  EXPECT_FALSE(
      ParseDatalogProgram("E(x,y) -> T(x,y) & T(y,x).", schema_, &symbols_)
          .ok());
  // Egd.
  EXPECT_FALSE(
      ParseDatalogProgram("T(x,y) & T(x,z) -> y = z.", schema_, &symbols_)
          .ok());
}

TEST_F(DatalogTest, ComputesTransitiveClosure) {
  DatalogProgram program =
      Parse("T(x,y) :- E(x,y). T(x,z) :- T(x,y), E(y,z).");
  Instance input(&schema_);
  input.AddFact(e_, {a_, b_});
  input.AddFact(e_, {b_, c_});
  input.AddFact(e_, {c_, d_});
  DatalogStats stats;
  Instance fixpoint = EvaluateDatalog(program, input, &stats);
  // T = all 6 pairs reachable along the path a->b->c->d.
  EXPECT_EQ(fixpoint.tuples(t_).size(), 6u);
  EXPECT_TRUE(fixpoint.Contains(t_, {a_, d_}));
  EXPECT_FALSE(fixpoint.Contains(t_, {d_, a_}));
  EXPECT_EQ(stats.derived_facts, 6);
}

TEST_F(DatalogTest, CyclesConverge) {
  DatalogProgram program =
      Parse("T(x,y) :- E(x,y). T(x,z) :- T(x,y), T(y,z).");
  Instance input(&schema_);
  input.AddFact(e_, {a_, b_});
  input.AddFact(e_, {b_, a_});
  Instance fixpoint = EvaluateDatalog(program, input);
  // Closure of a 2-cycle: all 4 pairs.
  EXPECT_EQ(fixpoint.tuples(t_).size(), 4u);
}

TEST_F(DatalogTest, EmptyProgramIsIdentity) {
  DatalogProgram program;
  Instance input(&schema_);
  input.AddFact(e_, {a_, b_});
  Instance fixpoint = EvaluateDatalog(program, input);
  EXPECT_TRUE(fixpoint.FactsEqual(input));
}

TEST_F(DatalogTest, ConstantsInRules) {
  DatalogProgram program = Parse("U(x) :- E('a', x).");
  Instance input(&schema_);
  input.AddFact(e_, {a_, b_});
  input.AddFact(e_, {b_, c_});
  Instance fixpoint = EvaluateDatalog(program, input);
  RelationId u = schema_.FindRelation("U").value();
  ASSERT_EQ(fixpoint.tuples(u).size(), 1u);
  EXPECT_EQ(fixpoint.tuples(u)[0][0], b_);
}

TEST_F(DatalogTest, IsClosedUnder) {
  DatalogProgram program = Parse("T(x,y) :- E(x,y).");
  Instance open_instance(&schema_);
  open_instance.AddFact(e_, {a_, b_});
  EXPECT_FALSE(IsClosedUnder(program, open_instance));
  Instance closed_instance = open_instance;
  closed_instance.AddFact(t_, {a_, b_});
  EXPECT_TRUE(IsClosedUnder(program, closed_instance));
}

// IsClosedUnder decides closure on the rules' compiled plans; the
// reference interpreter, checking the rules as tgds, must agree on a
// recursive program with a join and a constant, on an instance one
// derivation short of its closure and on the closure itself.
TEST_F(DatalogTest, IsClosedUnderAgreesWithTheReference) {
  DatalogProgram program =
      Parse("T(x,y) :- E(x,y). T(x,z) :- T(x,y), E(y,z). U(y) :- T('a', y).");
  DependencySet rules;
  rules.tgds = program.AsTgds();
  Instance input(&schema_);
  input.AddFact(e_, {a_, b_});
  input.AddFact(e_, {b_, c_});
  input.AddFact(e_, {c_, d_});
  const Instance closed = EvaluateDatalog(program, input);
  ASSERT_TRUE(reference::SatisfiesAll(closed, rules));
  EXPECT_TRUE(IsClosedUnder(program, closed));

  Instance open_instance(&schema_);
  closed.ForEachFact([&](const Fact& fact) {
    if (!(fact.relation == t_ && fact.tuple == Tuple{a_, d_})) {
      open_instance.AddFact(fact);
    }
  });
  ASSERT_FALSE(reference::SatisfiesAll(open_instance, rules));
  EXPECT_FALSE(IsClosedUnder(program, open_instance));
}

TEST_F(DatalogTest, IntensionalRelations) {
  DatalogProgram program = Parse("T(x,y) :- E(x,y).");
  std::vector<bool> intensional = program.IntensionalRelations(schema_);
  EXPECT_FALSE(intensional[e_]);
  EXPECT_TRUE(intensional[t_]);
}

TEST_F(DatalogTest, ToStringRoundTrips) {
  DatalogProgram program =
      Parse("T(x,z) :- T(x,y), E(y,z).");
  std::string rendered = program.ToString(schema_, symbols_);
  DatalogProgram reparsed = Parse(rendered.c_str());
  EXPECT_EQ(reparsed.rules.size(), 1u);
  EXPECT_EQ(reparsed.ToString(schema_, symbols_), rendered);
}

// A PDMS-flavoured use: definitional mappings relate two peers' relations
// by a recursive program; consistency = closure under the program.
TEST_F(DatalogTest, DefinitionalMappingConsistency) {
  DatalogProgram definitional =
      Parse("T(x,y) :- E(x,y). T(x,z) :- T(x,y), E(y,z).");
  Instance peers(&schema_);
  peers.AddFact(e_, {a_, b_});
  peers.AddFact(e_, {b_, c_});
  EXPECT_FALSE(IsClosedUnder(definitional, peers));
  Instance consistent = EvaluateDatalog(definitional, peers);
  EXPECT_TRUE(IsClosedUnder(definitional, consistent));
}

}  // namespace
}  // namespace pdx
