#include "relational/instance.h"

#include <algorithm>

#include "gtest/gtest.h"

namespace pdx {
namespace {

class InstanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(schema_.AddRelation("E", 2).ok());
    ASSERT_TRUE(schema_.AddRelation("U", 1).ok());
    e_ = schema_.FindRelation("E").value();
    u_ = schema_.FindRelation("U").value();
    a_ = symbols_.InternConstant("a");
    b_ = symbols_.InternConstant("b");
    c_ = symbols_.InternConstant("c");
  }

  Schema schema_;
  SymbolTable symbols_;
  RelationId e_ = 0;
  RelationId u_ = 0;
  Value a_, b_, c_;
};

TEST_F(InstanceTest, AddFactDeduplicates) {
  Instance instance(&schema_);
  EXPECT_TRUE(instance.AddFact(e_, {a_, b_}));
  EXPECT_FALSE(instance.AddFact(e_, {a_, b_}));
  EXPECT_TRUE(instance.AddFact(e_, {b_, a_}));
  EXPECT_EQ(instance.fact_count(), 2u);
  EXPECT_TRUE(instance.Contains(e_, {a_, b_}));
  EXPECT_FALSE(instance.Contains(e_, {a_, c_}));
}

TEST_F(InstanceTest, PositionalIndexFindsTuples) {
  Instance instance(&schema_);
  instance.AddFact(e_, {a_, b_});
  instance.AddFact(e_, {a_, c_});
  instance.AddFact(e_, {b_, c_});
  EXPECT_EQ(instance.TuplesWithValueAt(e_, 0, a_).size(), 2u);
  EXPECT_EQ(instance.TuplesWithValueAt(e_, 1, c_).size(), 2u);
  EXPECT_TRUE(instance.TuplesWithValueAt(e_, 0, c_).empty());
}

TEST_F(InstanceTest, ActiveDomainAndNulls) {
  Instance instance(&schema_);
  Value n = symbols_.FreshNull();
  instance.AddFact(e_, {a_, n});
  instance.AddFact(u_, {b_});
  std::vector<Value> domain = instance.ActiveDomain();
  EXPECT_EQ(domain.size(), 3u);
  EXPECT_TRUE(instance.HasNulls());
  ASSERT_EQ(instance.Nulls().size(), 1u);
  EXPECT_EQ(instance.Nulls()[0], n);
}

TEST_F(InstanceTest, SubsetAndEquality) {
  Instance small(&schema_);
  small.AddFact(e_, {a_, b_});
  Instance big = small;
  big.AddFact(e_, {b_, c_});
  EXPECT_TRUE(small.IsSubsetOf(big));
  EXPECT_FALSE(big.IsSubsetOf(small));
  EXPECT_FALSE(small.FactsEqual(big));
  Instance copy = big;
  EXPECT_TRUE(copy.FactsEqual(big));
}

TEST_F(InstanceTest, UnionWith) {
  Instance left(&schema_);
  left.AddFact(e_, {a_, b_});
  Instance right(&schema_);
  right.AddFact(e_, {a_, b_});
  right.AddFact(u_, {c_});
  left.UnionWith(right);
  EXPECT_EQ(left.fact_count(), 2u);
  EXPECT_TRUE(left.Contains(u_, {c_}));
}

TEST_F(InstanceTest, CanonicalFingerprintIgnoresNullIdentity) {
  Instance x(&schema_);
  Instance y(&schema_);
  Value n1 = symbols_.FreshNull();
  Value n2 = symbols_.FreshNull();
  x.AddFact(e_, {a_, n1});
  y.AddFact(e_, {a_, n2});
  EXPECT_EQ(x.CanonicalFingerprint(), y.CanonicalFingerprint());
}

TEST_F(InstanceTest, CanonicalFingerprintIgnoresInsertionOrder) {
  Instance x(&schema_);
  Instance y(&schema_);
  x.AddFact(e_, {a_, b_});
  x.AddFact(e_, {b_, c_});
  y.AddFact(e_, {b_, c_});
  y.AddFact(e_, {a_, b_});
  EXPECT_EQ(x.CanonicalFingerprint(), y.CanonicalFingerprint());
}

TEST_F(InstanceTest, CanonicalFingerprintDistinguishesStructure) {
  Instance x(&schema_);
  Instance y(&schema_);
  Value n1 = symbols_.FreshNull();
  Value n2 = symbols_.FreshNull();
  // x: shared null across two facts; y: distinct nulls.
  x.AddFact(e_, {a_, n1});
  x.AddFact(e_, {n1, b_});
  y.AddFact(e_, {a_, n1});
  y.AddFact(e_, {n2, b_});
  EXPECT_NE(x.CanonicalFingerprint(), y.CanonicalFingerprint());
}

TEST_F(InstanceTest, ToStringIsSortedAndReadable) {
  Instance instance(&schema_);
  instance.AddFact(e_, {b_, c_});
  instance.AddFact(e_, {a_, b_});
  EXPECT_EQ(instance.ToString(symbols_), "E(a,b).\nE(b,c).");
}

TEST_F(InstanceTest, AllFactsRoundTrip) {
  Instance instance(&schema_);
  instance.AddFact(e_, {a_, b_});
  instance.AddFact(u_, {c_});
  std::vector<Fact> facts = instance.AllFacts();
  EXPECT_EQ(facts.size(), 2u);
  for (const Fact& f : facts) {
    EXPECT_TRUE(instance.Contains(f));
  }
}

}  // namespace
}  // namespace pdx
