#include "hom/instance_hom.h"

#include <algorithm>

#include "gtest/gtest.h"

namespace pdx {
namespace {

class InstanceHomTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(schema_.AddRelation("E", 2).ok());
    a_ = symbols_.InternConstant("a");
    b_ = symbols_.InternConstant("b");
    c_ = symbols_.InternConstant("c");
  }

  Schema schema_;
  SymbolTable symbols_;
  Value a_, b_, c_;
};

TEST_F(InstanceHomTest, BlocksGroupConnectedNulls) {
  Instance instance(&schema_);
  Value n1 = symbols_.FreshNull();
  Value n2 = symbols_.FreshNull();
  Value n3 = symbols_.FreshNull();
  instance.AddFact(0, {n1, n2});  // n1 - n2 connected
  instance.AddFact(0, {n2, a_});  // joins the same component
  instance.AddFact(0, {n3, n3});  // its own component
  instance.AddFact(0, {a_, b_});  // null-free block
  instance.AddFact(0, {b_, c_});  // null-free block

  BlockDecomposition blocks(instance);
  ASSERT_EQ(blocks.size(), 3u);
  // Blocks are numbered by first fact; the null-free block comes last.
  EXPECT_EQ(blocks.null_count(0), 2u);
  EXPECT_EQ(blocks.facts(0).size(), 2u);
  EXPECT_EQ(blocks.null_count(1), 1u);
  EXPECT_EQ(blocks.facts(1).size(), 1u);
  EXPECT_EQ(blocks.null_count(2), 0u);
  EXPECT_EQ(blocks.facts(2).size(), 2u);
  // Each block owns a contiguous slot range holding its own nulls, in
  // first-occurrence order.
  EXPECT_EQ(blocks.null_begin(0), 0u);
  EXPECT_EQ(blocks.nulls(), (std::vector<Value>{n1, n2, n3}));
  EXPECT_EQ(blocks.slots().Find(n3), blocks.null_begin(1));
  EXPECT_EQ(blocks.slots().Find(a_), NullSlots::kNone);
  size_t total_facts = 0;
  for (size_t b = 0; b < blocks.size(); ++b) {
    total_facts += blocks.facts(b).size();
  }
  EXPECT_EQ(total_facts, instance.fact_count());
  // A fact span addresses the decomposed instance's tuples.
  const FactRef& first = blocks.facts(0).front();
  EXPECT_EQ(blocks.instance().tuples(first.relation)[first.tuple].ToTuple(),
            (Tuple{n1, n2}));
}

TEST_F(InstanceHomTest, BlocksOfAMergedInstanceUseItsResolvedView) {
  Instance instance(&schema_);
  Value n1 = symbols_.FreshNull();
  Value n2 = symbols_.FreshNull();
  instance.AddFact(0, {n1, a_});
  instance.AddFact(0, {n2, a_});
  instance.AddFact(0, {n2, b_});
  ASSERT_TRUE(instance.MergeValues(n1, n2).merged);
  BlockDecomposition blocks(instance);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks.null_count(0), 1u);
  EXPECT_EQ(blocks.facts(0).size(), 2u);
  EXPECT_FALSE(blocks.instance().has_merges());
}

TEST_F(InstanceHomTest, EmptyInstanceHasNoBlocks) {
  Instance instance(&schema_);
  EXPECT_EQ(BlockDecomposition(instance).size(), 0u);
}

TEST_F(InstanceHomTest, NullFreeInstanceIsOneBlock) {
  Instance instance(&schema_);
  instance.AddFact(0, {a_, b_});
  instance.AddFact(0, {b_, c_});
  BlockDecomposition blocks(instance);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks.null_count(0), 0u);
  EXPECT_EQ(blocks.facts(0).size(), 2u);
}

TEST_F(InstanceHomTest, HomomorphismMapsNullsToValues) {
  // Source: E(n1, n2), E(n2, n1) — a 2-cycle pattern.
  Instance source(&schema_);
  Value n1 = symbols_.FreshNull();
  Value n2 = symbols_.FreshNull();
  source.AddFact(0, {n1, n2});
  source.AddFact(0, {n2, n1});
  // Target: a real 2-cycle a <-> b.
  Instance target(&schema_);
  target.AddFact(0, {a_, b_});
  target.AddFact(0, {b_, a_});
  auto h = FindInstanceHomomorphism(source, target);
  ASSERT_TRUE(h.has_value());
  Instance image = ApplyAssignment(source, *h);
  EXPECT_TRUE(image.IsSubsetOf(target));
  EXPECT_FALSE(image.HasNulls());
}

TEST_F(InstanceHomTest, NoHomomorphismWhenPatternCannotEmbed) {
  // Source requires a self-loop-like identification... a 2-cycle cannot
  // map into a directed path.
  Instance source(&schema_);
  Value n1 = symbols_.FreshNull();
  Value n2 = symbols_.FreshNull();
  source.AddFact(0, {n1, n2});
  source.AddFact(0, {n2, n1});
  Instance target(&schema_);
  target.AddFact(0, {a_, b_});
  target.AddFact(0, {b_, c_});
  EXPECT_FALSE(FindInstanceHomomorphism(source, target).has_value());
}

TEST_F(InstanceHomTest, ConstantsMustMapToThemselves) {
  Instance source(&schema_);
  Value n = symbols_.FreshNull();
  source.AddFact(0, {a_, n});
  Instance target(&schema_);
  target.AddFact(0, {b_, c_});  // no fact with a in first position
  EXPECT_FALSE(FindInstanceHomomorphism(source, target).has_value());
  target.AddFact(0, {a_, c_});
  auto h = FindInstanceHomomorphism(source, target);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->Apply(n), c_);
}

TEST_F(InstanceHomTest, NullFreeFactsRequireExactPresence) {
  Instance source(&schema_);
  source.AddFact(0, {a_, b_});
  Instance target(&schema_);
  target.AddFact(0, {b_, a_});
  EXPECT_FALSE(FindInstanceHomomorphism(source, target).has_value());
  target.AddFact(0, {a_, b_});
  EXPECT_TRUE(FindInstanceHomomorphism(source, target).has_value());
}

TEST_F(InstanceHomTest, BlocksFactorizeTheSearch) {
  // Two independent blocks, each mappable: combined assignment covers both.
  Instance source(&schema_);
  Value n1 = symbols_.FreshNull();
  Value n2 = symbols_.FreshNull();
  source.AddFact(0, {a_, n1});
  source.AddFact(0, {b_, n2});
  Instance target(&schema_);
  target.AddFact(0, {a_, c_});
  target.AddFact(0, {b_, c_});
  auto h = FindInstanceHomomorphism(source, target);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->size(), 2u);
  EXPECT_EQ(h->Apply(n1), c_);
  EXPECT_EQ(h->Apply(n2), c_);
}

TEST_F(InstanceHomTest, ApplyAssignmentKeepsUnassignedNulls) {
  Instance source(&schema_);
  Value n1 = symbols_.FreshNull();
  Value n2 = symbols_.FreshNull();
  source.AddFact(0, {n1, n2});
  NullAssignment partial;
  partial.Set(n1, a_);
  Instance image = ApplyAssignment(source, partial);
  EXPECT_TRUE(image.Contains(0, {a_, n2}));
}

TEST_F(InstanceHomTest, MapBlocksReportsTheFirstFailingBlock) {
  Instance source(&schema_);
  Value n1 = symbols_.FreshNull();
  Value n2 = symbols_.FreshNull();
  Value n3 = symbols_.FreshNull();
  source.AddFact(0, {a_, n1});
  source.AddFact(0, {c_, n2});  // nothing starts at c in the target
  source.AddFact(0, {n3, n3});  // no self-loop in the target either
  Instance target(&schema_);
  target.AddFact(0, {a_, b_});
  BlockDecomposition blocks(source);
  ASSERT_EQ(blocks.size(), 3u);
  std::vector<Value> images(blocks.nulls().size());
  EXPECT_EQ(MapBlocks(blocks, 0, 3, target, images.data()), 1u);
  EXPECT_EQ(images[blocks.slots().Find(n1)], b_);
  // Ranges are independent: block 2 fails on its own.
  EXPECT_EQ(MapBlocks(blocks, 2, 3, target, images.data()), 2u);
  EXPECT_EQ(MapBlocks(blocks, 0, 1, target, images.data()), 1u);
}

TEST_F(InstanceHomTest, BlockSearchBacktracksAcrossFacts) {
  // E(n1, n2), E(n2, c): only n1 = a, n2 = b works. The search matches
  // E(n2, c) first (it has a constant) and its first candidate, n2 = a
  // from E(a, c), is a dead end for E(n1, n2).
  Instance source(&schema_);
  Value n1 = symbols_.FreshNull();
  Value n2 = symbols_.FreshNull();
  source.AddFact(0, {n1, n2});
  source.AddFact(0, {n2, c_});
  Instance target(&schema_);
  target.AddFact(0, {a_, c_});
  target.AddFact(0, {a_, b_});
  target.AddFact(0, {b_, c_});
  auto h = FindInstanceHomomorphism(source, target);
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(ApplyAssignment(source, *h).IsSubsetOf(target));
  EXPECT_EQ(h->Apply(n2), b_);
}

TEST_F(InstanceHomTest, ApplyAssignmentSharesUntouchedRelations) {
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("E", 2).ok());
  ASSERT_TRUE(schema.AddRelation("F", 2).ok());
  Instance source(&schema);
  Value n1 = symbols_.FreshNull();
  Value n2 = symbols_.FreshNull();
  source.AddFact(0, {n1, n2});
  source.AddFact(1, {a_, n2});
  source.AddFact(1, {b_, c_});
  NullAssignment h;
  h.Set(n1, a_);  // only E holds n1
  Instance image = ApplyAssignment(source, h);
  EXPECT_TRUE(image.Contains(0, {a_, n2}));
  EXPECT_FALSE(image.Contains(0, {n1, n2}));
  EXPECT_EQ(image.fact_count(), 3u);
  // F was shared, not copied: it still addresses the source's arena.
  EXPECT_EQ(image.tuples(1).data(), source.tuples(1).data());
  EXPECT_NE(image.tuples(0).data(), source.tuples(0).data());
  // Copy-on-write: writing either side leaves the other unchanged.
  image.AddFact(1, {c_, c_});
  EXPECT_FALSE(source.Contains(1, {c_, c_}));
  EXPECT_EQ(source.fact_count(), 3u);
  source.AddFact(1, {a_, a_});
  EXPECT_FALSE(image.Contains(1, {a_, a_}));
}

TEST_F(InstanceHomTest, HomomorphismMayMapNullsToNulls) {
  Instance source(&schema_);
  Value n1 = symbols_.FreshNull();
  source.AddFact(0, {a_, n1});
  Instance target(&schema_);
  Value n2 = symbols_.FreshNull();
  target.AddFact(0, {a_, n2});
  auto h = FindInstanceHomomorphism(source, target);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->Apply(n1), n2);
}

// --- CanonicalizeNulls -------------------------------------------------

class CanonicalizeNullsTest : public InstanceHomTest {
 protected:
  // Applies a bijective null renaming given as packed-id pairs.
  Instance Rename(const Instance& instance,
                  const std::vector<std::pair<Value, Value>>& pairs) {
    NullAssignment renaming;
    for (const auto& [from, to] : pairs) renaming.Set(from, to);
    return ApplyAssignment(instance, renaming);
  }
};

TEST_F(CanonicalizeNullsTest, InvariantUnderNullRenaming) {
  Instance instance(&schema_);
  Value n1 = symbols_.FreshNull();
  Value n2 = symbols_.FreshNull();
  Value n3 = symbols_.FreshNull();
  instance.AddFact(0, {a_, n1});
  instance.AddFact(0, {n1, n2});
  instance.AddFact(0, {n2, n3});
  instance.AddFact(0, {n3, b_});
  // Rename through high, permuted ids: the canonical forms must be
  // literally equal fact sets.
  Instance renamed = Rename(instance, {{n1, Value::Null(901)},
                                       {n2, Value::Null(77)},
                                       {n3, Value::Null(500)}});
  Instance canon_a = CanonicalizeNulls(instance);
  Instance canon_b = CanonicalizeNulls(renamed);
  EXPECT_EQ(canon_a.CanonicalFingerprint(), canon_b.CanonicalFingerprint());
  EXPECT_TRUE(canon_a.IsSubsetOf(canon_b));
  EXPECT_TRUE(canon_b.IsSubsetOf(canon_a));
}

TEST_F(CanonicalizeNullsTest, IsIdempotentAndPreservesStructure) {
  Instance instance(&schema_);
  Value n1 = symbols_.FreshNull();
  Value n2 = symbols_.FreshNull();
  instance.AddFact(0, {a_, n1});
  instance.AddFact(0, {n1, n2});
  instance.AddFact(0, {n2, n2});
  Instance canon = CanonicalizeNulls(instance);
  EXPECT_EQ(canon.ResolvedFactCount(), instance.ResolvedFactCount());
  // The canonical form is isomorphic to the input: homomorphisms both ways.
  EXPECT_TRUE(FindInstanceHomomorphism(instance, canon).has_value());
  EXPECT_TRUE(FindInstanceHomomorphism(canon, instance).has_value());
  Instance twice = CanonicalizeNulls(canon);
  EXPECT_EQ(canon.CanonicalFingerprint(), twice.CanonicalFingerprint());
}

TEST_F(CanonicalizeNullsTest, SeparatesNonIsomorphicInstances) {
  // Same relation, same fact count, same null count — but a loop is not a
  // path, and refinement distinguishes the occurrence structures.
  Instance loop(&schema_);
  Value n1 = symbols_.FreshNull();
  loop.AddFact(0, {n1, n1});
  Instance edge(&schema_);
  Value n2 = symbols_.FreshNull();
  Value n3 = symbols_.FreshNull();
  edge.AddFact(0, {n2, n3});
  EXPECT_NE(CanonicalizeNulls(loop).CanonicalFingerprint(),
            CanonicalizeNulls(edge).CanonicalFingerprint());
}

TEST_F(CanonicalizeNullsTest, SymmetricChainsNeedRefinementNotJustDegree) {
  // Two disjoint chains a -> n1 -> n2 -> b and a -> n3 -> n4 -> c: every
  // null has in-degree 1 and out-degree 1, so a single local-signature
  // round cannot separate {n1, n3} — only propagating the b-vs-c endpoint
  // color back through the chain does. A renamed-and-swapped copy must
  // still canonicalize identically.
  Instance instance(&schema_);
  Value n1 = symbols_.FreshNull();
  Value n2 = symbols_.FreshNull();
  Value n3 = symbols_.FreshNull();
  Value n4 = symbols_.FreshNull();
  instance.AddFact(0, {a_, n1});
  instance.AddFact(0, {n1, n2});
  instance.AddFact(0, {n2, b_});
  instance.AddFact(0, {a_, n3});
  instance.AddFact(0, {n3, n4});
  instance.AddFact(0, {n4, c_});
  // Swap the chains' null ids so the id-order tie-break would pick the
  // other chain first.
  Instance swapped = Rename(instance, {{n1, Value::Null(800)},
                                       {n2, Value::Null(801)},
                                       {n3, Value::Null(100)},
                                       {n4, Value::Null(101)}});
  EXPECT_EQ(CanonicalizeNulls(instance).CanonicalFingerprint(),
            CanonicalizeNulls(swapped).CanonicalFingerprint());
  // And the two chains are genuinely distinguished: the canonical form is
  // isomorphic to the original, not a collapse.
  Instance canon = CanonicalizeNulls(instance);
  EXPECT_EQ(canon.ResolvedFactCount(), instance.ResolvedFactCount());
  EXPECT_TRUE(FindInstanceHomomorphism(canon, instance).has_value());
}

TEST_F(CanonicalizeNullsTest, AutomorphicNullsCanonicalizeStably) {
  // A fully symmetric pair: E(a, n1), E(a, n2) has an automorphism
  // swapping n1 and n2. Refinement cannot split them; individualization
  // must still produce the same canonical form for both labelings.
  Instance instance(&schema_);
  Value n1 = symbols_.FreshNull();
  Value n2 = symbols_.FreshNull();
  instance.AddFact(0, {a_, n1});
  instance.AddFact(0, {a_, n2});
  Instance renamed = Rename(instance, {{n1, Value::Null(600)},
                                       {n2, Value::Null(42)}});
  EXPECT_EQ(CanonicalizeNulls(instance).CanonicalFingerprint(),
            CanonicalizeNulls(renamed).CanonicalFingerprint());
  EXPECT_EQ(CanonicalizeNulls(instance).ResolvedFactCount(), 2u);
}

}  // namespace
}  // namespace pdx
