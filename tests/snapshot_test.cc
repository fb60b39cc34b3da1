// Copy-on-write semantics of Instance and InstanceSnapshot: a branch may
// be mutated arbitrarily (AddFact, RemoveFact, Substitute) without any
// effect on its parent or sibling branches, and DeltaSince exposes exactly
// what a branch changed.

#include <vector>

#include "gtest/gtest.h"
#include "relational/snapshot.h"
#include "relational/value.h"

namespace pdx {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(schema_.AddRelation("R", 2).ok());
    ASSERT_TRUE(schema_.AddRelation("S", 1).ok());
    a_ = symbols_.InternConstant("a");
    b_ = symbols_.InternConstant("b");
    c_ = symbols_.InternConstant("c");
  }

  Instance Base() {
    Instance instance(&schema_);
    instance.AddFact(0, {a_, b_});
    instance.AddFact(0, {b_, c_});
    instance.AddFact(1, {a_});
    return instance;
  }

  Schema schema_;
  SymbolTable symbols_;
  Value a_, b_, c_;
};

TEST_F(SnapshotTest, BranchAddDoesNotLeakIntoParent) {
  Instance parent = Base();
  InstanceSnapshot snapshot(parent);
  Instance branch = snapshot.Branch();
  EXPECT_TRUE(branch.AddFact(0, {c_, a_}));
  EXPECT_TRUE(branch.AddFact(1, {b_}));

  EXPECT_EQ(parent.fact_count(), 3u);
  EXPECT_EQ(snapshot.get().fact_count(), 3u);
  EXPECT_EQ(branch.fact_count(), 5u);
  EXPECT_FALSE(parent.Contains(0, {c_, a_}));
  EXPECT_FALSE(snapshot.get().Contains(1, {b_}));
}

TEST_F(SnapshotTest, ParentMutationDoesNotLeakIntoBranch) {
  Instance parent = Base();
  InstanceSnapshot snapshot(parent);
  Instance branch = snapshot.Branch();
  EXPECT_TRUE(parent.AddFact(1, {c_}));

  EXPECT_FALSE(branch.Contains(1, {c_}));
  EXPECT_FALSE(snapshot.get().Contains(1, {c_}));
  EXPECT_EQ(branch.fact_count(), 3u);
}

TEST_F(SnapshotTest, SiblingBranchesAreIndependent) {
  Instance parent = Base();
  InstanceSnapshot snapshot(parent);
  Instance left = snapshot.Branch();
  Instance right = snapshot.Branch();
  left.AddFact(0, {a_, a_});
  right.AddFact(0, {c_, c_});

  EXPECT_TRUE(left.Contains(0, {a_, a_}));
  EXPECT_FALSE(left.Contains(0, {c_, c_}));
  EXPECT_TRUE(right.Contains(0, {c_, c_}));
  EXPECT_FALSE(right.Contains(0, {a_, a_}));
  EXPECT_EQ(snapshot.get().fact_count(), 3u);
}

TEST_F(SnapshotTest, BranchRemoveFactDoesNotLeakIntoParent) {
  Instance parent = Base();
  InstanceSnapshot snapshot(parent);
  Instance branch = snapshot.Branch();
  EXPECT_TRUE(branch.RemoveFact(0, {a_, b_}));
  EXPECT_FALSE(branch.RemoveFact(0, {a_, b_}));  // already gone

  EXPECT_TRUE(parent.Contains(0, {a_, b_}));
  EXPECT_TRUE(snapshot.get().Contains(0, {a_, b_}));
  EXPECT_EQ(branch.fact_count(), 2u);
  EXPECT_EQ(parent.fact_count(), 3u);
  // The branch's inverted index survived the swap-with-last removal.
  const TupleIndexSpan hits = branch.TuplesWithValueAt(0, 0, b_);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(branch.tuples(0)[hits[0]], (Tuple{b_, c_}));
}

TEST_F(SnapshotTest, BranchSubstituteDoesNotLeakIntoParent) {
  Instance parent(&schema_);
  Value null = symbols_.FreshNull();
  parent.AddFact(0, {a_, null});
  parent.AddFact(1, {null});
  InstanceSnapshot snapshot(parent);
  Instance branch = snapshot.Branch();
  branch.Substitute(null, b_);

  EXPECT_TRUE(branch.Contains(0, {a_, b_}));
  EXPECT_TRUE(branch.Contains(1, {b_}));
  EXPECT_TRUE(parent.Contains(0, {a_, null}));
  EXPECT_TRUE(parent.Contains(1, {null}));
  EXPECT_FALSE(parent.Contains(1, {b_}));
  // Substitute counts as a rewrite of the touched relations — in the
  // branch only.
  EXPECT_GT(branch.rewrites(0), parent.rewrites(0));
  EXPECT_GT(branch.rewrites(1), parent.rewrites(1));
}

TEST_F(SnapshotTest, SubstituteSkipsUntouchedRelations) {
  Instance parent = Base();
  Value null = symbols_.FreshNull();
  parent.AddFact(1, {null});
  uint64_t r_rewrites = parent.rewrites(0);
  parent.Substitute(null, b_);
  // R never contained the null: its store and rewrite counter are intact.
  EXPECT_EQ(parent.rewrites(0), r_rewrites);
  EXPECT_GT(parent.rewrites(1), 0u);
}

TEST_F(SnapshotTest, DeltaSinceSeesExactlyTheBranchAdditions) {
  Instance parent = Base();
  InstanceSnapshot snapshot(parent);
  Instance branch = snapshot.Branch();
  branch.AddFact(0, {c_, a_});
  branch.AddFact(0, {c_, b_});

  DeltaView delta = snapshot.DeltaSince(branch);
  EXPECT_TRUE(delta.any());
  EXPECT_TRUE(delta.dirty(0));
  EXPECT_FALSE(delta.dirty(1));
  EXPECT_EQ(delta.end(0) - delta.begin(0), 2u);
  EXPECT_EQ(branch.tuples(0)[delta.begin(0)], (Tuple{c_, a_}));

  // An untouched branch has an empty delta.
  Instance idle = snapshot.Branch();
  EXPECT_FALSE(snapshot.DeltaSince(idle).any());
}

TEST_F(SnapshotTest, DeltaSinceTreatsRewrittenRelationAsAllNew) {
  Instance parent(&schema_);
  Value null = symbols_.FreshNull();
  parent.AddFact(0, {a_, null});
  parent.AddFact(0, {b_, c_});
  InstanceSnapshot snapshot(parent);
  Instance branch = snapshot.Branch();
  branch.Substitute(null, c_);

  DeltaView delta = snapshot.DeltaSince(branch);
  EXPECT_TRUE(delta.dirty(0));
  EXPECT_EQ(delta.begin(0), 0u);
  EXPECT_EQ(delta.end(0), branch.tuples(0).size());
}

TEST_F(SnapshotTest, CopyIsCheapAndStillIsolated) {
  // Plain Instance copies go through the same copy-on-write machinery.
  Instance parent = Base();
  Instance copy = parent;
  copy.AddFact(1, {b_});
  EXPECT_FALSE(parent.Contains(1, {b_}));
  EXPECT_TRUE(copy.Contains(1, {b_}));
  EXPECT_TRUE(parent.IsSubsetOf(copy));
  EXPECT_FALSE(copy.IsSubsetOf(parent));
}

TEST_F(SnapshotTest, BranchMergeDoesNotLeakIntoParent) {
  Instance parent(&schema_);
  Value n1 = symbols_.FreshNull();
  Value n2 = symbols_.FreshNull();
  parent.AddFact(0, {a_, n1});
  parent.AddFact(0, {a_, n2});
  InstanceSnapshot snapshot(parent);
  Instance branch = snapshot.Branch();

  Instance::MergeResult merge = branch.MergeValues(n1, n2);
  EXPECT_TRUE(merge.merged);
  // Exactly the tuple holding the losing null is dirty.
  ASSERT_EQ(merge.dirty.size(), 1u);
  EXPECT_EQ(merge.dirty[0].first, 0);
  EXPECT_EQ(branch.ResolvedFactCount(), 1u);
  EXPECT_TRUE(branch.has_merges());

  // The parent and the snapshot still see two distinct facts and a
  // trivial resolver: the branch's union never aliased their state.
  EXPECT_FALSE(parent.has_merges());
  EXPECT_EQ(parent.ResolvedFactCount(), 2u);
  EXPECT_EQ(parent.ResolveValue(n1), n1);
  EXPECT_EQ(snapshot.get().ResolvedFactCount(), 2u);
  EXPECT_EQ(snapshot.get().resolver().version(), 0u);
}

TEST_F(SnapshotTest, SiblingBranchesMergeIndependently) {
  Instance parent(&schema_);
  Value n = symbols_.FreshNull();
  parent.AddFact(0, {a_, n});
  InstanceSnapshot snapshot(parent);
  Instance left = snapshot.Branch();
  Instance right = snapshot.Branch();

  EXPECT_TRUE(left.MergeValues(n, b_).merged);
  EXPECT_TRUE(right.MergeValues(n, c_).merged);

  EXPECT_TRUE(left.Contains(0, {a_, b_}));
  EXPECT_FALSE(left.Contains(0, {a_, c_}));
  EXPECT_TRUE(right.Contains(0, {a_, c_}));
  EXPECT_FALSE(right.Contains(0, {a_, b_}));
  EXPECT_EQ(parent.ResolveValue(n), n);
  EXPECT_TRUE(parent.Contains(0, {a_, n}));
}

// Siblings share the snapshot's stores, and with them each store's memo
// of class-aware index buckets; their resolvers diverge yet reach the same
// version. A bucket one sibling built for its class must never answer the
// other's probe for a different class under the same root.
TEST_F(SnapshotTest, SiblingClassProbesNeverShareBuckets) {
  Instance parent(&schema_);
  Value n1 = symbols_.FreshNull();
  Value n2 = symbols_.FreshNull();
  parent.AddFact(0, {a_, n1});  // tuple 0
  parent.AddFact(0, {b_, n2});  // tuple 1
  InstanceSnapshot snapshot(parent);
  Instance left = snapshot.Branch();
  Instance right = snapshot.Branch();
  ASSERT_TRUE(left.MergeValues(n1, c_).merged);
  ASSERT_TRUE(right.MergeValues(n2, c_).merged);
  ASSERT_EQ(left.resolver().version(), right.resolver().version());

  auto tuples = [](TupleIndexSpan span) {
    return std::vector<int32_t>(span.begin(), span.end());
  };
  EXPECT_EQ(tuples(left.TuplesWithResolvedValueAt(0, 1, c_)),
            std::vector<int32_t>{0});
  EXPECT_EQ(tuples(right.TuplesWithResolvedValueAt(0, 1, c_)),
            std::vector<int32_t>{1});
  EXPECT_EQ(left.CountTuplesWithResolvedValueAt(0, 1, c_), 1u);
  EXPECT_EQ(tuples(left.TuplesWithResolvedValueAt(0, 1, c_)),
            std::vector<int32_t>{0});
}

TEST_F(SnapshotTest, InterleavedMergesNeverAliasResolverState) {
  Instance parent(&schema_);
  Value n1 = symbols_.FreshNull();
  Value n2 = symbols_.FreshNull();
  Value n3 = symbols_.FreshNull();
  parent.AddFact(0, {n1, n2});
  parent.AddFact(1, {n3});
  InstanceSnapshot snapshot(parent);
  Instance branch = snapshot.Branch();

  // Interleave unions across the parent and the branch; each side must
  // see exactly its own merge history.
  EXPECT_TRUE(parent.MergeValues(n1, a_).merged);
  EXPECT_TRUE(branch.MergeValues(n1, n2).merged);
  EXPECT_TRUE(parent.MergeValues(n2, b_).merged);
  EXPECT_TRUE(branch.MergeValues(n3, c_).merged);

  EXPECT_EQ(parent.ResolveValue(n1), a_);
  EXPECT_EQ(parent.ResolveValue(n2), b_);
  EXPECT_EQ(parent.ResolveValue(n3), n3);
  EXPECT_TRUE(branch.ResolveValue(n1).is_null());
  EXPECT_EQ(branch.ResolveValue(n1), branch.ResolveValue(n2));
  EXPECT_EQ(branch.ResolveValue(n3), c_);
  EXPECT_EQ(snapshot.get().resolver().version(), 0u);
}

TEST_F(SnapshotTest, MergeDoesNotDirtyWatermarksOrRewrites) {
  Instance instance(&schema_);
  Value n = symbols_.FreshNull();
  instance.AddFact(0, {a_, n});
  instance.AddFact(0, {a_, b_});
  uint64_t rewrites = instance.rewrites(0);
  InstanceWatermark mark = instance.TakeWatermark();

  Instance::MergeResult merge = instance.MergeValues(n, b_);
  EXPECT_TRUE(merge.merged);
  EXPECT_EQ(merge.winner, b_);  // constants win unions

  // Unlike Substitute, a merge leaves tuple indexes and watermarks valid:
  // no rewrite, no additive delta.
  EXPECT_EQ(instance.rewrites(0), rewrites);
  DeltaView plain(instance, mark);
  EXPECT_FALSE(plain.any());

  // The dirty tuples the merge reported expose the change to delta-driven
  // callers via the extras channel.
  std::vector<std::vector<int>> extras(2);
  for (const auto& [relation, index] : merge.dirty) {
    extras[relation].push_back(index);
  }
  DeltaView with_extras(instance, mark, extras);
  EXPECT_TRUE(with_extras.any());
  EXPECT_TRUE(with_extras.dirty(0));
  ASSERT_EQ(with_extras.extras(0).size(), 1u);
  const TupleView raw = instance.tuples(0)[with_extras.extras(0)[0]];
  EXPECT_EQ(raw, (Tuple{a_, n}));  // raw store keeps the stale value
  EXPECT_EQ(instance.ResolveTuple(raw.ToTuple()), (Tuple{a_, b_}));
  EXPECT_EQ(instance.ResolvedFactCount(), 1u);
}

// Deletion propagation's reader contract: a pinned branch (what a pdxd
// generation holds) keeps its facts — including raw TupleView spans read
// before the writer moved on — while the live branch retracts facts
// in place.
TEST_F(SnapshotTest, PinnedBranchSurvivesLiveRetraction) {
  Instance live = Base();
  InstanceSnapshot pinned(live);  // the published generation

  // Readers resolve spans against the pinned branch up front.
  const TupleView span = pinned.get().tuples(0)[0];
  ASSERT_EQ(span[0], a_);
  ASSERT_EQ(span[1], b_);

  // The writer retracts through the live branch: every raw R tuple goes.
  EXPECT_TRUE(live.RemoveFact(0, {a_, b_}));
  EXPECT_TRUE(live.RemoveFact(0, {b_, c_}));
  EXPECT_EQ(live.tuples(0).size(), 0u);

  // The pinned branch is untouched, span included.
  EXPECT_EQ(pinned.get().tuples(0).size(), 2u);
  EXPECT_TRUE(pinned.get().Contains(0, {a_, b_}));
  EXPECT_TRUE(pinned.get().Contains(0, {b_, c_}));
  EXPECT_EQ(span[0], a_);
  EXPECT_EQ(span[1], b_);

  // And the other way: re-adding on the live side never bleeds back.
  EXPECT_TRUE(live.AddFact(0, {c_, c_}));
  EXPECT_FALSE(pinned.get().Contains(0, {c_, c_}));
}

// Same contract across compaction: the writer may swap its store for a
// compacted copy (the chase's auto-compaction under merge-heavy churn)
// while a pinned reader keeps the original spans.
TEST_F(SnapshotTest, PinnedBranchSurvivesLiveCompaction) {
  Instance live = Base();
  Value n = symbols_.FreshNull();
  live.AddFact(0, {a_, n});
  ASSERT_TRUE(live.MergeValues(n, b_).merged);  // R(a,n) duplicates R(a,b)

  InstanceSnapshot pinned(live);
  const TupleView span = pinned.get().tuples(1)[0];
  ASSERT_EQ(span[0], a_);
  const size_t pinned_raw = pinned.get().tuples(0).size();

  // Writer-side compaction: duplicates under resolution fold away.
  Instance compacted = live.CompactResolved(/*keep_resolver=*/true);
  EXPECT_LT(compacted.tuples(0).size(), pinned_raw);
  live = std::move(compacted);
  EXPECT_TRUE(live.RemoveFact(1, {a_}));

  // The pinned branch still exposes the pre-compaction store.
  EXPECT_EQ(pinned.get().tuples(0).size(), pinned_raw);
  EXPECT_TRUE(pinned.get().Contains(1, {a_}));
  EXPECT_EQ(span[0], a_);
}

TEST_F(SnapshotTest, FingerprintUnaffectedBySharing) {
  Instance parent = Base();
  InstanceSnapshot snapshot(parent);
  Instance branch = snapshot.Branch();
  EXPECT_EQ(parent.CanonicalFingerprint(), branch.CanonicalFingerprint());
  branch.AddFact(1, {c_});
  EXPECT_NE(parent.CanonicalFingerprint(), branch.CanonicalFingerprint());
  EXPECT_EQ(parent.CanonicalFingerprint(),
            snapshot.get().CanonicalFingerprint());
}

}  // namespace
}  // namespace pdx
