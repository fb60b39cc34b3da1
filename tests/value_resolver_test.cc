// Unit tests for the union-find value layer: class semantics (constants
// win, size-based winner among nulls, constant/constant conflicts),
// reassigned reporting, and the copy-on-write isolation Instance snapshots
// rely on — plus a differential test against a naive std::map union-find
// over null ids spread across the whole 32-bit id space.

#include "relational/value_resolver.h"

#include <algorithm>
#include <map>
#include <random>
#include <set>

#include "gtest/gtest.h"
#include "relational/value.h"

namespace pdx {
namespace {

class ValueResolverTest : public ::testing::Test {
 protected:
  Value Null() { return symbols_.FreshNull(); }
  Value Const(const char* name) { return symbols_.InternConstant(name); }

  static bool Contains(const std::vector<Value>& values, Value v) {
    return std::find(values.begin(), values.end(), v) != values.end();
  }

  SymbolTable symbols_;
};

TEST_F(ValueResolverTest, TrivialResolverIsIdentity) {
  ValueResolver resolver;
  Value n = Null();
  Value a = Const("a");
  EXPECT_TRUE(resolver.trivial());
  EXPECT_EQ(resolver.Resolve(n), n);
  EXPECT_EQ(resolver.Resolve(a), a);
  EXPECT_TRUE(resolver.SameClass(n, n));
  EXPECT_FALSE(resolver.SameClass(n, a));
  EXPECT_EQ(resolver.version(), 0u);
  EXPECT_EQ(resolver.class_count(), 0u);
  EXPECT_EQ(resolver.ClassMembers(n), nullptr);
}

TEST_F(ValueResolverTest, ConstantWinsUnionWithNull) {
  ValueResolver resolver;
  Value n = Null();
  Value a = Const("a");
  // Both argument orders: the constant must become the root.
  ValueResolver::UnionResult result = resolver.Union(n, a);
  EXPECT_TRUE(result.merged);
  EXPECT_FALSE(result.conflict);
  EXPECT_EQ(result.winner, a);
  EXPECT_EQ(result.loser, n);
  EXPECT_EQ(resolver.Resolve(n), a);
  EXPECT_EQ(resolver.Resolve(a), a);

  Value n2 = Null();
  result = resolver.Union(a, n2);
  EXPECT_TRUE(result.merged);
  EXPECT_EQ(result.winner, a);
  EXPECT_EQ(resolver.Resolve(n2), a);
  EXPECT_EQ(resolver.class_count(), 1u);
  EXPECT_EQ(resolver.version(), 2u);
}

TEST_F(ValueResolverTest, ConstantConflictReportsWithoutMutating) {
  ValueResolver resolver;
  Value a = Const("a");
  Value b = Const("b");
  ValueResolver::UnionResult result = resolver.Union(a, b);
  EXPECT_FALSE(result.merged);
  EXPECT_TRUE(result.conflict);
  EXPECT_EQ(resolver.Resolve(a), a);
  EXPECT_EQ(resolver.Resolve(b), b);
  EXPECT_EQ(resolver.version(), 0u);

  // The conflict also surfaces through merged classes: n ~ a and m ~ b
  // cannot be joined.
  Value n = Null();
  Value m = Null();
  EXPECT_TRUE(resolver.Union(n, a).merged);
  EXPECT_TRUE(resolver.Union(m, b).merged);
  result = resolver.Union(n, m);
  EXPECT_TRUE(result.conflict);
  EXPECT_EQ(result.winner, resolver.Resolve(n));
  EXPECT_EQ(result.loser, resolver.Resolve(m));
  EXPECT_EQ(resolver.Resolve(n), a);
  EXPECT_EQ(resolver.Resolve(m), b);
}

TEST_F(ValueResolverTest, SelfAndRepeatUnionsAreNoOps) {
  ValueResolver resolver;
  Value n1 = Null();
  Value n2 = Null();
  EXPECT_FALSE(resolver.Union(n1, n1).merged);
  EXPECT_TRUE(resolver.Union(n1, n2).merged);
  ValueResolver::UnionResult repeat = resolver.Union(n1, n2);
  EXPECT_FALSE(repeat.merged);
  EXPECT_FALSE(repeat.conflict);
  EXPECT_EQ(resolver.version(), 1u);
}

TEST_F(ValueResolverTest, LargerNullClassWinsAndReassignedIsLosingClass) {
  ValueResolver resolver;
  Value n1 = Null(), n2 = Null(), n3 = Null(), n4 = Null(), n5 = Null();
  // Build {n1,n2,n3} and {n4,n5}.
  ASSERT_TRUE(resolver.Union(n1, n2).merged);
  ASSERT_TRUE(resolver.Union(n1, n3).merged);
  ASSERT_TRUE(resolver.Union(n4, n5).merged);
  Value big_root = resolver.Resolve(n1);
  Value small_root = resolver.Resolve(n4);

  ValueResolver::UnionResult result = resolver.Union(n5, n2);
  EXPECT_TRUE(result.merged);
  EXPECT_EQ(result.winner, big_root);
  EXPECT_EQ(result.loser, small_root);
  // Exactly the losing class {n4, n5} was reassigned.
  EXPECT_EQ(result.reassigned.size(), 2u);
  EXPECT_TRUE(Contains(result.reassigned, n4));
  EXPECT_TRUE(Contains(result.reassigned, n5));
  for (Value v : {n1, n2, n3, n4, n5}) {
    EXPECT_EQ(resolver.Resolve(v), big_root);
  }

  // The merged class lists all five members under the surviving root.
  const std::vector<Value>* members = resolver.ClassMembers(big_root);
  ASSERT_NE(members, nullptr);
  EXPECT_EQ(members->size(), 5u);
  EXPECT_EQ(resolver.class_count(), 1u);
}

TEST_F(ValueResolverTest, ResolveNeverChasesChains) {
  // Eager relinking: after any sequence of unions every member points
  // directly at the final root, including members that joined early.
  ValueResolver resolver;
  std::vector<Value> nulls;
  for (int i = 0; i < 16; ++i) nulls.push_back(Null());
  for (int i = 1; i < 16; ++i) {
    ASSERT_TRUE(resolver.Union(nulls[i - 1], nulls[i]).merged);
  }
  Value root = resolver.Resolve(nulls[0]);
  const std::vector<Value>* members = resolver.ClassMembers(root);
  ASSERT_NE(members, nullptr);
  EXPECT_EQ(members->size(), 16u);
  Value late_constant = Const("c");
  ValueResolver::UnionResult result =
      resolver.Union(nulls[7], late_constant);
  EXPECT_TRUE(result.merged);
  EXPECT_EQ(result.winner, late_constant);
  EXPECT_EQ(result.reassigned.size(), 16u);
  for (Value v : nulls) EXPECT_EQ(resolver.Resolve(v), late_constant);
}

TEST_F(ValueResolverTest, CopiesAreIsolatedCopyOnWrite) {
  ValueResolver base;
  Value n1 = Null(), n2 = Null(), n3 = Null();
  Value a = Const("a"), b = Const("b");
  ASSERT_TRUE(base.Union(n1, n2).merged);

  // A copy starts identical, then diverges without affecting the base.
  ValueResolver left = base;
  ValueResolver right = base;
  EXPECT_EQ(left.Resolve(n1), base.Resolve(n1));
  ASSERT_TRUE(left.Union(n1, a).merged);
  ASSERT_TRUE(right.Union(n1, b).merged);
  ASSERT_TRUE(right.Union(n3, b).merged);

  EXPECT_EQ(left.Resolve(n2), a);
  EXPECT_EQ(right.Resolve(n2), b);
  EXPECT_EQ(right.Resolve(n3), b);
  EXPECT_TRUE(base.Resolve(n1).is_null());
  EXPECT_EQ(base.Resolve(n3), n3);
  EXPECT_EQ(base.version(), 1u);
  EXPECT_EQ(left.version(), 2u);
  EXPECT_EQ(right.version(), 3u);
}

TEST_F(ValueResolverTest, MutatingTheOriginalDoesNotLeakIntoCopies) {
  ValueResolver base;
  Value n1 = Null(), n2 = Null();
  ValueResolver copy = base;  // copy of the trivial resolver
  ASSERT_TRUE(base.Union(n1, n2).merged);
  EXPECT_TRUE(copy.trivial());
  EXPECT_EQ(copy.Resolve(n1), n1);

  ValueResolver copy2 = base;  // copy of a non-trivial resolver
  Value a = Const("a");
  ASSERT_TRUE(base.Union(n2, a).merged);
  EXPECT_EQ(base.Resolve(n1), a);
  EXPECT_TRUE(copy2.Resolve(n1).is_null());
  EXPECT_EQ(copy2.version(), 1u);
}

// The reference the differential test below compares against: a naive
// union-find over std::map with the same winner rule (constants win,
// then the larger class, then the first argument's root).
class NaiveUnionFind {
 public:
  struct Outcome {
    bool merged = false;
    bool conflict = false;
    Value winner;
    Value loser;
    std::set<Value> reassigned;
  };

  Value Resolve(Value v) const {
    auto it = root_.find(v);
    return it == root_.end() ? v : it->second;
  }

  // The class of `root` (size >= 2), or nullptr for a singleton.
  const std::set<Value>* Members(Value root) const {
    auto it = members_.find(root);
    return it == members_.end() ? nullptr : &it->second;
  }

  const std::map<Value, std::set<Value>>& classes() const { return members_; }
  uint64_t version() const { return version_; }

  Outcome Union(Value a, Value b) {
    Outcome out;
    Value ra = Resolve(a);
    Value rb = Resolve(b);
    if (ra == rb) return out;
    if (ra.is_constant() && rb.is_constant()) {
      out.conflict = true;
      out.winner = ra;
      out.loser = rb;
      return out;
    }
    auto size = [this](Value root) {
      const std::set<Value>* m = Members(root);
      return m == nullptr ? size_t{1} : m->size();
    };
    Value winner = ra;
    Value loser = rb;
    if (rb.is_constant() || (ra.is_null() && size(rb) > size(ra))) {
      std::swap(winner, loser);
    }
    const std::set<Value>* lost = Members(loser);
    out.reassigned = lost == nullptr ? std::set<Value>{loser} : *lost;
    members_.erase(loser);
    std::set<Value>& won = members_[winner];
    won.insert(winner);
    for (Value v : out.reassigned) {
      root_[v] = winner;
      won.insert(v);
    }
    ++version_;
    out.merged = true;
    out.winner = winner;
    out.loser = loser;
    return out;
  }

 private:
  std::map<Value, Value> root_;
  std::map<Value, std::set<Value>> members_;
  uint64_t version_ = 0;
};

// Random union sequences on a family of forked resolvers, each checked
// against its own naive model after every union: Resolve over the whole
// value pool, every class's members, the reassigned set and conflicts.
// Null ids span the whole 32-bit space SymbolTable mints from, so a resolver
// whose tables grew with the largest id (rather than with the number of
// merged nulls) would try a multi-gigabyte allocation here.
TEST(ValueResolverDifferentialTest, MatchesNaiveUnionFindAcrossForks) {
  for (uint32_t seed = 1; seed <= 20; ++seed) {
    std::mt19937 rng(seed);
    std::vector<Value> pool;
    for (uint32_t c = 0; c < 6; ++c) pool.push_back(Value::Constant(c));
    // SymbolTable hands out null ids below 2^32 - 1.
    std::uniform_int_distribution<uint32_t> any_id(0, UINT32_MAX - 1);
    for (int i = 0; i < 40; ++i) pool.push_back(Value::Null(any_id(rng)));
    pool.push_back(Value::Null(UINT32_MAX - 1));
    pool.push_back(Value::Null(UINT32_MAX - 2));
    pool.push_back(Value::Null(0));
    std::uniform_int_distribution<size_t> pick(0, pool.size() - 1);

    std::vector<ValueResolver> resolvers(1);
    std::vector<NaiveUnionFind> models(1);
    for (int step = 0; step < 200; ++step) {
      // Fork now and then; both the fork and its origin keep mutating,
      // so copies diverge in both directions.
      if (resolvers.size() < 8 && rng() % 16 == 0) {
        size_t from = rng() % resolvers.size();
        resolvers.push_back(resolvers[from]);
        models.push_back(models[from]);
      }
      size_t r = rng() % resolvers.size();
      ValueResolver& resolver = resolvers[r];
      NaiveUnionFind& model = models[r];
      Value a = pool[pick(rng)];
      Value b = pool[pick(rng)];
      ValueResolver::UnionResult got = resolver.Union(a, b);
      NaiveUnionFind::Outcome want = model.Union(a, b);
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step));
      ASSERT_EQ(got.merged, want.merged);
      ASSERT_EQ(got.conflict, want.conflict);
      if (want.merged || want.conflict) {
        EXPECT_EQ(got.winner, want.winner);
        EXPECT_EQ(got.loser, want.loser);
      }
      EXPECT_EQ(std::set<Value>(got.reassigned.begin(), got.reassigned.end()),
                want.merged ? want.reassigned : std::set<Value>());
      for (size_t j = 0; j < resolvers.size(); ++j) {
        EXPECT_EQ(resolvers[j].version(), models[j].version());
        EXPECT_EQ(resolvers[j].class_count(), models[j].classes().size());
        for (Value v : pool) {
          Value root = models[j].Resolve(v);
          ASSERT_EQ(resolvers[j].Resolve(v), root);
          if (models[j].Members(root) == nullptr) {
            EXPECT_EQ(resolvers[j].ClassMembers(root), nullptr);
          }
        }
        for (const auto& [root, members] : models[j].classes()) {
          const std::vector<Value>* got_members =
              resolvers[j].ClassMembers(root);
          ASSERT_NE(got_members, nullptr);
          EXPECT_EQ(got_members->size(), members.size());
          EXPECT_EQ(std::set<Value>(got_members->begin(), got_members->end()),
                    members);
        }
      }
    }
  }
}

}  // namespace
}  // namespace pdx
