// Property tests of the flat storage primitives (relational/flat_index.h)
// and of the RelationStore invariants built on them: random
// insert/erase/repoint schedules against a std::unordered_map reference,
// the swap-with-last deletion protocol at the Instance level, COW clone
// sharing (a snapshot's buckets must be bit-stable while the live
// instance mutates its cloned stores), and the lazy per-position index
// catch-up against an always-probed twin and a brute-force arena scan.

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/string_util.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "chase/chase.h"
#include "logic/parser.h"
#include "relational/flat_index.h"
#include "relational/instance.h"
#include "relational/instance_io.h"
#include "workload/random.h"

namespace pdx {
namespace {

std::vector<int32_t> Sorted(TupleIndexSpan span) {
  std::vector<int32_t> out(span.begin(), span.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<int32_t> Sorted(std::vector<int32_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// Random Add/Erase/Repoint schedules over a skewed key space (small key
// pool → buckets deep enough to spill inline storage into the overflow
// arena repeatedly). After every operation batch the index must agree
// bucket-for-bucket with an unordered_map reference, as multisets — Erase
// swaps within the bucket, so order is not part of the contract.
TEST(FlatIndexTest, RandomOpsMatchUnorderedMapReference) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng(seed);
    FlatIndex index;
    std::unordered_map<uint64_t, std::vector<int32_t>> ref;
    std::vector<std::pair<uint64_t, int32_t>> live;
    int32_t next = 0;
    const uint32_t key_pool = 3 + rng.UniformInt(60);
    for (int op = 0; op < 20000; ++op) {
      const uint32_t draw = rng.UniformInt(100);
      if (draw < 70 || live.empty()) {
        const uint64_t key = rng.UniformInt(key_pool);
        const int32_t idx = next++;
        index.Add(key, idx);
        ref[key].push_back(idx);
        live.emplace_back(key, idx);
      } else if (draw < 90) {
        const size_t pick = rng.UniformInt(static_cast<uint32_t>(live.size()));
        const auto [key, idx] = live[pick];
        live[pick] = live.back();
        live.pop_back();
        EXPECT_TRUE(index.Erase(key, idx));
        std::vector<int32_t>& bucket = ref[key];
        bucket.erase(std::find(bucket.begin(), bucket.end(), idx));
      } else {
        const size_t pick = rng.UniformInt(static_cast<uint32_t>(live.size()));
        const uint64_t key = live[pick].first;
        const int32_t from = live[pick].second;
        const int32_t to = next++;
        index.Repoint(key, from, to);
        live[pick].second = to;
        std::vector<int32_t>& bucket = ref[key];
        *std::find(bucket.begin(), bucket.end(), from) = to;
      }
      if (op % 512 == 0) {
        for (const auto& [key, bucket] : ref) {
          ASSERT_EQ(Sorted(index.Find(key)), Sorted(bucket))
              << "seed " << seed << " op " << op << " key " << key;
        }
      }
    }
    for (const auto& [key, bucket] : ref) {
      EXPECT_EQ(Sorted(index.Find(key)), Sorted(bucket)) << "seed " << seed;
    }
    // Keys never inserted (or fully drained) report empty, and erasing an
    // absent entry reports false without disturbing anything.
    EXPECT_TRUE(index.Find(~1ull).empty());
    EXPECT_FALSE(index.Erase(~1ull, 0));
    for (const auto& [key, bucket] : ref) {
      EXPECT_FALSE(index.Erase(key, next + 1)) << "seed " << seed;
      EXPECT_EQ(Sorted(index.Find(key)), Sorted(bucket)) << "seed " << seed;
    }
  }
}

struct FlatIndexInstanceTest : ::testing::Test {
  Schema schema;
  SymbolTable symbols;

  FlatIndexInstanceTest() { PDX_CHECK(schema.AddRelation("R", 2).ok()); }

  Value Const(uint32_t i) {
    return symbols.InternConstant("c" + std::to_string(i));
  }
};

// Random AddFact/RemoveFact schedules: RemoveFact's swap-with-last
// (arena compaction + index/dedup repoint) must keep every positional
// bucket pointing at exactly the right arena rows.
TEST_F(FlatIndexInstanceTest, RemoveFactSwapWithLastKeepsIndexConsistent) {
  for (uint64_t seed : {7u, 8u, 9u}) {
    Rng rng(seed);
    Instance instance(&schema);
    std::vector<Tuple> facts;  // reference multiset (all distinct)
    const uint32_t pool = 12;
    for (int op = 0; op < 4000; ++op) {
      if (rng.UniformInt(3) != 0 || facts.empty()) {
        Tuple t{Const(rng.UniformInt(pool)), Const(rng.UniformInt(pool))};
        if (instance.AddFact(0, Tuple(t))) facts.push_back(t);
      } else {
        const size_t pick =
            rng.UniformInt(static_cast<uint32_t>(facts.size()));
        Tuple victim = facts[pick];
        facts[pick] = facts.back();
        facts.pop_back();
        ASSERT_TRUE(instance.RemoveFact(0, victim)) << "seed " << seed;
        ASSERT_FALSE(instance.Contains(0, victim)) << "seed " << seed;
      }
      if (op % 256 == 0) {
        ASSERT_EQ(instance.fact_count(), facts.size()) << "seed " << seed;
        for (const Tuple& t : facts) {
          ASSERT_TRUE(instance.Contains(0, t)) << "seed " << seed;
        }
        // Every positional bucket maps through the arena to exactly the
        // reference facts holding that value at that position.
        for (int pos = 0; pos < 2; ++pos) {
          for (uint32_t c = 0; c < pool; ++c) {
            const Value v = Const(c);
            size_t expected = 0;
            for (const Tuple& t : facts) expected += t[pos] == v ? 1 : 0;
            const TupleIndexSpan bucket =
                instance.TuplesWithValueAt(0, pos, v);
            ASSERT_EQ(bucket.size(), expected)
                << "seed " << seed << " pos " << pos << " c " << c;
            const TupleList tuples = instance.tuples(0);
            for (int32_t idx : bucket) {
              ASSERT_EQ(tuples[idx][pos], v) << "seed " << seed;
            }
          }
        }
      }
    }
  }
}

// COW clone sharing: a copied instance shares stores until one side
// mutates; afterwards the snapshot's contents, buckets and fingerprint
// must be exactly what they were at copy time.
TEST_F(FlatIndexInstanceTest, CowCloneKeepsSnapshotBucketsStable) {
  Instance live(&schema);
  for (uint32_t i = 0; i < 32; ++i) {
    live.AddFact(0, {Const(i % 5), Const(i)});
  }
  Instance snapshot = live;  // shared stores, no copy yet
  const uint64_t snapshot_fp = snapshot.CanonicalFingerprint();
  const size_t snapshot_bucket = snapshot.TuplesWithValueAt(0, 0, Const(0)).size();

  // Mutations on the live side force a clone-on-unshare; the snapshot
  // keeps the original store.
  for (uint32_t i = 32; i < 256; ++i) {
    live.AddFact(0, {Const(0), Const(i)});
  }
  ASSERT_TRUE(live.RemoveFact(0, {Const(0), Const(0)}));
  EXPECT_EQ(snapshot.CanonicalFingerprint(), snapshot_fp);
  EXPECT_EQ(snapshot.TuplesWithValueAt(0, 0, Const(0)).size(),
            snapshot_bucket);
  EXPECT_TRUE(snapshot.Contains(0, {Const(0), Const(0)}));
  EXPECT_FALSE(live.Contains(0, {Const(0), Const(0)}));
  EXPECT_GT(live.TuplesWithValueAt(0, 0, Const(0)).size(), snapshot_bucket);

  // And the other direction: mutating the snapshot must not leak into the
  // (already cloned) live side.
  Instance branch = live;
  branch.AddFact(0, {Const(4), Const(999)});
  EXPECT_FALSE(live.Contains(0, {Const(4), Const(999)}));
  EXPECT_TRUE(branch.Contains(0, {Const(4), Const(999)}));
}

// Merged-value lookups route through the resolved-class bucket cache;
// the cached concatenation must match a fresh per-member scan, stay
// correct across further merges (version bump), and across store
// mutation (invalidation).
TEST_F(FlatIndexInstanceTest, ResolvedClassBucketsTrackMergesAndMutation) {
  Instance instance(&schema);
  Value n1 = symbols.FreshNull();
  Value n2 = symbols.FreshNull();
  instance.AddFact(0, {n1, Const(1)});
  instance.AddFact(0, {n2, Const(2)});
  instance.AddFact(0, {Const(7), Const(3)});

  Instance::MergeResult merge = instance.MergeValues(n1, n2);
  ASSERT_TRUE(merge.merged);
  const Value root = instance.ResolveValue(n1);
  // Both null-headed rows are in the class bucket; repeated calls hit the
  // cache and must agree.
  EXPECT_EQ(instance.TuplesWithResolvedValueAt(0, 0, root).size(), 2u);
  EXPECT_EQ(instance.TuplesWithResolvedValueAt(0, 0, root).size(), 2u);
  EXPECT_EQ(instance.CountTuplesWithResolvedValueAt(0, 0, root), 2u);

  // A further merge bumps the resolver version: the cache entry must
  // rebuild, not serve the stale two-member bucket.
  Instance::MergeResult merge2 = instance.MergeValues(n1, Const(7));
  ASSERT_TRUE(merge2.merged);
  const Value root2 = instance.ResolveValue(n2);
  EXPECT_EQ(instance.TuplesWithResolvedValueAt(0, 0, root2).size(), 3u);

  // Store mutation invalidates the cache: a new row with the root value
  // must appear in the bucket.
  instance.AddFact(0, {root2, Const(4)});
  EXPECT_EQ(instance.TuplesWithResolvedValueAt(0, 0, root2).size(), 4u);
}

// Lazy indexes: a position's index is built by its first reader, not by
// AddFact. The differential harness runs random interleavings of
// AddFact, RemoveFact, MergeValues and instance copies on two
// instances fed the same operations: `lazy` is probed only at random
// times at random positions, while `twin` has every position of every
// relation probed after every operation, so its indexes never lag (the
// shape an index maintained on every append would have). Every probe of
// `lazy` must return the twin's bucket entry for entry, in order, and
// the brute-force scan of the arena: the same set of tuple indexes, and
// the same order (tuple order) while no RemoveFact swap has touched the
// relation.
struct LazyIndexTest : ::testing::Test {
  Schema schema;
  SymbolTable symbols;
  std::vector<Value> pool;  // constants and nulls the ops draw from

  LazyIndexTest() {
    PDX_CHECK(schema.AddRelation("R", 2).ok());
    PDX_CHECK(schema.AddRelation("S", 3).ok());
    for (int i = 0; i < 6; ++i) {
      pool.push_back(symbols.InternConstant(StrCat("c", i)));
    }
    for (int i = 0; i < 6; ++i) pool.push_back(symbols.FreshNull());
  }

  // Forces every index of `instance` to catch up.
  void ProbeAll(const Instance& instance) {
    for (RelationId r = 0; r < schema.relation_count(); ++r) {
      for (int pos = 0; pos < schema.arity(r); ++pos) {
        instance.TuplesWithValueAt(r, pos, pool[0]);
      }
    }
  }

  // The raw bucket of (r, pos, v) by a scan of the arena, in tuple order.
  static std::vector<int32_t> Scan(const Instance& instance, RelationId r,
                                   int pos, Value v, bool resolved) {
    std::vector<int32_t> out;
    const TupleList tuples = instance.tuples(r);
    const Value want = resolved ? instance.ResolveValue(v) : v;
    for (size_t i = 0; i < tuples.size(); ++i) {
      Value got = tuples[i][pos];
      if (resolved) got = instance.ResolveValue(got);
      if (got == want) out.push_back(static_cast<int32_t>(i));
    }
    return out;
  }
};

struct LazyState {
  Instance lazy;
  Instance twin;
  std::vector<bool> swapped;  // per relation: a RemoveFact swap happened
};

TEST_F(LazyIndexTest, RandomInterleavingsMatchTwinAndArenaScan) {
  for (uint64_t seed : {11u, 12u, 13u, 14u}) {
    Rng rng(seed);
    std::vector<LazyState> states;
    states.push_back({Instance(&schema), Instance(&schema),
                      std::vector<bool>(schema.relation_count(), false)});
    size_t cur = 0;
    auto pick_value = [&] {
      return pool[rng.UniformInt(static_cast<uint32_t>(pool.size()))];
    };
    auto random_tuple = [&](RelationId r) {
      Tuple t;
      for (int pos = 0; pos < schema.arity(r); ++pos) {
        t.push_back(pick_value());
      }
      return t;
    };
    for (int op = 0; op < 1500; ++op) {
      LazyState& st = states[cur];
      const RelationId r =
          static_cast<RelationId>(rng.UniformInt(schema.relation_count()));
      const uint32_t kind = rng.UniformInt(100);
      SCOPED_TRACE(testing::Message() << "seed " << seed << " op " << op
                                      << " kind " << kind);
      if (kind < 45) {
        const Tuple t = random_tuple(r);
        ASSERT_EQ(st.lazy.AddFact(r, Tuple(t)), st.twin.AddFact(r, Tuple(t)));
      } else if (kind < 60) {
        // Remove a stored tuple (raw values) or, rarely, a random one.
        Tuple t = random_tuple(r);
        const TupleList tuples = st.lazy.tuples(r);
        if (!tuples.empty() && rng.UniformInt(4) != 0) {
          const TupleView row = tuples[rng.UniformInt(
              static_cast<uint32_t>(tuples.size()))];
          t.assign(row.begin(), row.end());
        }
        const bool removed = st.lazy.RemoveFact(r, t);
        ASSERT_EQ(removed, st.twin.RemoveFact(r, t));
        if (removed) st.swapped[r] = true;
      } else if (kind < 72) {
        // Merge a null into another value (constant conflicts are no-ops).
        const Value a = pool[6 + rng.UniformInt(6)];
        const Value b = pick_value();
        const Instance::MergeResult ml = st.lazy.MergeValues(a, b);
        const Instance::MergeResult mt = st.twin.MergeValues(a, b);
        ASSERT_EQ(ml.merged, mt.merged);
        ASSERT_EQ(ml.dirty, mt.dirty);
      } else if (kind < 78) {
        // Copy; carry on with either side. The other stays live and is
        // probed (and later mutated) when `cur` comes back to it.
        states.push_back(states[cur]);
        if (rng.UniformInt(2) == 0) cur = states.size() - 1;
      } else if (kind < 82) {
        cur = rng.UniformInt(static_cast<uint32_t>(states.size()));
      } else {
        // Probe a random position, raw or class-aware.
        const int pos = static_cast<int>(
            rng.UniformInt(static_cast<uint32_t>(schema.arity(r))));
        Value v = pick_value();
        const TupleList tuples = st.lazy.tuples(r);
        if (!tuples.empty() && rng.UniformInt(2) == 0) {
          v = tuples[rng.UniformInt(static_cast<uint32_t>(tuples.size()))]
                    [pos];
        }
        const bool resolved = rng.UniformInt(3) == 0;
        const TupleIndexSpan got =
            resolved ? st.lazy.TuplesWithResolvedValueAt(r, pos, v)
                     : st.lazy.TuplesWithValueAt(r, pos, v);
        const TupleIndexSpan want =
            resolved ? st.twin.TuplesWithResolvedValueAt(r, pos, v)
                     : st.twin.TuplesWithValueAt(r, pos, v);
        const std::vector<int32_t> got_v(got.begin(), got.end());
        ASSERT_EQ(got_v, std::vector<int32_t>(want.begin(), want.end()));
        const std::vector<int32_t> scan = Scan(st.lazy, r, pos, v, resolved);
        if (st.swapped[r] || resolved) {
          // Swaps reorder raw buckets; a class bucket concatenates its
          // members' buckets.
          ASSERT_EQ(Sorted(got_v), scan);
        } else {
          ASSERT_EQ(got_v, scan);
        }
        if (resolved) {
          ASSERT_EQ(st.lazy.CountTuplesWithResolvedValueAt(r, pos, v),
                    scan.size());
        }
      }
      ProbeAll(states[cur].twin);
    }
  }
}

TEST_F(LazyIndexTest, PositionFirstProbedAfterRemoveFactSwap) {
  // Position 1 is never probed before a RemoveFact swaps the last tuple
  // into a hole; its first probe must see the bucket an index kept up to
  // date on every append would hold (the twin's), not a fresh tuple-order
  // rebuild.
  Instance lazy(&schema);
  Instance twin(&schema);
  const Value a = pool[0];
  const Value b = pool[1];
  const Value c = pool[2];
  for (const Tuple& t :
       {Tuple{a, b}, Tuple{b, b}, Tuple{c, b}, Tuple{a, c}}) {
    lazy.AddFact(0, Tuple(t));
    twin.AddFact(0, Tuple(t));
    ProbeAll(twin);
  }
  ASSERT_EQ(lazy.TuplesWithValueAt(0, 0, a).size(), 2u);  // position 0 only
  ASSERT_TRUE(lazy.RemoveFact(0, {a, b}));  // tuple 0; {a,c} moves to 0
  ASSERT_TRUE(twin.RemoveFact(0, {a, b}));
  ProbeAll(twin);
  for (const Value v : {a, b, c}) {
    for (int pos = 0; pos < 2; ++pos) {
      const TupleIndexSpan got = lazy.TuplesWithValueAt(0, pos, v);
      const TupleIndexSpan want = twin.TuplesWithValueAt(0, pos, v);
      EXPECT_EQ(std::vector<int32_t>(got.begin(), got.end()),
                std::vector<int32_t>(want.begin(), want.end()))
          << "pos " << pos;
      EXPECT_EQ(Sorted(got), Scan(lazy, 0, pos, v, /*resolved=*/false));
    }
  }
  // The erase swapped the bucket's last entry into the victim's place:
  // position 1's bucket for b is [2, 1], not tuple order.
  const TupleIndexSpan b_at_1 = lazy.TuplesWithValueAt(0, 1, b);
  EXPECT_EQ(std::vector<int32_t>(b_at_1.begin(), b_at_1.end()),
            (std::vector<int32_t>{2, 1}));
}

TEST_F(LazyIndexTest, AppendsBuildNoIndexUntilProbed) {
  // Only probed (or cloned) positions are indexed:
  // pdx_index_entries_built_total (bumped by every catch-up) moves by one
  // entry per tuple per position caught up, and by nothing for appends
  // alone.
  obs::Counter built = obs::MetricsRegistry::Global().GetCounter(
      "pdx_index_entries_built_total");
  Instance instance(&schema);
  const int64_t start = built.Value();
  for (uint32_t i = 0; i < 100; ++i) {
    instance.AddFact(1, {pool[i % 6], pool[(i / 6) % 6], pool[i % 5]});
  }
  EXPECT_EQ(built.Value(), start);
  EXPECT_EQ(instance.TuplesWithValueAt(1, 0, pool[0]).size(), 17u);
  EXPECT_EQ(built.Value(), start + 100);
  // A second probe of a caught-up position builds nothing.
  instance.TuplesWithValueAt(1, 0, pool[1]);
  EXPECT_EQ(built.Value(), start + 100);
  // Appending to a copy clones the shared store, which first catches the
  // source up at every position (once, for all later clones): positions
  // 1 and 2 add 100 entries each. The clone's next probe adds only the
  // appended tuple.
  Instance copy = instance;
  ASSERT_TRUE(copy.AddFact(1, {pool[0], pool[6], pool[6]}));
  EXPECT_EQ(built.Value(), start + 300);
  EXPECT_EQ(copy.TuplesWithValueAt(1, 0, pool[0]).size(), 18u);
  EXPECT_EQ(built.Value(), start + 301);
  EXPECT_EQ(instance.TuplesWithValueAt(1, 2, pool[0]).size(), 20u);
  EXPECT_EQ(built.Value(), start + 301);
}

TEST_F(LazyIndexTest, ConcurrentFirstProbesRaceACloneAndAppend) {
  // Readers on several threads race to catch up the same never-probed
  // position of a shared store while another thread copies the instance
  // and appends to the copy (pdxd's writer clones a generation its
  // readers are probing). The clone holds the store's index lock while it
  // copies, so every side sees complete buckets. Run under TSan via the
  // `parallel` label.
  constexpr int kReaders = 3;
  for (int round = 0; round < 12; ++round) {
    Instance shared(&schema);
    for (uint32_t i = 0; i < 600; ++i) {
      shared.AddFact(1, {pool[i % 12], pool[(i / 12) % 12], pool[i % 7]});
    }
    const int pos = round % 3;
    std::vector<std::vector<int32_t>> want;
    for (const Value v : pool) {
      want.push_back(Scan(shared, 1, pos, v, /*resolved=*/false));
    }
    // Absent: the tuples above hold only pool[0..6] at position 2.
    const Tuple extra{pool[0], pool[1], pool[7 + round % 5]};
    ASSERT_FALSE(shared.Contains(1, extra));
    std::atomic<int> ready{0};
    std::atomic<int> mismatches{0};
    auto wait_all = [&] {
      ready.fetch_add(1);
      while (ready.load() < kReaders + 1) std::this_thread::yield();
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < kReaders; ++t) {
      threads.emplace_back([&, t] {
        wait_all();
        for (size_t k = 0; k < pool.size(); ++k) {
          const size_t i = (k + static_cast<size_t>(t)) % pool.size();
          const TupleIndexSpan got = shared.TuplesWithValueAt(1, pos, pool[i]);
          if (std::vector<int32_t>(got.begin(), got.end()) != want[i]) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
    size_t copy_bucket = 0;
    threads.emplace_back([&] {
      wait_all();
      Instance copy = shared;
      copy.AddFact(1, extra);
      copy_bucket = copy.TuplesWithValueAt(1, pos, extra[pos]).size();
    });
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(mismatches.load(), 0) << "round " << round;
    const size_t extra_index = std::find(pool.begin(), pool.end(),
                                         extra[pos]) - pool.begin();
    EXPECT_EQ(copy_bucket, want[extra_index].size() + 1) << "round " << round;
    EXPECT_FALSE(shared.Contains(1, extra));
  }
}


// Bulk load: ParseInstance appends every fact to the arenas and
// deduplicates each relation once at the end. The result must be the
// instance one AddFact per fact (in text order) builds: the same tuples
// in the same order, the same fact count, a dedup set that rejects every
// stored fact again, and, once probed, the same index buckets.
void ExpectSameAsTwin(const Instance& loaded, const Instance& twin,
                      const std::vector<Value>& probes) {
  const Schema& schema = loaded.schema();
  ASSERT_EQ(loaded.fact_count(), twin.fact_count());
  for (RelationId r = 0; r < schema.relation_count(); ++r) {
    const TupleList got = loaded.tuples(r);
    const TupleList want = twin.tuples(r);
    ASSERT_EQ(got.size(), want.size()) << "relation " << r;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(got[i] == want[i]) << "relation " << r << " tuple " << i;
    }
    for (int pos = 0; pos < schema.arity(r); ++pos) {
      for (const Value v : probes) {
        const TupleIndexSpan g = loaded.TuplesWithValueAt(r, pos, v);
        const TupleIndexSpan w = twin.TuplesWithValueAt(r, pos, v);
        ASSERT_EQ(std::vector<int32_t>(g.begin(), g.end()),
                  std::vector<int32_t>(w.begin(), w.end()))
            << "relation " << r << " position " << pos;
      }
    }
  }
}

TEST_F(LazyIndexTest, BulkParseEqualsPerFactAddFact) {
  for (uint64_t seed : {21u, 22u, 23u, 24u, 25u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng(seed);
    // Facts over both relations, interleaved, from a small pool of
    // constants c0..c5 and labels _n0.._n5: duplicates are common.
    std::string text;
    std::vector<std::pair<RelationId, std::vector<int>>> facts;
    for (int f = 0; f < 400; ++f) {
      const RelationId r = static_cast<RelationId>(rng.UniformInt(2));
      std::vector<int> picks;
      std::string args;
      for (int pos = 0; pos < schema.arity(r); ++pos) {
        const int pick = static_cast<int>(rng.UniformInt(12));
        picks.push_back(pick);
        if (pos > 0) args += ",";
        args += pick < 6 ? StrCat("c", pick) : StrCat("_n", pick - 6);
      }
      text += StrCat(schema.relation_name(r), "(", args, ").\n");
      facts.emplace_back(r, std::move(picks));
    }
    const uint32_t first_null = symbols.null_count();
    StatusOr<Instance> loaded = ParseInstance(text, schema, &symbols);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    // The twin: the same facts through AddFact. The parse minted one null
    // per label, in order of first occurrence in the text.
    Instance twin(&schema);
    std::vector<Value> label_null(6);
    std::vector<bool> seen(6, false);
    uint32_t next_null = first_null;
    std::vector<Value> probes(pool.begin(), pool.begin() + 6);
    for (const auto& [r, picks] : facts) {
      Tuple t;
      for (int pick : picks) {
        if (pick < 6) {
          t.push_back(pool[pick]);
          continue;
        }
        if (!seen[pick - 6]) {
          seen[pick - 6] = true;
          label_null[pick - 6] = Value::Null(next_null++);
          probes.push_back(label_null[pick - 6]);
        }
        t.push_back(label_null[pick - 6]);
      }
      twin.AddFact(r, std::move(t));
    }
    ASSERT_EQ(symbols.null_count(), next_null);
    ASSERT_LT(twin.fact_count(), facts.size());  // some were duplicates
    ExpectSameAsTwin(*loaded, twin, probes);
    // The dedup set holds every stored fact: re-adding one is a no-op.
    for (RelationId r = 0; r < schema.relation_count(); ++r) {
      const TupleList stored = twin.tuples(r);
      for (size_t i = 0; i < stored.size(); ++i) {
        ASSERT_FALSE(loaded->AddFact(r, stored[i].ToTuple()));
        ASSERT_TRUE(loaded->Contains(r, stored[i].ToTuple()));
      }
    }
    ASSERT_EQ(loaded->fact_count(), twin.fact_count());
  }
}

TEST_F(LazyIndexTest, BulkLoadOntoProbedSharedStore) {
  // A bulk load into an instance that already holds tuples, whose indexes
  // were caught up, and whose stores are shared with a copy: repeats of
  // old tuples are dropped, the copy keeps its stores, and the indexes
  // resume from where they stopped.
  Rng rng(31);
  auto random_tuple = [&](RelationId r) {
    Tuple t;
    for (int pos = 0; pos < schema.arity(r); ++pos) {
      t.push_back(pool[rng.UniformInt(static_cast<uint32_t>(pool.size()))]);
    }
    return t;
  };
  Instance loaded(&schema);
  Instance twin(&schema);
  for (int i = 0; i < 60; ++i) {
    const RelationId r = static_cast<RelationId>(rng.UniformInt(2));
    const Tuple t = random_tuple(r);
    loaded.AddFact(r, t);
    twin.AddFact(r, t);
  }
  ProbeAll(loaded);
  const Instance before = loaded;
  const std::string before_text = before.ToString(symbols);
  const size_t before_count = before.fact_count();
  Instance::BulkLoader loader(&loaded);
  for (int i = 0; i < 300; ++i) {
    const RelationId r = static_cast<RelationId>(rng.UniformInt(2));
    const Tuple t = random_tuple(r);
    std::copy(t.begin(), t.end(), loader.Append(r));
    twin.AddFact(r, t);
  }
  loader.Finish();
  ExpectSameAsTwin(loaded, twin, pool);
  EXPECT_EQ(before.ToString(symbols), before_text);
  EXPECT_EQ(before.fact_count(), before_count);
  EXPECT_GT(loaded.fact_count(), before_count);
}

TEST(BulkChaseGrowthTest, ChaseAddingOneFactPerRoundGrowsGeometrically) {
  // P(x) & E(x,y) -> P(y) over a 300-edge path from P(v0), chased one
  // step per call on the moved-in instance: every call is a chase round
  // that collects one trigger and adds one P fact. Grown to the exact
  // size each round, P's arena would move on every call.
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("E", 2).ok());
  ASSERT_TRUE(schema.AddRelation("P", 1).ok());
  SymbolTable symbols;
  std::string text = "P(v0).\n";
  for (int i = 0; i < 300; ++i) text += StrCat("E(v", i, ",v", i + 1, ").\n");
  StatusOr<Instance> start = ParseInstance(text, schema, &symbols);
  ASSERT_TRUE(start.ok()) << start.status().ToString();
  StatusOr<DependencySet> deps =
      ParseDependencies("P(x) & E(x,y) -> P(y).", schema, &symbols);
  ASSERT_TRUE(deps.ok()) << deps.status().ToString();
  ChaseOptions options;
  options.num_threads = 1;
  options.max_steps = 1;
  Instance instance = std::move(start).value();
  const Value* arena = instance.tuples(1).data();
  int moves = 0;
  for (int call = 0; call < 300; ++call) {
    ChaseResult result =
        Chase(std::move(instance), deps->tgds, {}, &symbols, options);
    ASSERT_EQ(result.steps, 1);
    instance = std::move(result.instance);
    ASSERT_EQ(instance.tuples(1).size(), static_cast<size_t>(call) + 2);
    if (instance.tuples(1).data() != arena) {
      arena = instance.tuples(1).data();
      ++moves;
    }
  }
  EXPECT_LE(moves, 12);
}

}  // namespace
}  // namespace pdx
