// Instance's whole-instance reads and merges against their definitional
// references (tests/reference_instance.h): CanonicalFingerprint and
// ActiveDomain bit for bit and in order, on merged instances with
// resolved duplicates, symmetric nulls, every arity up to 5, the empty
// instance, copy-on-write clones and snapshots, and the states a
// Section 4(a) search visits; and MergeValues' dirty tuples against a
// scan of every position, with the positions that never held a null
// skipped.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <random>
#include <vector>

#include "base/string_util.h"
#include "chase/chase.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "pde/generic_solver.h"
#include "plan/compiler.h"
#include "relational/snapshot.h"
#include "tests/reference_instance.h"
#include "tests/test_util.h"
#include "workload/graph_gen.h"
#include "workload/reductions.h"

namespace pdx {
namespace {

using testing_util::Unwrap;

void ExpectReadsMatchReference(const Instance& instance) {
  EXPECT_EQ(instance.CanonicalFingerprint(),
            reference::CanonicalFingerprint(instance));
  EXPECT_EQ(instance.ActiveDomain(), reference::ActiveDomain(instance));
}

// Relations R1..R5 of arity 1..5 (ids 0..4), four constants and a pool
// of nulls.
class ResolvedViewTest : public ::testing::Test {
 protected:
  ResolvedViewTest() {
    for (int arity = 1; arity <= 5; ++arity) {
      EXPECT_TRUE(
          schema_.AddRelation(StrCat("R", arity), arity).ok());
    }
    for (int i = 0; i < 4; ++i) {
      consts_.push_back(symbols_.InternConstant(StrCat("c", i)));
    }
  }

  std::vector<Value> FreshNulls(int n) {
    std::vector<Value> nulls;
    for (int i = 0; i < n; ++i) nulls.push_back(symbols_.FreshNull());
    return nulls;
  }

  // A random tuple for relation `r`: each value a constant or one of
  // `nulls`, about half each.
  Tuple RandomTuple(RelationId r, const std::vector<Value>& nulls,
                    std::mt19937* rng) {
    Tuple tuple;
    for (int p = 0; p < schema_.arity(r); ++p) {
      if ((*rng)() % 2 == 0) {
        tuple.push_back(consts_[(*rng)() % consts_.size()]);
      } else {
        tuple.push_back(nulls[(*rng)() % nulls.size()]);
      }
    }
    return tuple;
  }

  Schema schema_;
  SymbolTable symbols_;
  std::vector<Value> consts_;
};

// Random facts interleaved with random merges (null/null, null/constant
// and the refused constant/constant): after every step the fingerprint
// and the domain equal the references. Merges collapse raw tuples onto
// one resolved fact, so the references' deduplication is exercised.
TEST_F(ResolvedViewTest, RandomMergedInstancesMatchTheReference) {
  int with_duplicates = 0;
  for (uint32_t seed = 0; seed < 40; ++seed) {
    std::mt19937 rng(seed);
    const std::vector<Value> nulls = FreshNulls(6);
    Instance instance(&schema_);
    for (int step = 0; step < 60; ++step) {
      if (rng() % 4 == 0) {
        const std::vector<Value>& pool = rng() % 3 == 0 ? consts_ : nulls;
        instance.MergeValues(nulls[rng() % nulls.size()],
                             pool[rng() % pool.size()]);
      } else {
        const RelationId r =
            static_cast<RelationId>(rng() % schema_.relation_count());
        instance.AddFact(r, RandomTuple(r, nulls, &rng));
      }
      ExpectReadsMatchReference(instance);
    }
    if (instance.ResolvedFactCount() < instance.fact_count()) {
      ++with_duplicates;
    }
  }
  EXPECT_GT(with_duplicates, 0);
}

// Rows that differ only in null ids tie on kind and constants and are
// ordered by the ids themselves: both namings of a symmetric pair, and a
// merge that folds one of them onto the other, match the reference.
TEST_F(ResolvedViewTest, SymmetricNullsMatchTheReference) {
  const std::vector<Value> n = FreshNulls(4);
  const RelationId r2 = 1;
  Instance forward(&schema_);
  forward.AddFact(r2, {n[0], n[1]});
  forward.AddFact(r2, {n[1], n[0]});
  forward.AddFact(r2, {consts_[0], n[0]});
  Instance backward(&schema_);
  backward.AddFact(r2, {n[3], n[2]});
  backward.AddFact(r2, {n[2], n[3]});
  backward.AddFact(r2, {consts_[0], n[2]});
  ExpectReadsMatchReference(forward);
  ExpectReadsMatchReference(backward);
  ASSERT_TRUE(forward.MergeValues(n[0], n[1]).merged);
  EXPECT_EQ(forward.ResolvedFactCount(), 2u);
  ExpectReadsMatchReference(forward);
}

TEST_F(ResolvedViewTest, EmptyInstanceAndEveryArityMatchTheReference) {
  Instance instance(&schema_);
  ExpectReadsMatchReference(instance);
  EXPECT_TRUE(instance.ActiveDomain().empty());
  const std::vector<Value> n = FreshNulls(2);
  for (RelationId r = 0; r < schema_.relation_count(); ++r) {
    Tuple tuple;
    for (int p = 0; p < schema_.arity(r); ++p) {
      tuple.push_back(p % 2 == 0 ? consts_[p % 4] : n[p % 2]);
    }
    instance.AddFact(r, tuple);
    ExpectReadsMatchReference(instance);
  }
  ASSERT_TRUE(instance.MergeValues(n[1], consts_[3]).merged);
  ExpectReadsMatchReference(instance);
}

// Copy-on-write clones and snapshot branches share stores and resolver
// state until one side writes: every side matches the reference after
// the other mutates, and the frozen side's fingerprint does not move.
TEST_F(ResolvedViewTest, ClonesAndSnapshotsMatchTheReference) {
  std::mt19937 rng(7);
  const std::vector<Value> nulls = FreshNulls(5);
  Instance base(&schema_);
  for (int i = 0; i < 30; ++i) {
    const RelationId r = 1 + static_cast<RelationId>(i % 4);
    base.AddFact(r, RandomTuple(r, nulls, &rng));
  }
  base.MergeValues(nulls[0], nulls[1]);
  const InstanceSnapshot snapshot(base);
  const uint64_t frozen = snapshot.get().CanonicalFingerprint();
  for (int b = 0; b < 8; ++b) {
    Instance branch = snapshot.Branch();
    Instance clone = branch;
    for (int step = 0; step < 6; ++step) {
      const RelationId r = 1 + static_cast<RelationId>(rng() % 4);
      branch.AddFact(r, RandomTuple(r, nulls, &rng));
      branch.MergeValues(nulls[rng() % nulls.size()],
                         nulls[rng() % nulls.size()]);
      ExpectReadsMatchReference(branch);
      ExpectReadsMatchReference(clone);
    }
    ExpectReadsMatchReference(snapshot.get());
    EXPECT_EQ(snapshot.get().CanonicalFingerprint(), frozen);
  }
  ExpectReadsMatchReference(base);
}

// The states a generic solve visits on the Section 4(a) reduction: from
// the combined instance, the first D(x,y) without a P(x,_,y,_) fact is
// branched on P(x,z,y,w) for z and w among a few domain values and one
// fresh null, each branch off a snapshot and run to its egd fixpoint by
// the production fixpoint, three levels deep. Every surviving state's
// memo key and branch domain equal the references.
TEST(ResolvedViewSearchTest, SectionFourASearchStatesMatchTheReference) {
  SymbolTable symbols;
  PdeSetting setting = Unwrap(MakeEgdBoundarySetting(&symbols));
  Instance source =
      MakeEgdBoundarySourceInstance(setting, PathGraph(3), 3, &symbols);
  const RelationId d = setting.schema().FindRelation("D").value();
  const RelationId p = setting.schema().FindRelation("P").value();
  std::vector<plan::EgdPlan> plans;
  for (const Egd& egd : setting.target_egds()) {
    plans.push_back(plan::CompileEgd(egd));
  }
  int states = 0;
  int merged_states = 0;
  std::function<void(Instance, const InstanceWatermark&, int)> visit =
      [&](Instance k, const InstanceWatermark& since, int depth) {
        std::vector<std::vector<int>> extras;
        const EgdFixpointOutcome out = RunEgdsToFixpointDelta(
            setting.target_egds(), plans, &k, since,
            std::numeric_limits<int64_t>::max(), &symbols, &extras);
        if (out.failed) return;
        ++states;
        if (k.has_merges()) ++merged_states;
        ExpectReadsMatchReference(k);
        if (depth == 3) return;
        const TupleList ds = k.tuples(d);
        for (size_t i = 0; i < ds.size(); ++i) {
          const Value x = k.ResolveValue(ds[i][0]);
          const Value y = k.ResolveValue(ds[i][1]);
          bool holds = false;
          for (int32_t idx : k.TuplesWithResolvedValueAt(p, 0, x)) {
            holds |= k.ResolveValue(k.tuples(p)[idx][2]) == y;
          }
          if (holds) continue;
          const std::vector<Value> domain = k.ActiveDomain();
          std::vector<Value> choices(domain.begin(),
                                     domain.begin() + std::min<size_t>(
                                                          2, domain.size()));
          if (domain.size() > 2) choices.push_back(domain.back());
          choices.push_back(symbols.FreshNull());
          const InstanceSnapshot snapshot(k);
          for (Value z : choices) {
            for (Value w : choices) {
              Instance child = snapshot.Branch();
              child.AddFact(p, {x, z, y, w});
              visit(std::move(child), snapshot.watermark(), depth + 1);
            }
          }
          return;
        }
      };
  Instance start = setting.CombineInstances(source, setting.EmptyInstance());
  visit(start, InstanceWatermark::Origin(start), 0);
  EXPECT_GT(states, 100);
  EXPECT_GT(merged_states, 0);

  // And the solver's own fixpoint states: every solution an enumerating
  // solve of the K3 instance records (each deduplicated by this key).
  Instance clique =
      MakeEgdBoundarySourceInstance(setting, CompleteGraph(3), 3, &symbols);
  GenericSolverOptions options;
  options.enumerate_all = true;
  const GenericSolveResult solved = Unwrap(GenericExistsSolution(
      setting, clique, setting.EmptyInstance(), &symbols, options));
  ASSERT_EQ(solved.outcome, SolveOutcome::kSolutionFound);
  ASSERT_FALSE(solved.solutions.empty());
  for (const Instance& solution : solved.solutions) {
    ExpectReadsMatchReference(solution);
  }
}

// MergeValues reports exactly the tuples whose resolved content changed,
// though it probes only the positions that ever held a null: randomized
// merges over appended, bulk-loaded, removed-from and cloned stores
// against a scan of every tuple at every position.
TEST_F(ResolvedViewTest, MergeDirtyEqualsTheAllPositionsScan) {
  for (uint32_t seed = 0; seed < 30; ++seed) {
    std::mt19937 rng(seed);
    const std::vector<Value> nulls = FreshNulls(6);
    Instance instance(&schema_);
    {
      // R3 holds nulls only at position 1 (later appends to it are
      // null-free): positions 0 and 2 never hold a null, and no merge
      // probes them.
      Instance::BulkLoader loader(&instance);
      for (int i = 0; i < 20; ++i) {
        Value* row = loader.Append(2);
        row[0] = consts_[rng() % consts_.size()];
        row[1] = nulls[rng() % nulls.size()];
        row[2] = consts_[rng() % consts_.size()];
      }
      loader.Finish();
    }
    for (int step = 0; step < 40; ++step) {
      const int op = static_cast<int>(rng() % 7);
      if (op == 0) {
        instance.MergeValues(nulls[rng() % nulls.size()],
                             nulls[rng() % nulls.size()]);
        continue;
      }
      if (op == 1 && instance.fact_count() > 0) {
        const RelationId r = static_cast<RelationId>(rng() % 5);
        const TupleList tuples = instance.tuples(r);
        if (!tuples.empty()) {
          instance.RemoveFact(r, tuples[rng() % tuples.size()].ToTuple());
        }
        continue;
      }
      if (op == 2) {
        const RelationId appendable[] = {0, 1, 3, 4};
        const RelationId r = appendable[rng() % 4];
        instance.AddFact(r, RandomTuple(r, nulls, &rng));
        continue;
      }
      if (op == 3) {
        // A null-free append to a copy clones the shared store: the
        // clone must keep the source's null positions.
        Instance copy = instance;
        const RelationId r = static_cast<RelationId>(rng() % 5);
        Tuple constants;
        for (int p = 0; p < schema_.arity(r); ++p) {
          constants.push_back(consts_[rng() % consts_.size()]);
        }
        copy.AddFact(r, constants);
        instance = std::move(copy);
        continue;
      }
      // A merge on a copy-on-write clone, checked against the scan.
      Instance clone = instance;
      Instance scanned = instance;
      const Value a = nulls[rng() % nulls.size()];
      const std::vector<Value>& pool = rng() % 3 == 0 ? consts_ : nulls;
      const Value b = pool[rng() % pool.size()];
      const Instance::MergeResult merge = clone.MergeValues(a, b);
      EXPECT_EQ(merge.dirty, reference::MergeDirtyByScan(&scanned, a, b))
          << "seed " << seed << " step " << step;
      if (merge.merged) instance = std::move(clone);
    }
  }
}

// On a chase_egd-shaped run (E(x,y) -> exists z: H(x,z) & F(y,z) with
// both target relations keyed by an egd) the merges probe only the
// positions where nulls sit: the source relation E and the key positions
// of H and F are never indexed for them, so the chase builds at most one
// index entry per H or F tuple per position, and none for E.
TEST(MergeIndexTest, ChaseEgdMergesIndexNoNullFreePosition) {
  SymbolTable symbols;
  PdeSetting setting = Unwrap(PdeSetting::Create(
      {{"E", 2}}, {{"H", 2}, {"F", 2}}, "E(x,y) -> exists z: H(x,z) & F(y,z).",
      "", "H(x,y) & H(x,z) -> y = z.\nF(x,y) & F(x,z) -> y = z.", &symbols));
  const RelationId e = setting.schema().FindRelation("E").value();
  const RelationId h = setting.schema().FindRelation("H").value();
  const RelationId f = setting.schema().FindRelation("F").value();
  Instance source = setting.EmptyInstance();
  std::mt19937 rng(3);
  std::vector<Value> nodes;
  for (int i = 0; i < 200; ++i) {
    nodes.push_back(symbols.InternConstant(StrCat("n", i)));
  }
  for (int i = 0; i < 200; ++i) {
    for (int k = 0; k < 2; ++k) {
      source.AddFact(e, {nodes[i], nodes[rng() % nodes.size()]});
    }
  }
  Instance start = setting.CombineInstances(source, setting.EmptyInstance());
  obs::Counter built = obs::MetricsRegistry::Global().GetCounter(
      "pdx_index_entries_built_total");
  const int64_t before = built.Value();
  ChaseOptions options;
  options.num_threads = 1;
  ChaseResult result = Chase(start, setting.st_tgds(), setting.target_egds(),
                             &symbols, options);
  ASSERT_EQ(result.outcome, ChaseOutcome::kSuccess);
  ASSERT_GT(result.instance.resolver().version(), 0u);
  const int64_t target_tuples = static_cast<int64_t>(
      result.instance.tuples(h).size() + result.instance.tuples(f).size());
  EXPECT_GT(result.instance.tuples(e).size(), 0u);
  EXPECT_LE(built.Value() - before, 2 * target_tuples);
}

}  // namespace
}  // namespace pdx
