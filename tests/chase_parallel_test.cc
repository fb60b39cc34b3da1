// Cross-validation of the parallel delta chase against the sequential
// path over the full schedule matrix: schedule ∈ {barrier, speculative}
// × num_threads ∈ {1, 2, 8}, the chase must produce equivalent results on
// randomized workloads covering the tgd pipeline, the merge-heavy egd
// cascade, the oblivious engine, disjoint-footprint families, failing
// runs, the solver-level verdict, and auto-compaction. Barrier mode (the
// default) is bit-identical — same canonical fingerprint at every thread
// count; speculative (worker-side head instantiation, concurrent ledger
// admission, footprint-DAG collect/apply overlap) hands out
// schedule-dependent null ids, so its results are asserted equal
// under canonical null renumbering
// (testing_util::CanonicalizedFingerprint) while outcome, steps,
// nulls_created and the resolved fact count stay exactly invariant
// across the whole matrix. The canonicalization helpers themselves are
// unit-tested below on hand-built instances (the refinement-level tests
// live in instance_hom_test.cc).
//
// These tests carry the `parallel` ctest label and are additionally run
// under TSan by tools/check.sh: an unforced pass covers both schedules
// (including the barrier schedule's pooled collect), and
// the PDX_FORCE_SCHEDULE=speculative lanes pin the speculative path —
// testing_util::SchedulesToTest() narrows the matrix accordingly. Sizes
// are deliberately modest so the TSan passes stay fast.

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "chase/chase.h"
#include "logic/parser.h"
#include "pde/data_exchange.h"
#include "tests/test_util.h"
#include "workload/random.h"

namespace pdx {
namespace {

using testing_util::AssertHomEquivalent;
using testing_util::CanonicalizedFingerprint;
using testing_util::Unwrap;

constexpr int kThreadCounts[] = {1, 2, 8};

using testing_util::SchedulesToTest;

// Trace tag for one cell of the schedule matrix.
std::string CellTag(uint64_t seed, int threads, ChaseSchedule schedule) {
  return "seed " + std::to_string(seed) + " threads " +
         std::to_string(threads) + " " + ScheduleName(schedule);
}

struct ParallelChaseTest : ::testing::Test {
  Schema schema;
  SymbolTable symbols;
  std::vector<Tgd> pipeline_tgds;
  std::vector<Tgd> egd_heavy_tgds;
  std::vector<Egd> egd_heavy_egds;
  std::vector<Tgd> copy_tgds;
  std::vector<Egd> key_egds;

  ParallelChaseTest() {
    PDX_CHECK(schema.AddRelation("E", 2).ok());
    PDX_CHECK(schema.AddRelation("H", 2).ok());
    PDX_CHECK(schema.AddRelation("F", 2).ok());
    // Same dependency shapes as bench_chase: a weakly acyclic pipeline
    // with an existential tail, and the merge-heavy cascade where nearly
    // every step is a union.
    pipeline_tgds = Deps("E(x,z) & E(z,y) -> H(x,y)."
                         "H(x,y) -> exists w: F(y,w).")
                        .tgds;
    auto heavy = Deps("E(x,y) -> exists z: H(x,z) & F(y,z).");
    egd_heavy_tgds = heavy.tgds;
    egd_heavy_egds =
        Deps("H(x,y) & H(x,z) -> y = z. F(x,y) & F(x,z) -> y = z.").egds;
    // Constant-copying tgd + key egd: clashes two constants whenever a
    // node has two distinct successors, so dense random graphs fail.
    copy_tgds = Deps("E(x,y) -> H(x,y).").tgds;
    key_egds = Deps("H(x,y) & H(x,z) -> y = z.").egds;
  }

  DependencySet Deps(const std::string& text) {
    return Unwrap(ParseDependencies(text, schema, &symbols), "deps");
  }

  Instance RandomEdges(int n, int edges_per_node, uint64_t seed) {
    Rng rng(seed);
    Instance instance(&schema);
    for (int i = 0; i < edges_per_node * n; ++i) {
      Value u =
          symbols.InternConstant("n" + std::to_string(rng.UniformInt(n)));
      Value v =
          symbols.InternConstant("n" + std::to_string(rng.UniformInt(n)));
      instance.AddFact(0, {u, v});
    }
    return instance;
  }

  ChaseResult Run(const Instance& start, const std::vector<Tgd>& tgds,
                  const std::vector<Egd>& egds, int threads,
                  ChaseStrategy strategy = ChaseStrategy::kRestricted,
                  ChaseSchedule schedule = ChaseSchedule::kBarrier) {
    ChaseOptions options;
    options.strategy = strategy;
    options.num_threads = threads;
    options.schedule = schedule;
    return Chase(start, tgds, egds, &symbols, options);
  }

  // Runs the workload over the full schedule × threads matrix and asserts
  // all observable results match the single-threaded barrier reference:
  // exactly in barrier mode, up to canonical null renumbering under
  // speculative (outcome, steps, nulls, the resolved fact count and the
  // canonicalized fingerprint stay invariant across the whole matrix).
  void ExpectThreadInvariant(const Instance& start,
                             const std::vector<Tgd>& tgds,
                             const std::vector<Egd>& egds,
                             ChaseStrategy strategy, uint64_t seed) {
    ChaseResult ref = Run(start, tgds, egds, /*threads=*/1, strategy);
    uint64_t ref_fp = ref.instance.CanonicalFingerprint();
    uint64_t ref_canonical = CanonicalizedFingerprint(ref.instance);
    for (ChaseSchedule schedule : SchedulesToTest()) {
      for (int threads : kThreadCounts) {
        ChaseResult got = Run(start, tgds, egds, threads, strategy, schedule);
        SCOPED_TRACE(CellTag(seed, threads, schedule));
        ASSERT_EQ(got.outcome, ref.outcome);
        ASSERT_EQ(got.steps, ref.steps);
        ASSERT_EQ(got.nulls_created, ref.nulls_created);
        ASSERT_EQ(got.instance.ResolvedFactCount(),
                  ref.instance.ResolvedFactCount());
        if (schedule == ChaseSchedule::kBarrier) {
          ASSERT_EQ(got.instance.CanonicalFingerprint(), ref_fp);
        } else {
          ASSERT_EQ(CanonicalizedFingerprint(got.instance), ref_canonical);
        }
      }
    }
  }
};

TEST_F(ParallelChaseTest, PipelineIsThreadInvariant) {
  for (uint64_t seed : {17u, 18u, 19u}) {
    Instance start = RandomEdges(48, 2, seed);
    ExpectThreadInvariant(start, pipeline_tgds, {},
                          ChaseStrategy::kRestricted, seed);
  }
}

TEST_F(ParallelChaseTest, EgdHeavyIsThreadInvariant) {
  for (uint64_t seed : {29u, 30u, 31u}) {
    Instance start = RandomEdges(32, 3, seed);
    ExpectThreadInvariant(start, egd_heavy_tgds, egd_heavy_egds,
                          ChaseStrategy::kRestricted, seed);
  }
}

TEST_F(ParallelChaseTest, ObliviousIsThreadInvariant) {
  for (uint64_t seed : {41u, 42u}) {
    Instance start = RandomEdges(24, 2, seed);
    ExpectThreadInvariant(start, pipeline_tgds, {},
                          ChaseStrategy::kOblivious, seed);
    ExpectThreadInvariant(start, egd_heavy_tgds, egd_heavy_egds,
                          ChaseStrategy::kOblivious, seed);
  }
}

// A multi-dependency workload whose tgd families have pairwise disjoint
// relation footprints (the shape of bench_chase's disjoint_4x), so the
// footprint-DAG scheduler actually overlaps collection with application
// across families and the pooled barrier apply shards inserts over four
// target relations. Exercises the collect-ahead and shard paths rather
// than leaving them to footprint luck in the other workloads.
TEST_F(ParallelChaseTest, DisjointDependenciesPipelineIsThreadInvariant) {
  Schema wide;
  SymbolTable wide_symbols;
  for (const char* name : {"A0", "B0", "A1", "B1", "A2", "B2", "A3", "B3"}) {
    PDX_CHECK(wide.AddRelation(name, 2).ok());
  }
  DependencySet deps = Unwrap(
      ParseDependencies("A0(x,y) & A0(y,z) -> exists w: B0(x,w)."
                        "A1(x,y) & A1(y,z) -> exists w: B1(x,w)."
                        "A2(x,y) & A2(y,z) -> exists w: B2(x,w)."
                        "A3(x,y) & A3(y,z) -> exists w: B3(x,w).",
                        wide, &wide_symbols),
      "wide deps");
  for (uint64_t seed : {7u, 8u}) {
    Rng rng(seed);
    Instance start(&wide);
    for (RelationId r : {0, 2, 4, 6}) {
      for (int i = 0; i < 64; ++i) {
        Value u = wide_symbols.InternConstant("n" +
                                              std::to_string(rng.UniformInt(24)));
        Value v = wide_symbols.InternConstant("n" +
                                              std::to_string(rng.UniformInt(24)));
        start.AddFact(r, {u, v});
      }
    }
    ChaseOptions ref_options;
    ref_options.num_threads = 1;
    ChaseResult ref = Chase(start, deps.tgds, {}, &wide_symbols, ref_options);
    ASSERT_EQ(ref.outcome, ChaseOutcome::kSuccess);
    uint64_t ref_fp = ref.instance.CanonicalFingerprint();
    uint64_t ref_canonical = CanonicalizedFingerprint(ref.instance);
    for (ChaseSchedule schedule : SchedulesToTest()) {
      for (int threads : kThreadCounts) {
        ChaseOptions options;
        options.num_threads = threads;
        options.schedule = schedule;
        ChaseResult got = Chase(start, deps.tgds, {}, &wide_symbols, options);
        SCOPED_TRACE(CellTag(seed, threads, schedule));
        ASSERT_EQ(got.outcome, ref.outcome);
        ASSERT_EQ(got.steps, ref.steps);
        ASSERT_EQ(got.nulls_created, ref.nulls_created);
        if (schedule == ChaseSchedule::kBarrier) {
          ASSERT_EQ(got.instance.CanonicalFingerprint(), ref_fp);
        } else {
          ASSERT_EQ(CanonicalizedFingerprint(got.instance), ref_canonical);
        }
      }
    }
  }
}

// Constant/constant clashes: whether the closure holds a clash is
// order-independent, so the verdict agrees under every schedule. On
// barrier the egd fixpoint merges in the same order at every thread
// count, so a failing run also stops at the same step on the same clash.
TEST_F(ParallelChaseTest, FailingRunsAgreeOnOutcome) {
  int failures = 0;
  for (uint64_t seed = 50; seed < 58; ++seed) {
    Instance start = RandomEdges(16, 2, seed);
    ChaseResult ref = Run(start, copy_tgds, key_egds, /*threads=*/1);
    if (ref.outcome == ChaseOutcome::kFailed) ++failures;
    for (ChaseSchedule schedule : SchedulesToTest()) {
      for (int threads : kThreadCounts) {
        ChaseResult got = Run(start, copy_tgds, key_egds, threads,
                              ChaseStrategy::kRestricted, schedule);
        SCOPED_TRACE(CellTag(seed, threads, schedule));
        ASSERT_EQ(got.outcome, ref.outcome);
        if (schedule == ChaseSchedule::kBarrier) {
          ASSERT_EQ(got.steps, ref.steps);
          ASSERT_EQ(got.failure, ref.failure);
        }
        if (ref.outcome == ChaseOutcome::kSuccess) {
          if (schedule == ChaseSchedule::kBarrier) {
            ASSERT_EQ(got.instance.CanonicalFingerprint(),
                      ref.instance.CanonicalFingerprint());
          } else {
            ASSERT_EQ(CanonicalizedFingerprint(got.instance),
                      CanonicalizedFingerprint(ref.instance));
          }
        }
      }
    }
  }
  // Dense random graphs with a key egd over copied constants must clash
  // on at least some seeds for this test to mean anything.
  EXPECT_GT(failures, 0);
}

// Solver-level verdicts through SolveDataExchange: solution existence and
// the universal solution itself must not depend on num_threads or on
// speculative execution.
TEST_F(ParallelChaseTest, DataExchangeVerdictsAreThreadInvariant) {
  SymbolTable de_symbols;
  PdeSetting setting = Unwrap(
      PdeSetting::Create({{"E", 2}}, {{"H", 2}, {"F", 2}},
                         "E(x,y) -> H(x,y). E(x,y) -> exists z: F(x,z).",
                         "", "H(x,y) & H(x,z) -> y = z.", &de_symbols),
      "de setting");
  int with_solution = 0, without = 0;
  for (uint64_t seed = 70; seed < 78; ++seed) {
    Rng rng(seed);
    Instance source = setting.EmptyInstance();
    RelationId e_rel = setting.schema().FindRelation("E").value();
    auto node = [&](const std::string& tag) {
      return de_symbols.InternConstant("c" + tag);
    };
    // Even seeds: a functional random graph (one successor per node), so
    // the key egd never clashes and a solution exists. Odd seeds: the
    // same plus a forked node, so the copied constants must clash.
    for (int i = 0; i < 12; ++i) {
      source.AddFact(e_rel, {node(std::to_string(i)),
                             node(std::to_string(rng.UniformInt(12)))});
    }
    if (seed % 2 == 1) {
      source.AddFact(e_rel, {node("fork"), node("left")});
      source.AddFact(e_rel, {node("fork"), node("right")});
    }
    ChaseOptions ref_options;
    ref_options.num_threads = 1;
    DataExchangeResult ref =
        Unwrap(SolveDataExchange(setting, source, setting.EmptyInstance(),
                                 &de_symbols, ref_options),
               "SolveDataExchange");
    (ref.has_solution ? with_solution : without)++;
    for (ChaseSchedule schedule : SchedulesToTest()) {
      for (int threads : kThreadCounts) {
        ChaseOptions options;
        options.num_threads = threads;
        options.schedule = schedule;
        DataExchangeResult got =
            Unwrap(SolveDataExchange(setting, source, setting.EmptyInstance(),
                                     &de_symbols, options),
                   "SolveDataExchange");
        SCOPED_TRACE(CellTag(seed, threads, schedule));
        ASSERT_EQ(got.has_solution, ref.has_solution);
        if (ref.has_solution) {
          ASSERT_EQ(got.nulls_created, ref.nulls_created);
          if (schedule == ChaseSchedule::kBarrier) {
            ASSERT_EQ(got.universal_solution->CanonicalFingerprint(),
                      ref.universal_solution->CanonicalFingerprint());
          } else {
            ASSERT_EQ(CanonicalizedFingerprint(*got.universal_solution),
                      CanonicalizedFingerprint(*ref.universal_solution));
          }
        }
      }
    }
  }
  // The seeds must exercise both verdicts.
  EXPECT_GT(with_solution, 0);
  EXPECT_GT(without, 0);
}

// Auto-compaction must fire on merge-heavy runs when the thresholds are
// lowered, without changing any observable result, and merged values must
// still resolve through the compacted instance.
TEST_F(ParallelChaseTest, CompactionPreservesResults) {
  Instance start = RandomEdges(32, 3, 91);
  ChaseOptions plain;
  plain.num_threads = 1;
  plain.compact_duplicate_ratio = 0;  // outside (0,1): disabled
  ChaseResult no_compact =
      Chase(start, egd_heavy_tgds, egd_heavy_egds, &symbols, plain);
  EXPECT_EQ(no_compact.compactions, 0);

  for (ChaseSchedule schedule : SchedulesToTest()) {
    for (int threads : kThreadCounts) {
      ChaseOptions options;
      options.num_threads = threads;
      options.schedule = schedule;
      options.compact_duplicate_ratio = 0.2;
      options.compact_min_facts = 32;
      ChaseResult got =
          Chase(start, egd_heavy_tgds, egd_heavy_egds, &symbols, options);
      SCOPED_TRACE(std::string("threads ") + std::to_string(threads) + " " +
                   ScheduleName(schedule));
      ASSERT_EQ(got.outcome, ChaseOutcome::kSuccess);
      EXPECT_GT(got.compactions, 0);
      ASSERT_EQ(got.steps, no_compact.steps);
      if (schedule == ChaseSchedule::kBarrier) {
        ASSERT_EQ(got.instance.CanonicalFingerprint(),
                  no_compact.instance.CanonicalFingerprint());
      } else {
        ASSERT_EQ(CanonicalizedFingerprint(got.instance),
                  CanonicalizedFingerprint(no_compact.instance));
      }
      // Compaction drops resolved duplicates from the raw stores, and the
      // resolved view is untouched.
      EXPECT_LE(got.instance.fact_count(), no_compact.instance.fact_count());
      ASSERT_EQ(got.instance.ResolvedFactCount(),
                no_compact.instance.ResolvedFactCount());
    }
  }
}

// --- The canonicalization harness itself -------------------------------

// The case raw CanonicalFingerprint gets wrong: two nulls in symmetric
// positions within the sort (same relation, same null pattern, same
// constants) are tie-broken by their original ids, so renaming them can
// change the raw fingerprint of what is one isomorphism class. The
// canonicalized fingerprint must agree, because refinement separates the
// null that also occurs in F from the one that does not.
TEST_F(ParallelChaseTest, CanonicalizedFingerprintIsRenamingInvariant) {
  Value c = symbols.InternConstant("c");
  Value d = symbols.InternConstant("d");
  Value n0 = Value::Null(1000), n1 = Value::Null(1001);
  RelationId h = 1, f = 2;
  Instance a(&schema);
  a.AddFact(h, {c, n0});
  a.AddFact(h, {c, n1});
  a.AddFact(f, {n1, d});
  Instance b(&schema);  // same instance under the renaming n0 <-> n1
  b.AddFact(h, {c, n1});
  b.AddFact(h, {c, n0});
  b.AddFact(f, {n0, d});
  EXPECT_NE(a.CanonicalFingerprint(), b.CanonicalFingerprint())
      << "expected the raw fingerprint's id tie-break to differ here; if "
         "this ever becomes equal the raw fingerprint got stronger and "
         "this demonstration needs a new example";
  EXPECT_EQ(CanonicalizedFingerprint(a), CanonicalizedFingerprint(b));
  AssertHomEquivalent(a, b, "symmetric tie case");
}

// Hom-equivalence is weaker than isomorphism: AssertHomEquivalent accepts
// a pair that canonicalized fingerprints (correctly) distinguish.
TEST_F(ParallelChaseTest, HomEquivalentInstancesNeedNotBeIsomorphic) {
  Value c = symbols.InternConstant("c");
  Value n0 = Value::Null(2000), n1 = Value::Null(2001);
  Instance a(&schema);
  a.AddFact(0, {c, n0});
  Instance b(&schema);
  b.AddFact(0, {c, n0});
  b.AddFact(0, {c, n1});  // folds onto the first under n1 -> n0
  AssertHomEquivalent(a, b, "redundant-fact pair");
  EXPECT_NE(CanonicalizedFingerprint(a), CanonicalizedFingerprint(b));
}

TEST_F(ParallelChaseTest, CanonicalizedFingerprintSeparatesNonIsomorphic) {
  Value n0 = Value::Null(3000), n1 = Value::Null(3001);
  Instance loop(&schema);
  loop.AddFact(0, {n0, n0});
  Instance edge(&schema);
  edge.AddFact(0, {n0, n1});
  EXPECT_NE(CanonicalizedFingerprint(loop), CanonicalizedFingerprint(edge));
}

}  // namespace
}  // namespace pdx
