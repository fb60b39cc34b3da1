// Cross-validation of the parallel delta chase against the sequential
// path: at num_threads ∈ {1, 2, 4, 8} the chase must produce bit-identical
// results — same outcome, steps, failure, nulls_created, raw
// CanonicalFingerprint and null ids — on randomized workloads covering the
// tgd pipeline, the merge-heavy egd cascade, several independent tgd
// families, failing runs, the solver-level verdict and auto-compaction.
// Two workloads aim at the places where the pooled tgd phase could let
// thread timing reach null ids: an apply re-check that skips collected
// triggers, and matches that merge-dirtied extras put into two
// partitions. The canonicalization helpers are unit-tested below on
// hand-built instances (the refinement-level tests live in
// instance_hom_test.cc).
//
// These tests carry the `parallel` ctest label and run under TSan in
// tools/check.sh. Sizes are deliberately modest so the TSan pass stays
// fast.

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "base/string_util.h"
#include "chase/chase.h"
#include "logic/parser.h"
#include "obs/trace.h"
#include "pde/data_exchange.h"
#include "relational/instance_io.h"
#include "tests/test_util.h"
#include "workload/random.h"

namespace pdx {
namespace {

using testing_util::AssertHomEquivalent;
using testing_util::CanonicalizedFingerprint;
using testing_util::Unwrap;

constexpr int kThreadCounts[] = {1, 2, 4, 8};

// Trace tag for one cell of a thread sweep.
std::string CellTag(uint64_t seed, int threads) {
  return "seed " + std::to_string(seed) + " threads " +
         std::to_string(threads);
}

// One chase run: its result, the null ids it drew from the symbol table
// and its resolved facts with every null id taken relative to the first
// id the run could draw — raw null identities, comparable across runs
// that share one symbol table.
struct RunOutput {
  ChaseResult result;
  int64_t ids_drawn = 0;
  std::vector<Fact> facts;
};

RunOutput ChaseAndRecord(const Instance& start, const std::vector<Tgd>& tgds,
                         const std::vector<Egd>& egds, SymbolTable* symbols,
                         const ChaseOptions& options) {
  const uint32_t first = symbols->null_count();
  RunOutput out{Chase(start, tgds, egds, symbols, options), 0, {}};
  out.ids_drawn = symbols->null_count() - first;
  out.facts = out.result.instance.AllFacts();
  for (Fact& fact : out.facts) {
    for (Value& v : fact.tuple) {
      if (v.is_null() && v.id() >= first) v = Value::Null(v.id() - first);
    }
  }
  std::sort(out.facts.begin(), out.facts.end());
  return out;
}

// Asserts `got` is bit-identical to the sequential reference `ref`, and
// that every null id the run drew reached the instance.
void ExpectBitIdentical(const RunOutput& got, const RunOutput& ref) {
  ASSERT_EQ(got.result.outcome, ref.result.outcome);
  ASSERT_EQ(got.result.steps, ref.result.steps);
  ASSERT_EQ(got.result.failure, ref.result.failure);
  ASSERT_EQ(got.result.nulls_created, ref.result.nulls_created);
  ASSERT_EQ(got.ids_drawn, got.result.nulls_created);
  ASSERT_EQ(got.result.instance.CanonicalFingerprint(),
            ref.result.instance.CanonicalFingerprint());
  ASSERT_EQ(got.facts, ref.facts);
}

// Runs `run` traced and sets `*dropped` to the triggers its applies
// dropped: the sum of collected - applied over its chase.tgd spans
// (re-checks that found the head already satisfied).
RunOutput RunTraced(const std::function<RunOutput()>& run, int64_t* dropped) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Enable();
  RunOutput out = run();
  std::vector<obs::SpanRecord> spans = tracer.Drain();
  tracer.Disable();
  *dropped = 0;
  for (const obs::SpanRecord& span : spans) {
    if (span.name != "chase.tgd") continue;
    for (const obs::SpanAttr& attr : span.attrs) {
      if (attr.key == "collected") *dropped += attr.i;
      if (attr.key == "applied") *dropped -= attr.i;
    }
  }
  return out;
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

  RunOutput Run(const Instance& start, const std::vector<Tgd>& tgds,
                const std::vector<Egd>& egds, int threads) {
    ChaseOptions options;
    options.num_threads = threads;
    return ChaseAndRecord(start, tgds, egds, &symbols, options);
  }

  // Runs the workload at every thread count and asserts each run is
  // bit-identical to the single-threaded one.
  void ExpectThreadInvariant(const Instance& start,
                             const std::vector<Tgd>& tgds,
                             const std::vector<Egd>& egds,
                             uint64_t seed) {
    RunOutput ref = Run(start, tgds, egds, /*threads=*/1);
    for (int threads : kThreadCounts) {
      SCOPED_TRACE(CellTag(seed, threads));
      ExpectBitIdentical(Run(start, tgds, egds, threads), ref);
    }
  }
};

TEST_F(ParallelChaseTest, PipelineIsThreadInvariant) {
  for (uint64_t seed : {17u, 18u, 19u}) {
    Instance start = RandomEdges(48, 2, seed);
    ExpectThreadInvariant(start, pipeline_tgds, {}, seed);
  }
}

TEST_F(ParallelChaseTest, EgdHeavyIsThreadInvariant) {
  for (uint64_t seed : {29u, 30u, 31u}) {
    Instance start = RandomEdges(32, 3, seed);
    ExpectThreadInvariant(start, egd_heavy_tgds, egd_heavy_egds, seed);
  }
}

// The restricted apply re-check skips collected triggers: every E fact
// of a node is collected in round one, when no H fact exists yet, but only
// the node's first trigger fires; the rest find the head satisfied at
// apply. A skipped trigger must draw no null id, or every later id shifts.
TEST_F(ParallelChaseTest, ApplyRecheckSkipsDrawNoNullIds) {
  std::vector<Tgd> tgds = Deps("E(x,y) -> exists z: H(x,z)."
                               "H(x,z) -> exists w: F(z,w).")
                              .tgds;
  for (uint64_t seed : {61u, 62u}) {
    Instance start = RandomEdges(32, 4, seed);
    int64_t dropped = 0;
    RunOutput ref = RunTraced(
        [&] { return Run(start, tgds, {}, /*threads=*/1); }, &dropped);
    ASSERT_EQ(ref.result.outcome, ChaseOutcome::kSuccess);
    EXPECT_GT(dropped, 0) << "the workload must skip collected triggers";
    for (int threads : kThreadCounts) {
      SCOPED_TRACE(CellTag(seed, threads));
      ExpectBitIdentical(Run(start, tgds, {}, threads), ref);
    }
  }
}

// Batches that satisfy their own later triggers (one per apply mode, plus
// the merge guard): every thread count takes exactly the pinned steps and
// nulls and builds the same instance, null ids included.
TEST_F(ParallelChaseTest, SelfSatisfyingBatchesAreThreadInvariant) {
  for (const testing_util::SelfSatisfyingBatch& c :
       testing_util::SelfSatisfyingBatches()) {
    Schema case_schema;
    for (const auto& [name, arity] : c.relations) {
      PDX_CHECK(case_schema.AddRelation(name, arity).ok());
    }
    SymbolTable case_symbols;
    DependencySet deps =
        Unwrap(ParseDependencies(c.deps, case_schema, &case_symbols), "deps");
    Instance start =
        Unwrap(ParseInstance(c.facts, case_schema, &case_symbols), "facts");
    ChaseOptions options;
    options.num_threads = 1;
    RunOutput ref =
        ChaseAndRecord(start, deps.tgds, deps.egds, &case_symbols, options);
    ASSERT_EQ(ref.result.outcome, ChaseOutcome::kSuccess) << c.name;
    EXPECT_EQ(ref.result.steps, c.steps) << c.name;
    EXPECT_EQ(ref.result.nulls_created, c.nulls) << c.name;
    for (int threads : kThreadCounts) {
      SCOPED_TRACE(c.name + " threads " + std::to_string(threads));
      options.num_threads = threads;
      ExpectBitIdentical(ChaseAndRecord(start, deps.tgds, deps.egds,
                                        &case_symbols, options),
                         ref);
    }
  }
}

// A keyed workload whose matches merge-dirtied extras can put into two
// partitions. E is functional, so round one's H(x, n) gets a single key
// partner P(x, y) in round two, and round three's egd merges n into the
// constant y. That dirties the old H tuple, so round three enumerates each
// H(x, y) & P(x, y) match twice: pivoting on the dirtied H tuple (an
// extra) and on the new P tuple. The two copies can land in different
// partitions of a pooled collect; the collect filter and the apply
// re-check must still leave every null id equal at every thread count.
TEST_F(ParallelChaseTest, RepeatsAcrossPartitionsAreThreadInvariant) {
  Schema keyed;
  SymbolTable keyed_symbols;
  for (const char* name : {"E", "H", "P", "R"}) {
    PDX_CHECK(keyed.AddRelation(name, 2).ok());
  }
  DependencySet deps = Unwrap(
      ParseDependencies("E(x,y) -> exists z: H(x,z)."
                        "H(x,z) & E(x,y) -> P(x,y)."
                        "H(x,z) & P(x,y) -> exists v: R(z,v)."
                        "H(x,z) & P(x,y) -> z = y.",
                        keyed, &keyed_symbols),
      "keyed deps");
  for (uint64_t seed : {81u, 82u}) {
    Rng rng(seed);
    Instance start(&keyed);
    for (int i = 0; i < 64; ++i) {
      start.AddFact(0, {keyed_symbols.InternConstant(StrCat("n", i)),
                        keyed_symbols.InternConstant(
                            StrCat("n", rng.UniformInt(64)))});
    }
    ChaseOptions options;
    options.num_threads = 1;
    RunOutput ref = ChaseAndRecord(start, deps.tgds, deps.egds,
                                   &keyed_symbols, options);
    ASSERT_EQ(ref.result.outcome, ChaseOutcome::kSuccess);
    for (int threads : kThreadCounts) {
      SCOPED_TRACE(CellTag(seed, threads));
      options.num_threads = threads;
      ExpectBitIdentical(ChaseAndRecord(start, deps.tgds, deps.egds,
                                        &keyed_symbols, options),
                         ref);
    }
  }
}

// A multi-dependency workload of four tgd families over pairwise disjoint
// relations (the shape of bench_chase's disjoint_4x).
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
    ChaseOptions options;
    options.num_threads = 1;
    RunOutput ref =
        ChaseAndRecord(start, deps.tgds, {}, &wide_symbols, options);
    ASSERT_EQ(ref.result.outcome, ChaseOutcome::kSuccess);
    for (int threads : kThreadCounts) {
      SCOPED_TRACE(CellTag(seed, threads));
      options.num_threads = threads;
      ExpectBitIdentical(
          ChaseAndRecord(start, deps.tgds, {}, &wide_symbols, options), ref);
    }
  }
}

// Constant/constant clashes: the egd fixpoint merges in the same order at
// every thread count, so a failing run stops at the same step on the same
// clash.
TEST_F(ParallelChaseTest, FailingRunsAgreeOnOutcome) {
  int failures = 0;
  for (uint64_t seed = 50; seed < 58; ++seed) {
    Instance start = RandomEdges(16, 2, seed);
    RunOutput ref = Run(start, copy_tgds, key_egds, /*threads=*/1);
    if (ref.result.outcome == ChaseOutcome::kFailed) ++failures;
    for (int threads : kThreadCounts) {
      SCOPED_TRACE(CellTag(seed, threads));
      ExpectBitIdentical(Run(start, copy_tgds, key_egds, threads), ref);
    }
  }
  // Dense random graphs with a key egd over copied constants must clash
  // on at least some seeds for this test to mean anything.
  EXPECT_GT(failures, 0);
}

// Solver-level verdicts through SolveDataExchange: solution existence and
// the universal solution itself must not depend on num_threads.
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
    for (int threads : kThreadCounts) {
      ChaseOptions options;
      options.num_threads = threads;
      DataExchangeResult got =
          Unwrap(SolveDataExchange(setting, source, setting.EmptyInstance(),
                                   &de_symbols, options),
                 "SolveDataExchange");
      SCOPED_TRACE(CellTag(seed, threads));
      ASSERT_EQ(got.has_solution, ref.has_solution);
      if (ref.has_solution) {
        ASSERT_EQ(got.nulls_created, ref.nulls_created);
        ASSERT_EQ(got.universal_solution->CanonicalFingerprint(),
                  ref.universal_solution->CanonicalFingerprint());
      }
    }
  }
  // The seeds must exercise both verdicts.
  EXPECT_GT(with_solution, 0);
  EXPECT_GT(without, 0);
}

// Auto-compaction fires at its fixed thresholds (at least half of a raw
// store of at least 4096 tuples are duplicates under resolution) without
// changing any observable result. RandomEdges(175, 8, 91) is the smallest
// egd-heavy input found to reach them (1367 edges; seed 91, 5 to 16 edges
// per node): the chase compacts once, after the first merge cascade. The
// compacting runs must be bit-identical at every thread count, and the
// trace checker, whose replay never compacts, must find the result's
// resolved facts, null ids included, so merged values still resolve
// through the compacted instance.
TEST_F(ParallelChaseTest, CompactionPreservesResults) {
  Instance start = RandomEdges(175, 8, 91);
  ChaseOptions sequential;
  sequential.num_threads = 1;
  ChaseResult checked = testing_util::CheckedChase(
      start, egd_heavy_tgds, egd_heavy_egds, &symbols, sequential);
  EXPECT_GT(checked.compactions, 0);

  RunOutput ref = Run(start, egd_heavy_tgds, egd_heavy_egds, 1);
  ASSERT_GT(ref.result.compactions, 0);
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    RunOutput got = Run(start, egd_heavy_tgds, egd_heavy_egds, threads);
    EXPECT_EQ(got.result.compactions, ref.result.compactions);
    ExpectBitIdentical(got, ref);
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
