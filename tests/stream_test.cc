#include "chase/stream.h"

#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "chase/chase.h"
#include "logic/conjunctive_query.h"
#include "logic/parser.h"
#include "pde/certain_answers.h"
#include "pde/generic_solver.h"
#include "tests/test_util.h"
#include "workload/churn.h"
#include "workload/random.h"

namespace pdx {
namespace {

using testing_util::AssertHomEquivalent;
using testing_util::CanonicalizedFingerprint;
using testing_util::Unwrap;

// The differential harness for deletion propagation: every ±Δ batch a
// StreamingChase absorbs must leave it equivalent (canonicalized
// fingerprint — isomorphism up to null renaming) to a from-scratch
// restricted chase of the net base instance, at every thread count, and
// must never spend more chase steps than the from-scratch run it replaces.

class StreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(schema_.AddRelation("E", 2).ok());
    ASSERT_TRUE(schema_.AddRelation("H", 2).ok());
    ASSERT_TRUE(schema_.AddRelation("F", 2).ok());
    e_ = schema_.FindRelation("E").value();
    h_ = schema_.FindRelation("H").value();
    f_ = schema_.FindRelation("F").value();
    a_ = symbols_.InternConstant("a");
    b_ = symbols_.InternConstant("b");
    c_ = symbols_.InternConstant("c");
    d_ = symbols_.InternConstant("d");
  }

  std::vector<Tgd> ParseTgds(const char* text) {
    auto deps = ParseDependencies(text, schema_, &symbols_);
    EXPECT_TRUE(deps.ok()) << deps.status().ToString();
    return std::move(deps).value().tgds;
  }

  std::vector<Egd> ParseEgds(const char* text) {
    auto deps = ParseDependencies(text, schema_, &symbols_);
    EXPECT_TRUE(deps.ok()) << deps.status().ToString();
    return std::move(deps).value().egds;
  }

  // A deterministic E-fact universe: edges of a circulant-ish graph on
  // `nodes` vertices, deduped, in a stable order.
  std::vector<Fact> EdgeUniverse(int nodes) {
    std::vector<Fact> universe;
    Rng rng(2026);
    for (int u = 0; u < nodes; ++u) {
      for (int stride : {1, 3, 7}) {
        int v = (u + stride) % nodes;
        Value vu = symbols_.InternConstant("n" + std::to_string(u));
        Value vv = symbols_.InternConstant("n" + std::to_string(v));
        universe.push_back({e_, Tuple{vu, vv}});
      }
      // A sprinkle of random chords so deletions sometimes leave
      // alternative derivations alive (the over-deletion regime).
      int w = static_cast<int>(rng.UniformInt(static_cast<uint32_t>(nodes)));
      if (w != u) {
        Value vu = symbols_.InternConstant("n" + std::to_string(u));
        Value vw = symbols_.InternConstant("n" + std::to_string(w));
        universe.push_back({e_, Tuple{vu, vw}});
      }
    }
    std::sort(universe.begin(), universe.end());
    universe.erase(std::unique(universe.begin(), universe.end()),
                   universe.end());
    return universe;
  }

  Schema schema_;
  SymbolTable symbols_;
  RelationId e_ = 0, h_ = 0, f_ = 0;
  Value a_, b_, c_, d_;
};

TEST_F(StreamTest, InitializeChasesToFixpoint) {
  std::vector<Tgd> tgds =
      ParseTgds("E(x,z) & E(z,y) -> H(x,y). H(x,y) -> exists w: F(y,w).");
  Instance base(&schema_);
  base.AddFact(e_, {a_, b_});
  base.AddFact(e_, {b_, c_});
  StreamingChase stream(&schema_, tgds, {}, &symbols_);
  ASSERT_TRUE(stream.Initialize(base).ok());
  EXPECT_TRUE(stream.initialized());
  EXPECT_TRUE(stream.instance().Contains(h_, {a_, c_}));
  EXPECT_EQ(stream.instance().tuples(f_).size(), 1u);
  EXPECT_GT(stream.total_steps(), 0);
  EXPECT_GT(stream.journal().live_count(), 0u);
}

// The tentpole invariant. At {1, 2, 8} threads: run a churn stream
// through ResumeWithDeltas and after every batch compare against a
// from-scratch chase of the net instance — canonicalized fingerprints
// equal (the workload is tgd-only, hence confluent up to null renaming)
// and incremental steps within the from-scratch budget. The streamed
// instance itself is bit-identical across thread counts: the same raw
// CanonicalFingerprint after every batch.
TEST_F(StreamTest, DifferentialChurnMatchesFromScratchAcrossThreadCounts) {
  std::vector<Tgd> tgds =
      ParseTgds("E(x,z) & E(z,y) -> H(x,y). H(x,y) -> exists w: F(y,w).");
  std::vector<Fact> universe = EdgeUniverse(18);
  const size_t initially_live = universe.size() * 2 / 3;

  std::vector<uint64_t> sequential_fps;
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ChaseOptions options;
    options.num_threads = threads;

    ChurnOptions churn_options;
    churn_options.delete_rate = 0.15;
    churn_options.insert_rate = 0.12;
    churn_options.overlap = 0.4;
    churn_options.seed = 7;
    ChurnStream churn(universe, initially_live, churn_options);

    StreamingChase stream(&schema_, tgds, {}, &symbols_, options);
    ASSERT_TRUE(stream.Initialize(churn.NetInstance(&schema_)).ok());

    for (int batch_idx = 0; batch_idx < 5; ++batch_idx) {
      ChurnBatch batch = churn.Next();
      StatusOr<StreamStats> stats =
          stream.ResumeWithDeltas(batch.adds, batch.deletes);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();

      Instance net = churn.NetInstance(&schema_);
      ChaseResult scratch = Chase(net, tgds, {}, &symbols_, options);
      ASSERT_EQ(scratch.outcome, ChaseOutcome::kSuccess);

      // The incremental base tracks the net live set exactly.
      EXPECT_EQ(CanonicalizedFingerprint(stream.base()),
                CanonicalizedFingerprint(net))
          << "batch " << batch_idx;
      // Incremental re-solve ≡ from-scratch re-chase.
      EXPECT_EQ(CanonicalizedFingerprint(stream.instance()),
                CanonicalizedFingerprint(scratch.instance))
          << "batch " << batch_idx;
      // Every run mints the same nulls in the same order, so the raw
      // fingerprint (whose null ties break by id order) matches the
      // sequential run's.
      const uint64_t fp = stream.instance().CanonicalFingerprint();
      if (threads == 1) {
        sequential_fps.push_back(fp);
      } else {
        EXPECT_EQ(fp, sequential_fps[batch_idx]) << "batch " << batch_idx;
      }
      // Steps in bounds: a ±Δ batch never costs more than the
      // from-scratch chase it replaces.
      EXPECT_LE(stats.value().steps, scratch.steps) << "batch " << batch_idx;
    }
  }
}

// Support counting: a fact justified by the base survives losing a derived
// justification, and vice versa.
TEST_F(StreamTest, BaseJustifiedFactSurvivesDerivationDeath) {
  std::vector<Tgd> tgds = ParseTgds("E(x,z) & E(z,y) -> H(x,y).");
  Instance base(&schema_);
  base.AddFact(e_, {a_, b_});
  base.AddFact(e_, {b_, c_});
  base.AddFact(h_, {a_, c_});  // admitted directly, also derivable
  StreamingChase stream(&schema_, tgds, {}, &symbols_);
  ASSERT_TRUE(stream.Initialize(base).ok());

  // Kill the derivation path; the admitted copy keeps H(a,c) alive.
  StatusOr<StreamStats> stats =
      stream.ResumeWithDeltas({}, {{e_, Tuple{b_, c_}}});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stream.instance().Contains(h_, {a_, c_}));

  // Now retract the admitted copy too: with E(b,c) gone there is no
  // surviving justification left.
  stats = stream.ResumeWithDeltas({}, {{h_, Tuple{a_, c_}}});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_FALSE(stream.instance().Contains(h_, {a_, c_}));
}

// Over-deletion repair: the restricted chase fires only one of two
// alternative derivations (the second trigger is satisfied); deleting the
// fired body must re-derive the fact through the dormant alternative.
TEST_F(StreamTest, OverDeletionRederivesThroughAlternativePath) {
  std::vector<Tgd> tgds = ParseTgds("E(x,z) & E(z,y) -> H(x,y).");
  Instance base(&schema_);
  base.AddFact(e_, {a_, b_});
  base.AddFact(e_, {b_, c_});
  base.AddFact(e_, {a_, d_});
  base.AddFact(e_, {d_, c_});
  StreamingChase stream(&schema_, tgds, {}, &symbols_);
  ASSERT_TRUE(stream.Initialize(base).ok());
  ASSERT_TRUE(stream.instance().Contains(h_, {a_, c_}));

  // Whichever path fired, deleting one of its middle hops leaves the
  // other path as the only (or still-journaled) justification.
  StatusOr<StreamStats> stats =
      stream.ResumeWithDeltas({}, {{e_, Tuple{b_, c_}}});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stream.instance().Contains(h_, {a_, c_}));

  stats = stream.ResumeWithDeltas({}, {{e_, Tuple{d_, c_}}});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_FALSE(stream.instance().Contains(h_, {a_, c_}))
      << "no path a→·→c remains";
}

// Cascade: retracting a root removes the whole unsupported consequence
// chain, and counts it.
TEST_F(StreamTest, CascadeRemovesUnsupportedConsequences) {
  std::vector<Tgd> tgds = ParseTgds("E(x,y) -> H(x,y). H(x,y) -> F(x,y).");
  Instance base(&schema_);
  base.AddFact(e_, {a_, b_});
  StreamingChase stream(&schema_, tgds, {}, &symbols_);
  ASSERT_TRUE(stream.Initialize(base).ok());
  ASSERT_TRUE(stream.instance().Contains(f_, {a_, b_}));

  StatusOr<StreamStats> stats =
      stream.ResumeWithDeltas({}, {{e_, Tuple{a_, b_}}});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().base_removed, 1);
  EXPECT_EQ(stats.value().retracted, 3);  // E(a,b), H(a,b), F(a,b)
  EXPECT_EQ(stats.value().dead_triggers, 2);
  EXPECT_EQ(stream.instance().ResolvedFactCount(), 0u);

  // Deleting absent or derived-only facts is a no-op, not an error.
  stats = stream.ResumeWithDeltas({}, {{e_, Tuple{a_, b_}}});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().base_removed, 0);
  EXPECT_EQ(stats.value().retracted, 0);
}

// Journal consistency under retraction: delete → re-insert must re-fire the
// trigger exactly once (its fingerprint retired with the killed entry).
TEST_F(StreamTest, DeleteThenReinsertRefiresTrigger) {
  std::vector<Tgd> tgds = ParseTgds("E(x,y) -> exists z: H(x,z).");
  Instance base(&schema_);
  base.AddFact(e_, {a_, b_});
  StreamingChase stream(&schema_, tgds, {}, &symbols_);
  ASSERT_TRUE(stream.Initialize(base).ok());
  ASSERT_EQ(stream.instance().tuples(h_).size(), 1u);

  StatusOr<StreamStats> stats =
      stream.ResumeWithDeltas({}, {{e_, Tuple{a_, b_}}});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stream.instance().tuples(h_).size(), 0u);

  stats = stream.ResumeWithDeltas({{e_, Tuple{a_, b_}}}, {});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats.value().steps, 1);
  EXPECT_TRUE(stream.instance().Contains(e_, {a_, b_}));
  ASSERT_EQ(stream.instance().tuples(h_).size(), 1u);
  EXPECT_TRUE(stream.instance().tuples(h_)[0][1].is_null());

  // Re-adding a fact already present is absorbed without a firing.
  stats = stream.ResumeWithDeltas({{e_, Tuple{a_, b_}}}, {});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().steps, 0);
  EXPECT_EQ(stream.instance().tuples(h_).size(), 1u);
}

// A retraction that kills an egd firing cannot un-merge the union-find;
// the batch must fall back to one full re-chase of the net base — and the
// stream must stay fully usable afterwards.
TEST_F(StreamTest, DeadEgdTriggerFallsBackToFullRechase) {
  std::vector<Tgd> tgds = ParseTgds("E(x,y) -> exists w: H(x,w).");
  std::vector<Egd> egds = ParseEgds("H(x,y) & F(x,z) -> y = z.");
  Instance base(&schema_);
  base.AddFact(e_, {a_, b_});
  base.AddFact(f_, {a_, c_});
  StreamingChase stream(&schema_, tgds, egds, &symbols_);
  ASSERT_TRUE(stream.Initialize(base).ok());
  // The fresh null of H(a,w) merged into c.
  EXPECT_TRUE(stream.instance().Contains(h_, {a_, c_}));

  StatusOr<StreamStats> stats =
      stream.ResumeWithDeltas({}, {{f_, Tuple{a_, c_}}});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats.value().fell_back);
  EXPECT_GE(stats.value().dead_triggers, 1);
  EXPECT_EQ(stream.instance().tuples(f_).size(), 0u);
  ASSERT_EQ(stream.instance().tuples(h_).size(), 1u);
  EXPECT_TRUE(stream.instance().tuples(h_)[0][1].is_null())
      << "the merge target is gone, the existential is a null again";

  // Post-fallback state is a normal streaming state: the merge re-forms
  // when the fact returns.
  stats = stream.ResumeWithDeltas({{f_, Tuple{a_, c_}}}, {});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_FALSE(stats.value().fell_back);
  EXPECT_TRUE(stream.instance().Contains(h_, {a_, c_}));
}

// A batch whose adds clash on an egd rolls back wholesale: instances,
// watermark, journal — byte-for-byte the pre-batch state.
TEST_F(StreamTest, FailedBatchRollsBackWholesale) {
  std::vector<Tgd> tgds = ParseTgds("E(x,y) -> H(x,y).");
  std::vector<Egd> egds = ParseEgds("H(x,y) & H(x,z) -> y = z.");
  Instance base(&schema_);
  base.AddFact(e_, {a_, b_});
  StreamingChase stream(&schema_, tgds, egds, &symbols_);
  ASSERT_TRUE(stream.Initialize(base).ok());
  const uint64_t before = CanonicalizedFingerprint(stream.instance());
  const size_t live_before = stream.journal().live_count();
  const int64_t steps_before = stream.total_steps();

  // E(a,c) derives H(a,c); the egd then demands b = c — a clash.
  StatusOr<StreamStats> stats =
      stream.ResumeWithDeltas({{e_, Tuple{a_, c_}}}, {});
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(CanonicalizedFingerprint(stream.instance()), before);
  EXPECT_FALSE(stream.base().Contains(e_, {a_, c_}));
  EXPECT_EQ(stream.journal().live_count(), live_before);
  EXPECT_EQ(stream.total_steps(), steps_before);

  // The stream still accepts compatible batches afterwards.
  stats = stream.ResumeWithDeltas({{e_, Tuple{c_, d_}}}, {});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stream.instance().Contains(h_, {c_, d_}));
}

// A mixed batch applies deletes before adds: retract-and-re-add of the
// same fact in ONE batch leaves it present (the serving layer's coalescing
// contract).
TEST_F(StreamTest, MixedBatchAppliesDeletesBeforeAdds) {
  std::vector<Tgd> tgds = ParseTgds("E(x,y) -> exists z: H(x,z).");
  Instance base(&schema_);
  base.AddFact(e_, {a_, b_});
  StreamingChase stream(&schema_, tgds, {}, &symbols_);
  ASSERT_TRUE(stream.Initialize(base).ok());

  StatusOr<StreamStats> stats = stream.ResumeWithDeltas(
      {{e_, Tuple{a_, b_}}, {e_, Tuple{c_, d_}}}, {{e_, Tuple{a_, b_}}});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stream.base().Contains(e_, {a_, b_}));
  EXPECT_TRUE(stream.base().Contains(e_, {c_, d_}));
  EXPECT_EQ(stream.instance().tuples(h_).size(), 2u);
}

// PDE-level incremental re-answer: retracting a source fact flips
// ExistsSolution from true to false; re-adding it revalidates the cached
// witness in PTIME instead of re-running the search.
TEST_F(StreamTest, DeletionBreaksExistenceAndWitnessRevalidates) {
  SymbolTable symbols;
  PdeSetting setting = testing_util::MakePathSetting(&symbols);
  const Schema& schema = setting.schema();
  RelationId e = schema.FindRelation("E").value();
  RelationId h = schema.FindRelation("H").value();
  Value a = symbols.InternConstant("a");
  Value b = symbols.InternConstant("b");
  Value c = symbols.InternConstant("c");

  // The source lives in a dependency-free stream: ResumeWithDeltas is the
  // single write path, exactly as in pdxd.
  StreamingChase source(&schema, {}, {}, &symbols);
  Instance base(&schema);
  base.AddFact(e, {a, b});
  base.AddFact(e, {b, c});
  ASSERT_TRUE(source.Initialize(base).ok());

  Instance target(&schema);
  target.AddFact(h, {a, c});

  GenericSolverOptions solver_options;
  IncrementalSolveResult first = Unwrap(GenericExistsSolutionIncremental(
      setting, source.instance(), target, nullptr, &symbols, solver_options));
  ASSERT_EQ(first.result.outcome, SolveOutcome::kSolutionFound);
  EXPECT_FALSE(first.revalidated);
  ASSERT_TRUE(first.result.solution.has_value());

  // Retract E(b,c): H(a,c) ∈ J now demands a path a→·→c that the fixed
  // source can no longer provide — no solution exists.
  ASSERT_TRUE(source.ResumeWithDeltas({}, {{e, Tuple{b, c}}}).ok());
  IncrementalSolveResult broken = Unwrap(GenericExistsSolutionIncremental(
      setting, source.instance(), target, &*first.result.solution, &symbols,
      solver_options));
  EXPECT_EQ(broken.result.outcome, SolveOutcome::kNoSolution);
  EXPECT_FALSE(broken.revalidated);

  // Restore the path: the old witness is a solution again, so the
  // incremental path revalidates without searching.
  ASSERT_TRUE(source.ResumeWithDeltas({{e, Tuple{b, c}}}, {}).ok());
  IncrementalSolveResult restored = Unwrap(GenericExistsSolutionIncremental(
      setting, source.instance(), target, &*first.result.solution, &symbols,
      solver_options));
  EXPECT_EQ(restored.result.outcome, SolveOutcome::kSolutionFound);
  EXPECT_TRUE(restored.revalidated);
}

// Certain-answer differential under churn: the stream's instance is J_can
// of the net source, so the null-free answers of a query over it must
// equal the from-scratch certain-answer lower bound after every batch.
TEST_F(StreamTest, CertainLowerBoundMatchesFromScratchUnderChurn) {
  SymbolTable symbols;
  PdeSetting setting = Unwrap(
      PdeSetting::Create({{"E", 2}}, {{"H", 2}},
                         "E(x,z) & E(z,y) -> H(x,y).", "", "", &symbols),
      "data exchange setting");
  const Schema& schema = setting.schema();
  RelationId e = schema.FindRelation("E").value();
  UnionQuery query =
      Unwrap(ParseUnionQuery("q(x,y) :- H(x,y).", schema, &symbols));

  std::vector<Fact> universe;
  for (int u = 0; u < 12; ++u) {
    for (int stride : {1, 2, 5}) {
      Value vu = symbols.InternConstant("m" + std::to_string(u));
      Value vv = symbols.InternConstant("m" + std::to_string((u + stride) % 12));
      universe.push_back({e, Tuple{vu, vv}});
    }
  }
  std::sort(universe.begin(), universe.end());
  universe.erase(std::unique(universe.begin(), universe.end()),
                 universe.end());

  ChurnOptions churn_options;
  churn_options.delete_rate = 0.2;
  churn_options.insert_rate = 0.15;
  churn_options.seed = 11;
  ChurnStream churn(universe, universe.size() * 3 / 4, churn_options);

  StreamingChase stream(&schema, setting.st_tgds(), {}, &symbols);
  ASSERT_TRUE(stream.Initialize(churn.NetInstance(&schema)).ok());

  Instance empty_target(&schema);
  for (int batch_idx = 0; batch_idx < 4; ++batch_idx) {
    ChurnBatch batch = churn.Next();
    ASSERT_TRUE(stream.ResumeWithDeltas(batch.adds, batch.deletes).ok());

    std::vector<Tuple> incremental =
        EvaluateUnionQueryNullFree(query, stream.instance());
    CertainLowerBoundResult scratch =
        Unwrap(ComputeCertainAnswersLowerBound(setting,
                                               churn.NetInstance(&schema),
                                               empty_target, query, &symbols));
    std::sort(incremental.begin(), incremental.end());
    std::sort(scratch.answers.begin(), scratch.answers.end());
    EXPECT_EQ(incremental, scratch.answers) << "batch " << batch_idx;
  }
}

}  // namespace
}  // namespace pdx
