#include "chase/chase.h"

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "base/string_util.h"
#include "base/thread_pool.h"
#include "chase/journal.h"
#include "gtest/gtest.h"
#include "logic/parser.h"
#include "obs/trace.h"
#include "plan/compiler.h"
#include "relational/instance_io.h"
#include "tests/test_util.h"

namespace pdx {
namespace {

class ChaseTest : public ::testing::Test {
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

  Schema schema_;
  SymbolTable symbols_;
  RelationId e_ = 0, h_ = 0, f_ = 0;
  Value a_, b_, c_;
};

TEST_F(ChaseTest, FullTgdComputesCompositionClosure) {
  Instance start(&schema_);
  start.AddFact(e_, {a_, b_});
  start.AddFact(e_, {b_, c_});
  ChaseResult result =
      Chase(start, ParseTgds("E(x,z) & E(z,y) -> H(x,y)."), &symbols_);
  EXPECT_EQ(result.outcome, ChaseOutcome::kSuccess);
  EXPECT_TRUE(result.instance.Contains(h_, {a_, c_}));
  EXPECT_EQ(result.instance.tuples(h_).size(), 1u);
  EXPECT_EQ(result.nulls_created, 0);
  EXPECT_EQ(result.steps, 1);
}

TEST_F(ChaseTest, ExistentialsCreateFreshNulls) {
  Instance start(&schema_);
  start.AddFact(e_, {a_, b_});
  ChaseResult result =
      Chase(start, ParseTgds("E(x,y) -> exists z: H(y,z)."), &symbols_);
  EXPECT_EQ(result.outcome, ChaseOutcome::kSuccess);
  EXPECT_EQ(result.nulls_created, 1);
  ASSERT_EQ(result.instance.tuples(h_).size(), 1u);
  const TupleView t = result.instance.tuples(h_)[0];
  EXPECT_EQ(t[0], b_);
  EXPECT_TRUE(t[1].is_null());
}

TEST_F(ChaseTest, RestrictedChaseDoesNotFireSatisfiedTriggers) {
  Instance start(&schema_);
  start.AddFact(e_, {a_, b_});
  start.AddFact(h_, {b_, c_});  // already witnesses the existential
  ChaseResult result =
      Chase(start, ParseTgds("E(x,y) -> exists z: H(y,z)."), &symbols_);
  EXPECT_EQ(result.outcome, ChaseOutcome::kSuccess);
  EXPECT_EQ(result.steps, 0);
  EXPECT_EQ(result.nulls_created, 0);
}

TEST_F(ChaseTest, CascadingTgdsReachFixpoint) {
  Instance start(&schema_);
  start.AddFact(e_, {a_, b_});
  ChaseResult result = Chase(
      start, ParseTgds("E(x,y) -> H(x,y). H(x,y) -> F(x,y)."), &symbols_);
  EXPECT_EQ(result.outcome, ChaseOutcome::kSuccess);
  EXPECT_TRUE(result.instance.Contains(f_, {a_, b_}));
  EXPECT_EQ(result.steps, 2);
}

TEST_F(ChaseTest, EgdMergesNullIntoConstant) {
  Instance start(&schema_);
  Value n = symbols_.FreshNull();
  start.AddFact(h_, {a_, b_});
  start.AddFact(h_, {a_, n});
  ChaseResult result =
      Chase(start, {}, ParseEgds("H(x,y) & H(x,z) -> y = z."), &symbols_);
  EXPECT_EQ(result.outcome, ChaseOutcome::kSuccess);
  // The merge is a union in the value layer: the raw store keeps both
  // tuples, the resolved view collapses them onto H(a,b).
  EXPECT_EQ(result.instance.ResolvedFactCount(), 1u);
  EXPECT_TRUE(result.instance.Contains(h_, {a_, b_}));
  EXPECT_EQ(result.Resolve(n), b_);
}

TEST_F(ChaseTest, EgdMergesNullIntoNull) {
  Instance start(&schema_);
  Value n1 = symbols_.FreshNull();
  Value n2 = symbols_.FreshNull();
  start.AddFact(h_, {a_, n1});
  start.AddFact(h_, {a_, n2});
  ChaseResult result =
      Chase(start, {}, ParseEgds("H(x,y) & H(x,z) -> y = z."), &symbols_);
  EXPECT_EQ(result.outcome, ChaseOutcome::kSuccess);
  EXPECT_EQ(result.instance.ResolvedFactCount(), 1u);
  EXPECT_EQ(result.Resolve(n1), result.Resolve(n2));
}

TEST_F(ChaseTest, EgdFailsOnDistinctConstants) {
  Instance start(&schema_);
  start.AddFact(h_, {a_, b_});
  start.AddFact(h_, {a_, c_});
  ChaseResult result =
      Chase(start, {}, ParseEgds("H(x,y) & H(x,z) -> y = z."), &symbols_);
  EXPECT_EQ(result.outcome, ChaseOutcome::kFailed);
  EXPECT_FALSE(result.failure.empty());
}

TEST_F(ChaseTest, TgdAndEgdInteract) {
  // E copies into H; the egd then enforces key-ness of H's first column.
  Instance start(&schema_);
  Value n = symbols_.FreshNull();
  start.AddFact(e_, {a_, b_});
  start.AddFact(h_, {a_, n});
  ChaseResult result =
      Chase(start, ParseTgds("E(x,y) -> H(x,y)."),
            ParseEgds("H(x,y) & H(x,z) -> y = z."), &symbols_);
  EXPECT_EQ(result.outcome, ChaseOutcome::kSuccess);
  // Resolved view: E(a,b) plus the single merged H(a,b).
  EXPECT_EQ(result.instance.ResolvedFactCount(), 2u);
  EXPECT_TRUE(result.instance.Contains(h_, {a_, b_}));
  EXPECT_EQ(result.Resolve(n), b_);
}

TEST_F(ChaseTest, NonTerminatingChaseHitsBudget) {
  Instance start(&schema_);
  start.AddFact(h_, {a_, b_});
  ChaseOptions options;
  options.max_steps = 100;
  ChaseResult result = Chase(
      start, ParseTgds("H(x,y) -> exists z: H(y,z)."), {}, &symbols_,
      options);
  EXPECT_EQ(result.outcome, ChaseOutcome::kBudgetExhausted);
  EXPECT_EQ(result.steps, 100);
}

TEST_F(ChaseTest, WeaklyAcyclicChaseTerminatesWellUnderBudget) {
  Instance start(&schema_);
  for (int i = 0; i < 20; ++i) {
    start.AddFact(e_, {symbols_.InternConstant("x" + std::to_string(i)),
                       symbols_.InternConstant("x" + std::to_string(i + 1))});
  }
  ChaseResult result = Chase(
      start,
      ParseTgds("E(x,y) -> exists z: H(x,z). H(x,z) -> F(x,z)."),
      &symbols_);
  EXPECT_EQ(result.outcome, ChaseOutcome::kSuccess);
  EXPECT_EQ(result.nulls_created, 20);
  EXPECT_EQ(result.instance.tuples(h_).size(), 20u);
  EXPECT_EQ(result.instance.tuples(f_).size(), 20u);
}

TEST_F(ChaseTest, SatisfactionChecks) {
  Instance instance(&schema_);
  instance.AddFact(e_, {a_, b_});
  instance.AddFact(h_, {a_, b_});
  EXPECT_TRUE(SatisfiesTgd(instance, ParseTgds("E(x,y) -> H(x,y).")[0]));
  EXPECT_FALSE(SatisfiesTgd(instance, ParseTgds("E(x,y) -> H(y,x).")[0]));
  EXPECT_TRUE(SatisfiesEgd(
      instance, ParseEgds("H(x,y) & H(x,z) -> y = z.")[0]));
  instance.AddFact(h_, {a_, c_});
  EXPECT_FALSE(SatisfiesEgd(
      instance, ParseEgds("H(x,y) & H(x,z) -> y = z.")[0]));
}

TEST_F(ChaseTest, DisjunctiveSatisfaction) {
  auto deps = ParseDependencies("H(x,y) -> (E(x,y)) | (F(x,y)).", schema_,
                                &symbols_);
  ASSERT_TRUE(deps.ok());
  const DisjunctiveTgd& tgd = deps->disjunctive_tgds[0];
  Instance instance(&schema_);
  instance.AddFact(h_, {a_, b_});
  EXPECT_FALSE(SatisfiesDisjunctiveTgd(instance, tgd));
  instance.AddFact(f_, {a_, b_});
  EXPECT_TRUE(SatisfiesDisjunctiveTgd(instance, tgd));
}

TEST_F(ChaseTest, SatisfiesAllAggregates) {
  auto deps = ParseDependencies(
      "E(x,y) -> H(x,y). H(x,y) & H(x,z) -> y = z.", schema_, &symbols_);
  ASSERT_TRUE(deps.ok());
  Instance instance(&schema_);
  instance.AddFact(e_, {a_, b_});
  EXPECT_FALSE(SatisfiesAll(instance, *deps));
  instance.AddFact(h_, {a_, b_});
  EXPECT_TRUE(SatisfiesAll(instance, *deps));
}

// The egd fixpoint on its own: a key egd over k facts H(c, ⊥i) unites the
// k nulls into one class in k-1 merges, journals each merge under a body
// match of the instance, and ends in the same state with and without a
// pool (one merge order at every thread count). With k = 80 the first
// pass collects ~k² violated rows, past the row buffer's retained
// capacity, so the buffer is also released on return.
TEST_F(ChaseTest, EgdFixpointMergesKeyClass) {
  constexpr int kFacts = 80;
  const std::vector<Egd> egds = ParseEgds("H(x,y) & H(x,z) -> y = z.");
  ASSERT_EQ(egds.size(), 1u);
  const std::vector<plan::EgdPlan> egd_plans = {plan::CompileEgd(egds[0])};
  Instance start(&schema_);
  std::vector<Value> nulls;
  for (int i = 0; i < kFacts; ++i) {
    nulls.push_back(symbols_.FreshNull());
    start.AddFact(h_, {c_, nulls.back()});
  }
  const auto run = [&](ThreadPool* pool, ChaseJournal* journal) {
    Instance instance = start;
    std::vector<std::vector<int>> extras;
    EgdFixpointOutcome out = RunEgdsToFixpointDelta(
        egds, egd_plans, &instance, InstanceWatermark::Origin(instance),
        /*max_steps=*/1'000'000, &symbols_, &extras, pool, journal);
    return std::make_pair(std::move(out), std::move(instance));
  };

  ChaseJournal journal;
  auto [seq, seq_instance] = run(/*pool=*/nullptr, &journal);
  EXPECT_FALSE(seq.failed);
  EXPECT_FALSE(seq.budget_exhausted);
  EXPECT_EQ(seq.steps, kFacts - 1);
  const Value root = seq_instance.ResolveValue(nulls[0]);
  for (Value v : nulls) EXPECT_EQ(seq_instance.ResolveValue(v), root);

  ASSERT_EQ(journal.size(), static_cast<size_t>(kFacts - 1));
  for (size_t i = 0; i < journal.size(); ++i) {
    const ChaseJournal::Entry& entry = journal.entry(i);
    EXPECT_TRUE(entry.egd);
    EXPECT_EQ(entry.dep, 0u);
    ASSERT_EQ(entry.len, static_cast<uint16_t>(egds[0].var_count));
    const Value* row = journal.row(entry);
    for (const Atom& atom : egds[0].body) {
      Tuple tuple;
      for (const Term& t : atom.terms) {
        tuple.push_back(t.is_constant() ? t.constant() : row[t.var()]);
      }
      EXPECT_TRUE(seq_instance.Contains(atom.relation, tuple))
          << "journal row " << i << " is not a body match";
    }
  }

  ThreadPool pool(4);
  auto [par, par_instance] = run(&pool, /*journal=*/nullptr);
  EXPECT_EQ(par.failed, seq.failed);
  EXPECT_EQ(par.budget_exhausted, seq.budget_exhausted);
  EXPECT_EQ(par.steps, seq.steps);
  EXPECT_EQ(par_instance.CanonicalFingerprint(),
            seq_instance.CanonicalFingerprint());
  for (Value v : nulls) EXPECT_EQ(par_instance.ResolveValue(v), root);
}

// Copy tgds wider than the existence fast path's 16-position probe
// buffer: the head check of S(x0..xn-1) -> T(x0..xn-1) is one
// index-probed level of n positions, which must fall back to the generic
// VM loop instead of writing past the buffer. The existential variant
// leaves the last head position free. Each run is checked against the
// kRestrictedNaive oracle; one trigger is satisfied up front so the head
// check decides something.
TEST(WideTgdChaseTest, CopyTgdsWiderThanTheExistsProbeMatchTheOracle) {
  for (int arity : {16, 17, 40}) {
    for (bool existential : {false, true}) {
      SCOPED_TRACE(StrCat("arity ", arity, existential ? " existential" : ""));
      Schema schema;
      ASSERT_TRUE(schema.AddRelation("S", arity).ok());
      ASSERT_TRUE(schema.AddRelation("T", arity).ok());
      SymbolTable symbols;
      std::string body_vars, head_vars;
      for (int i = 0; i < arity; ++i) {
        const char* sep = i == 0 ? "" : ",";
        body_vars += StrCat(sep, "x", i);
        head_vars += existential && i == arity - 1 ? StrCat(sep, "z")
                                                   : StrCat(sep, "x", i);
      }
      const std::string text =
          StrCat("S(", body_vars, ") -> ", existential ? "exists z: " : "",
                 "T(", head_vars, ").");
      auto deps = ParseDependencies(text, schema, &symbols);
      ASSERT_TRUE(deps.ok()) << deps.status().ToString();
      Instance start(&schema);
      for (int row = 0; row < 3; ++row) {
        Tuple tuple;
        for (int i = 0; i < arity; ++i) {
          tuple.push_back(symbols.InternConstant(StrCat("c", row, "_", i)));
        }
        start.AddFact(0, tuple);
        if (row == 0) start.AddFact(1, tuple);
      }
      ChaseResult got = Chase(start, deps->tgds, &symbols);
      ChaseOptions naive;
      naive.strategy = ChaseStrategy::kRestrictedNaive;
      ChaseResult want = Chase(start, deps->tgds, &symbols, naive);
      ASSERT_EQ(got.outcome, ChaseOutcome::kSuccess);
      ASSERT_EQ(want.outcome, ChaseOutcome::kSuccess);
      EXPECT_EQ(got.steps, 2);
      EXPECT_EQ(got.steps, want.steps);
      EXPECT_EQ(got.nulls_created, want.nulls_created);
      EXPECT_EQ(got.instance.tuples(1).size(), 3u);
      EXPECT_EQ(got.instance.CanonicalFingerprint(),
                want.instance.CanonicalFingerprint());
    }
  }
}

// Batches that satisfy their own later triggers, one per apply mode and
// the merge guard: the delta chase must take exactly the oracle's steps
// and nulls, pinned by the case, and reach an isomorphic instance.
TEST(ApplyModeChaseTest, SelfSatisfyingBatchesMatchTheOracle) {
  for (const testing_util::SelfSatisfyingBatch& c :
       testing_util::SelfSatisfyingBatches()) {
    SCOPED_TRACE(c.name);
    Schema schema;
    for (const auto& [name, arity] : c.relations) {
      ASSERT_TRUE(schema.AddRelation(name, arity).ok());
    }
    SymbolTable symbols;
    DependencySet deps = testing_util::Unwrap(
        ParseDependencies(c.deps, schema, &symbols), "deps");
    Instance start =
        testing_util::Unwrap(ParseInstance(c.facts, schema, &symbols));
    ChaseResult got = Chase(start, deps.tgds, deps.egds, &symbols);
    ChaseOptions naive;
    naive.strategy = ChaseStrategy::kRestrictedNaive;
    ChaseResult want = Chase(start, deps.tgds, deps.egds, &symbols, naive);
    ASSERT_EQ(got.outcome, ChaseOutcome::kSuccess);
    ASSERT_EQ(want.outcome, ChaseOutcome::kSuccess);
    EXPECT_EQ(got.steps, c.steps);
    EXPECT_EQ(got.nulls_created, c.nulls);
    EXPECT_EQ(want.steps, c.steps);
    EXPECT_EQ(want.nulls_created, c.nulls);
    EXPECT_EQ(testing_util::CanonicalizedFingerprint(got.instance),
              testing_util::CanonicalizedFingerprint(
                  want.instance.CompactResolved()));
  }
}

// The chase.tgd span's `rechecked` counts the triggers whose head the
// apply re-checked on the live instance: every collected trigger of a
// live tgd, none of an insert or none tgd.
TEST(ApplyModeChaseTest, TgdSpanCountsLiveRechecks) {
  Schema schema;
  for (const auto& [name, arity] :
       std::vector<std::pair<const char*, int>>{{"SPProtein", 3},
                                                {"SPAnnotation", 2},
                                                {"Protein", 2},
                                                {"Organism", 2},
                                                {"Annotation", 3}}) {
    ASSERT_TRUE(schema.AddRelation(name, arity).ok());
  }
  SymbolTable symbols;
  DependencySet deps = testing_util::Unwrap(ParseDependencies(
      "SPProtein(a,n,o) -> Protein(a,n) & Organism(a,o)."
      "SPAnnotation(a,g) -> exists e: Annotation(a,g,e)."
      "Annotation(a,g,e) -> exists n,o: SPProtein(a,n,o) & SPAnnotation(a,g).",
      schema, &symbols));
  Instance start = testing_util::Unwrap(ParseInstance(
      "SPProtein(p,n,o). SPProtein(q,n,o). SPAnnotation(p,g). "
      "SPAnnotation(q,g). Annotation(p,h,e1). Annotation(p,h,e2).",
      schema, &symbols));
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Enable();
  ChaseResult result = Chase(start, deps.tgds, &symbols);
  std::vector<obs::SpanRecord> spans = tracer.Drain();
  tracer.Disable();
  ASSERT_EQ(result.outcome, ChaseOutcome::kSuccess);
  // dep -> {collected, applied, rechecked}, summed over rounds.
  std::map<int64_t, std::vector<int64_t>> per_dep;
  for (const obs::SpanRecord& span : spans) {
    if (span.name != "chase.tgd") continue;
    int64_t dep = -1, collected = 0, applied = 0, rechecked = -1;
    for (const obs::SpanAttr& attr : span.attrs) {
      if (attr.key == "dep") dep = attr.i;
      if (attr.key == "collected") collected = attr.i;
      if (attr.key == "applied") applied = attr.i;
      if (attr.key == "rechecked") rechecked = attr.i;
    }
    ASSERT_GE(rechecked, 0) << "chase.tgd span without `rechecked`";
    std::vector<int64_t>& sums = per_dep[dep];
    sums.resize(3, 0);
    sums[0] += collected;
    sums[1] += applied;
    sums[2] += rechecked;
  }
  // Insert: two source proteins and the one the live tgd invents, no
  // re-check.
  EXPECT_EQ(per_dep[0], (std::vector<int64_t>{3, 3, 0}));
  // None: two annotations, no re-check.
  EXPECT_EQ(per_dep[1], (std::vector<int64_t>{2, 2, 0}));
  // Live: the two source annotations already hold; of the two (p,h,·)
  // triggers both are re-checked and the second finds the first's facts.
  EXPECT_EQ(per_dep[2], (std::vector<int64_t>{2, 1, 2}));
}

}  // namespace
}  // namespace pdx
