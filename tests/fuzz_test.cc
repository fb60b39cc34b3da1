// Robustness sweeps: randomly mangled inputs must produce error Statuses,
// never crashes, and valid inputs must survive mutation-and-reparse loops;
// fuzzed chases must keep the value layer's invariants.

#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "base/string_util.h"
#include "chase/chase.h"
#include "chase/stream.h"
#include "logic/parser.h"
#include "pde/setting_file.h"
#include "plan/compiler.h"
#include "relational/instance_io.h"
#include "tests/test_util.h"
#include "workload/churn.h"
#include "workload/random.h"

namespace pdx {
namespace {

// Characters the parsers care about, over-weighted with structure.
constexpr char kAlphabet[] =
    "abcxyzEHPq0129_,&|()'->:=.# \n\tEEHH(((--->>exists";

std::string RandomText(Rng* rng, int length) {
  std::string text;
  text.reserve(length);
  for (int i = 0; i < length; ++i) {
    text.push_back(
        kAlphabet[rng->UniformInt(sizeof(kAlphabet) - 1)]);
  }
  return text;
}

class FuzzTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    ASSERT_TRUE(schema_.AddRelation("E", 2).ok());
    ASSERT_TRUE(schema_.AddRelation("H", 2).ok());
    ASSERT_TRUE(schema_.AddRelation("P", 4).ok());
  }

  Schema schema_;
  SymbolTable symbols_;
};

TEST_P(FuzzTest, DependencyParserNeverCrashes) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    std::string text = RandomText(&rng, 1 + rng.UniformInt(80));
    // Must return; outcome (ok or error) is unconstrained.
    auto result = ParseDependencies(text, schema_, &symbols_);
    (void)result;
  }
}

TEST_P(FuzzTest, QueryParserNeverCrashes) {
  Rng rng(GetParam() + 1000);
  for (int trial = 0; trial < 200; ++trial) {
    std::string text = RandomText(&rng, 1 + rng.UniformInt(60));
    auto result = ParseUnionQuery(text, schema_, &symbols_);
    (void)result;
  }
}

TEST_P(FuzzTest, InstanceParserNeverCrashes) {
  Rng rng(GetParam() + 2000);
  for (int trial = 0; trial < 200; ++trial) {
    std::string text = RandomText(&rng, 1 + rng.UniformInt(60));
    auto result = ParseInstance(text, schema_, &symbols_);
    (void)result;
  }
}

TEST_P(FuzzTest, SettingFileParserNeverCrashes) {
  Rng rng(GetParam() + 3000);
  for (int trial = 0; trial < 100; ++trial) {
    std::string text =
        "[source]\nE/2\n[target]\nH/2\n" + RandomText(&rng, 80);
    SymbolTable symbols;
    auto result = ParseSettingFile(text, &symbols);
    (void)result;
  }
}

TEST_P(FuzzTest, MutatedValidDependencySurvives) {
  Rng rng(GetParam() + 4000);
  const std::string valid =
      "E(x,z) & E(z,y) -> H(x,y). H(x,y) -> exists w: E(x,w).";
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = valid;
    int mutations = 1 + rng.UniformInt(4);
    for (int m = 0; m < mutations; ++m) {
      size_t pos = rng.UniformInt(static_cast<uint32_t>(mutated.size()));
      mutated[pos] = kAlphabet[rng.UniformInt(sizeof(kAlphabet) - 1)];
    }
    auto result = ParseDependencies(mutated, schema_, &symbols_);
    if (result.ok()) {
      // If it still parses, the result must render and reparse.
      for (const Tgd& tgd : result->tgds) {
        std::string rendered = tgd.ToString(schema_, symbols_) + ".";
        EXPECT_TRUE(ParseTgd(rendered, schema_, &symbols_).ok())
            << "render/reparse broke on: " << rendered;
      }
    }
  }
}

// Chase fuzz: random instances (constants and shared nulls) through
// egd-bearing rule sets. Whatever the merge order, the trace checker must
// accept the run, and its resolved view must expose every surviving null
// as its own class root — a null resolving to a non-root would mean a
// stale parent link survived the chase. The last rule set is a three-round
// chain: the egd merges an H null a round after H was written, so the
// final tgd (apply mode none) meets its H(x,z) & P(x,z,z,z) matches both
// through the merge-dirtied H tuple and through the new P tuple — the
// repeated match the apply's merge guard must fire only once.
TEST_P(FuzzTest, FuzzedChasesResolveSurvivingNullsToUniqueRoots) {
  Rng rng(GetParam() + 5000);
  const char* kRuleSets[] = {
      "E(x,y) -> exists z: H(x,z). H(x,y) & H(x,z) -> y = z.",
      "E(x,y) -> exists z: H(x,z) & H(y,z). H(x,y) & H(x,z) -> y = z.",
      "E(x,z) & E(z,y) -> H(x,y). H(x,y) -> exists w: E(x,w). "
      "H(x,y) & H(x,z) -> y = z. E(x,y) & E(x,z) -> y = z.",
      "E(x,y) -> exists z: H(x,z). H(x,z) & E(x,y) -> P(x,y,y,y). "
      "H(x,z) & P(x,y,y,y) -> z = y. "
      "H(x,z) & P(x,z,z,z) -> exists v: P(v,x,z,v).",
  };
  for (int trial = 0; trial < 20; ++trial) {
    auto deps =
        ParseDependencies(kRuleSets[rng.UniformInt(4)], schema_, &symbols_);
    ASSERT_TRUE(deps.ok()) << deps.status().ToString();

    Instance start(&schema_);
    int pool = 2 + static_cast<int>(rng.UniformInt(4));
    std::vector<Value> nulls;
    for (int i = 0; i < 3; ++i) nulls.push_back(symbols_.FreshNull());
    int facts = 3 + static_cast<int>(rng.UniformInt(8));
    for (int i = 0; i < facts; ++i) {
      RelationId relation = static_cast<RelationId>(rng.UniformInt(2));
      Tuple tuple;
      for (int pos = 0; pos < 2; ++pos) {
        if (rng.UniformInt(4) == 0) {
          tuple.push_back(nulls[rng.UniformInt(3)]);
        } else {
          tuple.push_back(symbols_.InternConstant(
              "k" + std::to_string(rng.UniformInt(pool))));
        }
      }
      start.AddFact(relation, tuple);
    }

    ChaseOptions delta_options;
    delta_options.max_steps = 5000;
    ChaseResult delta = testing_util::CheckedChase(
        start, deps->tgds, deps->egds, &symbols_, delta_options,
        StrCat("trial ", trial, "\nI:\n", start.ToString(symbols_)));

    // The same delta chase at a thread count drawn per trial must be
    // bit-identical to the sequential run: same outcome, steps, failure,
    // nulls and raw fingerprint.
    ChaseOptions parallel_options = delta_options;
    const int kThreadChoices[] = {1, 2, 8};
    parallel_options.num_threads = kThreadChoices[rng.UniformInt(3)];
    ChaseResult parallel =
        Chase(start, deps->tgds, deps->egds, &symbols_, parallel_options);
    ASSERT_EQ(parallel.outcome, delta.outcome)
        << "parallel disagreement, trial " << trial << " threads "
        << parallel_options.num_threads << "\nI:\n"
        << start.ToString(symbols_);
    EXPECT_EQ(parallel.steps, delta.steps) << "trial " << trial;
    EXPECT_EQ(parallel.failure, delta.failure) << "trial " << trial;
    EXPECT_EQ(parallel.nulls_created, delta.nulls_created) << "trial " << trial;
    EXPECT_EQ(parallel.instance.CanonicalFingerprint(),
              delta.instance.CanonicalFingerprint())
        << "trial " << trial << " threads " << parallel_options.num_threads
        << "\nI:\n" << start.ToString(symbols_);

    if (delta.outcome != ChaseOutcome::kSuccess) continue;

    std::unordered_set<uint64_t> roots;
    for (Value v : delta.instance.Nulls()) {
      EXPECT_EQ(delta.instance.ResolveValue(v), v)
          << "non-root null in resolved view, trial " << trial;
      EXPECT_TRUE(roots.insert(v.packed()).second);
    }
    // Every value of every resolved fact is a root too (constants
    // trivially, nulls by the invariant above).
    for (const Fact& fact : delta.instance.AllFacts()) {
      for (Value v : fact.tuple) {
        EXPECT_EQ(delta.instance.ResolveValue(v), v);
      }
    }
  }
}

// A random tgd from a relation of `body_layer` to relations of
// `head_layer` (name and arity each). Bodies have one or two atoms and
// may hold constants. Heads have one or two atoms whose relations may
// repeat. Each head position holds a body variable, an existential
// (e0 or e1, so existentials repeat) or a constant, and half the atoms
// first lay out every body variable they fit, so the insert, none and
// live apply modes all occur.
using Layer = std::vector<std::pair<std::string, int>>;

std::string RandomTgd(Rng* rng, const Layer& body_layer,
                      const Layer& head_layer) {
  auto pick = [&](const Layer& layer) {
    return layer[rng->UniformInt(static_cast<uint32_t>(layer.size()))];
  };
  auto constant = [&] { return StrCat("'k", rng->UniformInt(2), "'"); };
  int vars = 0;
  std::vector<std::string> body;
  const int body_atoms = 1 + static_cast<int>(rng->UniformInt(2));
  for (int a = 0; a < body_atoms; ++a) {
    const auto& [name, arity] = pick(body_layer);
    std::vector<std::string> terms;
    for (int i = 0; i < arity; ++i) {
      if (rng->UniformInt(8) == 0) {
        terms.push_back(constant());
      } else if (vars > 0 && rng->Bernoulli(0.4)) {
        terms.push_back(StrCat("x", rng->UniformInt(vars)));
      } else {
        terms.push_back(StrCat("x", vars++));
      }
    }
    body.push_back(StrCat(name, "(", StrJoin(terms, ","), ")"));
  }
  std::vector<std::string> head;
  const int head_atoms = 1 + static_cast<int>(rng->UniformInt(2));
  for (int a = 0; a < head_atoms; ++a) {
    const auto& [name, arity] = pick(head_layer);
    std::vector<std::string> terms;
    if (rng->Bernoulli(0.5)) {
      for (int v = 0; v < vars && v < arity; ++v) {
        terms.push_back(StrCat("x", v));
      }
    }
    while (static_cast<int>(terms.size()) < arity) {
      const uint32_t kind = rng->UniformInt(6);
      if (kind == 0) {
        terms.push_back(constant());
      } else if (kind <= 2 || vars == 0) {
        terms.push_back(StrCat("e", rng->UniformInt(2)));
      } else {
        terms.push_back(StrCat("x", rng->UniformInt(vars)));
      }
    }
    head.push_back(StrCat(name, "(", StrJoin(terms, ","), ")"));
  }
  return StrCat(StrJoin(body, " & "), " -> ", StrJoin(head, " & "), ".");
}

// Random tgd shapes through both engines. The relations form three
// layers (E, H -> P, Q -> R, S), so every chase terminates whatever its
// trigger order, and the optional key egds merge layer-one nulls that
// layer-two bodies then re-read through merge-dirtied tuples. The trace
// checker must accept every run, and the chase must be bit-identical at
// every thread count. The generator must reach every apply mode and every
// shape that forces the live path.
TEST_P(FuzzTest, RandomTgdShapesPassTheTraceCheck) {
  Rng rng(GetParam() + 7000);
  const Layer layers[] = {
      {{"E", 2}, {"H", 2}}, {{"P", 3}, {"Q", 2}}, {{"R", 2}, {"S", 3}}};
  Schema schema;
  for (const auto& layer : layers) {
    for (const auto& [name, arity] : layer) {
      ASSERT_TRUE(schema.AddRelation(name, arity).ok());
    }
  }
  SymbolTable symbols;
  std::set<plan::ApplyMode> modes;
  int repeated_relation = 0, omitted_variable = 0, head_constant = 0;
  for (int trial = 0; trial < 24; ++trial) {
    std::string text;
    const int tgds = 1 + static_cast<int>(rng.UniformInt(3));
    for (int t = 0; t < tgds; ++t) {
      const int from = static_cast<int>(rng.UniformInt(2));
      text += RandomTgd(&rng, layers[from], layers[from + 1]) + " ";
    }
    if (rng.Bernoulli(0.5)) text += "Q(x,y) & Q(x,z) -> y = z. ";
    if (rng.Bernoulli(0.3)) text += "P(x,y,z) & P(x,y,w) -> z = w. ";
    auto deps = ParseDependencies(text, schema, &symbols);
    ASSERT_TRUE(deps.ok()) << deps.status().ToString() << "\n" << text;

    for (const Tgd& tgd : deps->tgds) {
      const plan::ApplyTemplate apply = plan::CompileTgd(tgd).apply;
      modes.insert(apply.mode);
      std::set<RelationId> relations;
      for (const Atom& atom : tgd.head) {
        if (!relations.insert(atom.relation).second) ++repeated_relation;
        std::set<VariableId> named;
        for (const Term& term : atom.terms) {
          if (term.is_constant()) {
            ++head_constant;
          } else {
            named.insert(term.var());
          }
        }
        for (VariableId v = 0; v < tgd.var_count; ++v) {
          if (!tgd.existential[v] && named.count(v) == 0) ++omitted_variable;
        }
      }
    }

    Instance start(&schema);
    const int facts = 3 + static_cast<int>(rng.UniformInt(8));
    for (int i = 0; i < facts; ++i) {
      start.AddFact(static_cast<RelationId>(rng.UniformInt(2)),
                    {symbols.InternConstant(StrCat("k", rng.UniformInt(3))),
                     symbols.InternConstant(StrCat("k", rng.UniformInt(3)))});
    }

    ChaseOptions delta_options;
    delta_options.max_steps = 5000;
    delta_options.num_threads = 1;
    ChaseResult delta = testing_util::CheckedChase(
        start, deps->tgds, deps->egds, &symbols, delta_options,
        StrCat("trial ", trial, "\n", text, "\nI:\n",
               start.ToString(symbols)));
    ASSERT_NE(delta.outcome, ChaseOutcome::kBudgetExhausted) << text;

    for (int threads : {2, 4, 8}) {
      ChaseOptions parallel_options = delta_options;
      parallel_options.num_threads = threads;
      ChaseResult parallel =
          Chase(start, deps->tgds, deps->egds, &symbols, parallel_options);
      ASSERT_EQ(parallel.outcome, delta.outcome)
          << "trial " << trial << " threads " << threads << "\n" << text;
      EXPECT_EQ(parallel.steps, delta.steps) << "trial " << trial;
      EXPECT_EQ(parallel.failure, delta.failure) << "trial " << trial;
      EXPECT_EQ(parallel.nulls_created, delta.nulls_created)
          << "trial " << trial;
      EXPECT_EQ(parallel.instance.CanonicalFingerprint(),
                delta.instance.CanonicalFingerprint())
          << "trial " << trial << " threads " << threads << "\n" << text;
    }
  }
  EXPECT_EQ(modes.size(), 3u) << "every apply mode must occur";
  EXPECT_GT(repeated_relation, 0);
  EXPECT_GT(omitted_variable, 0);
  EXPECT_GT(head_constant, 0);
}

// Streaming churn fuzz: a random ±Δ stream absorbed batch-by-batch by a
// StreamingChase must track a fresh engine chasing the net instance —
// dependency satisfaction and homomorphic equivalence after every batch —
// whatever the thread count drawn for the trial. The
// universe is constant-only E facts, so the egd-bearing rule set only ever
// merges invented nulls: no churn order can fail the chase, and deleting
// an egd firing's body exercises the full re-chase fallback instead.
TEST_P(FuzzTest, ChurnStreamsMatchFreshEngineOnNetInstance) {
  Rng rng(GetParam() + 6000);
  const char* kRuleSets[] = {
      "E(x,z) & E(z,y) -> H(x,y).",
      "E(x,z) & E(z,y) -> H(x,y). H(x,y) -> exists w: E(x,w).",
      "E(x,y) -> exists z: H(x,z). H(x,y) & H(x,z) -> y = z.",
  };
  const RelationId e = schema_.FindRelation("E").value();
  for (int trial = 0; trial < 6; ++trial) {
    auto deps =
        ParseDependencies(kRuleSets[rng.UniformInt(3)], schema_, &symbols_);
    ASSERT_TRUE(deps.ok()) << deps.status().ToString();

    std::vector<Fact> universe;
    int pool = 4 + static_cast<int>(rng.UniformInt(5));
    for (int i = 0; i < 24; ++i) {
      Tuple tuple;
      for (int pos = 0; pos < 2; ++pos) {
        tuple.push_back(symbols_.InternConstant(
            "k" + std::to_string(rng.UniformInt(pool))));
      }
      universe.push_back({e, tuple});
    }
    std::sort(universe.begin(), universe.end());
    universe.erase(std::unique(universe.begin(), universe.end()),
                   universe.end());

    ChaseOptions options;
    options.max_steps = 5000;
    const int kThreadChoices[] = {1, 2, 8};
    options.num_threads = kThreadChoices[rng.UniformInt(3)];

    ChurnOptions churn_options;
    churn_options.delete_rate = 0.2;
    churn_options.insert_rate = 0.2;
    churn_options.overlap = 0.5;
    churn_options.seed = GetParam() * 131 + trial;
    ChurnStream churn(universe, universe.size() / 2, churn_options);

    StreamingChase stream(&schema_, deps->tgds, deps->egds, &symbols_,
                          options);
    ASSERT_TRUE(stream.Initialize(churn.NetInstance(&schema_)).ok());

    for (int batch_idx = 0; batch_idx < 4; ++batch_idx) {
      ChurnBatch batch = churn.Next();
      auto stats = stream.ResumeWithDeltas(batch.adds, batch.deletes);
      ASSERT_TRUE(stats.ok())
          << stats.status().ToString() << "\ntrial " << trial << " batch "
          << batch_idx;
      Instance net = churn.NetInstance(&schema_);
      ChaseResult scratch =
          Chase(net, deps->tgds, deps->egds, &symbols_, options);
      ASSERT_EQ(scratch.outcome, ChaseOutcome::kSuccess)
          << "trial " << trial << " batch " << batch_idx;
      EXPECT_TRUE(SatisfiesAll(stream.instance(), *deps))
          << "trial " << trial << " batch " << batch_idx;
      testing_util::AssertHomEquivalent(
          stream.instance(), scratch.instance,
          "trial " + std::to_string(trial) + " batch " +
              std::to_string(batch_idx) + " threads " +
              std::to_string(options.num_threads));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

}  // namespace
}  // namespace pdx
