// Property-based cross-validation: on randomly generated C_tract settings
// and instances, the polynomial ExistsSolution algorithm (Figure 3) must
// agree with the sound-and-complete generic search solver, and any witness
// either solver produces must verify against Definition 2.

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "base/string_util.h"
#include "gtest/gtest.h"
#include "chase/stream.h"
#include "hom/matcher.h"
#include "logic/atom.h"
#include "logic/parser.h"
#include "pde/ctract_solver.h"
#include "pde/data_exchange.h"
#include "pde/generic_solver.h"
#include "pde/solution.h"
#include "tests/test_util.h"
#include "workload/churn.h"
#include "workload/setting_gen.h"

namespace pdx {
namespace {

using testing_util::Unwrap;

enum class GenKind { kLavTs, kFullSt };

struct CrossValidationParam {
  GenKind kind;
  uint64_t seed;
  int facts;
};

class CrossValidationTest
    : public ::testing::TestWithParam<CrossValidationParam> {};

TEST_P(CrossValidationTest, SolversAgreeOnRandomCtractSettings) {
  const CrossValidationParam& param = GetParam();
  Rng rng(param.seed);
  SymbolTable symbols;
  SettingGenOptions opts;
  opts.max_arity = 2;
  opts.st_tgd_count = 2;
  opts.ts_tgd_count = 2;
  StatusOr<GeneratedSetting> generated =
      param.kind == GenKind::kLavTs
          ? MakeRandomLavSetting(opts, &rng, &symbols)
          : MakeRandomFullStSetting(opts, &rng, &symbols);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  const PdeSetting& setting = generated->setting;
  ASSERT_TRUE(setting.InCtract())
      << "generator must produce C_tract settings:\nΣst:\n"
      << generated->sigma_st << "\nΣts:\n" << generated->sigma_ts;

  Instance source = MakeRandomSourceInstance(setting, param.facts,
                                             /*constant_pool=*/4, &rng,
                                             &symbols);
  Instance target = setting.EmptyInstance();

  CtractSolveResult fast =
      Unwrap(CtractExistsSolution(setting, source, target, &symbols),
             "CtractExistsSolution");

  GenericSolverOptions solver_options;
  solver_options.max_nodes = 200'000;
  GenericSolveResult slow = Unwrap(
      GenericExistsSolution(setting, source, target, &symbols,
                            solver_options),
      "GenericExistsSolution");
  if (slow.outcome == SolveOutcome::kBudgetExhausted) {
    GTEST_SKIP() << "generic solver budget exhausted on this seed";
  }

  EXPECT_EQ(fast.has_solution,
            slow.outcome == SolveOutcome::kSolutionFound)
      << "solver disagreement on seed " << param.seed << "\nΣst:\n"
      << generated->sigma_st << "\nΣts:\n" << generated->sigma_ts
      << "\nI:\n" << source.ToString(symbols);

  if (fast.has_solution) {
    EXPECT_TRUE(IsSolution(setting, source, target, *fast.solution, symbols))
        << "Ctract witness failed verification on seed " << param.seed;
  }
  if (slow.outcome == SolveOutcome::kSolutionFound) {
    EXPECT_TRUE(IsSolution(setting, source, target, *slow.solution, symbols))
        << "generic witness failed verification on seed " << param.seed;
  }
}

std::vector<CrossValidationParam> MakeParams() {
  std::vector<CrossValidationParam> params;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    params.push_back({GenKind::kLavTs, seed, 6});
    params.push_back({GenKind::kFullSt, seed, 6});
  }
  for (uint64_t seed = 100; seed <= 110; ++seed) {
    params.push_back({GenKind::kLavTs, seed, 12});
    params.push_back({GenKind::kFullSt, seed, 12});
  }
  return params;
}

std::string ParamName(
    const ::testing::TestParamInfo<CrossValidationParam>& info) {
  return std::string(info.param.kind == GenKind::kLavTs ? "LavTs"
                                                        : "FullSt") +
         "Seed" + std::to_string(info.param.seed) + "Facts" +
         std::to_string(info.param.facts);
}

INSTANTIATE_TEST_SUITE_P(RandomCtract, CrossValidationTest,
                         ::testing::ValuesIn(MakeParams()), ParamName);

// Non-empty target instances exercise the J ⊆ J' requirement.
class CrossValidationWithTargetTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrossValidationWithTargetTest, SolversAgreeWithNonEmptyJ) {
  Rng rng(GetParam());
  SymbolTable symbols;
  SettingGenOptions opts;
  opts.max_arity = 2;
  opts.st_tgd_count = 2;
  opts.ts_tgd_count = 2;
  GeneratedSetting generated =
      Unwrap(MakeRandomLavSetting(opts, &rng, &symbols));
  const PdeSetting& setting = generated.setting;
  Instance source =
      MakeRandomSourceInstance(setting, 5, 4, &rng, &symbols);
  Instance target =
      MakeRandomTargetInstance(setting, 3, 4, &rng, &symbols);

  CtractSolveResult fast = Unwrap(
      CtractExistsSolution(setting, source, target, &symbols));
  GenericSolverOptions solver_options;
  solver_options.max_nodes = 200'000;
  GenericSolveResult slow = Unwrap(GenericExistsSolution(
      setting, source, target, &symbols, solver_options));
  if (slow.outcome == SolveOutcome::kBudgetExhausted) {
    GTEST_SKIP() << "generic solver budget exhausted on this seed";
  }
  EXPECT_EQ(fast.has_solution,
            slow.outcome == SolveOutcome::kSolutionFound)
      << "seed " << GetParam() << "\nΣst:\n" << generated.sigma_st
      << "\nΣts:\n" << generated.sigma_ts << "\nI:\n"
      << source.ToString(symbols) << "\nJ:\n" << target.ToString(symbols);
  if (fast.has_solution) {
    EXPECT_TRUE(target.IsSubsetOf(*fast.solution));
    EXPECT_TRUE(
        IsSolution(setting, source, target, *fast.solution, symbols));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossValidationWithTargetTest,
                         ::testing::Range(uint64_t{1}, uint64_t{21}));

// The chase thread count must be invisible to end-to-end solving: the
// C_tract solver (two chase phases) and the data exchange pipeline must
// return the same answers — and the same raw fingerprints — at a thread
// count drawn per seed as sequentially. Their verdicts are checked
// against the generic solver above.
class ChaseThreadsCrossValidationTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaseThreadsCrossValidationTest, CtractIsThreadInvariant) {
  uint64_t seed = GetParam();
  Rng rng(seed);
  SymbolTable symbols;
  SettingGenOptions opts;
  opts.max_arity = 2;
  opts.st_tgd_count = 2;
  opts.ts_tgd_count = 2;
  GeneratedSetting generated =
      Unwrap(seed % 2 == 0 ? MakeRandomLavSetting(opts, &rng, &symbols)
                           : MakeRandomFullStSetting(opts, &rng, &symbols));
  const PdeSetting& setting = generated.setting;
  Instance source = MakeRandomSourceInstance(setting, 8, 4, &rng, &symbols);
  Instance target = MakeRandomTargetInstance(setting, 3, 4, &rng, &symbols);

  ChaseOptions delta_options;
  delta_options.num_threads = 1;
  ChaseOptions parallel_options;
  const int kThreadChoices[] = {2, 4, 8};
  parallel_options.num_threads = kThreadChoices[rng.UniformInt(3)];

  CtractSolveResult delta = Unwrap(CtractExistsSolution(
      setting, source, target, &symbols, delta_options));
  CtractSolveResult parallel = Unwrap(CtractExistsSolution(
      setting, source, target, &symbols, parallel_options));

  EXPECT_EQ(parallel.has_solution, delta.has_solution)
      << "thread disagreement on seed " << seed << "\nΣst:\n"
      << generated.sigma_st << "\nΣts:\n" << generated.sigma_ts;
  if (parallel.has_solution && delta.has_solution) {
    ASSERT_TRUE(parallel.solution.has_value());
    ASSERT_TRUE(delta.solution.has_value());
    EXPECT_EQ(parallel.solution->CanonicalFingerprint(),
              delta.solution->CanonicalFingerprint())
        << "seed " << seed << " threads " << parallel_options.num_threads;
    EXPECT_TRUE(
        IsSolution(setting, source, target, *delta.solution, symbols));
  }
}

TEST_P(ChaseThreadsCrossValidationTest, DataExchangeIsThreadInvariant) {
  uint64_t seed = GetParam();
  Rng rng(seed);
  SymbolTable symbols;
  // A data exchange setting (Σ_ts = ∅) with target tgds and a key egd, so
  // the chase exercises the tgd/egd interleaving end to end.
  PdeSetting setting = Unwrap(PdeSetting::Create(
      {{"E", 2}}, {{"H", 2}, {"F", 2}},
      "E(x,y) -> exists z: H(x,z). E(x,y) & E(y,z) -> H(x,z).", "",
      "H(x,y) -> F(x,y). H(x,y) & H(x,z) -> y = z.", &symbols));
  Instance source = MakeRandomSourceInstance(setting, 10, 5, &rng, &symbols);
  Instance target = setting.EmptyInstance();

  ChaseOptions delta_options;
  DataExchangeResult delta = Unwrap(SolveDataExchange(
      setting, source, target, &symbols, delta_options));

  // The delta solve at a thread count drawn per seed must be
  // bit-identical to the sequential one: same verdict, same nulls and the
  // same raw fingerprint of the universal solution.
  ChaseOptions parallel_options = delta_options;
  const int kThreadChoices[] = {1, 2, 8};
  parallel_options.num_threads = kThreadChoices[rng.UniformInt(3)];
  DataExchangeResult parallel = Unwrap(SolveDataExchange(
      setting, source, target, &symbols, parallel_options));
  EXPECT_EQ(parallel.has_solution, delta.has_solution)
      << "seed " << seed << " threads " << parallel_options.num_threads;
  if (parallel.has_solution && delta.has_solution) {
    ASSERT_TRUE(parallel.universal_solution.has_value());
    EXPECT_EQ(parallel.nulls_created, delta.nulls_created) << "seed " << seed;
    EXPECT_EQ(parallel.universal_solution->CanonicalFingerprint(),
              delta.universal_solution->CanonicalFingerprint())
        << "seed " << seed << " threads " << parallel_options.num_threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaseThreadsCrossValidationTest,
                         ::testing::Range(uint64_t{1}, uint64_t{21}));

// Egd-heavy chase cross-validation: on randomized instances whose every
// invented null is hit by a key egd, the trace checker must accept the
// run, constant/constant clashes included, and the result's resolve-on-read
// view must match its own materialization.
class EgdHeavyChaseCrossValidationTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EgdHeavyChaseCrossValidationTest, EgdHeavyChasesPassTheTraceCheck) {
  uint64_t seed = GetParam();
  Rng rng(seed);
  SymbolTable symbols;
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("E", 2).ok());
  ASSERT_TRUE(schema.AddRelation("H", 2).ok());
  ASSERT_TRUE(schema.AddRelation("F", 2).ok());
  RelationId e = 0, h = 1;

  // The shared existential across the two head atoms forces one null per
  // E-edge; the key egds then merge them in cascades across H and F.
  auto deps = ParseDependencies(
      "E(x,y) -> exists z: H(x,z) & F(y,z). "
      "H(x,y) & H(x,z) -> y = z. "
      "F(x,y) & F(x,z) -> y = z.",
      schema, &symbols);
  ASSERT_TRUE(deps.ok()) << deps.status().ToString();

  Instance start(&schema);
  int nodes = 3 + static_cast<int>(rng.UniformInt(5));
  int edges = nodes * (1 + static_cast<int>(rng.UniformInt(3)));
  auto node = [&](int i) {
    return symbols.InternConstant("n" + std::to_string(i));
  };
  for (int i = 0; i < edges; ++i) {
    start.AddFact(e, {node(static_cast<int>(rng.UniformInt(nodes))),
                      node(static_cast<int>(rng.UniformInt(nodes)))});
  }
  // Pre-seed some H-facts: nulls join the merge cascades; constants make
  // constant/constant egd failures reachable, which the checker must
  // confirm.
  int seeded = static_cast<int>(rng.UniformInt(4));
  for (int i = 0; i < seeded; ++i) {
    Value key = node(static_cast<int>(rng.UniformInt(nodes)));
    Value payload = rng.UniformInt(3) == 0
                        ? node(static_cast<int>(rng.UniformInt(nodes)))
                        : symbols.FreshNull();
    start.AddFact(h, {key, payload});
  }

  ChaseOptions delta_options;
  ChaseResult delta = testing_util::CheckedChase(
      start, deps->tgds, deps->egds, &symbols, delta_options,
      StrCat("seed ", seed, "\nI:\n", start.ToString(symbols)));

  // The delta chase at a thread count drawn per seed must be
  // bit-identical to the sequential one: same outcome, steps, failure,
  // nulls and raw fingerprint.
  ChaseOptions parallel_options = delta_options;
  const int kThreadChoices[] = {1, 2, 8};
  parallel_options.num_threads = kThreadChoices[rng.UniformInt(3)];
  ChaseResult parallel =
      Chase(start, deps->tgds, deps->egds, &symbols, parallel_options);
  ASSERT_EQ(parallel.outcome, delta.outcome)
      << "parallel disagreement on seed " << seed << " threads "
      << parallel_options.num_threads << "\nI:\n"
      << start.ToString(symbols);
  EXPECT_EQ(parallel.steps, delta.steps) << "seed " << seed;
  EXPECT_EQ(parallel.failure, delta.failure) << "seed " << seed;
  EXPECT_EQ(parallel.nulls_created, delta.nulls_created) << "seed " << seed;
  EXPECT_EQ(parallel.instance.CanonicalFingerprint(),
            delta.instance.CanonicalFingerprint())
      << "seed " << seed << " threads " << parallel_options.num_threads;

  if (delta.outcome != ChaseOutcome::kSuccess) return;

  // The union-find instance's live resolve-on-read view must agree with
  // its own materialization, and expose only class roots.
  Instance compact = delta.instance.CompactResolved();
  EXPECT_FALSE(compact.has_merges());
  EXPECT_EQ(compact.CanonicalFingerprint(),
            delta.instance.CanonicalFingerprint());
  EXPECT_EQ(compact.fact_count(), delta.instance.ResolvedFactCount());
  std::unordered_set<uint64_t> roots;
  for (Value v : delta.instance.Nulls()) {
    EXPECT_EQ(delta.instance.ResolveValue(v), v)
        << "resolved view exposed a non-root null on seed " << seed;
    EXPECT_TRUE(roots.insert(v.packed()).second);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EgdHeavyChaseCrossValidationTest,
                         ::testing::Range(uint64_t{1}, uint64_t{41}));

// Churn lane: a random C_tract setting whose source instance lives in a
// StreamingChase and churns through ±Δ batches. After every batch, the
// incremental exists verdict (witness carried across batches through
// GenericExistsSolutionIncremental) must agree with a fresh generic
// solver — and with the Figure 3 fast path — replaying the churn stream's
// net instance into a fresh engine.
class StreamingChurnCrossValidationTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamingChurnCrossValidationTest,
       IncrementalExistsAgreesWithFreshSolversUnderChurn) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  SymbolTable symbols;
  SettingGenOptions opts;
  opts.max_arity = 2;
  opts.st_tgd_count = 2;
  opts.ts_tgd_count = 2;
  StatusOr<GeneratedSetting> generated =
      MakeRandomLavSetting(opts, &rng, &symbols);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  const PdeSetting& setting = generated->setting;

  Instance seed_source =
      MakeRandomSourceInstance(setting, 12, /*constant_pool=*/4, &rng,
                               &symbols);
  std::vector<Fact> universe = seed_source.AllFacts();
  std::sort(universe.begin(), universe.end());
  universe.erase(std::unique(universe.begin(), universe.end()),
                 universe.end());
  if (universe.size() < 4) {
    GTEST_SKIP() << "degenerate universe on this seed";
  }

  ChurnOptions churn_options;
  churn_options.delete_rate = 0.3;
  churn_options.insert_rate = 0.25;
  churn_options.overlap = 0.5;
  churn_options.seed = seed * 977 + 5;
  ChurnStream churn(universe, universe.size() / 2, churn_options);

  // Dependency-free stream: it maintains exactly the net source, the way
  // pdxd's writer owns the admitted base.
  StreamingChase stream(&setting.schema(), {}, {}, &symbols);
  ASSERT_TRUE(stream.Initialize(churn.NetInstance(&setting.schema())).ok());

  Instance target = setting.EmptyInstance();
  GenericSolverOptions solver_options;
  solver_options.max_nodes = 200'000;
  std::optional<Instance> witness;

  for (int batch_idx = 0; batch_idx < 4; ++batch_idx) {
    ChurnBatch batch = churn.Next();
    ASSERT_TRUE(stream.ResumeWithDeltas(batch.adds, batch.deletes).ok());

    IncrementalSolveResult incremental =
        Unwrap(GenericExistsSolutionIncremental(
                   setting, stream.instance(), target,
                   witness.has_value() ? &*witness : nullptr, &symbols,
                   solver_options),
               "GenericExistsSolutionIncremental");
    GenericSolveResult fresh =
        Unwrap(GenericExistsSolution(setting,
                                     churn.NetInstance(&setting.schema()),
                                     target, &symbols, solver_options),
               "GenericExistsSolution");
    if (incremental.result.outcome == SolveOutcome::kBudgetExhausted ||
        fresh.outcome == SolveOutcome::kBudgetExhausted) {
      GTEST_SKIP() << "solver budget exhausted on this seed";
    }
    EXPECT_EQ(incremental.result.outcome, fresh.outcome)
        << "incremental/fresh divergence, seed " << seed << " batch "
        << batch_idx << (incremental.revalidated ? " (revalidated)" : "");

    CtractSolveResult fast = Unwrap(
        CtractExistsSolution(setting, stream.instance(), target, &symbols),
        "CtractExistsSolution");
    EXPECT_EQ(fast.has_solution,
              fresh.outcome == SolveOutcome::kSolutionFound)
        << "fast-path divergence, seed " << seed << " batch " << batch_idx;

    if (incremental.result.outcome == SolveOutcome::kSolutionFound) {
      ASSERT_TRUE(incremental.result.solution.has_value());
      EXPECT_TRUE(IsSolution(setting, stream.instance(), target,
                             *incremental.result.solution, symbols))
          << "incremental witness failed verification, seed " << seed
          << " batch " << batch_idx;
      witness = *incremental.result.solution;
    } else {
      witness.reset();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingChurnCrossValidationTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

// Figure 3's pooled block checks: the solve must not depend on the chase
// thread count. Runs at 1 and 4 threads agree on the verdict and the I_can
// statistics, every witness verifies and is bit-identical across thread
// counts, and the verdict matches an oracle that maps all of I_can into I
// as one conjunction, with no block decomposition at all.

// I_can for (I, ∅), from the two sequential chases of Figure 3.
Instance ComputeICan(const PdeSetting& setting, const Instance& source,
                     SymbolTable* symbols) {
  ChaseOptions sequential;
  sequential.num_threads = 1;
  ChaseResult st = Chase(source, setting.st_tgds(), symbols, sequential);
  ChaseResult ts = Chase(setting.TargetPart(st.instance), setting.ts_tgds(),
                         symbols, sequential);
  return setting.SourcePart(ts.instance);
}

// The whole-instance oracle: HasMatch of every fact of `i_can` at once,
// its nulls as variables, into `source`.
bool WholeInstanceMaps(const Instance& i_can, const Instance& source) {
  std::unordered_map<uint64_t, VariableId> var_of_null;
  std::vector<Atom> atoms;
  i_can.ForEachFact([&](const Fact& f) {
    Atom atom;
    atom.relation = f.relation;
    for (const Value& v : f.tuple) {
      if (!v.is_null()) {
        atom.terms.push_back(Term::Const(v));
        continue;
      }
      auto [it, inserted] = var_of_null.emplace(
          v.packed(), static_cast<VariableId>(var_of_null.size()));
      atom.terms.push_back(Term::Var(it->second));
    }
    atoms.push_back(std::move(atom));
  });
  return HasMatch(atoms, static_cast<int>(var_of_null.size()), source);
}

// Solves at 1 and 4 threads, checks that the runs agree bit for bit, and
// returns the first run's result.
CtractSolveResult SolveAcrossThreadCounts(const PdeSetting& setting,
                                          const Instance& source,
                                          SymbolTable* symbols,
                                          const std::string& context) {
  const Instance target = setting.EmptyInstance();
  std::optional<CtractSolveResult> first;
  for (int threads : {1, 4}) {
    ChaseOptions options;
    options.num_threads = threads;
    CtractSolveResult run = Unwrap(
        CtractExistsSolution(setting, source, target, symbols, options));
    const std::string where = StrCat(context, " threads ", threads);
    if (run.has_solution) {
      EXPECT_TRUE(IsSolution(setting, source, target, *run.solution, *symbols))
          << where;
    }
    if (!first.has_value()) {
      first = std::move(run);
      continue;
    }
    EXPECT_EQ(run.has_solution, first->has_solution) << where;
    EXPECT_EQ(run.block_count, first->block_count) << where;
    EXPECT_EQ(run.max_block_nulls, first->max_block_nulls) << where;
    EXPECT_EQ(run.j_can_size, first->j_can_size) << where;
    EXPECT_EQ(run.i_can_size, first->i_can_size) << where;
    if (run.has_solution && first->has_solution) {
      EXPECT_EQ(run.solution->CanonicalFingerprint(),
                first->solution->CanonicalFingerprint())
          << where;
    }
  }
  return std::move(*first);
}

struct BlockCheckParam {
  GenKind kind;
  uint64_t seed;
  int facts;
  int constant_pool;
};

class CtractBlockCheckCrossValidationTest
    : public ::testing::TestWithParam<BlockCheckParam> {};

TEST_P(CtractBlockCheckCrossValidationTest,
       PooledBlockChecksAgreeAcrossThreadsAndOracle) {
  const BlockCheckParam& param = GetParam();
  Rng rng(param.seed);
  SymbolTable symbols;
  SettingGenOptions opts;
  opts.max_arity = 2;
  opts.st_tgd_count = 2;
  opts.ts_tgd_count = 2;
  GeneratedSetting generated =
      Unwrap(param.kind == GenKind::kLavTs
                 ? MakeRandomLavSetting(opts, &rng, &symbols)
                 : MakeRandomFullStSetting(opts, &rng, &symbols));
  const PdeSetting& setting = generated.setting;
  Instance source = MakeRandomSourceInstance(
      setting, param.facts, param.constant_pool, &rng, &symbols);
  const std::string context =
      StrCat("seed ", param.seed, "\nΣst:\n", generated.sigma_st,
             "\nΣts:\n", generated.sigma_ts);
  CtractSolveResult result =
      SolveAcrossThreadCounts(setting, source, &symbols, context);
  // The oracle backtracks chronologically across unrelated blocks, so it
  // only runs where I_can is small.
  Instance i_can = ComputeICan(setting, source, &symbols);
  EXPECT_EQ(static_cast<int64_t>(i_can.fact_count()), result.i_can_size);
  if (i_can.fact_count() <= 64) {
    EXPECT_EQ(WholeInstanceMaps(i_can, source), result.has_solution)
        << context;
  }
}

std::vector<BlockCheckParam> MakeBlockCheckParams() {
  std::vector<BlockCheckParam> params;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    params.push_back({GenKind::kLavTs, seed, 8, 4});
    params.push_back({GenKind::kFullSt, seed, 8, 4});
  }
  // Seeds whose I_can has 1.4K-4.4K blocks — several fixed-size chunks
  // per solve — with and without a solution.
  for (uint64_t seed : {202, 209, 211}) {
    params.push_back({GenKind::kLavTs, seed, 6000, 3000});
  }
  for (uint64_t seed : {209, 216}) {
    params.push_back({GenKind::kFullSt, seed, 6000, 3000});
  }
  return params;
}

std::string BlockCheckParamName(
    const ::testing::TestParamInfo<BlockCheckParam>& info) {
  return std::string(info.param.kind == GenKind::kLavTs ? "LavTs"
                                                        : "FullSt") +
         "Seed" + std::to_string(info.param.seed) + "Facts" +
         std::to_string(info.param.facts);
}

INSTANTIATE_TEST_SUITE_P(RandomCtract, CtractBlockCheckCrossValidationTest,
                         ::testing::ValuesIn(MakeBlockCheckParams()),
                         BlockCheckParamName);

// Hand-built failures. Σ_ts copies every U(x) back into C(x) — null-free
// I_can facts — and asks every T(x, z) for some D(x, w) — one block of one
// null per x. `missing` removes one fact from I, so exactly one block
// fails.
class CtractFailingBlockTest : public ::testing::Test {
 protected:
  static constexpr int kKeys = 3000;  // blocks enough for several chunks

  CtractFailingBlockTest()
      : setting_(Unwrap(PdeSetting::Create(
            {{"A", 2}, {"B", 1}, {"C", 1}, {"D", 2}}, {{"T", 2}, {"U", 1}},
            "A(x,y) -> exists z: T(x,z). B(x) -> U(x).",
            "T(x,z) -> exists w: D(x,w). U(x) -> C(x).", "", &symbols_))) {}

  // I over kKeys keys k0..: A(k, k), B(k), C(k), D(k, k), except the
  // fact `missing` names.
  Instance MakeSource(const std::string& missing_relation, int missing_key) {
    Instance source = setting_.EmptyInstance();
    for (int i = 0; i < kKeys; ++i) {
      const Value k = symbols_.InternConstant(StrCat("k", i));
      const bool skip = i == missing_key;
      source.AddFact(Rel("A"), {k, k});
      source.AddFact(Rel("B"), {k});
      if (!(skip && missing_relation == "C")) source.AddFact(Rel("C"), {k});
      if (!(skip && missing_relation == "D")) source.AddFact(Rel("D"), {k, k});
    }
    return source;
  }

  RelationId Rel(const std::string& name) {
    return Unwrap(setting_.schema().FindRelation(name));
  }

  void ExpectOnlyOneBlockFails(const Instance& source) {
    CtractSolveResult result = SolveAcrossThreadCounts(
        setting_, source, &symbols_, "hand-built");
    EXPECT_FALSE(result.has_solution);
    EXPECT_FALSE(result.solution.has_value());
    EXPECT_EQ(result.block_count, kKeys + 1);  // + the null-free block
    EXPECT_EQ(result.max_block_nulls, 1);
    // The oracle fails fast: the interpreter matches the atom with no
    // candidate first.
    EXPECT_FALSE(
        WholeInstanceMaps(ComputeICan(setting_, source, &symbols_), source));
  }

  SymbolTable symbols_;
  PdeSetting setting_;
};

TEST_F(CtractFailingBlockTest, OnlyTheNullFreeBlockIsMissingFromI) {
  ExpectOnlyOneBlockFails(MakeSource("C", kKeys / 2));
}

TEST_F(CtractFailingBlockTest, OnlyABlockInTheLastChunkFails) {
  // Blocks are numbered by first fact, so the last key's block is the
  // last null block: it sits in the final chunk.
  ExpectOnlyOneBlockFails(MakeSource("D", kKeys - 1));
}

TEST_F(CtractFailingBlockTest, CompleteSourceHasASolution) {
  const Instance source = MakeSource("", -1);
  CtractSolveResult result =
      SolveAcrossThreadCounts(setting_, source, &symbols_, "complete");
  EXPECT_TRUE(result.has_solution);
  EXPECT_EQ(result.block_count, kKeys + 1);
  // No whole-instance oracle here: it recurses once per I_can fact, too
  // deep for a sanitizer build's stack at this size.
}

}  // namespace
}  // namespace pdx
