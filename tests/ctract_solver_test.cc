#include "pde/ctract_solver.h"

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/string_util.h"
#include "chase/chase.h"
#include "gtest/gtest.h"
#include "hom/instance_hom.h"
#include "pde/solution.h"
#include "tests/test_util.h"
#include "workload/churn.h"
#include "workload/genomics.h"
#include "workload/random.h"
#include "workload/reductions.h"
#include "workload/setting_gen.h"

namespace pdx {
namespace {

using testing_util::MakeExample1Setting;
using testing_util::MakePathSetting;
using testing_util::ParseOrDie;
using testing_util::Unwrap;

constexpr int kPooledKeys = 5000;  // several chunks on both paths

class CtractSolverTest : public ::testing::Test {
 protected:
  CtractSolverTest() : setting_(MakeExample1Setting(&symbols_)) {}

  CtractSolveResult Solve(const Instance& source, const Instance& target) {
    return Unwrap(CtractExistsSolution(setting_, source, target, &symbols_),
                  "CtractExistsSolution");
  }

  SymbolTable symbols_;
  PdeSetting setting_;
};

// Example 1, case 1: no solution.
TEST_F(CtractSolverTest, Example1NoSolution) {
  Instance source = ParseOrDie(setting_, "E(a,b). E(b,c).", &symbols_);
  CtractSolveResult result = Solve(source, setting_.EmptyInstance());
  EXPECT_FALSE(result.has_solution);
  EXPECT_FALSE(result.solution.has_value());
  EXPECT_GT(result.j_can_size, 0);  // the chase did produce H(a,c)
}

// Example 1, case 2: unique solution {H(a,a)}.
TEST_F(CtractSolverTest, Example1UniqueSolution) {
  Instance source = ParseOrDie(setting_, "E(a,a).", &symbols_);
  CtractSolveResult result = Solve(source, setting_.EmptyInstance());
  ASSERT_TRUE(result.has_solution);
  ASSERT_TRUE(result.solution.has_value());
  EXPECT_TRUE(IsSolution(setting_, source, setting_.EmptyInstance(),
                         *result.solution, symbols_));
  EXPECT_EQ(result.solution->ToString(symbols_), "H(a,a).");
}

// Example 1, case 3: solutions exist; the solver's witness must verify.
TEST_F(CtractSolverTest, Example1WitnessIsVerifiedSolution) {
  Instance source =
      ParseOrDie(setting_, "E(a,b). E(b,c). E(a,c).", &symbols_);
  CtractSolveResult result = Solve(source, setting_.EmptyInstance());
  ASSERT_TRUE(result.has_solution);
  EXPECT_TRUE(IsSolution(setting_, source, setting_.EmptyInstance(),
                         *result.solution, symbols_));
}

TEST_F(CtractSolverTest, NonEmptyTargetInstanceConstrains) {
  Instance source =
      ParseOrDie(setting_, "E(a,b). E(b,c). E(a,c).", &symbols_);
  // J = {H(a,c)}: consistent, solution must contain it.
  Instance target = ParseOrDie(setting_, "H(a,c).", &symbols_);
  CtractSolveResult result = Solve(source, target);
  ASSERT_TRUE(result.has_solution);
  EXPECT_TRUE(target.IsSubsetOf(*result.solution));

  // J = {H(b,a)}: (b,a) is not an edge, so Σ_ts can never hold.
  Instance bad_target = ParseOrDie(setting_, "H(b,a).", &symbols_);
  CtractSolveResult bad = Solve(source, bad_target);
  EXPECT_FALSE(bad.has_solution);
}

// The path setting: Σ_ts has an existential, producing nulls in I_can.
TEST_F(CtractSolverTest, ExistentialTsWitnessedThroughHomomorphism) {
  SymbolTable symbols;
  PdeSetting setting = MakePathSetting(&symbols);
  // E: a->b->c. J_can = {H(a,c)}; Σ_ts asks for a 2-path from a to c,
  // witnessed by b in I.
  Instance source = ParseOrDie(setting, "E(a,b). E(b,c).", &symbols);
  CtractSolveResult result = Unwrap(
      CtractExistsSolution(setting, source, setting.EmptyInstance(),
                           &symbols));
  ASSERT_TRUE(result.has_solution);
  EXPECT_TRUE(IsSolution(setting, source, setting.EmptyInstance(),
                         *result.solution, symbols));
  EXPECT_GT(result.max_block_nulls, 0);
}

TEST_F(CtractSolverTest, ExistentialTsFailsWithoutWitness) {
  SymbolTable symbols;
  PdeSetting setting = MakePathSetting(&symbols);
  // J contains H(a,c) but I has no 2-path from a to c.
  Instance source = ParseOrDie(setting, "E(a,b).", &symbols);
  Instance target = ParseOrDie(setting, "H(a,c).", &symbols);
  CtractSolveResult result = Unwrap(
      CtractExistsSolution(setting, source, target, &symbols));
  EXPECT_FALSE(result.has_solution);
}

TEST_F(CtractSolverTest, EmptySourceEmptyTargetTriviallySolvable) {
  CtractSolveResult result =
      Solve(setting_.EmptyInstance(), setting_.EmptyInstance());
  ASSERT_TRUE(result.has_solution);
  EXPECT_EQ(result.solution->fact_count(), 0u);
}

TEST_F(CtractSolverTest, RejectsSettingsWithTargetConstraints) {
  SymbolTable symbols;
  auto setting = Unwrap(PdeSetting::Create(
      {{"E", 2}}, {{"H", 2}}, "E(x,y) -> H(x,y).", "H(x,y) -> E(x,y).",
      "H(x,y) & H(x,z) -> y = z.", &symbols));
  Instance source = ParseOrDie(setting, "E(a,b).", &symbols);
  auto result = CtractExistsSolution(setting, source,
                                     setting.EmptyInstance(), &symbols);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(CtractSolverTest, RejectsCondition1Violation) {
  SymbolTable symbols;
  auto setting = Unwrap(PdeSetting::Create(
      {{"E", 2}}, {{"T1", 2}, {"T2", 2}},
      "E(x,y) -> exists z: T1(x,z) & T2(z,y).",
      "T1(x,z) & T2(z,y) -> E(x,y).", "", &symbols));
  Instance source = ParseOrDie(setting, "E(a,b).", &symbols);
  auto result = CtractExistsSolution(setting, source,
                                     setting.EmptyInstance(), &symbols);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

// The CLIQUE setting satisfies condition 1, so the algorithm is *correct*
// on it (Theorem 5) even though blocks may be large. Cross-check against
// the brute-force clique oracle on small graphs.
TEST_F(CtractSolverTest, CorrectOnCliqueSettingViaTheorem5) {
  SymbolTable symbols;
  PdeSetting setting = Unwrap(MakeCliqueSetting(&symbols));
  // Triangle graph: has 3-clique.
  Graph triangle = CompleteGraph(3);
  Instance with_clique =
      MakeCliqueSourceInstance(setting, triangle, 3, &symbols);
  CtractSolveResult yes = Unwrap(CtractExistsSolution(
      setting, with_clique, setting.EmptyInstance(), &symbols));
  EXPECT_TRUE(yes.has_solution);
  EXPECT_TRUE(IsSolution(setting, with_clique, setting.EmptyInstance(),
                         *yes.solution, symbols));

  // Path graph: no 3-clique.
  Graph path = PathGraph(4);
  Instance without_clique =
      MakeCliqueSourceInstance(setting, path, 3, &symbols);
  CtractSolveResult no = Unwrap(CtractExistsSolution(
      setting, without_clique, setting.EmptyInstance(), &symbols));
  EXPECT_FALSE(no.has_solution);
  // Theorem 6's contrast: outside C_tract blocks can grow with the input.
  EXPECT_GT(no.max_block_nulls, 1);
}

// True iff `witness` solves (I, J): (I, witness) satisfies Σ_st ∪ Σ_ts
// and J maps into the witness. For a null-free J that is IsSolution; the
// witness of a J with nulls renames them through h (Theorem 5's h_J), so
// J need not be a subset of it.
bool Solves(const PdeSetting& setting, const Instance& source,
            const Instance& target, const Instance& witness,
            const SymbolTable& symbols) {
  return IsSolution(setting, source, setting.EmptyInstance(), witness,
                    symbols) &&
         FindInstanceHomomorphism(target, witness).has_value();
}

// Figure 3's step 3 fans over a pool sized by ChaseOptions::num_threads
// on both of its paths (this file is in the `parallel` label, so both
// TSan lanes sanitize them). Every key k contributes one block {D(k, w)}.
// The Σ_ts frontier x binds constants only, so the checks run by trigger
// over several pivot chunks; `missing` drops the last key's D fact, so
// the one failing trigger sits in the last chunk. With `frontier_null`,
// the target adds T(_n, k0): its null reaches I_can through the frontier,
// the blocks are decomposed and checked in several chunks of blocks, and
// the witness must map _n. The verdict, the block statistics and the
// witness must match the sequential run at every thread count.
void ExpectPooledStep3MatchesSequential(bool frontier_null) {
  SymbolTable symbols;
  PdeSetting setting = Unwrap(PdeSetting::Create(
      {{"A", 2}, {"D", 2}}, {{"T", 2}}, "A(x,y) -> exists z: T(x,z).",
      "T(x,z) -> exists w: D(x,w).", "", &symbols));
  const RelationId a = Unwrap(setting.schema().FindRelation("A"));
  const RelationId d = Unwrap(setting.schema().FindRelation("D"));
  const Instance target =
      frontier_null ? ParseOrDie(setting, "T(_n, k0).", &symbols)
                    : setting.EmptyInstance();
  const int64_t blocks = kPooledKeys + (frontier_null ? 1 : 0);
  for (int missing : {-1, kPooledKeys - 1}) {
    Instance source = setting.EmptyInstance();
    for (int i = 0; i < kPooledKeys; ++i) {
      const Value k = symbols.InternConstant(StrCat("k", i));
      source.AddFact(a, {k, k});
      if (i != missing) source.AddFact(d, {k, k});
    }
    ChaseOptions sequential;
    sequential.num_threads = 1;
    CtractSolveResult reference = Unwrap(
        CtractExistsSolution(setting, source, target, &symbols, sequential));
    EXPECT_EQ(reference.has_solution, missing < 0);
    EXPECT_EQ(reference.by_trigger, !frontier_null);
    EXPECT_EQ(reference.block_count, blocks);
    EXPECT_EQ(reference.max_block_nulls, frontier_null ? 2 : 1);
    for (int threads : {2, 4}) {
      ChaseOptions pooled;
      pooled.num_threads = threads;
      CtractSolveResult run = Unwrap(
          CtractExistsSolution(setting, source, target, &symbols, pooled));
      EXPECT_EQ(run.has_solution, reference.has_solution) << threads;
      EXPECT_EQ(run.by_trigger, reference.by_trigger) << threads;
      EXPECT_EQ(run.block_count, reference.block_count) << threads;
      EXPECT_EQ(run.max_block_nulls, reference.max_block_nulls) << threads;
      if (!run.has_solution) continue;
      EXPECT_EQ(testing_util::CanonicalizedFingerprint(*run.solution),
                testing_util::CanonicalizedFingerprint(*reference.solution))
          << threads;
      EXPECT_TRUE(Solves(setting, source, target, *run.solution, symbols));
      // h maps the target's null: T(_n, k0) is no longer in the witness.
      EXPECT_EQ(target.IsSubsetOf(*run.solution), !frontier_null) << threads;
    }
  }
}

TEST(CtractPooledBlockCheckTest, ChunkedChecksMatchTheSequentialRun) {
  ExpectPooledStep3MatchesSequential(/*frontier_null=*/false);
}

TEST(CtractPooledBlockCheckTest, FrontierNullChecksChunksOfBlocks) {
  ExpectPooledStep3MatchesSequential(/*frontier_null=*/true);
}

// Differential test of Figure 3 against a reference built from the
// definitions: the two sequential chases, FindInstanceHomomorphism(I_can,
// I) for the verdict and h, BlockDecomposition(I_can) for the block
// statistics, and ApplyAssignment(J_can, h) for the witness. Each input
// is built by a deterministic function of a fresh symbol table, once per
// run, so every run mints the same null ids and witnesses compare as
// text, null ids included.
struct CtractInput {
  PdeSetting setting;
  Instance source;
  Instance target;
};
using MakeInput = std::function<CtractInput(SymbolTable*)>;

struct Reference {
  bool has_solution = false;
  int64_t i_can_size = 0;
  int64_t block_count = 0;
  int64_t max_block_nulls = 0;
  std::string witness;
};

Reference RunReference(const CtractInput& in, SymbolTable* symbols) {
  ChaseOptions sequential;
  sequential.num_threads = 1;
  const PdeSetting& setting = in.setting;
  ChaseResult st = Chase(setting.CombineInstances(in.source, in.target),
                         setting.st_tgds(), symbols, sequential);
  const Instance j_can = setting.TargetPart(st.instance);
  ChaseResult ts = Chase(j_can, setting.ts_tgds(), symbols, sequential);
  const Instance i_can = setting.SourcePart(ts.instance);
  Reference ref;
  ref.i_can_size = static_cast<int64_t>(i_can.fact_count());
  const BlockDecomposition blocks(i_can);
  ref.block_count = static_cast<int64_t>(blocks.size());
  for (size_t b = 0; b < blocks.size(); ++b) {
    ref.max_block_nulls = std::max(ref.max_block_nulls,
                                   static_cast<int64_t>(blocks.null_count(b)));
  }
  std::optional<NullAssignment> h = FindInstanceHomomorphism(i_can, in.source);
  ref.has_solution = h.has_value();
  if (h.has_value()) {
    ref.witness = ApplyAssignment(j_can, *h).ToString(*symbols);
  }
  return ref;
}

// Which paths and verdicts a batch of inputs reached.
struct Coverage {
  int by_trigger_holds = 0, by_trigger_fails = 0;
  int by_block_holds = 0, by_block_fails = 0;
};

void ExpectMatchesReference(const MakeInput& make, const std::string& context,
                            Coverage* coverage) {
  SymbolTable ref_symbols;
  const Reference ref = RunReference(make(&ref_symbols), &ref_symbols);
  for (int threads : {1, 4}) {
    SymbolTable symbols;
    const CtractInput in = make(&symbols);
    ChaseOptions options;
    options.num_threads = threads;
    CtractSolveResult run = Unwrap(CtractExistsSolution(
        in.setting, in.source, in.target, &symbols, options));
    const std::string where = StrCat(context, " threads ", threads);
    EXPECT_EQ(run.has_solution, ref.has_solution) << where;
    EXPECT_EQ(run.i_can_size, ref.i_can_size) << where;
    EXPECT_EQ(run.block_count, ref.block_count) << where;
    EXPECT_EQ(run.max_block_nulls, ref.max_block_nulls) << where;
    ASSERT_EQ(run.solution.has_value(), ref.has_solution) << where;
    if (run.has_solution) {
      EXPECT_EQ(run.solution->ToString(symbols), ref.witness) << where;
      EXPECT_TRUE(
          Solves(in.setting, in.source, in.target, *run.solution, symbols))
          << where;
    }
    if (threads > 1) continue;
    (run.by_trigger ? (run.has_solution ? coverage->by_trigger_holds
                                        : coverage->by_trigger_fails)
                    : (run.has_solution ? coverage->by_block_holds
                                        : coverage->by_block_fails))++;
  }
}

// `instance` without its `skip`-th fact (in ForEachFact order).
Instance WithoutFact(const Instance& instance, size_t skip) {
  Instance out(&instance.schema());
  size_t i = 0;
  instance.ForEachFact([&](const Fact& f) {
    if (i++ != skip) out.AddFact(f);
  });
  return out;
}

// A target over `setting` of `facts` facts whose values are drawn from
// the constants c0..c3 and, one in three, from two labeled nulls.
Instance RandomTargetWithNulls(const PdeSetting& setting, int facts, Rng* rng,
                               SymbolTable* symbols) {
  const Value nulls[] = {symbols->FreshNull(), symbols->FreshNull()};
  std::vector<RelationId> targets;
  for (RelationId r = 0; r < setting.schema().relation_count(); ++r) {
    if (setting.is_target(r)) targets.push_back(r);
  }
  Instance target = setting.EmptyInstance();
  for (int i = 0; i < facts; ++i) {
    const RelationId r =
        targets[rng->UniformInt(static_cast<uint32_t>(targets.size()))];
    Tuple tuple;
    for (int p = 0; p < setting.schema().relation(r).arity; ++p) {
      tuple.push_back(rng->UniformInt(3) == 0
                          ? nulls[rng->UniformInt(2)]
                          : symbols->InternConstant(
                                StrCat("c", rng->UniformInt(4))));
    }
    target.AddFact(r, tuple);
  }
  return target;
}

TEST(CtractDifferentialTest, GeneratedSettingsMatchTheReference) {
  Coverage coverage;
  for (bool lav : {true, false}) {
    for (uint64_t seed = 1; seed <= 10; ++seed) {
      // 0: empty target, 1: constant target, 2: target with nulls; each
      // with the whole source and with its first fact removed.
      for (int target_kind = 0; target_kind < 3; ++target_kind) {
        for (bool drop : {false, true}) {
          const MakeInput make = [&](SymbolTable* symbols) {
            Rng rng(seed);
            SettingGenOptions opts;
            opts.max_arity = 2;
            opts.st_tgd_count = 2;
            opts.ts_tgd_count = 2;
            GeneratedSetting generated = Unwrap(
                lav ? MakeRandomLavSetting(opts, &rng, symbols)
                    : MakeRandomFullStSetting(opts, &rng, symbols));
            Instance source = MakeRandomSourceInstance(generated.setting, 8,
                                                       4, &rng, symbols);
            if (drop) source = WithoutFact(source, 0);
            Instance target =
                target_kind == 0 ? generated.setting.EmptyInstance()
                : target_kind == 1
                    ? MakeRandomTargetInstance(generated.setting, 3, 4, &rng,
                                               symbols)
                    : RandomTargetWithNulls(generated.setting, 3, &rng,
                                            symbols);
            return CtractInput{std::move(generated.setting),
                               std::move(source), std::move(target)};
          };
          ExpectMatchesReference(
              make,
              StrCat(lav ? "lav" : "full-st", " seed ",
                     seed, " target ", target_kind, " drop ", drop),
              &coverage);
        }
      }
    }
  }
  EXPECT_GT(coverage.by_trigger_holds, 0);
  EXPECT_GT(coverage.by_trigger_fails, 0);
  EXPECT_GT(coverage.by_block_holds, 0);
  EXPECT_GT(coverage.by_block_fails, 0);
}

// Genomics (the bulk_exchange setting), small. `variant` 0 is the plain
// workload; 1 drops the SPAnnotation fact behind the first target
// annotation, so that annotation's trigger alone fails; 2 adds a target
// annotation with a null GO term (a Σ_ts frontier); 3 adds one with a
// null evidence code (not a frontier).
CtractInput MakeGenomicsInput(int variant, uint64_t seed,
                              SymbolTable* symbols) {
  PdeSetting setting = Unwrap(MakeGenomicsSetting(symbols));
  Rng rng(seed);
  GenomicsWorkloadOptions opts;
  opts.proteins = 40;
  opts.backed_target_annotations = 6;
  GenomicsWorkload workload =
      MakeGenomicsWorkload(setting, opts, &rng, symbols);
  const RelationId annotation =
      Unwrap(setting.schema().FindRelation("Annotation"));
  const RelationId sp_annotation =
      Unwrap(setting.schema().FindRelation("SPAnnotation"));
  if (variant == 1) {
    const Fact first = workload.target.AllFacts().front();
    EXPECT_TRUE(workload.source.RemoveFact(
        sp_annotation, {first.tuple[0], first.tuple[1]}));
  } else if (variant >= 2) {
    const Value p = symbols->InternConstant("P10001");
    const Value go = symbols->InternConstant("GO_7");
    const Value curated = symbols->InternConstant("curated");
    const Value null = symbols->FreshNull();
    workload.target.AddFact(annotation, variant == 2
                                            ? Tuple{p, null, curated}
                                            : Tuple{p, go, null});
  }
  return CtractInput{std::move(setting), std::move(workload.source),
                     std::move(workload.target)};
}

TEST(CtractDifferentialTest, GenomicsMatchesTheReference) {
  Coverage coverage;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (int variant = 0; variant < 4; ++variant) {
      ExpectMatchesReference(
          [&](SymbolTable* symbols) {
            return MakeGenomicsInput(variant, seed, symbols);
          },
          StrCat("genomics seed ", seed, " variant ", variant), &coverage);
    }
  }
  EXPECT_GT(coverage.by_trigger_holds, 0);
  EXPECT_GT(coverage.by_trigger_fails, 0);
  EXPECT_GT(coverage.by_block_holds, 0);
}

// The genomics source after churn (workload/churn): deleting an
// SPProtein or SPAnnotation a target annotation needs fails that
// annotation's trigger.
TEST(CtractDifferentialTest, ChurnedGenomicsSourcesMatchTheReference) {
  Coverage coverage;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    for (int batches = 1; batches <= 3; ++batches) {
      ExpectMatchesReference(
          [&](SymbolTable* symbols) {
            CtractInput in = MakeGenomicsInput(0, seed, symbols);
            const std::vector<Fact> universe = in.source.AllFacts();
            ChurnOptions churn;
            churn.seed = seed;
            churn.delete_rate = 0.03;
            churn.insert_rate = 0.01;
            ChurnStream stream(universe, universe.size(), churn);
            for (int b = 0; b < batches; ++b) stream.Next();
            in.source = stream.NetInstance(&in.setting.schema());
            return in;
          },
          StrCat("churn seed ", seed, " batches ", batches), &coverage);
    }
  }
  EXPECT_GT(coverage.by_trigger_fails, 0);
}

}  // namespace
}  // namespace pdx
