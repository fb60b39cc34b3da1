// Dependency compiler tests: bytecode goldens for the pass pipeline (atom
// reordering, access-path selection, delta specialization, apply
// templates, the full --dump-plans text), PlanCache behavior and its
// metrics, match-set equality of the VM with the reference interpreter
// (including resolve-on-read under merges, the production query paths
// and the semi-naive pivot sets by definition), and the cache criteria —
// solver node re-chases, streaming batches and repeated solution-aware
// chases of one setting compile it exactly once per process.

#include "plan/compiler.h"

#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "chase/chase.h"
#include "chase/solution_aware_chase.h"
#include "chase/stream.h"
#include "hom/match_vm.h"
#include "logic/conjunctive_query.h"
#include "logic/parser.h"
#include "obs/metrics.h"
#include "pde/generic_solver.h"
#include "pde/setting.h"
#include "plan/ir.h"
#include "plan/plan_cache.h"
#include "tests/reference_matcher.h"
#include "tests/test_util.h"

namespace pdx {
namespace {

using testing_util::Unwrap;

class PlanCompilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(schema_.AddRelation("E", 2).ok());
    ASSERT_TRUE(schema_.AddRelation("H", 2).ok());
    ASSERT_TRUE(schema_.AddRelation("F", 2).ok());
  }

  std::vector<Tgd> ParseTgds(const char* text) {
    auto deps = ParseDependencies(text, schema_, &symbols_);
    EXPECT_TRUE(deps.ok()) << deps.status().ToString();
    return std::move(deps).value().tgds;
  }

  Schema schema_;
  SymbolTable symbols_;
};

// --- Bytecode goldens ----------------------------------------------------

// The instructions of the program starting at `entry`, through its kEmit.
std::vector<plan::Instr> Program(const plan::BodyPlan& body, uint32_t entry) {
  std::vector<plan::Instr> out;
  for (uint32_t ip = entry; ip < body.code.size(); ++ip) {
    out.push_back(body.code[ip]);
    if (body.code[ip].op == plan::Instr::kEmit) break;
  }
  return out;
}

TEST_F(PlanCompilerTest, JoinOrderScansFirstAtomThenProbesSharedVariable) {
  // E(x,z) & E(z,y): nothing bound initially, so the greedy order keeps
  // atom 0 first (tie on bound-term count broken by original index) as a
  // scan; atom 1 then has z bound and probes position 0 with it.
  std::vector<Tgd> tgds = ParseTgds("E(x,z) & E(z,y) -> H(x,y).");
  ASSERT_EQ(tgds.size(), 1u);
  const Tgd& tgd = tgds[0];
  plan::BodyPlan body = plan::CompileBody(tgd.body, tgd.var_count, {});
  EXPECT_EQ(body.var_count, tgd.var_count);
  EXPECT_EQ(body.pivots.size(), 2u);
  EXPECT_EQ(body.max_depth, 2);

  const std::vector<plan::Instr> full = Program(body, body.full_entry);
  ASSERT_EQ(full.size(), 6u);
  EXPECT_EQ(full[0].op, plan::Instr::kScan);
  EXPECT_EQ(full[0].atom_index, 0);
  EXPECT_EQ(full[0].nops, 2);
  EXPECT_EQ(full[1].op, plan::Instr::kBind);
  EXPECT_EQ(full[1].pos, 0);
  EXPECT_EQ(full[2].op, plan::Instr::kBind);
  EXPECT_EQ(full[2].pos, 1);
  EXPECT_EQ(full[3].op, plan::Instr::kProbeVar);
  EXPECT_EQ(full[3].atom_index, 1);
  EXPECT_EQ(full[3].pos, 0);
  // The probe variable is the one atom 0 and atom 1 share: z, the second
  // term of atom 0.
  ASSERT_TRUE(tgd.body[0].terms[1].is_variable());
  EXPECT_EQ(full[3].var, tgd.body[0].terms[1].var());
  // The probed position is skipped in the level's unification program.
  EXPECT_EQ(full[3].nops, 1);
  EXPECT_EQ(full[4].op, plan::Instr::kBind);
  EXPECT_EQ(full[4].pos, 1);
  EXPECT_EQ(full[5].op, plan::Instr::kEmit);
}

TEST_F(PlanCompilerTest, ConstantTermsSelectProbeConstAndCheckConst) {
  auto query = ParseQuery("q(x) :- E('a', x) & H(x, 'b').", schema_,
                          &symbols_);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  plan::BodyPlan body =
      plan::CompileBody(query->body, query->var_count, {});

  // Both atoms have one bound (constant) term; the tie goes to atom 0,
  // which probes its constant; atom 1 then has x bound — a bound-variable
  // probe is preferred over its constant.
  const std::vector<plan::Instr> full = Program(body, body.full_entry);
  ASSERT_EQ(full.size(), 5u);
  EXPECT_EQ(full[0].op, plan::Instr::kProbeConst);
  EXPECT_EQ(full[0].atom_index, 0);
  EXPECT_EQ(full[0].pos, 0);
  EXPECT_EQ(full[0].key, symbols_.InternConstant("a"));
  EXPECT_EQ(full[0].nops, 1);
  EXPECT_EQ(full[1].op, plan::Instr::kBind);
  EXPECT_EQ(full[2].op, plan::Instr::kProbeVar);
  EXPECT_EQ(full[2].atom_index, 1);
  EXPECT_EQ(full[2].pos, 0);
  // Atom 1's remaining instr checks the constant 'b' at position 1.
  ASSERT_EQ(full[2].nops, 1);
  EXPECT_EQ(full[3].op, plan::Instr::kCheckConst);
  EXPECT_EQ(full[3].pos, 1);
  EXPECT_EQ(full[3].key, symbols_.InternConstant("b"));
  EXPECT_EQ(full[4].op, plan::Instr::kEmit);
}

TEST_F(PlanCompilerTest, DeltaSpecializationEmitsOnePivotPerAtom) {
  std::vector<Tgd> tgds =
      ParseTgds("E(x,z) & E(z,y) & H(y,w) -> F(x,w).");
  const Tgd& tgd = tgds[0];
  plan::BodyPlan body = plan::CompileBody(tgd.body, tgd.var_count, {});

  ASSERT_EQ(body.pivots.size(), tgd.body.size());
  for (size_t i = 0; i < body.pivots.size(); ++i) {
    const plan::BodyPlan::Pivot& pivot = body.pivots[i];
    EXPECT_EQ(pivot.relation, tgd.body[i].relation);
    // The pivot is unified up front, one slot instr per position...
    ASSERT_EQ(pivot.slots_end - pivot.slots_begin, 2u);
    for (uint32_t ip = pivot.slots_begin; ip < pivot.slots_end; ++ip) {
      EXPECT_EQ(body.code[ip].op, plan::Instr::kBind);
      EXPECT_EQ(body.code[ip].pos, static_cast<int>(ip - pivot.slots_begin));
    }
    // ...then the rest program joins every other atom once.
    EXPECT_EQ(pivot.entry, pivot.slots_end);
    std::set<int> rest_atoms;
    int levels = 0;
    for (const plan::Instr& instr : Program(body, pivot.entry)) {
      if (instr.op == plan::Instr::kScan ||
          instr.op == plan::Instr::kProbeConst ||
          instr.op == plan::Instr::kProbeVar) {
        rest_atoms.insert(instr.atom_index);
        ++levels;
        // Every remaining atom shares a variable with the pivot or an
        // earlier level: none of them scans.
        EXPECT_EQ(instr.op, plan::Instr::kProbeVar);
      }
    }
    EXPECT_EQ(levels, static_cast<int>(tgd.body.size()) - 1);
    EXPECT_EQ(rest_atoms.size(), tgd.body.size() - 1);
    EXPECT_EQ(rest_atoms.count(static_cast<int>(i)), 0u);
  }
}

TEST_F(PlanCompilerTest, ApplyTemplateCapturesHeadShapeAndExistentials) {
  std::vector<Tgd> tgds =
      ParseTgds("E(x,y) -> exists z, w: H(x,z) & F(z,w).");
  const Tgd& tgd = tgds[0];
  plan::TgdPlan plan = plan::CompileTgd(tgd);
  const plan::ApplyTemplate& apply = plan.apply;

  EXPECT_EQ(apply.head_width, 4u);
  EXPECT_EQ(apply.fresh_per_trigger, 2);
  ASSERT_EQ(apply.existentials.size(), 2u);
  // Ascending variable order — the interpreter invents fresh nulls in that
  // order, and the chase's apply mints them in the same order.
  EXPECT_LT(apply.existentials[0], apply.existentials[1]);
  // Flat head row: H(x,z) F(z,w) -> slots 1 and 2 hold z, slot 3 holds w.
  ASSERT_EQ(apply.slots.size(), 4u);
  EXPECT_FALSE(apply.slots[0].is_const);
  EXPECT_EQ(apply.slots[0].exist, -1);
  EXPECT_EQ(apply.slots[1].exist, 0);
  EXPECT_EQ(apply.slots[2].exist, 0);
  EXPECT_EQ(apply.slots[3].exist, 1);
  ASSERT_EQ(apply.head_null_slots.size(), 3u);
  EXPECT_EQ(apply.head_null_slots[0].first, 1u);
  EXPECT_EQ(apply.head_null_slots[1].first, 2u);
  EXPECT_EQ(apply.head_null_slots[2].first, 3u);
  ASSERT_EQ(apply.head_atoms.size(), 2u);
  EXPECT_EQ(apply.head_atoms[0].relation, tgd.head[0].relation);
  EXPECT_EQ(apply.head_atoms[0].arity, 2);
  // body_bound marks exactly the universal variables.
  ASSERT_EQ(apply.body_bound.size(), static_cast<size_t>(tgd.var_count));
  for (int v = 0; v < tgd.var_count; ++v) {
    EXPECT_EQ(apply.body_bound[v], !tgd.existential[v]) << "var " << v;
  }
}

TEST_F(PlanCompilerTest, HeadPlanProbesWithUniversalVariablesBound) {
  // The head plan backs the restricted engine's satisfaction check: it is
  // compiled with the universal variables pre-bound, so the head atom
  // probes one of them instead of scanning and checks the other.
  std::vector<Tgd> tgds = ParseTgds("E(x,y) -> H(x,y).");
  plan::TgdPlan plan = plan::CompileTgd(tgds[0]);
  const std::vector<plan::Instr> head =
      Program(plan.head, plan.head.full_entry);
  ASSERT_EQ(head.size(), 3u);
  EXPECT_EQ(head[0].op, plan::Instr::kProbeVar);
  EXPECT_EQ(head[0].pos, 0);
  EXPECT_EQ(head[0].var, tgds[0].head[0].terms[0].var());
  EXPECT_EQ(head[1].op, plan::Instr::kCheckVar);
  EXPECT_EQ(head[1].pos, 1);
  EXPECT_EQ(head[2].op, plan::Instr::kEmit);
  // One index-probed level: existence is a point lookup.
  EXPECT_TRUE(plan.head.exists.valid);
  // Heads only run from full_entry: no delta pivot programs.
  EXPECT_TRUE(plan.head.pivots.empty());
  EXPECT_EQ(plan.head.code.size(), 3u);
}

// The apply mode each tgd compiles to (plan/ir.h, ApplyMode), over the
// genomics schema plus P/2 and Q/4.
class ApplyModeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const auto& [name, arity] :
         std::vector<std::pair<const char*, int>>{{"SPProtein", 3},
                                                  {"SPAnnotation", 2},
                                                  {"Protein", 2},
                                                  {"Organism", 2},
                                                  {"Annotation", 3},
                                                  {"P", 2},
                                                  {"Q", 4}}) {
      ASSERT_TRUE(schema_.AddRelation(name, arity).ok());
    }
  }

  plan::ApplyTemplate Apply(const char* text) {
    auto deps = ParseDependencies(text, schema_, &symbols_);
    EXPECT_TRUE(deps.ok()) << deps.status().ToString();
    EXPECT_EQ(deps->tgds.size(), 1u) << text;
    return plan::CompileTgd(deps->tgds[0]).apply;
  }

  Schema schema_;
  SymbolTable symbols_;
};

TEST_F(ApplyModeTest, GenomicsTgds) {
  plan::ApplyTemplate st_full =
      Apply("SPProtein(a,n,o) -> Protein(a,n) & Organism(a,o).");
  EXPECT_EQ(st_full.mode, plan::ApplyMode::kInsert);
  EXPECT_EQ(st_full.refute_atom, -1);

  plan::ApplyTemplate st_exist =
      Apply("SPAnnotation(a,g) -> exists e: Annotation(a,g,e).");
  EXPECT_EQ(st_exist.mode, plan::ApplyMode::kNone);
  EXPECT_EQ(st_exist.refute_atom, -1);

  plan::ApplyTemplate ts_protein =
      Apply("Protein(a,n) -> exists o: SPProtein(a,n,o).");
  EXPECT_EQ(ts_protein.mode, plan::ApplyMode::kNone);

  // e occurs in the body only, so two annotations of one (a, g) share a
  // head image: live, with the existential-free SPAnnotation(a,g) as the
  // refuting atom, at flat slots 3..4 after SPProtein's three.
  plan::ApplyTemplate ts_annotation = Apply(
      "Annotation(a,g,e) -> exists n,o: SPProtein(a,n,o) & SPAnnotation(a,g).");
  EXPECT_EQ(ts_annotation.mode, plan::ApplyMode::kLive);
  ASSERT_EQ(ts_annotation.refute_atom, 1);
  EXPECT_EQ(ts_annotation.head_atoms[1].relation,
            schema_.FindRelation("SPAnnotation").value());
  EXPECT_EQ(ts_annotation.refute_offset, 3u);
}

TEST_F(ApplyModeTest, ShapesThatStayLive) {
  // A body variable missing from a head atom.
  plan::ApplyTemplate missing = Apply("SPProtein(a,n,o) -> exists z: P(a,z).");
  EXPECT_EQ(missing.mode, plan::ApplyMode::kLive);
  EXPECT_EQ(missing.refute_atom, -1);
  // A head relation that repeats, though each atom names every body
  // variable.
  plan::ApplyTemplate repeated =
      Apply("P(a,n) -> exists z: Annotation(a,n,z) & Annotation(n,a,z).");
  EXPECT_EQ(repeated.mode, plan::ApplyMode::kLive);
  EXPECT_EQ(repeated.refute_atom, -1);
  // A head constant in the atom that omits a body variable; the other atom
  // is existential-free and refutes.
  plan::ApplyTemplate constant =
      Apply("P(a,n) -> exists z: Annotation(a,'c',z) & Organism(a,n).");
  EXPECT_EQ(constant.mode, plan::ApplyMode::kLive);
  EXPECT_EQ(constant.refute_atom, 1);
  EXPECT_EQ(constant.refute_offset, 3u);
}

TEST_F(ApplyModeTest, ShapesThatNeedNoRecheck) {
  // A repeated existential, within one atom and across atoms.
  EXPECT_EQ(Apply("Organism(a,n) -> exists e: Q(a,n,e,e).").mode,
            plan::ApplyMode::kNone);
  EXPECT_EQ(Apply("P(a,n) -> exists e: Annotation(a,n,e) & SPProtein(n,a,e).")
                .mode,
            plan::ApplyMode::kNone);
  // Head constants, one in an existential-free atom (no refuting atom is
  // kept: none mode never probes).
  plan::ApplyTemplate constant =
      Apply("P(a,n) -> exists e: Q(a,n,e,'c') & Annotation(n,a,'c').");
  EXPECT_EQ(constant.mode, plan::ApplyMode::kNone);
  EXPECT_EQ(constant.refute_atom, -1);
  // A body with no variables: a batch holds at most one trigger.
  EXPECT_EQ(Apply("P('a','b') -> exists z: Protein(z,z).").mode,
            plan::ApplyMode::kNone);
  // Full tgds insert, whatever their head shape.
  EXPECT_EQ(Apply("P(a,n) -> Protein(a,a) & Protein(n,n).").mode,
            plan::ApplyMode::kInsert);
  EXPECT_EQ(Apply("P('a','b') -> Protein('a','c').").mode,
            plan::ApplyMode::kInsert);
}

TEST_F(PlanCompilerTest, DumpPlansDisassemblesEveryProgram) {
  // The full --dump-plans text for one tgd and one egd: any change to an
  // emitted instruction, entry point or the header lines fails here.
  DependencySet deps = Unwrap(ParseDependencies(
      "E(x,z) & E(z,y) -> exists w: H(x,w) & F(w,'a'). "
      "H(x,y) & H(x,z) -> y = z.",
      schema_, &symbols_));
  auto compiled = plan::CompileSetting(deps.tgds, deps.egds);
  const std::string dump =
      plan::DumpPlans(*compiled, deps.tgds, deps.egds, schema_, symbols_);
  const std::string want =
      "tgd #0: E(x,z) & E(z,y) -> exists w: H(x,w) & F(w,'a')\n"
      "  head_width=4 fresh_per_trigger=1\n"
      "  apply=live\n"
      " body:\n"
      "  bytecode (16 instrs, max_depth=2):\n"
      "    full @0:\n"
      "      0: scan E atom#0 nops=2\n"
      "      1: bind [0] x\n"
      "      2: bind [1] z\n"
      "      3: probe-var E[0]=z atom#1 nops=1\n"
      "      4: bind [1] y\n"
      "      5: emit\n"
      "    delta pivot atom#0 slots @[6,8) rest @8:\n"
      "      6: bind [0] x\n"
      "      7: bind [1] z\n"
      "      8: probe-var E[0]=z atom#1 nops=1\n"
      "      9: bind [1] y\n"
      "      10: emit\n"
      "    delta pivot atom#1 slots @[11,13) rest @13:\n"
      "      11: bind [0] z\n"
      "      12: bind [1] y\n"
      "      13: probe-var E[1]=z atom#0 nops=1\n"
      "      14: bind [0] x\n"
      "      15: emit\n"
      " head (universals bound):\n"
      "  bytecode (5 instrs, max_depth=2):\n"
      "    full @0:\n"
      "      0: probe-var H[0]=x atom#0 nops=1\n"
      "      1: bind [1] w\n"
      "      2: probe-var F[0]=w atom#1 nops=1\n"
      "      3: check-const [1]=const\n"
      "      4: emit\n"
      "egd #0: H(x,y) & H(x,z) -> y = z\n"
      " body:\n"
      "  bytecode (16 instrs, max_depth=2):\n"
      "    full @0:\n"
      "      0: scan H atom#0 nops=2\n"
      "      1: bind [0] x\n"
      "      2: bind [1] y\n"
      "      3: probe-var H[0]=x atom#1 nops=1\n"
      "      4: bind [1] z\n"
      "      5: emit\n"
      "    delta pivot atom#0 slots @[6,8) rest @8:\n"
      "      6: bind [0] x\n"
      "      7: bind [1] y\n"
      "      8: probe-var H[0]=x atom#1 nops=1\n"
      "      9: bind [1] z\n"
      "      10: emit\n"
      "    delta pivot atom#1 slots @[11,13) rest @13:\n"
      "      11: bind [0] x\n"
      "      12: bind [1] z\n"
      "      13: probe-var H[0]=x atom#0 nops=1\n"
      "      14: bind [1] y\n"
      "      15: emit\n"
      "fingerprint: 37315326840190734\n";
  EXPECT_EQ(dump, want);
}

TEST_F(PlanCompilerTest, FingerprintIsStructuralNotTextual) {
  // Renaming variables and relations changes nothing the compiler reads
  // as long as ids coincide; adding a constant does.
  std::vector<Tgd> a = ParseTgds("E(x,z) & E(z,y) -> H(x,y).");
  std::vector<Tgd> b = ParseTgds("E(u,v) & E(v,w) -> H(u,w).");
  std::vector<Tgd> c = ParseTgds("E('a',z) & E(z,y) -> H('a',y).");
  EXPECT_EQ(plan::SettingFingerprint(a, {}), plan::SettingFingerprint(b, {}));
  EXPECT_NE(plan::SettingFingerprint(a, {}), plan::SettingFingerprint(c, {}));
}

// --- PlanCache -----------------------------------------------------------

TEST_F(PlanCompilerTest, PlanCacheReturnsSharedPlansAndCountsHits) {
  std::vector<Tgd> tgds =
      ParseTgds("E(x,z) & E(z,y) & E(y,w) & H(w,u) -> F(x,u).");
  obs::Counter hits = obs::MetricsRegistry::Global().GetCounter(
      "pdx_plan_cache_hits_total");
  obs::Counter compiled_total = obs::MetricsRegistry::Global().GetCounter(
      "pdx_plan_compiled_total");

  plan::PlanCache& cache = plan::PlanCache::Global();
  plan::PlanCache::Stats before = cache.stats();
  int64_t hits_before = hits.Value();
  int64_t compiled_before = compiled_total.Value();

  auto first = cache.GetOrCompile(tgds, {});
  auto second = cache.GetOrCompile(tgds, {});
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first.get(), second.get())
      << "same structural setting must share one compiled plan";

  plan::PlanCache::Stats after = cache.stats();
  EXPECT_EQ(after.compiled - before.compiled, 1);
  EXPECT_EQ(after.hits - before.hits, 1);
  EXPECT_EQ(compiled_total.Value() - compiled_before, 1);
  EXPECT_EQ(hits.Value() - hits_before, 1);
}

// --- Executor vs reference interpreter ---------------------------------

using Row = std::vector<uint64_t>;

Row ToRow(const Binding& b) {
  Row row;
  for (size_t v = 0; v < b.bound.size(); ++v) {
    row.push_back(b.bound[v] ? b.values[v].packed() : 0);
  }
  return row;
}

std::set<Row> CollectReference(const std::vector<Atom>& atoms, int var_count,
                               const Instance& instance,
                               const Binding& partial) {
  std::set<Row> rows;
  reference::EnumerateMatches(atoms, var_count, instance, partial,
                              [&](const Binding& b) {
                                EXPECT_TRUE(rows.insert(ToRow(b)).second);
                                return true;
                              });
  return rows;
}

std::set<Row> CollectPlanned(const plan::BodyPlan& plan,
                             const Instance& instance,
                             const Binding& partial) {
  std::set<Row> rows;
  EnumerateMatchesPlanned(plan, instance, partial, [&](const Binding& b) {
    EXPECT_TRUE(rows.insert(ToRow(b)).second);
    return true;
  });
  return rows;
}

// The answers of `query` on the reference: its matches projected onto
// the head variables.
std::vector<Tuple> ReferenceAnswers(const ConjunctiveQuery& query,
                                    const Instance& instance) {
  std::set<Tuple> answers;
  reference::EnumerateMatches(query.body, query.var_count, instance,
                              Binding::Empty(query.var_count),
                              [&](const Binding& b) {
                                Tuple answer;
                                for (VariableId v : query.head_vars) {
                                  answer.push_back(b.values[v]);
                                }
                                answers.insert(std::move(answer));
                                return true;
                              });
  return {answers.begin(), answers.end()};
}

// The match VM against the reference interpreter on an instance whose
// egd merge joins E(a,n1) with H(n2,c), and E(n2,n1) with itself, only
// under resolve-on-read (the raw tuples never change). Each row is a
// query shape, with an optional partial binding; the plan is compiled
// for the unbound case, so a partial binding runs the runtime-checked
// kBind path. Without a partial binding, the production query paths
// (EvaluateUnionQuery, EvaluateBoolean) must answer as the reference.
TEST_F(PlanCompilerTest, ExecutorMatchesInterpreterOnMergedInstance) {
  Value a = symbols_.InternConstant("a");
  Value b = symbols_.InternConstant("b");
  Value c = symbols_.InternConstant("c");
  Value n1 = symbols_.FreshNull();
  Value n2 = symbols_.FreshNull();
  Instance instance(&schema_);
  instance.AddFact(0, {a, n1});
  instance.AddFact(0, {a, b});
  instance.AddFact(0, {n2, n1});
  instance.AddFact(1, {n2, c});
  instance.AddFact(1, {b, a});
  ASSERT_TRUE(instance.MergeValues(n1, n2).merged);
  ASSERT_TRUE(instance.has_merges());
  const Value root = instance.ResolveValue(n1);
  const Value non_root = root == n1 ? n2 : n1;
  ASSERT_NE(instance.ResolveValue(non_root), non_root);

  struct Shape {
    const char* name;
    const char* query;
    std::vector<std::pair<VariableId, Value>> partial;
    size_t matches;
  };
  const Shape shapes[] = {
      {"join through a merged null", "q(x,y,w) :- E(x,y) & H(y,w).", {}, 3},
      {"partial binding", "q(x,y,w) :- E(x,y) & H(y,w).", {{0, a}}, 2},
      {"partial binding to a non-root merged null",
       "q(x,y,w) :- E(x,y) & H(y,w).", {{1, non_root}}, 2},
      {"constant in an atom", "q(y) :- E('a', y).", {}, 2},
      {"constant and join", "q(w) :- E('a', y) & H(y, w).", {}, 2},
      {"repeated variable", "q(x) :- E(x,x).", {}, 1},
      {"repeated variable across atoms", "q(x) :- E(x,y) & H(x,y).", {}, 0},
      {"no match", "q(x) :- H(x,x).", {}, 0},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    ConjunctiveQuery query =
        Unwrap(ParseQuery(shape.query, schema_, &symbols_));
    Binding partial = Binding::Empty(query.var_count);
    for (const auto& [v, value] : shape.partial) partial.Bind(v, value);
    const plan::BodyPlan plan =
        plan::CompileBody(query.body, query.var_count, {});
    const std::set<Row> want =
        CollectReference(query.body, query.var_count, instance, partial);
    EXPECT_EQ(CollectPlanned(plan, instance, partial), want);
    EXPECT_EQ(want.size(), shape.matches);
    EXPECT_EQ(HasMatchPlanned(plan, instance, partial), !want.empty());
    if (!shape.partial.empty()) continue;
    UnionQuery union_query;
    union_query.disjuncts.push_back(query);
    EXPECT_EQ(EvaluateUnionQuery(union_query, instance),
              ReferenceAnswers(query, instance));
    EXPECT_EQ(EvaluateBoolean(union_query, instance),
              reference::HasMatch(query.body, query.var_count, instance));
  }

  // The zero-atom conjunction: the parser admits no empty body, so it is
  // built directly. Its one match is the empty binding.
  const plan::BodyPlan empty = plan::CompileBody({}, 0, {});
  EXPECT_EQ(CollectPlanned(empty, instance, Binding::Empty(0)),
            CollectReference({}, 0, instance, Binding::Empty(0)));
  EXPECT_TRUE(HasMatchPlanned(empty, instance, Binding::Empty(0)));
}

// The semi-naive pivot sets by definition: every full match of `atoms`
// (reference interpreter) belongs to the first atom whose image is not a
// fact of `old`, the instance as it stood at the watermark; a match wholly
// inside `old` belongs to no pivot.
std::vector<std::set<Row>> ReferencePivotSets(const std::vector<Atom>& atoms,
                                              int var_count,
                                              const Instance& instance,
                                              const Instance& old) {
  std::vector<std::set<Row>> sets(atoms.size());
  reference::EnumerateMatches(
      atoms, var_count, instance, Binding::Empty(var_count),
      [&](const Binding& b) {
        for (size_t i = 0; i < atoms.size(); ++i) {
          Tuple image;
          for (const Term& t : atoms[i].terms) {
            image.push_back(t.is_constant() ? t.constant() : b.values[t.var()]);
          }
          if (!old.Contains(atoms[i].relation, image)) {
            sets[i].insert(ToRow(b));
            break;
          }
        }
        return true;
      });
  return sets;
}

TEST_F(PlanCompilerTest, DeltaExecutorMatchesInterpreterPerPartition) {
  auto query = ParseQuery("q(x,y,z) :- E(x,y) & E(y,z).", schema_,
                          &symbols_);
  ASSERT_TRUE(query.ok());
  auto node = [&](int i) {
    return symbols_.InternConstant("n" + std::to_string(i));
  };
  Instance instance(&schema_);
  for (int i = 0; i < 6; ++i) {
    instance.AddFact(0, {node(i), node((i + 1) % 6)});
  }
  InstanceWatermark mark = instance.TakeWatermark();
  const Instance old = instance;
  for (int i = 0; i < 6; ++i) {
    instance.AddFact(0, {node(i), node((i + 2) % 6)});
  }
  DeltaView delta(instance, mark);
  const std::vector<std::set<Row>> want =
      ReferencePivotSets(query->body, query->var_count, instance, old);
  ASSERT_EQ(want.size(), 2u);
  EXPECT_FALSE(want[0].empty());
  EXPECT_FALSE(want[1].empty());

  plan::BodyPlan plan =
      plan::CompileBody(query->body, query->var_count, {});
  const Binding empty = Binding::Empty(query->var_count);
  auto collect = [&](const DeltaPartition& part) {
    std::set<Row> rows;
    EnumerateDeltaPartitionPlanned(plan, instance, delta, part, empty,
                                   [&](const Binding& b) {
                                     EXPECT_TRUE(rows.insert(ToRow(b)).second);
                                     return true;
                                   });
    return rows;
  };

  // One partition per pivot: each enumerates exactly that pivot's set.
  std::vector<DeltaPartition> parts;
  PartitionDeltaMatches(plan, delta, 1, &parts);
  ASSERT_EQ(parts.size(), 2u);
  for (const DeltaPartition& part : parts) {
    SCOPED_TRACE("pivot " + std::to_string(part.pivot));
    ASSERT_FALSE(part.over_extras);
    EXPECT_EQ(collect(part), want[part.pivot]);
  }

  // Finer slices of each pivot are disjoint and union to its set.
  PartitionDeltaMatches(plan, delta, 4, &parts);
  ASSERT_GT(parts.size(), 2u);
  std::vector<std::set<Row>> got(want.size());
  for (const DeltaPartition& part : parts) {
    for (const Row& row : collect(part)) {
      EXPECT_TRUE(got[part.pivot].insert(row).second)
          << "slices of pivot " << part.pivot << " overlap";
    }
  }
  EXPECT_EQ(got, want);
}

// --- Solver cache criterion ---------------------------------------------

TEST_F(PlanCompilerTest, SolverNodeRechasesCompileEachSettingOnce) {
  // A setting shaped to be structurally unique in this process (arity-3
  // target relation), so its first solve is the one and only compile; the
  // search explores multiple nodes, each re-chasing through the same
  // plans, and repeated solves hit the cache without recompiling.
  SymbolTable symbols;
  PdeSetting setting = Unwrap(PdeSetting::Create(
      {{"S", 2}}, {{"T", 3}},
      "S(x,y) -> exists z: T(x,y,z).",
      "T(x,y,z) -> S(x,y).",
      "T(x,y,z) & T(x,y,w) -> z = w.", &symbols));
  Instance source = testing_util::ParseOrDie(
      setting, "S(a,b). S(b,c). S(c,a).", &symbols);
  Instance target = setting.EmptyInstance();

  obs::Counter compiled_total = obs::MetricsRegistry::Global().GetCounter(
      "pdx_plan_compiled_total");
  obs::Counter hits = obs::MetricsRegistry::Global().GetCounter(
      "pdx_plan_cache_hits_total");

  int64_t compiled_before = compiled_total.Value();
  GenericSolveResult first = Unwrap(
      GenericExistsSolution(setting, source, target, &symbols));
  ASSERT_EQ(first.outcome, SolveOutcome::kSolutionFound);
  ASSERT_GT(first.nodes_explored, 1);
  int64_t compiled_first = compiled_total.Value() - compiled_before;
  EXPECT_EQ(compiled_first, 1)
      << "one solve must compile its setting exactly once, regardless of "
         "node count";

  int64_t hits_before = hits.Value();
  GenericSolveResult second = Unwrap(
      GenericExistsSolution(setting, source, target, &symbols));
  EXPECT_EQ(second.outcome, first.outcome);
  EXPECT_EQ(compiled_total.Value() - compiled_before, 1)
      << "a repeated solve of the same setting must not recompile";
  EXPECT_GE(hits.Value() - hits_before, 1);
}

// --- Stream and solution-aware cache criteria ---------------------------

TEST_F(PlanCompilerTest, StreamingChaseBatchesCompileTheSettingOnce) {
  // Arity-4 relations keep the setting structurally unique in this
  // process, so constructing the stream is its one compile; Initialize and
  // every ResumeWithDeltas batch re-chase through the cached plans.
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("A", 4).ok());
  ASSERT_TRUE(schema.AddRelation("B", 4).ok());
  SymbolTable symbols;
  DependencySet deps = Unwrap(ParseDependencies(
      "A(x,y,z,w) -> exists v: B(x,y,w,v). "
      "B(x,y,w,v) & B(x,y,w,u) -> v = u.",
      schema, &symbols));
  auto c = [&](const std::string& name) {
    return symbols.InternConstant(name);
  };
  auto fact = [&](int i) {
    const std::string k = std::to_string(i);
    return Fact{0, Tuple{c("a" + k), c("b"), c("c"), c("d" + k)}};
  };
  Instance base(&schema);
  base.AddFact(fact(0));

  obs::Counter compiled_total = obs::MetricsRegistry::Global().GetCounter(
      "pdx_plan_compiled_total");
  const int64_t before = compiled_total.Value();
  StreamingChase stream(&schema, deps.tgds, deps.egds, &symbols);
  ASSERT_TRUE(stream.Initialize(base).ok());
  for (int i = 1; i <= 4; ++i) {
    StatusOr<StreamStats> stats =
        stream.ResumeWithDeltas({fact(i)}, {fact(i - 1)});
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_GT(stats.value().steps, 0);
  }
  EXPECT_EQ(stream.instance().tuples(1).size(), 1u);
  EXPECT_EQ(compiled_total.Value() - before, 1)
      << "a stream must compile its setting once across all batches";
}

TEST_F(PlanCompilerTest, SolutionAwareChaseRunsCompileTheSettingOnce) {
  // Arity-5 relations: structurally unique, as above.
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("C", 5).ok());
  ASSERT_TRUE(schema.AddRelation("D", 5).ok());
  SymbolTable symbols;
  DependencySet deps = Unwrap(ParseDependencies(
      "C(x,y,z,u,w) -> exists v: D(x,y,z,u,v).", schema, &symbols));
  auto c = [&](const std::string& name) {
    return symbols.InternConstant(name);
  };
  Instance start(&schema);
  start.AddFact(0, {c("a"), c("b"), c("c"), c("d"), c("e")});
  Instance solution = start;
  solution.AddFact(1, {c("a"), c("b"), c("c"), c("d"), c("k")});

  obs::Counter compiled_total = obs::MetricsRegistry::Global().GetCounter(
      "pdx_plan_compiled_total");
  const int64_t before = compiled_total.Value();
  for (int run = 0; run < 3; ++run) {
    ChaseResult result =
        SolutionAwareChase(start, deps.tgds, deps.egds, solution);
    ASSERT_EQ(result.outcome, ChaseOutcome::kSuccess);
    EXPECT_EQ(result.steps, 1);
    EXPECT_TRUE(result.instance.IsSubsetOf(solution));
  }
  EXPECT_EQ(compiled_total.Value() - before, 1)
      << "repeated solution-aware chases must compile their setting once";
}

}  // namespace
}  // namespace pdx
