#ifndef PDX_TESTS_TEST_UTIL_H_
#define PDX_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "base/status.h"
#include "chase/chase.h"
#include "chase/journal.h"
#include "hom/instance_hom.h"
#include "pde/setting.h"
#include "relational/instance.h"
#include "relational/instance_io.h"
#include "relational/value.h"
#include "tests/chase_trace_check.h"
#include "workload/random.h"

namespace pdx {
namespace testing_util {

// Unwraps a StatusOr in a test, failing loudly with the status message.
template <typename T>
T Unwrap(StatusOr<T> status_or, const char* what = "StatusOr") {
  EXPECT_TRUE(status_or.ok()) << what << ": " << status_or.status().ToString();
  return std::move(status_or).value();
}

// Parses an instance over the setting's combined schema, aborting the test
// on parse errors.
inline Instance ParseOrDie(const PdeSetting& setting, std::string_view text,
                           SymbolTable* symbols) {
  return Unwrap(ParseInstance(text, setting.schema(), symbols), "instance");
}

// Builds the PDE setting of the paper's Example 1:
//   S = {E/2}, T = {H/2},
//   Σ_st: E(x,z) & E(z,y) -> H(x,y)
//   Σ_ts: H(x,y) -> E(x,y)
//   Σ_t = ∅.
inline PdeSetting MakeExample1Setting(SymbolTable* symbols) {
  return Unwrap(PdeSetting::Create({{"E", 2}}, {{"H", 2}},
                                   "E(x,z) & E(z,y) -> H(x,y).",
                                   "H(x,y) -> E(x,y).", "", symbols),
                "example 1 setting");
}

// The path-of-length-two setting used throughout Section 2:
//   Σ_st: E(x,z) & E(z,y) -> H(x,y)
//   Σ_ts: H(x,y) -> exists z: E(x,z) & E(z,y)
inline PdeSetting MakePathSetting(SymbolTable* symbols) {
  return Unwrap(
      PdeSetting::Create({{"E", 2}}, {{"H", 2}},
                         "E(x,z) & E(z,y) -> H(x,y).",
                         "H(x,y) -> exists z: E(x,z) & E(z,y).", "", symbols),
      "path setting");
}

// Fingerprint after canonical null renumbering (CanonicalizeNulls in
// hom/instance_hom.h): invariant under any bijective renaming of nulls.
// Raw CanonicalFingerprint() tie-breaks its fact sort on original null
// ids, so it can differ between isomorphic instances whose nulls sit in
// symmetric positions — use this to compare runs that may number their
// nulls differently (a streamed instance against a from-scratch chase).
inline uint64_t CanonicalizedFingerprint(const Instance& instance) {
  return CanonicalizeNulls(instance).CanonicalFingerprint();
}

// Asserts `a` and `b` are homomorphically equivalent (maps both ways,
// constants fixed) — the solution-equivalence of the paper's Lemmas 1–2.
// Strictly weaker than isomorphism: hom-equivalent instances may have
// different canonicalized fingerprints (one may contain redundant facts
// the other folds away); assert CanonicalizedFingerprint equality when
// isomorphism is meant.
inline void AssertHomEquivalent(const Instance& a, const Instance& b,
                                const std::string& context = "") {
  EXPECT_TRUE(FindInstanceHomomorphism(a, b).has_value())
      << "no homomorphism a -> b" << (context.empty() ? "" : ": ") << context;
  EXPECT_TRUE(FindInstanceHomomorphism(b, a).has_value())
      << "no homomorphism b -> a" << (context.empty() ? "" : ": ") << context;
}

// Chases `start` with a firing journal attached and expects the
// restricted-chase trace checker (tests/chase_trace_check.h) to accept
// the run; `context` labels a rejection.
inline ChaseResult CheckedChase(const Instance& start,
                                const std::vector<Tgd>& tgds,
                                const std::vector<Egd>& egds,
                                SymbolTable* symbols,
                                ChaseOptions options = ChaseOptions(),
                                const std::string& context = "") {
  ChaseJournal journal;
  options.journal = &journal;
  ChaseResult result = Chase(start, tgds, egds, symbols, options);
  Status trace =
      CheckChaseTrace(start, tgds, egds, options.max_steps, result, journal);
  EXPECT_TRUE(trace.ok()) << trace.ToString()
                          << (context.empty() ? "" : "\n") << context;
  return result;
}

// A chase whose tgd batches satisfy themselves: an earlier trigger of one
// tgd's batch makes a later trigger's head hold, so the apply must drop
// the later one (plan/ir.h, ApplyMode). `steps` and `nulls` are pinned,
// and the trace checker accepts each run.
struct SelfSatisfyingBatch {
  std::string name;
  std::vector<std::pair<std::string, int>> relations;
  std::string deps;
  std::string facts;
  int64_t steps = 0;
  int64_t nulls = 0;
};

inline std::vector<SelfSatisfyingBatch> SelfSatisfyingBatches() {
  return {
      // A full tgd (insert mode): E(a,c) re-adds H(a,a), E(b,c) re-adds
      // F(c,c), and E(b,b)'s whole head was added by earlier triggers.
      {"full_overlap",
       {{"E", 2}, {"H", 2}, {"F", 2}},
       "E(x,y) -> H(x,x) & F(y,y).",
       "E(a,b). E(a,c). E(b,c). E(b,b).",
       3,
       0},
      // The head omits a body variable (live): both rows share `a`, so the
      // first trigger's P(p1, _N) satisfies the second.
      {"shared_frontier",
       {{"SPProtein", 3}, {"P", 2}},
       "SPProtein(a,n,o) -> exists z: P(a,z).",
       "SPProtein(p1,n1,o1). SPProtein(p1,n2,o2). SPProtein(p2,n1,o1).",
       2,
       2},
      // A repeated head relation (live): E(a,b)'s two T facts are E(b,a)'s
      // head too.
      {"repeated_relation",
       {{"E", 2}, {"T", 3}},
       "E(x,y) -> exists z: T(x,y,z) & T(y,x,z).",
       "E(a,b). E(b,a). E(c,c).",
       2,
       2},
      // Live, refuted first: SPAnnotation(p,g) is absent before the batch
      // and added by its first trigger, so the second runs the full head
      // match and finds it held; SPAnnotation(p,h) is refuted by the probe.
      {"refuting_atom",
       {{"SPProtein", 3}, {"SPAnnotation", 2}, {"Annotation", 3}},
       "Annotation(a,g,e) -> exists n,o: SPProtein(a,n,o) & SPAnnotation(a,g).",
       "Annotation(p,g,e1). Annotation(p,g,e2). Annotation(p,h,e3).",
       2,
       4},
      // Merges force the live path: the last tgd compiles to `none`, but
      // once the egd merges each H null into its P value, the round
      // enumerates H(x,z) & P(x,z) twice (from the dirtied H tuple and
      // from the new P tuple), and only the first copy may fire.
      {"merge_guard",
       {{"E", 2}, {"H", 2}, {"P", 2}, {"R", 3}},
       "E(x,y) -> exists z: H(x,z)."
       "H(x,z) & E(x,y) -> P(x,y)."
       "H(x,z) & P(x,y) -> z = y."
       "H(x,z) & P(x,z) -> exists v: R(x,z,v).",
       "E(a,b). E(c,d). E(e,f).",
       12,
       6},
  };
}

}  // namespace testing_util
}  // namespace pdx

#endif  // PDX_TESTS_TEST_UTIL_H_
