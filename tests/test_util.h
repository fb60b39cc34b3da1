#ifndef PDX_TESTS_TEST_UTIL_H_
#define PDX_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"
#include "base/status.h"
#include "chase/chase.h"
#include "hom/instance_hom.h"
#include "pde/setting.h"
#include "relational/instance.h"
#include "relational/instance_io.h"
#include "relational/value.h"
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
// hom/instance_hom.h): invariant under any bijective renaming of nulls,
// which is exactly the equivalence speculative parallel chase results are
// unique up to. Raw CanonicalFingerprint() tie-breaks its fact sort on
// original null ids, so it can differ between isomorphic instances whose
// nulls sit in symmetric positions — use this for cross-schedule
// comparisons.
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

// The schedules a parallel-invariance test should exercise: barrier and
// speculative by default. Under PDX_FORCE_SCHEDULE (which ResolveSchedule
// makes win process-wide anyway), only the forced one — tools/check.sh's
// TSan lanes pin a schedule so the sanitized runs cover exactly that path
// instead of re-running every mode.
inline std::vector<ChaseSchedule> SchedulesToTest() {
  if (const char* env = std::getenv("PDX_FORCE_SCHEDULE")) {
    if (std::optional<ChaseSchedule> forced = ParseScheduleName(env)) {
      return {*forced};
    }
  }
  return {ChaseSchedule::kBarrier, ChaseSchedule::kSpeculative};
}

// Draws a schedule for fuzz-style trials: uniform over SchedulesToTest(),
// so a pinned TSan lane fuzzes only the pinned path.
inline ChaseSchedule DrawSchedule(Rng* rng) {
  std::vector<ChaseSchedule> schedules = SchedulesToTest();
  return schedules[rng->UniformInt(static_cast<uint32_t>(schedules.size()))];
}

}  // namespace testing_util
}  // namespace pdx

#endif  // PDX_TESTS_TEST_UTIL_H_
