#ifndef PDX_TESTS_TEST_UTIL_H_
#define PDX_TESTS_TEST_UTIL_H_

#include <cstdint>
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
// hom/instance_hom.h): invariant under any bijective renaming of nulls.
// Raw CanonicalFingerprint() tie-breaks its fact sort on original null
// ids, so it can differ between isomorphic instances whose nulls sit in
// symmetric positions — use this to compare engines that may number their
// nulls differently (the naive oracle against the delta engines).
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

}  // namespace testing_util
}  // namespace pdx

#endif  // PDX_TESTS_TEST_UTIL_H_
