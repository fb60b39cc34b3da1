#ifndef PDX_TESTS_REFERENCE_INSTANCE_H_
#define PDX_TESTS_REFERENCE_INSTANCE_H_

// Test-only references for Instance's whole-instance reads, written the
// direct way over Instance::AllFacts / ForEachFact (one Fact object per
// resolved fact, hash sets for deduplication). The production versions
// walk the raw stores over reused flat buffers; the tests check them
// against these for bit-identical results.

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "relational/instance.h"

namespace pdx {
namespace reference {

// The canonical fingerprint over a sorted vector of resolved facts: sort
// by relation, then at the first position where two facts differ in kind
// the constant first, at the first where both hold distinct constants the
// smaller packed value first, and otherwise by the whole packed tuple;
// then hash each fact in that order with every null replaced by its
// first-occurrence number.
inline uint64_t CanonicalFingerprint(const Instance& instance) {
  std::vector<Fact> facts = instance.AllFacts();
  std::sort(facts.begin(), facts.end(), [](const Fact& a, const Fact& b) {
    if (a.relation != b.relation) return a.relation < b.relation;
    for (size_t i = 0; i < a.tuple.size(); ++i) {
      const Value& va = a.tuple[i];
      const Value& vb = b.tuple[i];
      if (va.is_null() != vb.is_null()) return vb.is_null();
      if (va.is_constant() && va != vb) return va < vb;
    }
    return a.tuple < b.tuple;
  });
  auto mix = [](uint64_t h, uint64_t x) {
    x *= 0x9e3779b97f4a7c15ull;
    x ^= x >> 29;
    x *= 0xbf58476d1ce4e5b9ull;
    return (h ^ x) * 0x100000001b3ull;
  };
  std::unordered_map<uint64_t, uint32_t> null_rename;
  uint64_t h = 0xcbf29ce484222325ull;
  for (const Fact& f : facts) {
    h = mix(h, static_cast<uint64_t>(f.relation) + 1);
    for (const Value& v : f.tuple) {
      if (v.is_constant()) {
        h = mix(h, v.packed() * 2 + 1);
      } else {
        auto [it, inserted] = null_rename.emplace(
            v.packed(), static_cast<uint32_t>(null_rename.size()));
        h = mix(h, uint64_t{it->second} * 2);
      }
    }
  }
  return h;
}

// The resolved values in first-occurrence order over ForEachFact's
// deduplicated resolved facts.
inline std::vector<Value> ActiveDomain(const Instance& instance) {
  std::unordered_set<uint64_t> seen;
  std::vector<Value> domain;
  instance.ForEachFact([&](const Fact& f) {
    for (const Value& v : f.tuple) {
      if (seen.insert(v.packed()).second) domain.push_back(v);
    }
  });
  return domain;
}

// The tuples a merge of `a` and `b` dirties, by definition: every
// (relation, tuple index) some value of which resolves differently after
// the merge than before, sorted. Applies the merge to `instance`.
inline std::vector<std::pair<RelationId, int>> MergeDirtyByScan(
    Instance* instance, Value a, Value b) {
  const Instance before = *instance;
  instance->MergeValues(a, b);
  std::vector<std::pair<RelationId, int>> dirty;
  for (RelationId r = 0; r < instance->schema().relation_count(); ++r) {
    const TupleList tuples = instance->tuples(r);
    for (size_t i = 0; i < tuples.size(); ++i) {
      const TupleView t = tuples[i];
      for (int p = 0; p < t.size(); ++p) {
        if (before.ResolveValue(t[p]) != instance->ResolveValue(t[p])) {
          dirty.emplace_back(r, static_cast<int>(i));
          break;
        }
      }
    }
  }
  return dirty;
}

}  // namespace reference
}  // namespace pdx

#endif  // PDX_TESTS_REFERENCE_INSTANCE_H_
