#ifndef PDX_CHASE_JOURNAL_H_
#define PDX_CHASE_JOURNAL_H_

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "relational/value.h"

namespace pdx {

// Fingerprint of a firing: the dependency index plus `row[0, n)` at the
// positions where `skip` is false (the universal variables — existential
// slots hold fresh nulls that must not enter the fingerprint, or a
// re-derived firing could never re-admit).
inline uint64_t TriggerFingerprintRow(size_t dep_index, const Value* row,
                                      size_t n,
                                      const std::vector<bool>& skip) {
  uint64_t h = 0xcbf29ce484222325ull ^ (dep_index * 0x9e3779b97f4a7c15ull);
  for (size_t v = 0; v < n; ++v) {
    if (v < skip.size() && skip[v]) continue;
    uint64_t x = row[v].packed();
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    h = (h ^ x) * 0x100000001b3ull;
  }
  return h;
}

// The firing journal behind deletion propagation (chase/stream.h): an
// append-only log of every trigger a restricted chase applied, written
// from the sequential apply phases (never from pool workers — the
// collect-parallel/apply-sequential discipline means the journal needs no
// locking). One entry per firing holds the dependency index and the full
// extended binding row (universal values plus, for tgds, the fresh nulls
// invented for the existential variables), flat in a shared value pool —
// no per-entry allocation on the hot path. Body and head facts are not
// stored: they are cheap to reconstruct by instantiating the dependency's
// atoms under the row, which also keeps entries valid across egd merges
// (values re-resolve through the live resolver) and store compactions
// (no tuple indexes are held).
//
// Exactly-once discipline: entries are keyed by their universal-binding
// fingerprint (TriggerFingerprintRow) in a plain set of the live entries'
// fingerprints. Recording a fingerprint that already names a *live* entry
// is refused (a duplicate firing — the restricted decide disciplines make
// this unreachable, so the refusal is a safety net keeping support counts
// exact); killing an entry retires its fingerprint, so a deleted trigger
// whose body match re-forms re-admits and fires exactly once more.
class ChaseJournal {
 public:
  struct Entry {
    uint32_t begin = 0;  // offset of this entry's row in the value pool
    uint16_t len = 0;    // row width (the dependency's var_count)
    bool egd = false;    // tgd firing or egd merge
    bool alive = true;   // false once deletion propagation killed it
    uint32_t dep = 0;    // index into the run's tgds / egds vector
    uint64_t fp = 0;     // universal-binding fingerprint (the set key)
  };

  // Records one tgd firing: `row[0, n)` is the extended binding
  // (existential slots filled with the invented nulls; `existential`
  // masks them out of the fingerprint, so a re-derived firing with new
  // nulls keys the same). Returns false (and records nothing) when a
  // live entry already holds the fingerprint.
  bool RecordTgd(size_t dep, const Value* row, size_t n,
                 const std::vector<bool>& existential);

  // Records one successful egd merge under the trigger binding that
  // forced it. Egd fingerprints live in their own namespace (an egd and a
  // tgd sharing an index and binding never collide).
  bool RecordEgd(size_t dep, const Value* row, size_t n);

  size_t size() const { return entries_.size(); }
  size_t live_count() const { return live_; }
  const Entry& entry(size_t i) const { return entries_[i]; }
  const Value* row(const Entry& e) const { return pool_.data() + e.begin; }

  // Marks entry `i` dead and retires its fingerprint (re-admittable).
  // Returns false if it was already dead.
  bool Kill(size_t i);

  // Rollback support: resurrects a killed entry (re-claiming its
  // fingerprint) / drops every entry at index >= `n` (retiring live
  // fingerprints). A failed ±Δ batch undoes itself with exactly these.
  void Revive(size_t i);
  void TruncateTo(size_t n);

  // Drops every entry and fingerprint.
  void Clear();

  // Exchanges the entire state with `other`. StreamingChase's fallback
  // chases into a scratch journal and swaps it in only once the re-chase
  // succeeded, so a failed fallback leaves this journal untouched.
  void Swap(ChaseJournal& other);

 private:
  bool Record(bool egd, size_t dep, const Value* row, size_t n, uint64_t fp);

  std::vector<Value> pool_;
  std::vector<Entry> entries_;
  size_t live_ = 0;
  std::unordered_set<uint64_t> fired_;  // fingerprints of the live entries
};

}  // namespace pdx

#endif  // PDX_CHASE_JOURNAL_H_
