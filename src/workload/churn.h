#ifndef PDX_WORKLOAD_CHURN_H_
#define PDX_WORKLOAD_CHURN_H_

#include <cstdint>
#include <vector>

#include "relational/instance.h"
#include "relational/tuple.h"
#include "workload/random.h"

namespace pdx {

struct ChurnOptions {
  // Per-batch delete count: round(delete_rate × currently-live facts),
  // clamped to what is live. 0.10 models the "≤10% churn" regime
  // bench_stream's incremental-vs-full claim is stated for.
  double delete_rate = 0.05;
  // Per-batch insert count: round(insert_rate × currently-live facts),
  // clamped to what the universe still has dead.
  double insert_rate = 0.05;
  // Fraction of each batch's inserts drawn from previously deleted facts
  // (delete→re-insert cycles — the journal re-admission stress)
  // rather than from never-yet-live universe facts. Either pool being
  // empty falls through to the other.
  double overlap = 0.25;
  uint64_t seed = 1;
};

// One ±Δ batch of a churn stream. Deletes are always facts live before
// the batch and adds facts dead before it, so within a batch the two sets
// never mention the same fact.
struct ChurnBatch {
  std::vector<Fact> adds;
  std::vector<Fact> deletes;
};

// A deterministic insert/delete stream over a fixed fact universe: the
// workload behind the streaming differential tests (tests/stream_test.cc),
// the churn fuzz lanes and bench_stream. The universe is partitioned into
// live facts (initially universe[0, initially_live)), retired facts
// (deleted at least once) and fresh facts (never yet live); each Next()
// deletes a uniform sample of the live set and revives retired/fresh facts
// per ChurnOptions. The stream tracks the net live set, so a differential
// harness can replay it into a from-scratch engine at any point.
class ChurnStream {
 public:
  // `universe` must be duplicate-free facts valid for `schema`-less use —
  // the stream never interprets tuples, it only shuffles ownership.
  ChurnStream(std::vector<Fact> universe, size_t initially_live,
              ChurnOptions options = ChurnOptions());

  // Generates the next ±Δ batch and applies it to the tracked live set.
  // A batch can be empty on both sides (everything dead and overlap
  // exhausted); callers looping forever should check.
  ChurnBatch Next();

  size_t live_count() const { return live_.size(); }
  int batches_generated() const { return batches_; }

  // The current net live set, in universe order (deterministic).
  std::vector<Fact> LiveFacts() const;

  // The net live set materialized as an instance over `schema`: what a
  // from-scratch engine should be fed to cross-validate an incremental
  // one that consumed every batch so far.
  Instance NetInstance(const Schema* schema) const;

 private:
  std::vector<Fact> universe_;
  std::vector<size_t> live_;     // indexes into universe_, unordered
  std::vector<size_t> retired_;  // deleted at least once, currently dead
  std::vector<size_t> fresh_;    // never yet live
  ChurnOptions options_;
  Rng rng_;
  int batches_ = 0;
};

}  // namespace pdx

#endif  // PDX_WORKLOAD_CHURN_H_
