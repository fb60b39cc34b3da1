#ifndef PDX_CHASE_STREAM_H_
#define PDX_CHASE_STREAM_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "chase/chase.h"
#include "chase/journal.h"
#include "relational/instance.h"
#include "relational/schema.h"
#include "relational/tuple.h"

namespace pdx {

namespace plan {
struct BodyPlan;
struct CompiledSetting;
}  // namespace plan

// Per-batch accounting of one ResumeWithDeltas call.
struct StreamStats {
  // Chase steps this batch cost: re-derivation firings plus the resumed
  // (or fallback) chase's steps. Bounded by what a from-scratch re-chase
  // of the net instance would spend (stream_test asserts it).
  int64_t steps = 0;
  // Deleted facts that were actually present in the base (the rest are
  // ignored: derived facts are consequences, not retractable inputs).
  int64_t base_removed = 0;
  // Facts removed from the chased instance (deleted base facts with no
  // surviving derivation, plus the cascade of unsupported consequences).
  int64_t retracted = 0;
  // Over-deleted facts restored by the re-derivation pass.
  int64_t rederived = 0;
  // Journal entries killed because a body fact died.
  int64_t dead_triggers = 0;
  // True when a dead egd firing forced the full re-chase fallback (merges
  // are irreversible — resolve-on-write folds winners into stored tuples —
  // so a merge whose justification died invalidates the resolver
  // wholesale; see DESIGN.md §4h).
  bool fell_back = false;
};

// Streaming chase state: DRed/counting-style deletion propagation over the
// restricted delta chase. Holds the admitted base instance, the chased
// canonical instance, the resume watermark and the firing journal
// (chase/journal.h) that ties every derived fact to the triggers
// justifying it.
//
// A ±Δ batch (ResumeWithDeltas) runs:
//   1. *Retract.* Deletes are resolved against the base; each removed base
//      fact with no surviving derivation leaves the chased instance, and
//      the support index cascades: a firing whose body lost a fact dies
//      (its journal fingerprint retires, so the trigger is re-admittable),
//      each of its head facts loses one producer, and a fact with zero
//      producers that is not in the base is removed in turn.
//   2. *Re-derive.* Over-deletion repair: each removed fact is unified
//      against every tgd head atom (universal positions only) and the
//      body is enumerated through the compiled match plans against the
//      post-removal state — surviving alternative derivations re-fire,
//      journaled, restoring exactly the facts the restricted chase would
//      still derive.
//   3. *Resume.* Adds land in base and instance, and the delta chase
//      resumes from the post-removal watermark with the journal attached;
//      re-derived and added facts are precisely its first delta.
// If step 1 kills an egd firing, the batch instead falls back to one full
// re-chase of the net base (fresh journal): union-find merges cannot be
// undone, so a dead merge invalidates the resolver wholesale.
//
// Failure (an egd clash from the adds, or budget exhaustion) rolls the
// whole batch back — instances, watermark, journal entries and their
// fingerprints — leaving the state exactly as before the call, which is
// what lets the serving layer replay a failed coalesced batch per ticket.
//
// Runs at any thread count. Not thread-safe: one writer, like the
// admission queue that drives it in src/serve/.
class StreamingChase {
 public:
  // `schema` and `symbols` must outlive the object. `options.journal` is
  // managed internally.
  StreamingChase(const Schema* schema, std::vector<Tgd> tgds,
                 std::vector<Egd> egds, SymbolTable* symbols,
                 ChaseOptions options = ChaseOptions());
  ~StreamingChase();

  StreamingChase(const StreamingChase&) = delete;
  StreamingChase& operator=(const StreamingChase&) = delete;

  // Chases `base` from scratch (journaled) and adopts the result. Fails on
  // egd clash or budget exhaustion, leaving the object uninitialized (a
  // later Initialize may be retried).
  Status Initialize(const Instance& base);

  // Applies one ±Δ batch: deletes first (resolved against the base;
  // deletes of absent or derived-only facts are ignored), then adds, then
  // the incremental re-solve described above. On error the state is
  // unchanged.
  StatusOr<StreamStats> ResumeWithDeltas(const std::vector<Fact>& adds,
                                         const std::vector<Fact>& deletes);

  bool initialized() const { return initialized_; }
  // The admitted (retractable) facts.
  const Instance& base() const { return base_; }
  // The chased fixpoint over the current base.
  const Instance& instance() const { return instance_; }
  // Watermark at the current fixpoint (everything is covered); a caller
  // growing `instance` externally can resume a plain Chase from it.
  const InstanceWatermark& mark() const { return mark_; }
  const ChaseJournal& journal() const { return journal_; }
  // Cumulative chase steps across Initialize and every batch.
  int64_t total_steps() const { return total_steps_; }

 private:
  struct SupportNode {
    int32_t producers = 0;          // live firings deriving this fact
    bool in_base = false;           // the base justifies it directly
    std::vector<uint32_t> consumers;  // entry ids with it in their body
  };
  // Resolved fact -> support node, per relation.
  using SupportMap = std::unordered_map<Tuple, SupportNode, TupleHash>;
  // A head fact of an indexed firing, as a stable pointer into support_
  // (unordered_map nodes never move, even across rehash): the cascade
  // walks producer decrements without re-instantiating entry rows.
  struct HeadRef {
    RelationId relation;
    SupportMap::value_type* node;
  };
  // A removed fact, addressed by its support node (valid through one
  // batch: the cascade never inserts into or erases from support_).
  using RemovedRef = std::pair<RelationId, SupportMap::value_type*>;

  Tuple ResolveTupleHere(const Value* values, size_t n) const;
  // Instantiates `atoms` under a journal row, resolved, deduped.
  void EntryFacts(const std::vector<Atom>& atoms, const Value* row,
                  std::vector<Fact>* out) const;
  void BodyFactsOf(const ChaseJournal::Entry& e,
                   std::vector<Fact>* out) const;
  void HeadFactsOf(const ChaseJournal::Entry& e,
                   std::vector<Fact>* out) const;

  // rederive_plans_[d][h]: tgds_[d].body compiled with head atom h's
  // universal variables assumed bound. The shared compiled setting's body
  // plan assumes *nothing* bound (its first access path is a scan), so
  // running it under Rederive's pivot binding would rescan a whole
  // relation per removed fact; these plans probe the bound positions
  // instead. Built alongside compiled_.
  std::vector<std::vector<plan::BodyPlan>> rederive_plans_;

  // (Re)builds or extends the support index to cover the whole journal.
  void EnsureSupportIndex();
  void IndexEntry(uint32_t id, std::vector<Fact>* scratch);

  // Re-derivation: collect and fire surviving alternative derivations for
  // the removed facts. Returns fired count; adds steps.
  int64_t Rederive(const std::vector<RemovedRef>& removed,
                   StreamStats* stats);

  // Full re-chase of the current base (fallback + Initialize share it).
  Status FullChase(StreamStats* stats);

  const Schema* schema_;
  std::vector<Tgd> tgds_;
  std::vector<Egd> egds_;
  SymbolTable* symbols_;
  ChaseOptions options_;
  std::shared_ptr<const plan::CompiledSetting> compiled_;

  bool initialized_ = false;
  Instance base_;
  Instance instance_;
  InstanceWatermark mark_;
  ChaseJournal journal_;
  int64_t total_steps_ = 0;

  // Support index state: valid for journal entries [0, indexed_entries_)
  // under resolver version index_version_; lazily rebuilt when a batch
  // rolled back, the resolver moved, or the journal was cleared.
  std::vector<SupportMap> support_;
  // entry_heads_[id]: the head facts of journal entry `id`, filled by
  // IndexEntry (empty for egd entries). Entries dead at index time keep
  // stale refs; they are never read (the cascade only follows live
  // entries, and a revive forces a full rebuild via index_valid_).
  std::vector<std::vector<HeadRef>> entry_heads_;
  size_t indexed_entries_ = 0;
  uint64_t index_version_ = 0;
  bool index_valid_ = false;
};

}  // namespace pdx

#endif  // PDX_CHASE_STREAM_H_
