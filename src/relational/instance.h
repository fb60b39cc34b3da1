#ifndef PDX_RELATIONAL_INSTANCE_H_
#define PDX_RELATIONAL_INSTANCE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/status.h"
#include "relational/flat_index.h"
#include "relational/schema.h"
#include "relational/tuple.h"
#include "relational/value.h"
#include "relational/value_resolver.h"

namespace pdx {

class Instance;

// A monotone position in an Instance's mutation history: per-relation tuple
// counts plus per-relation rewrite counters (a relation's counter advances
// whenever RemoveFact rewrites its tuples in place, which shuffles tuple
// indexes). Taken via Instance::TakeWatermark(); consumed by
// DeltaView. Union-find merges (MergeValues) do NOT advance counters: they
// leave tuple indexes stable and report the dirty tuples explicitly.
struct InstanceWatermark {
  std::vector<size_t> counts;
  std::vector<uint64_t> rewrites;

  // The watermark "before anything": every current fact counts as new.
  static InstanceWatermark Origin(const Instance& instance);
};

// A finite database instance over a Schema, with positional inverted
// indexes to accelerate homomorphism search and chase trigger
// enumeration. A position's index is built on its first probe and caught
// up lazily after that: inserts touch only the tuple arena and the dedup
// set, so positions no plan probes cost no memory (see RelationStore).
//
// An Instance may contain labeled nulls (e.g. mid-chase or in canonical
// instances); "ground" instances are simply instances whose values are all
// constants. The Instance does not own the Schema; the Schema must outlive
// the Instance.
//
// Copying an Instance is O(#relations), not O(#facts): each relation's
// tuple store (tuples + dedup set + lazy indexes) is a copy-on-write
// shared block, cloned lazily the first time either copy mutates that
// relation. Search-based solvers rely on this to branch states in O(1).
//
// Value resolution layer: alongside its stores, an Instance carries a
// ValueResolver — a union-find over values fed by egd merges
// (MergeValues). Tuples keep the raw values they were inserted with;
// every read-side API (Contains, ForEachFact, AllFacts, ActiveDomain,
// fingerprints, ToString, the matcher via the resolved index accessors)
// presents the *resolved* view, in which each value stands for its class
// root and raw tuples that collapse onto the same resolved tuple count
// once. This makes an egd merge a near-O(1) union instead of a rewrite of
// every tuple holding the merged value, and it never invalidates tuple
// indexes. The resolver snapshots copy-on-write exactly like the relation
// stores, so branches never alias resolver state.
class Instance {
 public:
  explicit Instance(const Schema* schema);

  // Copyable: solvers clone states during search (cheap, copy-on-write).
  Instance(const Instance&) = default;
  Instance& operator=(const Instance&) = default;
  Instance(Instance&&) = default;
  Instance& operator=(Instance&&) = default;

  const Schema& schema() const { return *schema_; }

  // Inserts R(t), with `tuple` resolved first. Returns true if the raw
  // store gained a tuple (under merges, a resolved duplicate of a
  // pre-merge raw tuple may still be stored; the resolved views collapse
  // it). Arity mismatches are internal errors (callers validate user
  // input at parse time).
  bool AddFact(RelationId relation, Tuple tuple);
  bool AddFact(const Fact& fact) { return AddFact(fact.relation, fact.tuple); }

  // Removes every raw tuple resolving to R(resolve(t)) if present
  // (swap-with-last; O(arity × index bucket), not O(relation)). Returns
  // true if the fact existed. Counts as a rewrite of the relation: tuple
  // indexes shift, so watermarks into it are dirtied. Repair search uses
  // this to branch subset states off a snapshot cheaply.
  bool RemoveFact(RelationId relation, const Tuple& tuple);
  bool RemoveFact(const Fact& fact) {
    return RemoveFact(fact.relation, fact.tuple);
  }

  // Resolved membership: true if some stored tuple resolves to
  // resolve(tuple).
  bool Contains(RelationId relation, const Tuple& tuple) const;
  bool Contains(const Fact& fact) const {
    return Contains(fact.relation, fact.tuple);
  }

  // Raw exact-tuple membership over a caller-owned value buffer: one
  // dedup-set probe, no Tuple materialized and no resolver pass. Only
  // equivalent to Contains when the resolver is trivial (no merges) —
  // the match VM's point-lookup fast path guards on exactly that.
  bool ContainsExact(RelationId relation, const Value* values,
                     size_t n) const;

  // AddFact over a caller-owned value buffer (typically a stack array in
  // the chase apply loop): same semantics as the Tuple overload but with
  // no per-fact vector allocation.
  bool AddFact(RelationId relation, const Value* values, size_t n);

  // Loads facts in bulk: Append hands out a relation's next arena slots
  // with no dedup probe, and Finish deduplicates every touched relation
  // once, through a dedup set sized from the known count, keeping first
  // occurrences. The result (tuple order, fact_count, dedup set) is what
  // one AddFact per appended fact would have built. Values are stored
  // raw, so the instance must have no merges. Between the first Append
  // and Finish the instance must not be read or otherwise written; an
  // instance whose load is abandoned before Finish must be discarded.
  // (Defined after Instance.)
  class BulkLoader;

  // All raw tuples of one relation, in insertion order, as a borrowed
  // view over the relation's contiguous arena. Under merges a tuple's
  // values may be stale: resolve-on-read via ResolveValue / ResolveTuple
  // before comparing values across tuples. The view (and any TupleView
  // taken from it) is invalidated by mutation of the relation.
  TupleList tuples(RelationId relation) const {
    PDX_CHECK_GE(relation, 0);
    PDX_CHECK_LT(relation, static_cast<RelationId>(stores_.size()));
    const RelationStore& store = *stores_[relation];
    return TupleList(store.data.data(), store.count, store.arity);
  }

  // Indexes (into tuples(relation)) of tuples holding raw `value` at
  // `position`; empty if none. The first call for a position builds its
  // index, later calls catch it up with the tuples appended since (safe
  // from several threads on a shared store). The span is invalidated by
  // any store mutation. Class-blind: see TuplesWithResolvedValueAt.
  TupleIndexSpan TuplesWithValueAt(RelationId relation, int position,
                                   Value value) const;

  // Number of tuples whose value at `position` *resolves* to
  // resolve(value) (the sum of the index buckets of the class members).
  size_t CountTuplesWithResolvedValueAt(RelationId relation, int position,
                                        Value value) const;

  // Indexes of tuples whose value at `position` resolves to
  // resolve(value); empty if none. Singleton classes return the index
  // bucket directly; merged classes return the store's cached
  // concatenation of the member buckets (built once per resolver version
  // per (root, position), so repeated probes stop re-hashing every class
  // member). The span is invalidated by store mutation or a new merge.
  TupleIndexSpan TuplesWithResolvedValueAt(RelationId relation, int position,
                                           Value value) const;

  // --- Value resolution -----------------------------------------------

  // The value layer: resolves egd-merged values to their class roots.
  const ValueResolver& resolver() const { return resolver_; }

  // True if any merge was ever applied (raw and resolved views may differ).
  bool has_merges() const { return !resolver_.trivial(); }

  Value ResolveValue(Value v) const { return resolver_.Resolve(v); }
  Tuple ResolveTuple(const Tuple& t) const;

  struct MergeResult {
    // False if the values were already equal (no-op) or on conflict.
    bool merged = false;
    // True if the merge would equate two distinct constants (egd failure).
    bool conflict = false;
    Value winner;  // surviving root (valid on merged or conflict)
    Value loser;   // absorbed root (valid on merged or conflict)
    // Tuples whose resolved content changed: every (relation, tuple index)
    // holding a member of the losing class, deduplicated and sorted.
    // Delta-driven callers re-examine exactly these instead of whole
    // relations.
    std::vector<std::pair<RelationId, int>> dirty;
  };

  // Merges the equivalence classes of `a` and `b` in O(α)-ish time
  // (union + dirty-tuple lookup via the inverted indexes, which it
  // catches up at every position): the egd chase step. Constants win
  // unions; two distinct constants report a conflict and change nothing.
  // Stores are untouched — tuple indexes, watermarks and index buckets
  // all stay valid.
  MergeResult MergeValues(Value a, Value b);

  // --- Whole-instance views (resolved) --------------------------------

  // Total number of raw stored tuples across all relations. Under merges
  // this may overcount the resolved view; see ResolvedFactCount.
  size_t fact_count() const { return fact_count_; }
  bool empty() const { return fact_count_ == 0; }

  // Number of distinct resolved facts. Equal to fact_count() when the
  // instance has no merges (O(1)); otherwise one resolved scan (O(n)).
  size_t ResolvedFactCount() const;

  // The current watermark: facts added (and relations rewritten) after this
  // point are visible to a DeltaView built against it.
  InstanceWatermark TakeWatermark() const;

  // How many times RemoveFact has rewritten `relation` in place. A tuple
  // index recorded before a rewrite does not address the same fact after.
  // MergeValues never advances this.
  uint64_t rewrites(RelationId relation) const {
    PDX_CHECK_GE(relation, 0);
    PDX_CHECK_LT(relation, static_cast<RelationId>(stores_.size()));
    return stores_[relation]->rewrites;
  }

  // Invokes `fn` for every resolved fact, each distinct fact once.
  void ForEachFact(const std::function<void(const Fact&)>& fn) const;

  // All resolved facts as a vector (convenience for tests and printing).
  std::vector<Fact> AllFacts() const;

  // The set of resolved values occurring in the instance (active domain).
  std::vector<Value> ActiveDomain() const;

  // The nulls occurring in the resolved instance (class roots only).
  std::vector<Value> Nulls() const;
  bool HasNulls() const;

  // True if every resolved fact of this instance is a resolved fact of
  // `other`.
  bool IsSubsetOf(const Instance& other) const;

  // Set equality of resolved facts (schemas must describe the same
  // relations).
  bool FactsEqual(const Instance& other) const;

  // Inserts every resolved fact of `other` (over the same schema) into
  // this.
  void UnionWith(const Instance& other);

  // A plain instance holding this instance's resolved facts: the
  // materialization of the resolve-on-read view, with raw duplicates
  // collapsed. Its fingerprint, facts and ToString agree with this
  // instance's. By default the result carries a trivial resolver (all
  // merge history dropped); with `keep_resolver` it shares this
  // instance's resolver state, so values merged before the compaction
  // still resolve through it (ResolveValue keeps working) — used by the
  // chase's mid-run store compaction.
  Instance CompactResolved(bool keep_resolver = false) const;

  // A copy holding only the relations `keep` selects; every other
  // relation is empty. Without merges the kept relations share this
  // instance's copy-on-write stores, so the cost is O(#relations) and a
  // later write to either side clones only the written relation. With
  // merges it materializes the kept relations' resolved facts instead,
  // dropping the merge history as CompactResolved() does.
  Instance KeepRelations(const std::function<bool(RelationId)>& keep) const;

  // Order-insensitive structural fingerprint of the *resolved* view,
  // invariant under the *names* of nulls: nulls are canonically renamed by
  // first occurrence in the sorted fact sequence. Two instances with equal
  // fingerprints are isomorphic-over-constants with overwhelming
  // probability; used for search-state memoization (collisions only cost
  // completeness of the memo, never soundness of answers, and are
  // astronomically unlikely).
  uint64_t CanonicalFingerprint() const;

  // Multi-line rendering "R(a,b)." per resolved fact, sorted, for
  // goldens/debugging.
  std::string ToString(const SymbolTable& symbols) const;

 private:
  // Per-store memo for class-aware index probes: for one (resolved root,
  // position) key, the concatenation of the index buckets of every class
  // member, stamped with the identity and version of the resolver that
  // built it. Cleared on any store mutation; any other resolver state
  // invalidates entries lazily (the store is shared copy-on-write, so
  // sibling branches with their own merges read it too). The mutex
  // serializes concurrent *readers* rebuilding entries against a shared
  // store (mutations never run concurrently with reads of the same
  // store).
  // Entry references are stable under further map inserts, so returned
  // spans stay valid for the duration of a read-only enumeration.
  struct ClassBucketCache {
    struct Entry {
      uint64_t identity = 0;
      uint64_t version = ~0ull;
      std::vector<int32_t> bucket;
    };
    std::mutex mu;
    std::unordered_map<uint64_t, Entry> map;

    ClassBucketCache() = default;
    // Caches never copy: a COW clone starts cold.
    ClassBucketCache(const ClassBucketCache&) {}
    ClassBucketCache& operator=(const ClassBucketCache&) = delete;
  };

  // One relation's storage: a contiguous tuple arena (tuple i occupies
  // data[i*arity, (i+1)*arity)) + flat dedup set + lazily built
  // per-position flat inverted indexes. Shared copy-on-write between
  // Instance copies.
  //
  // Appends never touch an index. Every index read goes through Index(),
  // which first catches a lagging position up to `count` under index_mu;
  // afterwards a probe is one acquire load and compare. Readers may catch
  // up a shared store concurrently, so the copy-on-write clone holds the
  // source's index_mu while it copies, and catches the source up at every
  // position first so that sibling clones share that work.
  struct RelationStore {
    int arity = 0;
    size_t count = 0;           // number of stored tuples
    std::vector<Value> data;    // the arena
    FlatTupleSet dedup;
    mutable std::vector<FlatIndex> index;  // one per position; see Index()
    mutable std::mutex index_mu;  // serializes catch-ups and clones
    uint64_t rewrites = 0;
    mutable ClassBucketCache class_cache;

    RelationStore() = default;
    RelationStore(const RelationStore& other);

    const Value* TupleData(size_t i) const {
      return data.data() + i * static_cast<size_t>(arity);
    }
    bool TupleEquals(int32_t i, const Value* values, size_t n) const {
      return static_cast<size_t>(arity) == n &&
             std::equal(TupleData(i), TupleData(i) + arity, values);
    }
    int32_t DedupFind(const Value* values, size_t n, uint64_t hash) const {
      return dedup.Find(
          hash, [&](int32_t i) { return TupleEquals(i, values, n); });
    }
    int32_t DedupFind(const Tuple& tuple, uint64_t hash) const {
      return DedupFind(tuple.data(), tuple.size(), hash);
    }
    // The index of `position`, holding every stored tuple.
    const FlatIndex& Index(int position) const {
      const FlatIndex& by_value = index[position];
      if (by_value.indexed_upto() < count) CatchUp(position);
      return by_value;
    }
    // Adds tuples [indexed_upto, count) to the index of `position`.
    void CatchUp(int position) const;
    void CatchUpLocked(int position) const;  // caller holds index_mu
    // Called on every mutation. Mutations hold the store exclusively, so
    // the unlocked empty check is safe; the lock orders the clear against
    // reader rebuilds that may still be publishing under the mutex.
    void InvalidateClassCache() {
      if (class_cache.map.empty()) return;
      std::lock_guard<std::mutex> lock(class_cache.mu);
      class_cache.map.clear();
    }
    // The shared insert tail: appends an absent, already-resolved tuple
    // to the arena and dedup set. The indexes catch up on their next read.
    void Append(const Value* values, size_t n, uint64_t hash) {
      const int32_t idx = static_cast<int32_t>(count);
      data.insert(data.end(), values, values + n);
      ++count;
      dedup.Insert(hash, idx);
      InvalidateClassCache();
    }
    void Append(const Tuple& tuple, uint64_t hash) {
      Append(tuple.data(), tuple.size(), hash);
    }
  };

  // The store for `relation`, cloned first if currently shared.
  RelationStore& Mutable(RelationId relation);

  // The cached class-aware bucket for a merged class (see
  // TuplesWithResolvedValueAt).
  TupleIndexSpan ResolvedClassBucket(RelationId relation, int position,
                                     Value root,
                                     const std::vector<Value>& members) const;

  // Index (into tuples(relation)) of one stored tuple resolving to the
  // already-resolved `resolved`, or -1. Exact when the resolver is
  // trivial; otherwise probes the class-aware bucket of position 0.
  int FindResolvedTupleIndex(RelationId relation,
                             const Tuple& resolved) const;

  const Schema* schema_;
  size_t fact_count_ = 0;
  std::vector<std::shared_ptr<RelationStore>> stores_;
  ValueResolver resolver_;
};

class Instance::BulkLoader {
 public:
  explicit BulkLoader(Instance* instance);

  // arity(relation) value slots at the end of `relation`'s arena for
  // the caller to fill. Valid until the next Append.
  Value* Append(RelationId relation);

  void Finish();

 private:
  Instance* instance_;
  // Per relation: its store, or null while untouched, and its tuple
  // count before the load.
  std::vector<RelationStore*> stores_;
  std::vector<size_t> loaded_from_;
};

// The facts of an instance that are *pending* relative to a watermark, as
// per-relation data over Instance::tuples():
//   * index ranges [begin, end) of tuples added since the watermark
//     (relations rewritten in place since the watermark count as entirely
//     new), plus
//   * optional `extras`: indexes of pre-existing tuples whose resolved
//     content a MergeValues call changed — the dirty equivalence classes.
// The view captures the instance's extent at construction: facts added
// later fall outside it and belong to the next delta. Index ranges are
// stable under AddFact and MergeValues but invalidated by RemoveFact on
// the same relation.
class DeltaView {
 public:
  DeltaView(const Instance& instance, const InstanceWatermark& mark);

  // With merge-dirtied extras (per relation, from MergeResult::dirty).
  // Extras are copied, deduped and clipped against [begin, end) so a tuple
  // already inside the range is not pivoted twice.
  DeltaView(const Instance& instance, const InstanceWatermark& mark,
            const std::vector<std::vector<int>>& extras);

  // Everything currently in `instance` is new (first chase round).
  static DeltaView All(const Instance& instance) {
    return DeltaView(instance, InstanceWatermark::Origin(instance));
  }

  // The additive delta of `relation` is tuples(relation)[begin, end).
  size_t begin(RelationId relation) const { return begin_[relation]; }
  size_t end(RelationId relation) const { return end_[relation]; }

  // Pre-existing tuples of `relation` dirtied by merges (sorted, unique,
  // all < begin(relation)). Empty when no extras were supplied.
  const std::vector<int>& extras(RelationId relation) const;

  bool dirty(RelationId relation) const {
    return begin_[relation] < end_[relation] ||
           !extras(relation).empty();
  }

  // True if any relation has pending facts.
  bool any() const;

  const Instance& instance() const { return *instance_; }

 private:
  const Instance* instance_;
  std::vector<size_t> begin_;
  std::vector<size_t> end_;
  std::vector<std::vector<int>> extras_;  // empty, or one entry per relation
};

}  // namespace pdx

#endif  // PDX_RELATIONAL_INSTANCE_H_
