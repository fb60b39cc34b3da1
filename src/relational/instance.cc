#include "relational/instance.h"

#include <algorithm>
#include <unordered_set>

#include "base/string_util.h"
#include "obs/metrics.h"

namespace pdx {

InstanceWatermark InstanceWatermark::Origin(const Instance& instance) {
  InstanceWatermark mark;
  int n = instance.schema().relation_count();
  mark.counts.assign(n, 0);
  mark.rewrites.resize(n);
  for (RelationId r = 0; r < n; ++r) mark.rewrites[r] = instance.rewrites(r);
  return mark;
}

Instance::Instance(const Schema* schema) : schema_(schema) {
  PDX_CHECK(schema != nullptr);
  int n = schema->relation_count();
  stores_.reserve(n);
  for (int r = 0; r < n; ++r) {
    auto store = std::make_shared<RelationStore>();
    store->arity = schema->arity(r);
    store->index.resize(store->arity);
    stores_.push_back(std::move(store));
  }
}

Instance::RelationStore::RelationStore(const RelationStore& other) {
  // A reader on another thread may be catching up `other`'s indexes.
  std::lock_guard<std::mutex> lock(other.index_mu);
  // The source is caught up first, at every position: it is shared, so
  // the work is done once instead of once per clone. A search clones one
  // state into many branches, and each branch's egd merges read every
  // position; without this the generic solver's NP search built 2.6x the
  // index entries that indexing on insert did. Stores that are never
  // cloned stay lazy.
  for (int pos = 0; pos < other.arity; ++pos) other.CatchUpLocked(pos);
  arity = other.arity;
  count = other.count;
  data = other.data;
  dedup = other.dedup;
  index = other.index;
  rewrites = other.rewrites;
}

void Instance::RelationStore::CatchUp(int position) const {
  std::lock_guard<std::mutex> lock(index_mu);
  CatchUpLocked(position);
}

void Instance::RelationStore::CatchUpLocked(int position) const {
  FlatIndex& by_value = index[position];
  const size_t from = by_value.indexed_upto();
  if (from >= count) return;  // another reader caught it up first
  for (size_t i = from; i < count; ++i) {
    by_value.Add(TupleData(i)[position].packed(), static_cast<int32_t>(i));
  }
  by_value.set_indexed_upto(count);
  static obs::Counter built = obs::MetricsRegistry::Global().GetCounter(
      "pdx_index_entries_built_total");
  built.Inc(static_cast<int64_t>(count - from));
}

Instance::RelationStore& Instance::Mutable(RelationId relation) {
  std::shared_ptr<RelationStore>& store = stores_[relation];
  if (store.use_count() > 1) {
    store = std::make_shared<RelationStore>(*store);
  }
  return *store;
}

Tuple Instance::ResolveTuple(const Tuple& t) const {
  if (resolver_.trivial()) return t;
  Tuple resolved = t;
  for (Value& v : resolved) v = resolver_.Resolve(v);
  return resolved;
}

bool Instance::AddFact(RelationId relation, Tuple tuple) {
  return AddFact(relation, tuple.data(), tuple.size());
}

bool Instance::AddFact(RelationId relation, const Value* values, size_t n) {
  PDX_CHECK_GE(relation, 0);
  PDX_CHECK_LT(relation, static_cast<RelationId>(stores_.size()));
  PDX_CHECK_EQ(static_cast<int>(n), schema_->arity(relation))
      << "arity mismatch inserting into " << schema_->relation_name(relation);
  // Resolve-on-write: new facts always enter in resolved form, so only
  // tuples inserted *before* a merge can hold stale values. The resolved
  // image lives in a stack buffer for the common arities so the whole
  // insert allocates nothing but the arena/index growth itself.
  constexpr size_t kStackArity = 16;
  Value buf[kStackArity];
  Tuple wide;
  if (!resolver_.trivial()) {
    Value* dst = buf;
    if (n > kStackArity) {
      wide.resize(n);
      dst = wide.data();
    }
    for (size_t i = 0; i < n; ++i) dst[i] = resolver_.Resolve(values[i]);
    values = dst;
  }
  const uint64_t hash = HashValueSeq(values, n);
  // Dedup-probe the (possibly shared) store first: a duplicate insert
  // must not trigger a COW clone.
  if (stores_[relation]->DedupFind(values, n, hash) >= 0) return false;
  Mutable(relation).Append(values, n, hash);
  ++fact_count_;
  return true;
}

Instance::BulkLoader::BulkLoader(Instance* instance)
    : instance_(instance),
      stores_(instance->stores_.size(), nullptr),
      loaded_from_(instance->stores_.size(), 0) {
  PDX_CHECK(!instance->has_merges()) << "bulk load into a merged instance";
}

Value* Instance::BulkLoader::Append(RelationId relation) {
  PDX_DCHECK(relation >= 0 &&
             relation < static_cast<RelationId>(stores_.size()));
  RelationStore* store = stores_[relation];
  if (store == nullptr) {
    store = stores_[relation] = &instance_->Mutable(relation);
    loaded_from_[relation] = store->count;
  }
  const size_t end = store->data.size();
  store->data.resize(end + static_cast<size_t>(store->arity));
  ++store->count;
  return store->data.data() + end;
}

void Instance::BulkLoader::Finish() {
  for (size_t r = 0; r < stores_.size(); ++r) {
    RelationStore* store = stores_[r];
    if (store == nullptr) continue;
    stores_[r] = nullptr;
    const size_t arity = static_cast<size_t>(store->arity);
    const size_t from = loaded_from_[r];
    const size_t end = store->count;
    // Compact the loaded tuples [from, end) in place: a tuple the dedup
    // set already holds is a repeat of an earlier one and is dropped, so
    // the kept tuples are the first occurrences, in load order.
    store->count = from;
    store->dedup.Reserve(end - from);
    Value* data = store->data.data();
    for (size_t i = from; i < end; ++i) {
      const Value* tuple = data + i * arity;
      const uint64_t hash = HashValueSeq(tuple, arity);
      if (store->DedupFind(tuple, arity, hash) >= 0) continue;
      if (store->count != i) {
        std::copy(tuple, tuple + arity, data + store->count * arity);
      }
      store->dedup.Insert(hash, static_cast<int32_t>(store->count));
      ++store->count;
    }
    store->data.resize(store->count * arity);
    store->InvalidateClassCache();
    instance_->fact_count_ += store->count - from;
  }
}

int Instance::FindResolvedTupleIndex(RelationId relation,
                                     const Tuple& resolved) const {
  const RelationStore& store = *stores_[relation];
  const uint64_t hash = HashValueSeq(resolved.data(), resolved.size());
  const int32_t hit = store.DedupFind(resolved, hash);
  if (hit >= 0) return hit;
  if (resolver_.trivial() || resolved.empty()) return -1;
  // A pre-merge raw tuple may resolve to `resolved` without being stored
  // verbatim: probe the class-aware bucket of position 0.
  for (int32_t idx : TuplesWithResolvedValueAt(relation, 0, resolved[0])) {
    const Value* raw = store.TupleData(idx);
    bool equal = true;
    for (int pos = 0; pos < store.arity; ++pos) {
      if (resolver_.Resolve(raw[pos]) != resolved[pos]) {
        equal = false;
        break;
      }
    }
    if (equal) return idx;
  }
  return -1;
}

bool Instance::RemoveFact(RelationId relation, const Tuple& tuple) {
  PDX_CHECK_GE(relation, 0);
  PDX_CHECK_LT(relation, static_cast<RelationId>(stores_.size()));
  Tuple resolved = ResolveTuple(tuple);
  bool removed = false;
  // Under merges several raw tuples may resolve to the same fact: remove
  // them all so the resolved view no longer contains it.
  int idx;
  while ((idx = FindResolvedTupleIndex(relation, resolved)) >= 0) {
    RelationStore& store = Mutable(relation);
    const int arity = store.arity;
    const Tuple raw(store.TupleData(idx), store.TupleData(idx) + arity);
    const uint64_t raw_hash = HashValueSeq(raw.data(), raw.size());
    const int32_t last = static_cast<int32_t>(store.count) - 1;
    // Drop the removed tuple's index and dedup entries. Every index is
    // caught up first, so the swap leaves each bucket exactly as an
    // index maintained on every append would hold it.
    for (int pos = 0; pos < arity; ++pos) {
      store.Index(pos);
      store.index[pos].Erase(raw[pos].packed(), idx);
    }
    store.dedup.Erase(raw_hash, idx);
    if (idx != last) {
      // Move the last tuple into the hole and repoint its entries.
      const Value* moved = store.TupleData(last);
      const uint64_t moved_hash =
          HashValueSeq(moved, static_cast<size_t>(arity));
      for (int pos = 0; pos < arity; ++pos) {
        store.index[pos].Repoint(moved[pos].packed(), last, idx);
      }
      store.dedup.Repoint(moved_hash, last, idx);
      std::copy(moved, moved + arity,
                store.data.begin() + static_cast<size_t>(idx) * arity);
    }
    --store.count;
    for (FlatIndex& by_value : store.index) {
      by_value.set_indexed_upto(store.count);
    }
    store.data.resize(store.count * static_cast<size_t>(arity));
    store.InvalidateClassCache();
    // Indexes shifted: delta consumers must re-scan this relation.
    ++store.rewrites;
    --fact_count_;
    removed = true;
  }
  return removed;
}

bool Instance::Contains(RelationId relation, const Tuple& tuple) const {
  PDX_CHECK_GE(relation, 0);
  PDX_CHECK_LT(relation, static_cast<RelationId>(stores_.size()));
  if (resolver_.trivial()) {
    const uint64_t hash = HashValueSeq(tuple.data(), tuple.size());
    return stores_[relation]->DedupFind(tuple, hash) >= 0;
  }
  return FindResolvedTupleIndex(relation, ResolveTuple(tuple)) >= 0;
}

bool Instance::ContainsExact(RelationId relation, const Value* values,
                             size_t n) const {
  PDX_DCHECK(relation >= 0 &&
             relation < static_cast<RelationId>(stores_.size()));
  const RelationStore& store = *stores_[relation];
  const uint64_t hash = HashValueSeq(values, n);
  return store.dedup.Find(hash, [&](int32_t i) {
           return store.TupleEquals(i, values, n);
         }) >= 0;
}

TupleIndexSpan Instance::TuplesWithValueAt(RelationId relation, int position,
                                           Value value) const {
  PDX_CHECK_GE(relation, 0);
  PDX_CHECK_LT(relation, static_cast<RelationId>(stores_.size()));
  PDX_CHECK_GE(position, 0);
  PDX_CHECK_LT(position, static_cast<int>(stores_[relation]->index.size()));
  return stores_[relation]->Index(position).Find(value.packed());
}

size_t Instance::CountTuplesWithResolvedValueAt(RelationId relation,
                                                int position,
                                                Value value) const {
  Value root = resolver_.Resolve(value);
  const std::vector<Value>* members = resolver_.ClassMembers(root);
  if (members == nullptr) {
    return TuplesWithValueAt(relation, position, root).size();
  }
  return ResolvedClassBucket(relation, position, root, *members).size();
}

TupleIndexSpan Instance::TuplesWithResolvedValueAt(RelationId relation,
                                                   int position,
                                                   Value value) const {
  Value root = resolver_.Resolve(value);
  const std::vector<Value>* members = resolver_.ClassMembers(root);
  if (members == nullptr) {
    return TuplesWithValueAt(relation, position, root);
  }
  return ResolvedClassBucket(relation, position, root, *members);
}

TupleIndexSpan Instance::ResolvedClassBucket(
    RelationId relation, int position, Value root,
    const std::vector<Value>& members) const {
  PDX_CHECK_GE(relation, 0);
  PDX_CHECK_LT(relation, static_cast<RelationId>(stores_.size()));
  const RelationStore& store = *stores_[relation];
  PDX_CHECK_GE(position, 0);
  PDX_CHECK_LT(position, static_cast<int>(store.index.size()));
  // Packed values keep bits 33..62 clear (bit 63 = null flag, low 32 bits
  // = id), so folding the position into them is collision-free.
  const uint64_t key =
      root.packed() ^ (static_cast<uint64_t>(position) << 33);
  const uint64_t identity = resolver_.identity();
  const uint64_t version = resolver_.version();
  const FlatIndex& by_value = store.Index(position);
  ClassBucketCache& cache = store.class_cache;
  std::lock_guard<std::mutex> lock(cache.mu);
  ClassBucketCache::Entry& entry = cache.map[key];
  if (entry.identity != identity || entry.version != version) {
    entry.bucket.clear();
    for (const Value& m : members) {
      TupleIndexSpan bucket = by_value.Find(m.packed());
      entry.bucket.insert(entry.bucket.end(), bucket.begin(), bucket.end());
    }
    entry.identity = identity;
    entry.version = version;
  }
  return TupleIndexSpan(entry.bucket.data(), entry.bucket.size());
}

Instance::MergeResult Instance::MergeValues(Value a, Value b) {
  MergeResult out;
  ValueResolver::UnionResult u = resolver_.Union(a, b);
  out.conflict = u.conflict;
  out.winner = u.winner;
  out.loser = u.loser;
  if (!u.merged) return out;
  out.merged = true;
  // The tuples whose resolved content changed are exactly those holding a
  // member of the losing class at some position; the inverted index finds
  // them without touching the stores.
  int n = static_cast<int>(stores_.size());
  for (RelationId r = 0; r < n; ++r) {
    const RelationStore& store = *stores_[r];
    size_t first = out.dirty.size();
    for (int pos = 0; pos < store.arity; ++pos) {
      const FlatIndex& by_value = store.Index(pos);
      for (const Value& m : u.reassigned) {
        for (int32_t idx : by_value.Find(m.packed())) {
          out.dirty.emplace_back(r, idx);
        }
      }
    }
    std::sort(out.dirty.begin() + first, out.dirty.end());
    out.dirty.erase(std::unique(out.dirty.begin() + first, out.dirty.end()),
                    out.dirty.end());
  }
  return out;
}

InstanceWatermark Instance::TakeWatermark() const {
  InstanceWatermark mark;
  int n = static_cast<int>(stores_.size());
  mark.counts.resize(n);
  mark.rewrites.resize(n);
  for (int r = 0; r < n; ++r) {
    mark.counts[r] = stores_[r]->count;
    mark.rewrites[r] = stores_[r]->rewrites;
  }
  return mark;
}

void Instance::ForEachFact(const std::function<void(const Fact&)>& fn) const {
  Fact fact;
  if (resolver_.trivial()) {
    for (RelationId r = 0; r < static_cast<RelationId>(stores_.size()); ++r) {
      const RelationStore& store = *stores_[r];
      fact.relation = r;
      for (size_t i = 0; i < store.count; ++i) {
        const Value* t = store.TupleData(i);
        fact.tuple.assign(t, t + store.arity);
        fn(fact);
      }
    }
    return;
  }
  // Resolve-on-read: distinct raw tuples can collapse onto one resolved
  // fact, so deduplicate per relation.
  std::unordered_set<Tuple, TupleHash> seen;
  for (RelationId r = 0; r < static_cast<RelationId>(stores_.size()); ++r) {
    const RelationStore& store = *stores_[r];
    fact.relation = r;
    seen.clear();
    for (size_t i = 0; i < store.count; ++i) {
      const Value* t = store.TupleData(i);
      fact.tuple.assign(t, t + store.arity);
      for (Value& v : fact.tuple) v = resolver_.Resolve(v);
      if (seen.insert(fact.tuple).second) fn(fact);
    }
  }
}

size_t Instance::ResolvedFactCount() const {
  if (resolver_.trivial()) return fact_count_;
  size_t count = 0;
  ForEachFact([&count](const Fact&) { ++count; });
  return count;
}

std::vector<Fact> Instance::AllFacts() const {
  std::vector<Fact> facts;
  facts.reserve(fact_count_);
  ForEachFact([&facts](const Fact& f) { facts.push_back(f); });
  return facts;
}

std::vector<Value> Instance::ActiveDomain() const {
  std::unordered_set<uint64_t> seen;
  std::vector<Value> domain;
  ForEachFact([&](const Fact& f) {
    for (const Value& v : f.tuple) {
      if (seen.insert(v.packed()).second) domain.push_back(v);
    }
  });
  return domain;
}

std::vector<Value> Instance::Nulls() const {
  std::vector<Value> nulls;
  for (const Value& v : ActiveDomain()) {
    if (v.is_null()) nulls.push_back(v);
  }
  return nulls;
}

bool Instance::HasNulls() const {
  bool found = false;
  ForEachFact([&found](const Fact& f) {
    if (found) return;
    for (const Value& v : f.tuple) {
      if (v.is_null()) {
        found = true;
        return;
      }
    }
  });
  return found;
}

bool Instance::IsSubsetOf(const Instance& other) const {
  if (resolver_.trivial() && other.resolver_.trivial()) {
    if (fact_count_ > other.fact_count_) return false;
    Tuple scratch;
    for (RelationId r = 0; r < static_cast<RelationId>(stores_.size()); ++r) {
      if (stores_[r] == other.stores_[r]) continue;  // shared: trivially ⊆
      const RelationStore& store = *stores_[r];
      for (size_t i = 0; i < store.count; ++i) {
        const Value* t = store.TupleData(i);
        scratch.assign(t, t + store.arity);
        if (!other.Contains(r, scratch)) return false;
      }
    }
    return true;
  }
  // Merged on either side: raw counts overstate the resolved views, so
  // compare fact-by-fact on resolved tuples.
  bool subset = true;
  ForEachFact([&](const Fact& f) {
    if (subset && !other.Contains(f)) subset = false;
  });
  return subset;
}

bool Instance::FactsEqual(const Instance& other) const {
  if (resolver_.trivial() && other.resolver_.trivial()) {
    return fact_count_ == other.fact_count_ && IsSubsetOf(other);
  }
  return ResolvedFactCount() == other.ResolvedFactCount() &&
         IsSubsetOf(other);
}

void Instance::UnionWith(const Instance& other) {
  other.ForEachFact([this](const Fact& f) { AddFact(f); });
}

Instance Instance::CompactResolved(bool keep_resolver) const {
  Instance compact(schema_);
  // The facts ForEachFact hands out are already resolved, so installing
  // the resolver afterwards leaves the stores canonical either way.
  ForEachFact([&compact](const Fact& f) { compact.AddFact(f); });
  if (keep_resolver) compact.resolver_ = resolver_;
  return compact;
}

Instance Instance::KeepRelations(
    const std::function<bool(RelationId)>& keep) const {
  Instance part(schema_);
  if (has_merges()) {
    ForEachFact([&](const Fact& f) {
      if (keep(f.relation)) part.AddFact(f);
    });
    return part;
  }
  for (RelationId r = 0; r < static_cast<RelationId>(stores_.size()); ++r) {
    if (!keep(r)) continue;
    part.stores_[r] = stores_[r];
    part.fact_count_ += stores_[r]->count;
  }
  return part;
}

namespace {

uint64_t MixFingerprint(uint64_t h, uint64_t x) {
  x *= 0x9e3779b97f4a7c15ull;
  x ^= x >> 29;
  x *= 0xbf58476d1ce4e5b9ull;
  return (h ^ x) * 0x100000001b3ull;
}

}  // namespace

uint64_t Instance::CanonicalFingerprint() const {
  std::vector<Fact> facts = AllFacts();
  std::sort(facts.begin(), facts.end(), [](const Fact& a, const Fact& b) {
    // Sort with nulls compared only by "nullness" first, then renamed ids
    // are not yet known; use a two-phase approach: sort by (relation,
    // value kinds, constant ids with nulls last). This yields a canonical
    // order whenever null *positions* differ; ties among facts differing
    // only in null identity are broken by null id, which can produce
    // different-but-equivalent orders in rare symmetric cases. That only
    // weakens memoization, never correctness.
    if (a.relation != b.relation) return a.relation < b.relation;
    for (size_t i = 0; i < a.tuple.size(); ++i) {
      const Value& va = a.tuple[i];
      const Value& vb = b.tuple[i];
      if (va.is_null() != vb.is_null()) return vb.is_null();
      if (va.is_constant() && va != vb) return va < vb;
    }
    return a.tuple < b.tuple;
  });
  std::unordered_map<uint64_t, uint32_t> null_rename;
  uint64_t h = 0xcbf29ce484222325ull;
  for (const Fact& f : facts) {
    h = MixFingerprint(h, static_cast<uint64_t>(f.relation) + 1);
    for (const Value& v : f.tuple) {
      if (v.is_constant()) {
        h = MixFingerprint(h, v.packed() * 2 + 1);
      } else {
        auto [it, inserted] = null_rename.emplace(
            v.packed(), static_cast<uint32_t>(null_rename.size()));
        h = MixFingerprint(h, uint64_t{it->second} * 2);
      }
    }
  }
  return h;
}

std::string Instance::ToString(const SymbolTable& symbols) const {
  std::vector<std::string> lines;
  lines.reserve(fact_count_);
  ForEachFact([&](const Fact& f) {
    lines.push_back(StrCat(FactToString(f, *schema_, symbols), "."));
  });
  std::sort(lines.begin(), lines.end());
  return StrJoin(lines, "\n");
}

DeltaView::DeltaView(const Instance& instance, const InstanceWatermark& mark)
    : instance_(&instance) {
  int n = instance.schema().relation_count();
  PDX_CHECK_EQ(static_cast<int>(mark.counts.size()), n);
  begin_.resize(n);
  end_.resize(n);
  for (RelationId r = 0; r < n; ++r) {
    end_[r] = instance.tuples(r).size();
    // A rewrite shuffled tuple indexes: the recorded count no longer
    // addresses a stable prefix, so the whole relation is new again.
    begin_[r] = instance.rewrites(r) == mark.rewrites[r]
                    ? std::min(mark.counts[r], end_[r])
                    : 0;
  }
}

DeltaView::DeltaView(const Instance& instance, const InstanceWatermark& mark,
                     const std::vector<std::vector<int>>& extras)
    : DeltaView(instance, mark) {
  if (extras.empty()) return;
  int n = instance.schema().relation_count();
  PDX_CHECK_EQ(static_cast<int>(extras.size()), n);
  extras_.resize(n);
  for (RelationId r = 0; r < n; ++r) {
    for (int idx : extras[r]) {
      // Tuples already inside [begin, end) are pivoted via the range.
      if (static_cast<size_t>(idx) < begin_[r]) extras_[r].push_back(idx);
    }
    std::sort(extras_[r].begin(), extras_[r].end());
    extras_[r].erase(std::unique(extras_[r].begin(), extras_[r].end()),
                     extras_[r].end());
  }
}

const std::vector<int>& DeltaView::extras(RelationId relation) const {
  static const std::vector<int> kEmpty;
  if (extras_.empty()) return kEmpty;
  return extras_[relation];
}

bool DeltaView::any() const {
  for (size_t r = 0; r < begin_.size(); ++r) {
    if (dirty(static_cast<RelationId>(r))) return true;
  }
  return false;
}

}  // namespace pdx
