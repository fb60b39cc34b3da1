#include "obs/metrics.h"

#ifndef PDX_OBS_NOOP

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <unordered_map>

#include "base/logging.h"

namespace pdx {
namespace obs {
namespace internal {

// Slot budget per thread shard. Every counter takes one slot, every
// histogram buckets+overflow+sum slots; registration checks the budget.
// 1024 slots = 8 KiB per (thread, registry) pair.
constexpr uint32_t kShardSlots = 1024;

struct ShardBlock {
  std::atomic<int64_t> slots[kShardSlots];  // value-initialized to zero
};

struct MetricDef {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  uint32_t slot = 0;        // first sharded slot (counter / histogram)
  uint32_t slot_count = 0;  // 1, or buckets + overflow + sum
  uint32_t gauge_index = 0;
  std::vector<int64_t> bounds;  // histogram upper bounds (finite)
};

struct MetricsCore {
  const uint64_t id;
  mutable std::mutex mu;
  std::unordered_map<std::string, size_t> by_name;  // -> defs index
  std::deque<MetricDef> defs;                       // stable addresses
  uint32_t next_slot = 0;
  std::deque<std::atomic<int64_t>> gauges;  // stable addresses
  std::vector<std::shared_ptr<ShardBlock>> shards;  // live threads
  int64_t exited[kShardSlots] = {};                 // folded exited threads

  MetricsCore() : id(NextId()) {}

  static uint64_t NextId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }
};

namespace {

// Per-thread shard cache. Each entry keeps the shard block alive past the
// registry's death (writes then land in an orphaned block, harmlessly);
// conversely, when the thread exits while the registry lives, the entry's
// destructor folds the block into the registry's exited totals so no
// count is lost and dead threads cost no memory.
struct TlsCache {
  struct Entry {
    uint64_t id = 0;
    std::weak_ptr<MetricsCore> core;
    std::shared_ptr<ShardBlock> block;
  };

  // Single-entry inline cache for the hot path (one registry in practice).
  uint64_t last_id = 0;
  std::atomic<int64_t>* last_slots = nullptr;
  std::vector<Entry> entries;

  ~TlsCache() {
    for (Entry& e : entries) {
      std::shared_ptr<MetricsCore> core = e.core.lock();
      if (core == nullptr) continue;
      std::lock_guard<std::mutex> lock(core->mu);
      for (uint32_t s = 0; s < kShardSlots; ++s) {
        core->exited[s] += e.block->slots[s].load(std::memory_order_relaxed);
      }
      auto it = std::find(core->shards.begin(), core->shards.end(), e.block);
      if (it != core->shards.end()) core->shards.erase(it);
    }
  }
};

thread_local TlsCache tls_cache;

std::atomic<int64_t>* ShardFor(const std::shared_ptr<MetricsCore>& core) {
  TlsCache& tls = tls_cache;
  if (tls.last_id == core->id) return tls.last_slots;
  for (TlsCache::Entry& e : tls.entries) {
    if (e.id == core->id) {
      tls.last_id = e.id;
      tls.last_slots = e.block->slots;
      return tls.last_slots;
    }
  }
  auto block = std::make_shared<ShardBlock>();
  {
    std::lock_guard<std::mutex> lock(core->mu);
    core->shards.push_back(block);
  }
  tls.entries.push_back({core->id, core, block});
  tls.last_id = core->id;
  tls.last_slots = block->slots;
  return tls.last_slots;
}

// Sum of one sharded slot across exited totals and live shards. Caller
// holds core->mu.
int64_t SumSlotLocked(const MetricsCore& core, uint32_t slot) {
  int64_t total = core.exited[slot];
  for (const auto& shard : core.shards) {
    total += shard->slots[slot].load(std::memory_order_relaxed);
  }
  return total;
}

HistogramData ReadHistogramLocked(const MetricsCore& core,
                                  const MetricDef& def) {
  HistogramData data;
  data.upper_bounds = def.bounds;
  uint32_t buckets = def.slot_count - 1;  // last slot is the sum
  data.bucket_counts.resize(buckets);
  for (uint32_t b = 0; b < buckets; ++b) {
    data.bucket_counts[b] = SumSlotLocked(core, def.slot + b);
    data.count += data.bucket_counts[b];
  }
  data.sum = SumSlotLocked(core, def.slot + buckets);
  return data;
}

}  // namespace
}  // namespace internal

using internal::MetricDef;
using internal::MetricsCore;

void Counter::Inc(int64_t n) {
  internal::ShardFor(core_)[slot_].fetch_add(n, std::memory_order_relaxed);
}

int64_t Counter::Value() const {
  std::lock_guard<std::mutex> lock(core_->mu);
  return internal::SumSlotLocked(*core_, slot_);
}

void Gauge::Set(int64_t v) {
  core_->gauges[index_].store(v, std::memory_order_relaxed);
}

void Gauge::Add(int64_t n) {
  core_->gauges[index_].fetch_add(n, std::memory_order_relaxed);
}

int64_t Gauge::Value() const {
  return core_->gauges[index_].load(std::memory_order_relaxed);
}

void Histogram::Observe(int64_t v) {
  // Buckets are cumulative-exclusive here (each observation lands in
  // exactly one slot); the Prometheus exporter re-cumulates.
  const std::vector<int64_t>& bounds = *bounds_;
  uint32_t b = 0;
  while (b < bounds.size() && v > bounds[b]) ++b;
  std::atomic<int64_t>* slots = internal::ShardFor(core_);
  slots[slot_ + b].fetch_add(1, std::memory_order_relaxed);
  slots[slot_ + bucket_count_].fetch_add(v, std::memory_order_relaxed);
}

HistogramData Histogram::Value() const {
  std::lock_guard<std::mutex> lock(core_->mu);
  for (const MetricDef& def : core_->defs) {
    if (def.kind == MetricKind::kHistogram && def.slot == slot_) {
      return internal::ReadHistogramLocked(*core_, def);
    }
  }
  return {};
}

MetricsRegistry::MetricsRegistry() : core_(std::make_shared<MetricsCore>()) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked on purpose: worker threads may outlive main's statics, and the
  // TLS cache folds into the core on thread exit.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

namespace {

// Finds or creates the def for `name`, enforcing kind agreement. Caller
// holds core->mu.
MetricDef* FindOrCreateLocked(MetricsCore* core, const std::string& name,
                              MetricKind kind, uint32_t slot_count,
                              std::vector<int64_t> bounds) {
  auto it = core->by_name.find(name);
  if (it != core->by_name.end()) {
    MetricDef& def = core->defs[it->second];
    PDX_CHECK(def.kind == kind) << "metric " << name << " re-registered "
                                << "under a different kind";
    if (kind == MetricKind::kHistogram) {
      PDX_CHECK(def.bounds == bounds)
          << "histogram " << name << " re-registered with different buckets";
    }
    return &def;
  }
  MetricDef def;
  def.name = name;
  def.kind = kind;
  def.bounds = std::move(bounds);
  if (kind == MetricKind::kGauge) {
    def.gauge_index = static_cast<uint32_t>(core->gauges.size());
    core->gauges.emplace_back(0);
  } else {
    PDX_CHECK(core->next_slot + slot_count <= internal::kShardSlots)
        << "metric slot budget exhausted registering " << name;
    def.slot = core->next_slot;
    def.slot_count = slot_count;
    core->next_slot += slot_count;
  }
  core->defs.push_back(std::move(def));
  core->by_name[name] = core->defs.size() - 1;
  return &core->defs.back();
}

}  // namespace

Counter MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(core_->mu);
  MetricDef* def =
      FindOrCreateLocked(core_.get(), name, MetricKind::kCounter, 1, {});
  Counter counter;
  counter.core_ = core_;
  counter.slot_ = def->slot;
  return counter;
}

Gauge MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(core_->mu);
  MetricDef* def =
      FindOrCreateLocked(core_.get(), name, MetricKind::kGauge, 0, {});
  Gauge gauge;
  gauge.core_ = core_;
  gauge.index_ = def->gauge_index;
  return gauge;
}

Histogram MetricsRegistry::GetHistogram(const std::string& name,
                                        std::vector<int64_t> upper_bounds) {
  for (size_t i = 1; i < upper_bounds.size(); ++i) {
    PDX_CHECK(upper_bounds[i - 1] < upper_bounds[i])
        << "histogram " << name << " bounds must be strictly increasing";
  }
  std::lock_guard<std::mutex> lock(core_->mu);
  uint32_t buckets = static_cast<uint32_t>(upper_bounds.size()) + 1;
  MetricDef* def = FindOrCreateLocked(core_.get(), name,
                                      MetricKind::kHistogram, buckets + 1,
                                      std::move(upper_bounds));
  Histogram hist;
  hist.core_ = core_;
  hist.slot_ = def->slot;
  hist.bucket_count_ = buckets;
  hist.bounds_ = &def->bounds;
  return hist;
}

std::vector<MetricSnapshot> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(core_->mu);
  std::vector<MetricSnapshot> out;
  out.reserve(core_->defs.size());
  for (const MetricDef& def : core_->defs) {
    MetricSnapshot snap;
    snap.name = def.name;
    snap.kind = def.kind;
    switch (def.kind) {
      case MetricKind::kCounter:
        snap.value = internal::SumSlotLocked(*core_, def.slot);
        break;
      case MetricKind::kGauge:
        snap.value =
            core_->gauges[def.gauge_index].load(std::memory_order_relaxed);
        break;
      case MetricKind::kHistogram:
        snap.hist = internal::ReadHistogramLocked(*core_, def);
        break;
    }
    out.push_back(std::move(snap));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(core_->mu);
  for (uint32_t s = 0; s < internal::kShardSlots; ++s) {
    core_->exited[s] = 0;
  }
  for (const auto& shard : core_->shards) {
    for (uint32_t s = 0; s < internal::kShardSlots; ++s) {
      shard->slots[s].store(0, std::memory_order_relaxed);
    }
  }
  for (auto& gauge : core_->gauges) {
    gauge.store(0, std::memory_order_relaxed);
  }
}

}  // namespace obs
}  // namespace pdx

#endif  // PDX_OBS_NOOP
