#include "chase/journal.h"

#include <utility>

namespace pdx {

namespace {
// Mixed into egd fingerprints so an egd and a tgd with the same dependency
// index and binding occupy distinct fingerprints.
constexpr uint64_t kEgdTag = 0x8f3a94c1d2e57b63ull;
}  // namespace

bool ChaseJournal::Record(bool egd, size_t dep, const Value* row, size_t n,
                          uint64_t fp) {
  if (!fired_.insert(fp).second) return false;
  Entry e;
  e.begin = static_cast<uint32_t>(pool_.size());
  e.len = static_cast<uint16_t>(n);
  e.egd = egd;
  e.alive = true;
  e.dep = static_cast<uint32_t>(dep);
  e.fp = fp;
  pool_.insert(pool_.end(), row, row + n);
  entries_.push_back(e);
  ++live_;
  return true;
}

bool ChaseJournal::RecordTgd(size_t dep, const Value* row, size_t n,
                             const std::vector<bool>& existential) {
  return Record(/*egd=*/false, dep, row, n,
                TriggerFingerprintRow(dep, row, n, existential));
}

bool ChaseJournal::RecordEgd(size_t dep, const Value* row, size_t n) {
  return Record(/*egd=*/true, dep, row, n,
                TriggerFingerprintRow(dep, row, n, {}) ^ kEgdTag);
}

bool ChaseJournal::Kill(size_t i) {
  Entry& e = entries_[i];
  if (!e.alive) return false;
  e.alive = false;
  --live_;
  fired_.erase(e.fp);
  return true;
}

void ChaseJournal::Revive(size_t i) {
  Entry& e = entries_[i];
  if (e.alive) return;
  e.alive = true;
  ++live_;
  fired_.insert(e.fp);
}

void ChaseJournal::TruncateTo(size_t n) {
  while (entries_.size() > n) {
    const Entry& e = entries_.back();
    if (e.alive) {
      fired_.erase(e.fp);
      --live_;
    }
    pool_.resize(e.begin);
    entries_.pop_back();
  }
}

void ChaseJournal::Swap(ChaseJournal& other) {
  pool_.swap(other.pool_);
  entries_.swap(other.entries_);
  std::swap(live_, other.live_);
  fired_.swap(other.fired_);
}

void ChaseJournal::Clear() {
  pool_.clear();
  entries_.clear();
  live_ = 0;
  fired_.clear();
}

}  // namespace pdx
