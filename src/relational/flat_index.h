#ifndef PDX_RELATIONAL_FLAT_INDEX_H_
#define PDX_RELATIONAL_FLAT_INDEX_H_

// The flat storage primitives behind Instance's RelationStore: an
// open-addressing positional index (FlatIndex) and an open-addressing
// tuple dedup set (FlatTupleSet). Both use power-of-two capacities with
// linear probing and copy memberwise, so RelationStore's copy-on-write
// clone stays a memberwise copy.
//
// FlatIndex maps a packed value to the list of tuple indexes holding that
// value at one position. Buckets store up to kInlineCap indexes inside the
// slot itself; larger buckets spill into a shared overflow arena owned by
// the index (grow-by-doubling; the abandoned region is reclaimed on the
// next rehash). Erase swaps the victim with the bucket's last entry and
// never tombstones the slot: a slot keeps its key with count == 0, which
// preserves probe chains without deletion markers (erases are rare — only
// RemoveFact — while inserts dominate).
//
// Indexes are built lazily. Each FlatIndex carries an `indexed_upto`
// watermark: it holds exactly the owning store's tuples [0, indexed_upto).
// The store appends tuples without touching any index; the first reader
// of a lagging position adds the missing tuples in tuple order (see
// RelationStore::Index in instance.h), so a position nobody probes costs
// nothing. The watermark is an atomic inline in the index (no side
// array) and is copied with it, so a clone resumes where its source
// stopped.
//
// Value::packed() never produces ~0ull (bit 63 is the null flag; bits
// 32..62 are always zero), so ~0ull is a safe empty-slot sentinel.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "base/logging.h"

namespace pdx {

// A read-only view of one index bucket: tuple indexes into
// Instance::tuples(relation). Invalidated by any mutation of the owning
// store (exactly like the bucket pointers it replaces).
class TupleIndexSpan {
 public:
  TupleIndexSpan() = default;
  TupleIndexSpan(const int32_t* data, size_t count)
      : data_(data), count_(count) {}

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  int32_t operator[](size_t i) const { return data_[i]; }
  const int32_t* data() const { return data_; }
  const int32_t* begin() const { return data_; }
  const int32_t* end() const { return data_ + count_; }

 private:
  const int32_t* data_ = nullptr;
  size_t count_ = 0;
};

class FlatIndex {
 public:
  FlatIndex() = default;
  // Copies carry the watermark. The caller excludes a concurrent catch-up
  // of `other` (RelationStore's clone holds the store's index lock).
  FlatIndex(const FlatIndex& other)
      : slots_(other.slots_),
        overflow_(other.overflow_),
        used_(other.used_),
        indexed_upto_(other.indexed_upto_.load(std::memory_order_relaxed)) {}
  FlatIndex& operator=(const FlatIndex& other) {
    slots_ = other.slots_;
    overflow_ = other.overflow_;
    used_ = other.used_;
    indexed_upto_.store(other.indexed_upto_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    return *this;
  }

  // The number of leading tuples of the owning store this index holds.
  // The acquire load pairs with set_indexed_upto's release store, so a
  // reader that sees the watermark also sees the entries below it.
  size_t indexed_upto() const {
    return indexed_upto_.load(std::memory_order_acquire);
  }
  void set_indexed_upto(size_t n) {
    indexed_upto_.store(n, std::memory_order_release);
  }

  // The bucket for `key`, empty if absent. Never allocates.
  TupleIndexSpan Find(uint64_t key) const {
    if (slots_.empty()) return {};
    const size_t mask = slots_.size() - 1;
    size_t i = Mix(key) & mask;
    for (;;) {
      const Slot& s = slots_[i];
      if (s.key == key) {
        return {s.cap == 0 ? s.inline_ : overflow_.data() + s.off, s.count};
      }
      if (s.key == kEmptySlotKey) return {};
      i = (i + 1) & mask;
    }
  }

  // Appends `idx` to the bucket for `key` (a tuple index occurs at most
  // once per bucket by construction; not checked).
  void Add(uint64_t key, int32_t idx) {
    if (slots_.empty()) {
      Rehash(16);
    } else if ((used_ + 1) * 4 > slots_.size() * 3) {
      Rehash(slots_.size() * 2);
    }
    Append(FindOrClaim(key), idx);
  }

  // Removes `idx` from the bucket for `key` (swap with the bucket's last
  // entry). Returns false if absent.
  bool Erase(uint64_t key, int32_t idx) {
    Slot* s = FindSlot(key);
    if (s == nullptr) return false;
    int32_t* entries = MutableEntries(*s);
    for (uint32_t j = 0; j < s->count; ++j) {
      if (entries[j] == idx) {
        entries[j] = entries[s->count - 1];
        --s->count;
        return true;
      }
    }
    return false;
  }

  // Rewrites the entry `from` in the bucket for `key` to `to` (the
  // swap-with-last repoint of RemoveFact). No-op if absent.
  void Repoint(uint64_t key, int32_t from, int32_t to) {
    Slot* s = FindSlot(key);
    if (s == nullptr) return;
    int32_t* entries = MutableEntries(*s);
    for (uint32_t j = 0; j < s->count; ++j) {
      if (entries[j] == from) {
        entries[j] = to;
        return;
      }
    }
  }

 private:
  static constexpr uint64_t kEmptySlotKey = ~0ull;
  static constexpr uint32_t kInlineCap = 4;

  struct Slot {
    uint64_t key = kEmptySlotKey;
    uint32_t count = 0;
    uint32_t cap = 0;  // 0: inline storage; else overflow region capacity
    uint32_t off = 0;  // overflow region offset (cap > 0)
    int32_t inline_[kInlineCap];
  };

  static uint64_t Mix(uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  Slot* FindSlot(uint64_t key) {
    if (slots_.empty()) return nullptr;
    const size_t mask = slots_.size() - 1;
    size_t i = Mix(key) & mask;
    for (;;) {
      Slot& s = slots_[i];
      if (s.key == key) return &s;
      if (s.key == kEmptySlotKey) return nullptr;
      i = (i + 1) & mask;
    }
  }

  Slot* FindOrClaim(uint64_t key) {
    const size_t mask = slots_.size() - 1;
    size_t i = Mix(key) & mask;
    for (;;) {
      Slot& s = slots_[i];
      if (s.key == key) return &s;
      if (s.key == kEmptySlotKey) {
        s.key = key;
        ++used_;
        return &s;
      }
      i = (i + 1) & mask;
    }
  }

  int32_t* MutableEntries(Slot& s) {
    return s.cap == 0 ? s.inline_ : overflow_.data() + s.off;
  }

  void Append(Slot* s, int32_t idx) {
    if (s->cap == 0) {
      if (s->count < kInlineCap) {
        s->inline_[s->count++] = idx;
        return;
      }
      // Spill: move the inline entries into a fresh overflow region.
      Grow(s, kInlineCap * 2);
    } else if (s->count == s->cap) {
      Grow(s, s->cap * 2);
    }
    overflow_[s->off + s->count++] = idx;
  }

  // Moves a full bucket into a fresh overflow region of `cap` entries.
  // The old region (inline or overflow) is abandoned; Rehash() rebuilds
  // the arena compactly, which bounds the waste. The source is re-resolved
  // after the resize: when the bucket already lives in the arena, resize
  // may reallocate out from under a pre-computed pointer.
  void Grow(Slot* s, uint32_t cap) {
    const size_t off = overflow_.size();
    PDX_CHECK_LE(off + cap, size_t{1} << 32);
    const bool spilled = s->cap != 0;
    const uint32_t old_off = s->off;
    overflow_.resize(off + cap);
    const int32_t* src = spilled ? overflow_.data() + old_off : s->inline_;
    std::memcpy(overflow_.data() + off, src, s->count * sizeof(int32_t));
    s->cap = cap;
    s->off = static_cast<uint32_t>(off);
  }

  void Rehash(size_t new_capacity) {
    std::vector<Slot> old = std::move(slots_);
    std::vector<int32_t> old_overflow = std::move(overflow_);
    slots_.assign(new_capacity, Slot{});
    overflow_.clear();
    used_ = 0;
    const size_t mask = new_capacity - 1;
    for (const Slot& s : old) {
      if (s.key == kEmptySlotKey || s.count == 0) continue;
      size_t i = Mix(s.key) & mask;
      while (slots_[i].key != kEmptySlotKey) i = (i + 1) & mask;
      Slot& dst = slots_[i];
      dst.key = s.key;
      dst.count = s.count;
      ++used_;
      const int32_t* src =
          s.cap == 0 ? s.inline_ : old_overflow.data() + s.off;
      if (s.count <= kInlineCap) {
        std::memcpy(dst.inline_, src, s.count * sizeof(int32_t));
      } else {
        // Copied by hand rather than via Grow: src points into the old
        // arena, which resize cannot invalidate.
        uint32_t cap = kInlineCap * 2;
        while (cap < s.count) cap *= 2;
        const size_t off = overflow_.size();
        overflow_.resize(off + cap);
        std::memcpy(overflow_.data() + off, src, s.count * sizeof(int32_t));
        dst.cap = cap;
        dst.off = static_cast<uint32_t>(off);
      }
    }
  }

  std::vector<Slot> slots_;      // power-of-two size
  std::vector<int32_t> overflow_;
  size_t used_ = 0;              // occupied slots (count 0 included)
  std::atomic<size_t> indexed_upto_{0};
};

// Open-addressing dedup set over the owning store's tuple arena. Entries
// are (tuple hash, tuple index); equality is delegated to the caller (who
// can compare against the arena), so the set never stores tuple data.
// Erase uses backward-shift deletion, keeping probe chains tombstone-free.
// The load factor stays at most 3/4.
class FlatTupleSet {
 public:
  // The index of the entry with `hash` for which `eq(idx)` holds, or -1.
  template <typename Eq>
  int32_t Find(uint64_t hash, const Eq& eq) const {
    if (entries_.empty()) return -1;
    const size_t mask = entries_.size() - 1;
    size_t i = static_cast<size_t>(hash) & mask;
    for (;;) {
      const Entry& e = entries_[i];
      if (e.idx < 0) return -1;
      if (e.hash == hash && eq(e.idx)) return e.idx;
      i = (i + 1) & mask;
    }
  }

  // Inserts (hash, idx); the caller guarantees no equal tuple is present.
  void Insert(uint64_t hash, int32_t idx) {
    if (entries_.empty()) {
      Rehash(16);
    } else if ((size_ + 1) * 4 > entries_.size() * 3) {
      Rehash(entries_.size() * 2);
    }
    const size_t mask = entries_.size() - 1;
    size_t i = static_cast<size_t>(hash) & mask;
    while (entries_[i].idx >= 0) i = (i + 1) & mask;
    entries_[i].hash = hash;
    entries_[i].idx = idx;
    ++size_;
  }

  // Removes the entry (hash, idx) if present (backward-shift deletion).
  void Erase(uint64_t hash, int32_t idx) {
    if (entries_.empty()) return;
    const size_t mask = entries_.size() - 1;
    size_t i = static_cast<size_t>(hash) & mask;
    for (;;) {
      const Entry& e = entries_[i];
      if (e.idx < 0) return;
      if (e.hash == hash && e.idx == idx) break;
      i = (i + 1) & mask;
    }
    size_t hole = i;
    size_t j = i;
    for (;;) {
      j = (j + 1) & mask;
      const Entry& e = entries_[j];
      if (e.idx < 0) break;
      const size_t home = static_cast<size_t>(e.hash) & mask;
      // e may fill the hole iff its home slot is not in the cyclic
      // interval (hole, j] — else moving it would break its probe chain.
      const bool home_between = hole <= j ? (home > hole && home <= j)
                                          : (home > hole || home <= j);
      if (!home_between) {
        entries_[hole] = e;
        hole = j;
      }
    }
    entries_[hole].idx = -1;
    --size_;
  }

  // Rewrites the entry (hash, from) to (hash, to): the dedup half of
  // RemoveFact's swap-with-last repoint.
  void Repoint(uint64_t hash, int32_t from, int32_t to) {
    if (entries_.empty()) return;
    const size_t mask = entries_.size() - 1;
    size_t i = static_cast<size_t>(hash) & mask;
    for (;;) {
      Entry& e = entries_[i];
      if (e.idx < 0) return;
      if (e.hash == hash && e.idx == from) {
        e.idx = to;
        return;
      }
      i = (i + 1) & mask;
    }
  }

  // Makes room for `extra` more inserts without a rehash, so a bulk load
  // of known size rehashes at most once.
  void Reserve(size_t extra) {
    const size_t need = size_ + extra;
    if (need * 4 <= entries_.size() * 3) return;
    size_t capacity = entries_.empty() ? 16 : entries_.size() * 2;
    while (need * 4 > capacity * 3) capacity *= 2;
    Rehash(capacity);
  }

  size_t size() const { return size_; }

 private:
  struct Entry {
    uint64_t hash = 0;
    int32_t idx = -1;  // < 0: empty slot
  };

  void Rehash(size_t new_capacity) {
    std::vector<Entry> old = std::move(entries_);
    entries_.assign(new_capacity, Entry{});
    const size_t mask = new_capacity - 1;
    for (const Entry& e : old) {
      if (e.idx < 0) continue;
      size_t i = static_cast<size_t>(e.hash) & mask;
      while (entries_[i].idx >= 0) i = (i + 1) & mask;
      entries_[i] = e;
    }
  }

  std::vector<Entry> entries_;  // power-of-two size
  size_t size_ = 0;
};

}  // namespace pdx

#endif  // PDX_RELATIONAL_FLAT_INDEX_H_
