#ifndef PDX_RELATIONAL_NULL_MAP_H_
#define PDX_RELATIONAL_NULL_MAP_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/logging.h"
#include "relational/value.h"

namespace pdx {

// An open-addressing map from labeled nulls to T: one flat array sized by
// the number of nulls it holds — never by the raw null-id span, which a
// long-lived symbol table makes unbounded — so copying one costs O(size())
// whatever the ids. The codebase's one null-keyed table: ValueResolver
// keys its parent links on it, BlockDecomposition numbers nulls with it
// (through NullSlots).
template <typename T>
class NullMap {
 public:
  // The value of `v`, or `missing` if it has none (constants never do).
  // Inline: ValueResolver::Resolve probes here for every null it reads.
  T Get(Value v, T missing) const {
    if (entries_.empty() || !v.is_null()) return missing;
    const uint32_t id = v.id();
    const size_t mask = entries_.size() - 1;
    for (size_t i = Home(id);; i = (i + 1) & mask) {
      if (entries_[i].id == id) return entries_[i].value;
      if (entries_[i].id == kFree) return missing;
    }
  }

  // The value of `null`, inserting `init` first if `null` is new; the
  // pointer is valid until the next insertion.
  T* Insert(Value null, T init) {
    PDX_DCHECK(null.is_null());
    PDX_DCHECK(null.id() != kFree);
    if ((size_ + 1) * 2 > entries_.size()) {
      Rehash(std::max<size_t>(16, entries_.size() * 2));
    }
    const uint32_t id = null.id();
    const size_t mask = entries_.size() - 1;
    for (size_t i = Home(id);; i = (i + 1) & mask) {
      Entry& entry = entries_[i];
      if (entry.id == id) return &entry.value;
      if (entry.id == kFree) {
        entry.id = id;
        entry.value = std::move(init);
        ++size_;
        return &entry.value;
      }
    }
  }

  size_t size() const { return size_; }

  // Empties the map, keeping its table: a map cleared and refilled per
  // call (a reused scratch map) allocates nothing once it has grown.
  void Clear() {
    if (size_ == 0) return;
    std::fill(entries_.begin(), entries_.end(), Entry());
    size_ = 0;
  }

 private:
  // Marks a free entry. SymbolTable never mints the last null id (its
  // counter stops at 2^32 - 1), so no key collides with it.
  static constexpr uint32_t kFree = ~uint32_t{0};
  // Null id and value side by side: a probe touches one entry.
  struct Entry {
    uint32_t id = kFree;
    T value{};
  };

  // Fibonacci hashing: the top bits of id * 2^64/phi spread consecutive
  // null ids evenly over the power-of-two table.
  size_t Home(uint32_t id) const {
    return static_cast<size_t>((uint64_t{id} * 0x9e3779b97f4a7c15ull) >>
                               shift_);
  }

  void Rehash(size_t capacity) {
    std::vector<Entry> old = std::move(entries_);
    entries_.assign(capacity, Entry());
    shift_ = 64 - std::countr_zero(capacity);
    const size_t mask = capacity - 1;
    for (Entry& entry : old) {
      if (entry.id == kFree) continue;
      size_t i = Home(entry.id);
      while (entries_[i].id != kFree) i = (i + 1) & mask;
      entries_[i] = std::move(entry);
    }
  }

  std::vector<Entry> entries_;  // power-of-two size
  int shift_ = 64;              // 64 - log2(entries_.size())
  size_t size_ = 0;
};

// Dense slots for distinct labeled nulls: slot numbers 0..size()-1,
// handed out in first-insert order.
class NullSlots {
 public:
  static constexpr uint32_t kNone = ~uint32_t{0};

  // The slot of `null`, assigning the next one if it is new.
  uint32_t Insert(Value null) {
    return *slots_.Insert(null, static_cast<uint32_t>(slots_.size()));
  }
  // The slot of `v`, or kNone if it has none (constants never do).
  uint32_t Find(Value v) const { return slots_.Get(v, kNone); }
  size_t size() const { return slots_.size(); }
  // Forgets every slot, keeping the table (see NullMap::Clear).
  void Clear() { slots_.Clear(); }

 private:
  NullMap<uint32_t> slots_;
};

// A mapping from labeled nulls to values; constants, and nulls it does
// not assign, map to themselves.
class NullAssignment {
 public:
  NullAssignment() = default;
  // Slot s of `slots` maps to images[s].
  NullAssignment(NullSlots slots, std::vector<Value> images)
      : slots_(std::move(slots)), images_(std::move(images)) {
    PDX_CHECK_EQ(slots_.size(), images_.size());
  }

  // Maps `null` to `image`, replacing any earlier image.
  void Set(Value null, Value image) {
    const uint32_t slot = slots_.Insert(null);
    if (slot == images_.size()) {
      images_.push_back(image);
    } else {
      images_[slot] = image;
    }
  }
  // The image of `v`.
  Value Apply(Value v) const {
    const uint32_t slot = slots_.Find(v);
    return slot == NullSlots::kNone ? v : images_[slot];
  }
  size_t size() const { return slots_.size(); }

 private:
  NullSlots slots_;
  std::vector<Value> images_;
};

}  // namespace pdx

#endif  // PDX_RELATIONAL_NULL_MAP_H_
