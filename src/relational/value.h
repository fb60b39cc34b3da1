#ifndef PDX_RELATIONAL_VALUE_H_
#define PDX_RELATIONAL_VALUE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "base/logging.h"

namespace pdx {

// A database value: either an interned *constant* or a *labeled null*.
//
// The paper's instances range over constants (Const) and labeled nulls
// introduced by the chase. Packing both into one word keeps tuples flat and
// hashable and removes all string handling from the rewriting hot paths;
// constant spellings live in a SymbolTable on the side.
class Value {
 public:
  // A default-constructed Value is constant #0; avoid relying on this.
  Value() : bits_(0) {}

  static Value Constant(uint32_t id) { return Value(uint64_t{id}); }
  static Value Null(uint32_t id) { return Value(kNullBit | uint64_t{id}); }

  bool is_null() const { return (bits_ & kNullBit) != 0; }
  bool is_constant() const { return !is_null(); }

  // The id within the value's kind (constant ids and null ids are separate
  // spaces).
  uint32_t id() const { return static_cast<uint32_t>(bits_ & 0xffffffffu); }

  // Raw packed representation, usable as a hash-map key.
  uint64_t packed() const { return bits_; }
  static Value FromPacked(uint64_t bits) { return Value(bits); }

  bool operator==(const Value& other) const { return bits_ == other.bits_; }
  bool operator!=(const Value& other) const { return bits_ != other.bits_; }
  bool operator<(const Value& other) const { return bits_ < other.bits_; }

 private:
  static constexpr uint64_t kNullBit = uint64_t{1} << 63;

  explicit Value(uint64_t bits) : bits_(bits) {}

  uint64_t bits_;
};

struct ValueHash {
  size_t operator()(const Value& v) const {
    // splitmix64-style finalizer: good dispersion for sequential ids.
    uint64_t x = v.packed();
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<size_t>(x);
  }
};

// Interns constant spellings and allocates fresh labeled nulls.
//
// One SymbolTable represents one "universe" of values; all instances,
// dependencies and queries that interact must share a SymbolTable.
//
// Constants live in one flat table: every spelling is appended to a single
// character arena, each constant stores its arena offset and its 64-bit
// hash (ids are dense, in first-seen order), and an open-addressing slot
// array maps hashes to ids. A lookup hashes the string_view once, probes
// the slots (each holding the id and 32 more bits of the hash) and
// compares spellings only on a tag match, so neither a hit nor a miss
// allocates; a growth rehashes from the stored hashes without touching a
// spelling. Interning is not thread-safe (pdxd serializes it under the
// tenant's symbols_mu_); FreshNull and ReserveNullRange are.
class SymbolTable {
 public:
  SymbolTable() = default;

  // Not copyable: ids would silently diverge between copies.
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;
  SymbolTable(SymbolTable&& other) noexcept
      : slots_(std::move(other.slots_)),
        offsets_(std::move(other.offsets_)),
        hashes_(std::move(other.hashes_)),
        arena_(std::move(other.arena_)),
        next_null_id_(
            other.next_null_id_.load(std::memory_order_relaxed)) {}
  SymbolTable& operator=(SymbolTable&& other) noexcept {
    slots_ = std::move(other.slots_);
    offsets_ = std::move(other.offsets_);
    hashes_ = std::move(other.hashes_);
    arena_ = std::move(other.arena_);
    next_null_id_.store(other.next_null_id_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    return *this;
  }

  // Returns the constant for `name`, interning it on first use.
  Value InternConstant(std::string_view name);

  // Returns the constant for `name` if interned, or a negative result.
  // `found` may be null.
  Value LookupConstant(std::string_view name, bool* found) const;

  // Allocates a labeled null never seen before in this universe. Safe to
  // call from any thread: the id counter is a single relaxed fetch_add.
  Value FreshNull() { return Value::Null(ReserveNullRange(1)); }

  // Reserves `count` consecutive null ids [first, first + count) for the
  // caller's exclusive use and returns `first`, in one lock-free
  // compare-and-swap loop (FreshNull is the one-id case; the chase mints
  // every null through it, in apply order). Reserved ids that are never
  // turned into facts are simply retired: null ids must be unique, not
  // dense, and every null-keyed table is sized by the nulls it holds, not
  // by their ids (relational/null_map.h). A reservation that would run
  // the counter past 2^32 - 1 aborts, naming the table: wrapping would
  // hand out ids that alias live nulls. So id 2^32 - 1 is never handed
  // out, which NullMap relies on to mark free entries.
  uint32_t ReserveNullRange(uint32_t count) {
    uint32_t first = next_null_id_.load(std::memory_order_relaxed);
    do {
      PDX_CHECK(uint64_t{first} + count <= UINT32_MAX)
          << "SymbolTable@" << static_cast<const void*>(this)
          << ": null id space exhausted (" << first << " ids handed out, "
          << count << " more requested)";
    } while (!next_null_id_.compare_exchange_weak(
        first, first + count, std::memory_order_relaxed));
    return first;
  }

  // Upper bound on null ids handed out so far (including retired ids that
  // never reached an instance).
  uint32_t null_count() const {
    return next_null_id_.load(std::memory_order_relaxed);
  }

  // Renders a value: the constant's spelling, or "_N<k>" for nulls.
  std::string ValueToString(Value v) const;

  size_t constant_count() const { return offsets_.size(); }

 private:
  // One open-addressing slot: the constant's id + 1 (0 marks an empty
  // slot) and the high half of its hash (the low half picks the slot).
  struct Slot {
    uint32_t id_plus_one = 0;
    uint32_t tag = 0;
  };

  static uint64_t HashSpelling(std::string_view s);

  // The spelling of constant `id`: arena_[offsets_[id], next offset).
  std::string_view Spelling(uint32_t id) const {
    const size_t begin = offsets_[id];
    const size_t end =
        id + 1 < offsets_.size() ? offsets_[id + 1] : arena_.size();
    return std::string_view(arena_).substr(begin, end - begin);
  }

  // The slot holding `name` (hash `hash`), or the empty slot that ends
  // its probe chain. `slots_` must be non-empty.
  size_t FindSlot(std::string_view name, uint64_t hash) const;

  // Doubles the slot array (16 slots at first), re-placing every id from
  // hashes_.
  void Grow();

  std::vector<Slot> slots_;         // power-of-two size, at most half full
  std::vector<size_t> offsets_;     // per id: start of its spelling
  std::vector<uint64_t> hashes_;    // per id: HashSpelling of it
  std::string arena_;               // every spelling, back to back
  std::atomic<uint32_t> next_null_id_{0};
};

}  // namespace pdx

#endif  // PDX_RELATIONAL_VALUE_H_
