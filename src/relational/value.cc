#include "relational/value.h"

#include <cstring>

#include "base/string_util.h"

namespace pdx {

uint64_t SymbolTable::HashSpelling(std::string_view s) {
  // Eight bytes per multiply-xorshift round; a tail of 1 to 7 bytes is
  // read as two overlapping 4-byte (or three single-byte) loads, so no
  // load has a variable length. A splitmix64 finalizer spreads the bits.
  // Hashes never leave the process, so the byte order of the loads does
  // not matter.
  const char* p = s.data();
  size_t n = s.size();
  uint64_t h = 0x9e3779b97f4a7c15ull ^ n;
  auto load4 = [](const char* q) {
    uint32_t word;
    std::memcpy(&word, q, 4);
    return uint64_t{word};
  };
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    h = (h ^ word) * 0xbf58476d1ce4e5b9ull;
    h ^= h >> 29;
  }
  if (n > 0) {
    uint64_t word;
    if (n >= 4) {
      word = (load4(p) << 32) | load4(p + n - 4);
    } else {
      word = (uint64_t{static_cast<unsigned char>(p[0])} << 16) |
             (uint64_t{static_cast<unsigned char>(p[n / 2])} << 8) |
             uint64_t{static_cast<unsigned char>(p[n - 1])};
    }
    h = (h ^ word) * 0x94d049bb133111ebull;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

size_t SymbolTable::FindSlot(std::string_view name, uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  const uint32_t tag = static_cast<uint32_t>(hash >> 32);
  for (size_t i = static_cast<size_t>(hash) & mask;; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (s.id_plus_one == 0) return i;
    if (s.tag == tag && Spelling(s.id_plus_one - 1) == name) return i;
  }
}

void SymbolTable::Grow() {
  const size_t capacity = slots_.empty() ? 16 : slots_.size() * 2;
  slots_.assign(capacity, Slot{});
  const size_t mask = capacity - 1;
  for (uint32_t id = 0; id < hashes_.size(); ++id) {
    size_t i = static_cast<size_t>(hashes_[id]) & mask;
    while (slots_[i].id_plus_one != 0) i = (i + 1) & mask;
    slots_[i] = Slot{id + 1, static_cast<uint32_t>(hashes_[id] >> 32)};
  }
}

Value SymbolTable::InternConstant(std::string_view name) {
  const uint64_t hash = HashSpelling(name);
  if ((offsets_.size() + 1) * 2 > slots_.size()) Grow();
  const size_t i = FindSlot(name, hash);
  if (slots_[i].id_plus_one != 0) {
    return Value::Constant(slots_[i].id_plus_one - 1);
  }
  PDX_CHECK_LT(offsets_.size(), size_t{UINT32_MAX})
      << "constant id space exhausted";
  const uint32_t id = static_cast<uint32_t>(offsets_.size());
  offsets_.push_back(arena_.size());
  hashes_.push_back(hash);
  arena_.append(name.data(), name.size());
  slots_[i] = Slot{id + 1, static_cast<uint32_t>(hash >> 32)};
  return Value::Constant(id);
}

Value SymbolTable::LookupConstant(std::string_view name, bool* found) const {
  const size_t i = slots_.empty() ? 0 : FindSlot(name, HashSpelling(name));
  if (slots_.empty() || slots_[i].id_plus_one == 0) {
    if (found != nullptr) *found = false;
    return Value::Constant(0);
  }
  if (found != nullptr) *found = true;
  return Value::Constant(slots_[i].id_plus_one - 1);
}

std::string SymbolTable::ValueToString(Value v) const {
  if (v.is_null()) return StrCat("_N", v.id());
  PDX_CHECK_LT(v.id(), offsets_.size()) << "constant id out of range";
  return std::string(Spelling(v.id()));
}

}  // namespace pdx
