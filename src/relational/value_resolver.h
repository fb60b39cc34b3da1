#ifndef PDX_RELATIONAL_VALUE_RESOLVER_H_
#define PDX_RELATIONAL_VALUE_RESOLVER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "relational/null_map.h"
#include "relational/value.h"

namespace pdx {

// Union-find over values, specialized for egd chase steps: labeled nulls
// may be merged with each other or with constants; constants are always
// class roots (an egd that would merge two distinct constants is a chase
// failure, surfaced as a conflict instead of a union).
//
// The resolver is the *value layer* of an Instance: tuples keep the raw
// values they were inserted with, and readers resolve each value to its
// class root on the fly ("resolve-on-read"). This makes an egd merge a
// near-O(1) union instead of Substitute's full relation rebuild.
//
// Representation: a parent table (merged null -> current root) plus
// per-root member lists. Union relinks every member of the losing class
// directly to the winning root — eager path compression — so Resolve() is
// one open-addressing probe and never chases chains. Union-by-size bounds
// total relink work at O(n log n) across any merge sequence; member lists
// double as the set of values whose resolution a merge changed, which
// Instance uses to mark exactly the dirty tuples.
//
// The parent table is a NullMap: it holds only the nulls some union
// absorbed, so its size — and the cost of cloning it — follows the merges
// this resolver applied, not the largest null id its symbol table ever
// minted. A search that forks one resolver per node therefore pays for the
// merges on its path, not for the tenant's history.
//
// Copying a ValueResolver is O(1): state is a copy-on-write block shared
// between copies (mirroring Instance's relation stores), cloned lazily on
// the first Union of either copy. Snapshots and branches therefore never
// alias resolver state.
class ValueResolver {
 public:
  ValueResolver() = default;

  // Copyable in O(1); the first mutation of either copy clones the state.
  ValueResolver(const ValueResolver&) = default;
  ValueResolver& operator=(const ValueResolver&) = default;
  ValueResolver(ValueResolver&&) = default;
  ValueResolver& operator=(ValueResolver&&) = default;

  // True if no union was ever applied: every value resolves to itself.
  bool trivial() const { return state_ == nullptr || state_->version == 0; }

  // The root of `v`'s equivalence class (identity for unmerged values).
  // Constants can never lose a union, so only nulls consult the parent
  // table — one open-addressing probe (this is the hottest call in
  // merge-heavy chases: every slot comparison under a non-trivial
  // resolver resolves through here).
  Value Resolve(Value v) const {
    if (state_ == nullptr || !v.is_null()) return v;
    return state_->parent.Get(v, v);
  }

  bool SameClass(Value a, Value b) const {
    return Resolve(a) == Resolve(b);
  }

  // The members of `root`'s class (including the root itself), or nullptr
  // for singleton classes. `root` must already be a class root. The pointer
  // is invalidated by the next Union on this resolver.
  const std::vector<Value>* ClassMembers(Value root) const {
    if (state_ == nullptr) return nullptr;
    auto it = state_->members.find(root.packed());
    return it == state_->members.end() ? nullptr : &it->second;
  }

  struct UnionResult {
    // False if the two values were already in one class (no-op) or the
    // union was a constant/constant conflict.
    bool merged = false;
    // True if both roots were distinct constants: the egd failure case.
    bool conflict = false;
    Value winner;  // surviving root (valid on merged or conflict)
    Value loser;   // absorbed root (valid on merged or conflict)
    // The values whose resolution just changed: every member of the losing
    // class (including `loser` itself).
    std::vector<Value> reassigned;
  };

  // Merges the classes of `a` and `b`. Constants win unions (they must
  // stay roots: a null equated with a constant *denotes* that constant);
  // between null roots the larger class wins, bounding total relinking.
  UnionResult Union(Value a, Value b);

  // Number of successful unions ever applied.
  uint64_t version() const { return state_ == nullptr ? 0 : state_->version; }

  // Names this resolver's state: copies share it until one of them
  // unions, which gives the mutated copy a fresh identity. Two copies
  // that diverged can reach the same version() with different classes,
  // so a cache shared between them (Instance's per-store class buckets)
  // must key on identity() and version() together. 0 when trivial.
  uint64_t identity() const {
    return state_ == nullptr ? 0 : state_->identity;
  }

  // Number of non-singleton classes currently tracked.
  size_t class_count() const {
    return state_ == nullptr ? 0 : state_->members.size();
  }

 private:
  struct State {
    // Class root of every null a union absorbed; unmerged nulls are
    // absent and resolve to themselves. Only nulls can lose a union — a
    // constant in a class is always its root — so constants never need
    // an entry.
    NullMap<Value> parent;
    // root -> all values of the class, including the root; only classes of
    // size >= 2 appear.
    std::unordered_map<uint64_t, std::vector<Value>> members;
    uint64_t version = 0;
    uint64_t identity = 0;  // unique per created or cloned state
  };

  // The state, cloned first if currently shared with another resolver.
  State& MutableState();

  std::shared_ptr<State> state_;
};

}  // namespace pdx

#endif  // PDX_RELATIONAL_VALUE_RESOLVER_H_
