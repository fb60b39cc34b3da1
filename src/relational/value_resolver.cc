#include "relational/value_resolver.h"

#include <atomic>

namespace pdx {

ValueResolver::State& ValueResolver::MutableState() {
  if (state_ != nullptr && state_.use_count() == 1) return *state_;
  state_ = state_ == nullptr ? std::make_shared<State>()
                             : std::make_shared<State>(*state_);
  static std::atomic<uint64_t> next_identity{0};
  state_->identity =
      next_identity.fetch_add(1, std::memory_order_relaxed) + 1;
  return *state_;
}

ValueResolver::UnionResult ValueResolver::Union(Value a, Value b) {
  UnionResult result;
  Value ra = Resolve(a);
  Value rb = Resolve(b);
  if (ra == rb) return result;  // already one class
  if (ra.is_constant() && rb.is_constant()) {
    result.conflict = true;
    result.winner = ra;
    result.loser = rb;
    return result;
  }
  // Pick the surviving root: a constant always wins (it is what the class
  // denotes); between nulls the larger class wins so every value is
  // relinked O(log n) times across any union sequence.
  State& state = MutableState();
  auto class_size = [&state](Value root) -> size_t {
    auto it = state.members.find(root.packed());
    return it == state.members.end() ? 1 : it->second.size();
  };
  Value winner = ra;
  Value loser = rb;
  if (rb.is_constant() ||
      (ra.is_null() && class_size(rb) > class_size(ra))) {
    winner = rb;
    loser = ra;
  }

  auto loser_it = state.members.find(loser.packed());
  if (loser_it == state.members.end()) {
    result.reassigned.push_back(loser);
  } else {
    result.reassigned = std::move(loser_it->second);
    state.members.erase(loser_it);
  }

  std::vector<Value>& winner_members = state.members[winner.packed()];
  if (winner_members.empty()) winner_members.push_back(winner);
  // Eager path compression: every absorbed value points straight at the
  // new root, so Resolve stays a single probe. Absorbed values are
  // always nulls (a constant in a class is its root), so the null-keyed
  // parent table covers them.
  for (const Value& v : result.reassigned) {
    PDX_DCHECK(v.is_null());
    *state.parent.Insert(v, winner) = winner;
    winner_members.push_back(v);
  }
  ++state.version;

  result.merged = true;
  result.winner = winner;
  result.loser = loser;
  return result;
}

}  // namespace pdx
