#include "hom/instance_hom.h"

#include <algorithm>
#include <unordered_map>

namespace pdx {

namespace {

// `instance`, or its resolved compaction when it carries merges: the flat
// readers below take raw arena values as the resolved ones.
Instance Unmerged(const Instance& instance) {
  return instance.has_merges() ? instance.CompactResolved() : instance;
}

}  // namespace

BlockDecomposition::BlockDecomposition(const Instance& instance)
    : instance_(Unmerged(instance)) {
  const RelationId relations = instance_.schema().relation_count();
  // Pass 1: a slot per distinct null, in first-occurrence order, joined
  // by a union-find over slots. A fact connects all its nulls, so
  // linking each to the fact's first null yields the components of the
  // graph of nulls.
  std::vector<uint32_t> parent;
  const auto find = [&parent](uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  // The slot of each fact's first null (kNone if null-free), in scan order.
  std::vector<uint32_t> first_null;
  first_null.reserve(instance_.fact_count());
  for (RelationId r = 0; r < relations; ++r) {
    const TupleList tuples = instance_.tuples(r);
    for (size_t i = 0; i < tuples.size(); ++i) {
      uint32_t first = NullSlots::kNone;
      for (const Value& v : tuples[i]) {
        if (!v.is_null()) continue;
        const uint32_t slot = slots_.Insert(v);
        if (slot == parent.size()) {
          parent.push_back(slot);
          nulls_.push_back(v);
        }
        if (first == NullSlots::kNone) {
          first = slot;
        } else {
          parent[find(slot)] = find(first);
        }
      }
      first_null.push_back(first);
    }
  }

  // Pass 2: number the blocks by the first fact of each component; the
  // null-free block (if any) comes last.
  const uint32_t null_count = static_cast<uint32_t>(nulls_.size());
  std::vector<uint32_t> block_of_root(null_count, NullSlots::kNone);
  uint32_t blocks = 0;
  bool has_null_free = false;
  for (uint32_t& first : first_null) {
    if (first == NullSlots::kNone) {
      has_null_free = true;
      continue;
    }
    uint32_t& block = block_of_root[find(first)];
    if (block == NullSlots::kNone) block = blocks++;
    first = block;  // first_null now holds each fact's block
  }
  const uint32_t null_free = blocks;
  if (has_null_free) ++blocks;

  // Pass 3: the fact spans, a counting sort of the scan by block.
  fact_begin_.assign(blocks + 1, 0);
  for (uint32_t& b : first_null) {
    if (b == NullSlots::kNone) b = null_free;
    ++fact_begin_[b + 1];
  }
  for (uint32_t b = 0; b < blocks; ++b) fact_begin_[b + 1] += fact_begin_[b];
  facts_.resize(first_null.size());
  std::vector<uint32_t> cursor(fact_begin_.begin(), fact_begin_.end() - 1);
  size_t scan = 0;
  for (RelationId r = 0; r < relations; ++r) {
    const size_t count = instance_.tuples(r).size();
    for (size_t i = 0; i < count; ++i) {
      facts_[cursor[first_null[scan++]]++] =
          FactRef{r, static_cast<int32_t>(i)};
    }
  }

  // Pass 4: renumber the slots so each block owns a contiguous range,
  // keeping first-occurrence order inside it.
  null_begin_.assign(blocks + 1, 0);
  std::vector<uint32_t> block_of_slot(null_count);
  for (uint32_t s = 0; s < null_count; ++s) {
    block_of_slot[s] = block_of_root[find(s)];
    ++null_begin_[block_of_slot[s] + 1];
  }
  for (uint32_t b = 0; b < blocks; ++b) null_begin_[b + 1] += null_begin_[b];
  cursor.assign(null_begin_.begin(), null_begin_.end() - 1);
  std::vector<Value> by_block(null_count);
  for (uint32_t s = 0; s < null_count; ++s) {
    by_block[cursor[block_of_slot[s]]++] = nulls_[s];
  }
  nulls_ = std::move(by_block);
  slots_ = NullSlots();
  for (const Value& v : nulls_) slots_.Insert(v);
}

namespace {

// Backtracking search for one block's homomorphism into a merge-free
// target, straight over the raw tuple arenas: the block's nulls are the
// variables (indexed locally from the block's first slot), its constants
// must match exactly. The next fact matched is always one with the most
// known positions, through the smallest index bucket of a known
// position, or one point lookup when every position is known.
// Scratch buffers are reused across the blocks of one MapBlocks call.
class BlockMatcher {
 public:
  BlockMatcher(const BlockDecomposition& blocks, const Instance& target)
      : blocks_(blocks), target_(target) {}

  bool Map(size_t b, Value* images) {
    const Instance& source = blocks_.instance();
    const uint32_t base = blocks_.null_begin(b);
    bound_.assign(blocks_.null_count(b), 0);
    goals_.clear();
    terms_.clear();
    for (const FactRef& f : blocks_.facts(b)) {
      const TupleView tuple = source.tuples(f.relation)[f.tuple];
      goals_.push_back(Goal{f.relation, tuple.size(), tuple.data(),
                            terms_.size()});
      for (const Value& v : tuple) {
        terms_.push_back(v.is_null() ? static_cast<int32_t>(
                                           blocks_.slots().Find(v) - base)
                                     : -1);
      }
    }
    return Search(0, images + base);
  }

 private:
  struct Goal {
    RelationId relation;
    int arity;
    const Value* values;  // the source fact
    size_t terms;         // offset into terms_
  };

  // How many of the goal's positions are constants or bound nulls; their
  // values are staged in `row_`, which is read only before recursing.
  int Known(const Goal& goal, const Value* images) {
    const int32_t* terms = terms_.data() + goal.terms;
    row_.resize(goal.arity);
    int known = 0;
    for (int pos = 0; pos < goal.arity; ++pos) {
      const int32_t t = terms[pos];
      if (t >= 0 && !bound_[t]) continue;
      row_[pos] = t < 0 ? goal.values[pos] : images[t];
      ++known;
    }
    return known;
  }

  // Matches goals_[depth..], most-bound goal first. Fully bound goals are
  // point lookups checked in this loop; only a goal that binds a new null
  // recurses, so the depth stays within the block's null count however
  // many facts the block has.
  bool Search(size_t depth, Value* images) {
    for (; depth < goals_.size(); ++depth) {
      size_t best = depth;
      int best_known = -1;
      for (size_t j = depth;
           j < goals_.size() && best_known < goals_[best].arity; ++j) {
        const int known = Known(goals_[j], images);
        if (known > best_known) {
          best = j;
          best_known = known;
        }
      }
      std::swap(goals_[depth], goals_[best]);
      if (Known(goals_[depth], images) < goals_[depth].arity) break;
      if (!target_.ContainsExact(goals_[depth].relation, row_.data(),
                                 static_cast<size_t>(goals_[depth].arity))) {
        return false;
      }
    }
    if (depth == goals_.size()) return true;
    const Goal& goal = goals_[depth];
    const int32_t* terms = terms_.data() + goal.terms;
    int probe = -1;
    TupleIndexSpan bucket;
    for (int pos = 0; pos < goal.arity; ++pos) {
      const int32_t t = terms[pos];
      if (t >= 0 && !bound_[t]) continue;
      TupleIndexSpan span =
          target_.TuplesWithValueAt(goal.relation, pos, row_[pos]);
      if (span.empty()) return false;
      if (probe < 0 || span.size() < bucket.size()) {
        probe = pos;
        bucket = span;
      }
    }
    const TupleList tuples = target_.tuples(goal.relation);
    const size_t candidates = probe < 0 ? tuples.size() : bucket.size();
    const size_t mark = newly_bound_.size();
    for (size_t c = 0; c < candidates; ++c) {
      const Value* t = tuples[probe < 0 ? c : bucket[c]].data();
      bool consistent = true;
      for (int pos = 0; pos < goal.arity && consistent; ++pos) {
        const int32_t term = terms[pos];
        if (term < 0) {
          consistent = t[pos] == goal.values[pos];
        } else if (bound_[term]) {
          consistent = t[pos] == images[term];
        } else {
          bound_[term] = 1;
          images[term] = t[pos];
          newly_bound_.push_back(term);
        }
      }
      if (consistent && Search(depth + 1, images)) return true;
      while (newly_bound_.size() > mark) {
        bound_[newly_bound_.back()] = 0;
        newly_bound_.pop_back();
      }
    }
    return false;
  }

  const BlockDecomposition& blocks_;
  const Instance& target_;
  std::vector<Goal> goals_;     // the block's facts, in search order
  std::vector<int32_t> terms_;  // per goal position: local null, or -1
  std::vector<uint8_t> bound_;  // per local null
  std::vector<int32_t> newly_bound_;  // undo stack of bound locals
  std::vector<Value> row_;
};

}  // namespace

size_t MapBlocks(const BlockDecomposition& blocks, size_t begin, size_t end,
                 const Instance& target, Value* images) {
  PDX_CHECK(!target.has_merges());
  BlockMatcher matcher(blocks, target);
  for (size_t b = begin; b < end; ++b) {
    if (!matcher.Map(b, images)) return b;
  }
  return end;
}

std::optional<NullAssignment> FindInstanceHomomorphism(
    const Instance& source, const Instance& target) {
  const BlockDecomposition blocks(source);
  std::vector<Value> images(blocks.nulls().size());
  if (MapBlocks(blocks, 0, blocks.size(), Unmerged(target), images.data()) !=
      blocks.size()) {
    return std::nullopt;
  }
  return NullAssignment(blocks.slots(), std::move(images));
}

namespace {

inline uint64_t MixCanon(uint64_t h, uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  return (h ^ x) * 0x100000001b3ull;
}

size_t CountDistinct(std::vector<uint64_t> values) {
  std::sort(values.begin(), values.end());
  return static_cast<size_t>(
      std::unique(values.begin(), values.end()) - values.begin());
}

// One color-refinement sweep to fixpoint: each round hashes, for every
// null, the multiset of (fact signature, position) pairs it occurs in,
// where a fact's signature covers its relation, its constants, and the
// current colors of its nulls. The new color also folds in the old one,
// so refinement only ever splits classes; the sweep stops when the class
// count stabilizes.
void RefineColors(const std::vector<Fact>& facts,
                  const std::unordered_map<uint64_t, size_t>& index,
                  std::vector<uint64_t>* color) {
  const size_t n = color->size();
  size_t classes = CountDistinct(*color);
  for (size_t round = 0; round <= n; ++round) {
    std::vector<std::vector<uint64_t>> occurrences(n);
    for (const Fact& f : facts) {
      uint64_t sig = MixCanon(0x9e3779b97f4a7c15ull,
                              static_cast<uint64_t>(f.relation) + 1);
      for (const Value& v : f.tuple) {
        sig = MixCanon(sig, v.is_null()
                                ? (*color)[index.at(v.packed())] * 2 + 1
                                : v.packed() * 2);
      }
      for (size_t pos = 0; pos < f.tuple.size(); ++pos) {
        const Value& v = f.tuple[pos];
        if (!v.is_null()) continue;
        occurrences[index.at(v.packed())].push_back(MixCanon(sig, pos + 1));
      }
    }
    std::vector<uint64_t> next(n);
    for (size_t i = 0; i < n; ++i) {
      std::sort(occurrences[i].begin(), occurrences[i].end());
      uint64_t h = MixCanon((*color)[i], 0x51);
      for (uint64_t s : occurrences[i]) h = MixCanon(h, s);
      next[i] = h;
    }
    size_t next_classes = CountDistinct(next);
    *color = std::move(next);
    if (next_classes == classes) break;
    classes = next_classes;
  }
}

}  // namespace

Instance CanonicalizeNulls(const Instance& instance) {
  std::vector<Fact> facts = instance.AllFacts();
  std::unordered_map<uint64_t, size_t> index;  // packed null -> dense slot
  for (const Fact& f : facts) {
    for (const Value& v : f.tuple) {
      if (v.is_null()) index.emplace(v.packed(), index.size());
    }
  }
  const size_t n = index.size();
  std::vector<uint64_t> color(n, 0x243f6a8885a308d3ull);
  if (n > 0) {
    RefineColors(facts, index, &color);
    // Individualize residual symmetric classes: give one member of the
    // smallest ambiguous class a fresh color and re-refine. Each round
    // strictly grows the class count, so this terminates in <= n rounds.
    // The member is chosen by smallest original id; when the class really
    // is an automorphism orbit the choice cannot affect the result.
    while (CountDistinct(color) < n) {
      std::unordered_map<uint64_t, size_t> multiplicity;
      for (uint64_t c : color) ++multiplicity[c];
      uint64_t ambiguous = 0;
      bool found = false;
      for (const auto& [c, count] : multiplicity) {
        if (count > 1 && (!found || c < ambiguous)) {
          ambiguous = c;
          found = true;
        }
      }
      uint64_t chosen_key = 0;
      size_t chosen_slot = 0;
      bool first = true;
      for (const auto& [packed, slot] : index) {
        if (color[slot] != ambiguous) continue;
        if (first || packed < chosen_key) {
          chosen_key = packed;
          chosen_slot = slot;
          first = false;
        }
      }
      color[chosen_slot] = MixCanon(color[chosen_slot], 0xd1b54a32d192ed03ull);
      RefineColors(facts, index, &color);
    }
  }

  // Total order on facts from the (now all-distinct) colors; renumber
  // nulls by first occurrence in that order.
  auto value_key = [&](const Value& v) {
    return v.is_null()
               ? std::make_pair(uint64_t{1}, color[index.at(v.packed())])
               : std::make_pair(uint64_t{0}, v.packed());
  };
  std::sort(facts.begin(), facts.end(), [&](const Fact& a, const Fact& b) {
    if (a.relation != b.relation) return a.relation < b.relation;
    return std::lexicographical_compare(
        a.tuple.begin(), a.tuple.end(), b.tuple.begin(), b.tuple.end(),
        [&](const Value& x, const Value& y) {
          return value_key(x) < value_key(y);
        });
  });
  std::unordered_map<uint64_t, Value> rename;
  uint32_t next_id = 0;
  Instance out(&instance.schema());
  for (const Fact& f : facts) {
    Tuple mapped = f.tuple;
    for (Value& v : mapped) {
      if (!v.is_null()) continue;
      auto [it, inserted] = rename.emplace(v.packed(), Value::Null(next_id));
      if (inserted) ++next_id;
      v = it->second;
    }
    out.AddFact(f.relation, std::move(mapped));
  }
  return out;
}

Instance ApplyAssignment(const Instance& source,
                         const NullAssignment& assignment) {
  const Instance from = Unmerged(source);
  const RelationId relations = from.schema().relation_count();
  std::vector<uint8_t> rebuild(relations, 0);
  for (RelationId r = 0; r < relations; ++r) {
    const TupleList tuples = from.tuples(r);
    const Value* values = tuples.data();
    const size_t n = tuples.size() * static_cast<size_t>(tuples.arity());
    rebuild[r] = std::any_of(values, values + n, [&](const Value& v) {
      return assignment.Apply(v) != v;
    });
  }
  Instance image =
      from.KeepRelations([&](RelationId r) { return rebuild[r] == 0; });
  Tuple mapped;
  for (RelationId r = 0; r < relations; ++r) {
    if (!rebuild[r]) continue;
    for (TupleView tuple : from.tuples(r)) {
      mapped.assign(tuple.begin(), tuple.end());
      for (Value& v : mapped) v = assignment.Apply(v);
      image.AddFact(r, mapped.data(), mapped.size());
    }
  }
  return image;
}

}  // namespace pdx
