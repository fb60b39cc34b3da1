#include "tests/reference_matcher.h"

#include <algorithm>
#include <limits>

namespace pdx {
namespace reference {

namespace {

// Backtracking state shared across the recursion.
struct SearchContext {
  const std::vector<Atom>* atoms;
  const Instance* instance;
  const std::function<bool(const Binding&)>* fn;
  Binding binding;
  std::vector<bool> done;  // per atom: already matched on this path
  // Resolve-on-read: non-null when the instance has egd merges. Raw tuple
  // values are resolved to class roots before unification, and index
  // lookups expand over the class members' buckets. Bindings therefore
  // always hold resolved values.
  const ValueResolver* resolver = nullptr;
};

// The bound value of `atom`'s term at `pos` under the current binding, if
// any. Bound/constant values are already resolved.
bool BoundValueAt(const SearchContext& ctx, const Atom& atom, int pos,
                  Value* out) {
  const Term& t = atom.terms[pos];
  if (t.is_constant()) {
    *out = t.constant();
    return true;
  }
  if (ctx.binding.bound[t.var()]) {
    *out = ctx.binding.values[t.var()];
    return true;
  }
  return false;
}

// Estimated number of candidate tuples for `atom` under the current
// binding: the smallest index bucket over bound/constant positions, or the
// relation size if nothing is bound yet.
size_t CandidateCount(const SearchContext& ctx, const Atom& atom) {
  const Instance& inst = *ctx.instance;
  size_t best = inst.tuples(atom.relation).size();
  for (int pos = 0; pos < static_cast<int>(atom.terms.size()); ++pos) {
    Value v;
    if (!BoundValueAt(ctx, atom, pos, &v)) continue;
    size_t count;
    if (ctx.resolver == nullptr) {
      count = inst.TuplesWithValueAt(atom.relation, pos, v).size();
    } else {
      count = inst.CountTuplesWithResolvedValueAt(atom.relation, pos, v);
    }
    best = std::min(best, count);
  }
  return best;
}

// The candidate tuple list for `atom`: the smallest applicable index
// bucket, or all tuples of the relation. Returns indexes into
// instance.tuples(atom.relation); `scratch` is out-param storage used when
// no position is bound (full-scan fallback).
TupleIndexSpan Candidates(const SearchContext& ctx, const Atom& atom,
                          std::vector<int32_t>* scratch) {
  const Instance& inst = *ctx.instance;
  if (ctx.resolver == nullptr) {
    TupleIndexSpan best;
    size_t best_count = std::numeric_limits<size_t>::max();
    bool any_bound = false;
    for (int pos = 0; pos < static_cast<int>(atom.terms.size()); ++pos) {
      Value v;
      if (!BoundValueAt(ctx, atom, pos, &v)) continue;
      TupleIndexSpan bucket = inst.TuplesWithValueAt(atom.relation, pos, v);
      if (bucket.empty()) return {};
      any_bound = true;
      if (bucket.size() < best_count) {
        best = bucket;
        best_count = bucket.size();
      }
    }
    if (any_bound) return best;
  } else {
    int best_pos = -1;
    Value best_value;
    size_t best_count = std::numeric_limits<size_t>::max();
    for (int pos = 0; pos < static_cast<int>(atom.terms.size()); ++pos) {
      Value v;
      if (!BoundValueAt(ctx, atom, pos, &v)) continue;
      size_t count = inst.CountTuplesWithResolvedValueAt(atom.relation, pos, v);
      if (count == 0) return {};
      if (count < best_count) {
        best_pos = pos;
        best_value = v;
        best_count = count;
      }
    }
    if (best_pos >= 0) {
      return inst.TuplesWithResolvedValueAt(atom.relation, best_pos,
                                            best_value);
    }
  }
  size_t n = inst.tuples(atom.relation).size();
  scratch->resize(n);
  for (size_t i = 0; i < n; ++i) (*scratch)[i] = static_cast<int32_t>(i);
  return TupleIndexSpan(scratch->data(), scratch->size());
}

// Attempts to unify `atom` with `tuple` under the current binding.
// On success, appends newly bound variables to `trail` and returns true.
bool Unify(SearchContext* ctx, const Atom& atom, TupleView tuple,
           std::vector<VariableId>* trail) {
  for (int pos = 0; pos < static_cast<int>(atom.terms.size()); ++pos) {
    const Term& t = atom.terms[pos];
    Value tv = tuple[pos];
    if (ctx->resolver != nullptr) tv = ctx->resolver->Resolve(tv);
    if (t.is_constant()) {
      if (tv != t.constant()) return false;
      continue;
    }
    VariableId v = t.var();
    if (ctx->binding.bound[v]) {
      if (ctx->binding.values[v] != tv) return false;
    } else {
      ctx->binding.Bind(v, tv);
      trail->push_back(v);
    }
  }
  return true;
}

void Unbind(SearchContext* ctx, const std::vector<VariableId>& trail) {
  for (VariableId v : trail) ctx->binding.bound[v] = false;
}

// Recursive search. Returns true iff the callback stopped the enumeration.
bool Search(SearchContext* ctx, int remaining) {
  if (remaining == 0) {
    return !(*ctx->fn)(ctx->binding);
  }
  // Select the pending atom with the fewest candidates.
  int chosen = -1;
  size_t chosen_count = std::numeric_limits<size_t>::max();
  for (int i = 0; i < static_cast<int>(ctx->atoms->size()); ++i) {
    if (ctx->done[i]) continue;
    size_t count = CandidateCount(*ctx, (*ctx->atoms)[i]);
    if (count < chosen_count) {
      chosen = i;
      chosen_count = count;
    }
  }
  PDX_DCHECK(chosen >= 0);
  const Atom& atom = (*ctx->atoms)[chosen];
  ctx->done[chosen] = true;
  std::vector<int32_t> scratch;
  const TupleIndexSpan candidates = Candidates(*ctx, atom, &scratch);
  const TupleList tuples = ctx->instance->tuples(atom.relation);
  std::vector<VariableId> trail;
  for (int32_t idx : candidates) {
    trail.clear();
    if (Unify(ctx, atom, tuples[idx], &trail)) {
      if (Search(ctx, remaining - 1)) {
        Unbind(ctx, trail);
        ctx->done[chosen] = false;
        return true;
      }
    }
    Unbind(ctx, trail);
  }
  ctx->done[chosen] = false;
  return false;
}

// The instance's resolver if it has merges, else nullptr (raw fast path).
const ValueResolver* ResolverFor(const Instance& instance) {
  return instance.has_merges() ? &instance.resolver() : nullptr;
}

// Bindings always hold resolved values: resolve whatever the caller bound.
Binding ResolvePartial(const Instance& instance, const Binding& partial) {
  if (!instance.has_merges()) return partial;
  Binding resolved = partial;
  for (size_t v = 0; v < resolved.bound.size(); ++v) {
    if (resolved.bound[v]) {
      resolved.values[v] = instance.ResolveValue(resolved.values[v]);
    }
  }
  return resolved;
}

}  // namespace

bool EnumerateMatches(const std::vector<Atom>& atoms, int var_count,
                      const Instance& instance, const Binding& partial,
                      const std::function<bool(const Binding&)>& fn) {
  PDX_CHECK_EQ(static_cast<int>(partial.bound.size()), var_count);
  SearchContext ctx;
  ctx.atoms = &atoms;
  ctx.instance = &instance;
  ctx.fn = &fn;
  ctx.binding = ResolvePartial(instance, partial);
  ctx.done.assign(atoms.size(), false);
  ctx.resolver = ResolverFor(instance);
  return Search(&ctx, static_cast<int>(atoms.size()));
}

bool HasMatch(const std::vector<Atom>& atoms, int var_count,
              const Instance& instance, const Binding& partial) {
  return EnumerateMatches(atoms, var_count, instance, partial,
                          [](const Binding&) { return false; });
}

bool HasMatch(const std::vector<Atom>& atoms, int var_count,
              const Instance& instance) {
  return HasMatch(atoms, var_count, instance, Binding::Empty(var_count));
}

bool SatisfiesTgd(const Instance& instance, const Tgd& tgd) {
  return !EnumerateMatches(
      tgd.body, tgd.var_count, instance, Binding::Empty(tgd.var_count),
      [&](const Binding& body_match) {
        // Keep searching while the trigger is satisfied.
        return HasMatch(tgd.head, tgd.var_count, instance, body_match);
      });
}

bool SatisfiesEgd(const Instance& instance, const Egd& egd) {
  return !EnumerateMatches(
      egd.body, egd.var_count, instance, Binding::Empty(egd.var_count),
      [&](const Binding& body_match) {
        return body_match.values[egd.left_var] ==
               body_match.values[egd.right_var];
      });
}

bool SatisfiesDisjunctiveTgd(const Instance& instance,
                             const DisjunctiveTgd& tgd) {
  return !EnumerateMatches(
      tgd.body, tgd.var_count, instance, Binding::Empty(tgd.var_count),
      [&](const Binding& body_match) {
        for (const std::vector<Atom>& disjunct : tgd.head_disjuncts) {
          if (HasMatch(disjunct, tgd.var_count, instance, body_match)) {
            return true;  // this trigger satisfied; keep searching
          }
        }
        return false;  // violated trigger found; stop (=> not satisfied)
      });
}

bool SatisfiesAll(const Instance& instance, const DependencySet& deps) {
  for (const Tgd& tgd : deps.tgds) {
    if (!SatisfiesTgd(instance, tgd)) return false;
  }
  for (const Egd& egd : deps.egds) {
    if (!SatisfiesEgd(instance, egd)) return false;
  }
  for (const DisjunctiveTgd& tgd : deps.disjunctive_tgds) {
    if (!SatisfiesDisjunctiveTgd(instance, tgd)) return false;
  }
  return true;
}

}  // namespace reference
}  // namespace pdx
