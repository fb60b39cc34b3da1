#ifndef PDX_TESTS_CHASE_TRACE_CHECK_H_
#define PDX_TESTS_CHASE_TRACE_CHECK_H_

// The restricted-chase trace checker: the reference the chase engine is
// tested against. Instead of re-running a second engine and comparing
// results (restricted-chase results are unique only up to homomorphic
// equivalence, so such a comparison cannot see a firing whose head
// already held), it replays the engine's own firing journal and checks
// the definition of a restricted chase sequence step by step, deciding
// every "does the head hold" question with the interpreter
// (hom/matcher.h), never with the compiled plans or the match VM the
// engine runs. Header-only; linked by the tests and the benches.

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "base/status.h"
#include "base/string_util.h"
#include "chase/chase.h"
#include "chase/journal.h"
#include "hom/matcher.h"
#include "relational/instance.h"

namespace pdx {
namespace testing_util {

namespace trace_internal {

// The tuple of `atom` with each variable replaced by its value in `row`.
inline Tuple Instantiate(const Atom& atom, const Value* row) {
  Tuple tuple;
  tuple.reserve(atom.terms.size());
  for (const Term& t : atom.terms) {
    tuple.push_back(t.is_constant() ? t.constant() : row[t.var()]);
  }
  return tuple;
}

// True if every atom of `body`, instantiated under `row`, is a resolved
// fact of `instance`.
inline bool BodyPresent(const std::vector<Atom>& body, const Value* row,
                        const Instance& instance) {
  for (const Atom& atom : body) {
    if (!instance.Contains(atom.relation, Instantiate(atom, row))) {
      return false;
    }
  }
  return true;
}

// True if some match of an egd in `instance` equates two distinct
// constants.
inline bool SomeEgdClashes(const std::vector<Egd>& egds,
                           const Instance& instance) {
  for (const Egd& egd : egds) {
    const bool clash = EnumerateMatches(
        egd.body, egd.var_count, instance, Binding::Empty(egd.var_count),
        [&](const Binding& m) {
          const Value a = m.values[egd.left_var];
          const Value b = m.values[egd.right_var];
          return !(a.is_constant() && b.is_constant() && a != b);
        });
    if (clash) return true;
  }
  return false;
}

}  // namespace trace_internal

// Checks that `journal` records a restricted chase sequence of `start`
// under `tgds` and `egds` that ends in `result`. `journal` is the one
// ChaseOptions::journal pointed at, empty before the run, and `max_steps`
// that run's ChaseOptions::max_steps. The entries are replayed in apply
// order on a copy of `start`:
//   - tgd entry: its body, instantiated under the row and resolved, is
//     present; its head does NOT hold under the universal part of the row
//     (the restricted-chase condition); its existential slots hold
//     distinct nulls that occur nowhere earlier. The head facts are then
//     added, with the row's nulls.
//   - egd entry: its body is present and its two sides resolve to
//     distinct values, not both constants. The two classes are then
//     merged (Instance::MergeValues).
// After the replay, `result.steps` must equal the entry count (plus one,
// the clashing merge, on kFailed), `result.nulls_created` the nulls the
// entries minted, and the replayed resolved facts those of
// `result.instance`, null ids included. On kSuccess every dependency must
// hold; on kFailed some egd match must equate two distinct constants; on
// kBudgetExhausted the run must have taken exactly `max_steps` steps.
// Returns the first violation found, or OK.
inline Status CheckChaseTrace(const Instance& start,
                              const std::vector<Tgd>& tgds,
                              const std::vector<Egd>& egds, int64_t max_steps,
                              const ChaseResult& result,
                              const ChaseJournal& journal) {
  using trace_internal::BodyPresent;
  using trace_internal::Instantiate;
  Instance replay = start;
  std::unordered_set<uint64_t> seen_nulls;
  for (RelationId r = 0; r < start.schema().relation_count(); ++r) {
    for (TupleView tuple : start.tuples(r)) {
      for (Value v : tuple) {
        if (v.is_null()) seen_nulls.insert(v.packed());
      }
    }
  }
  int64_t nulls = 0;
  for (size_t i = 0; i < journal.size(); ++i) {
    const ChaseJournal::Entry& e = journal.entry(i);
    const Value* row = journal.row(e);
    const std::string at =
        StrCat("entry ", i, " (", e.egd ? "egd " : "tgd ", e.dep, "): ");
    if (!e.alive) return InternalError(at + "dead entry in a fresh run");
    if (e.egd) {
      if (e.dep >= egds.size()) return InternalError(at + "no such egd");
      const Egd& egd = egds[e.dep];
      if (e.len != egd.var_count) return InternalError(at + "row width");
      if (!BodyPresent(egd.body, row, replay)) {
        return InternalError(at + "body absent");
      }
      const Value a = replay.ResolveValue(row[egd.left_var]);
      const Value b = replay.ResolveValue(row[egd.right_var]);
      if (a == b) return InternalError(at + "sides already equal");
      if (replay.MergeValues(a, b).conflict) {
        return InternalError(at + "journaled merge equates two constants");
      }
      continue;
    }
    if (e.dep >= tgds.size()) return InternalError(at + "no such tgd");
    const Tgd& tgd = tgds[e.dep];
    if (e.len != tgd.var_count) return InternalError(at + "row width");
    if (!BodyPresent(tgd.body, row, replay)) {
      return InternalError(at + "body absent");
    }
    Binding universal = Binding::Empty(tgd.var_count);
    for (VariableId v = 0; v < tgd.var_count; ++v) {
      if (!tgd.existential[v]) universal.Bind(v, row[v]);
    }
    if (HasMatch(tgd.head, tgd.var_count, replay, universal)) {
      return InternalError(at + "head already holds");
    }
    for (VariableId v = 0; v < tgd.var_count; ++v) {
      if (!tgd.existential[v]) continue;
      if (!row[v].is_null() || !seen_nulls.insert(row[v].packed()).second) {
        return InternalError(at + "existential is not a fresh null");
      }
      ++nulls;
    }
    for (const Atom& atom : tgd.head) {
      replay.AddFact(atom.relation, Instantiate(atom, row));
    }
  }

  const bool failed = result.outcome == ChaseOutcome::kFailed;
  const int64_t entries = static_cast<int64_t>(journal.size());
  if (result.steps != entries + (failed ? 1 : 0)) {
    return InternalError(StrCat("steps ", result.steps, " but ", entries,
                                " journal entries", failed ? " + 1" : ""));
  }
  if (result.nulls_created != nulls) {
    return InternalError(StrCat("nulls_created ", result.nulls_created,
                                " but the entries minted ", nulls));
  }
  std::vector<Fact> want = replay.AllFacts();
  std::vector<Fact> got = result.instance.AllFacts();
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  if (want != got) {
    return InternalError(StrCat("result has ", got.size(),
                                " resolved facts, the replay ", want.size(),
                                "; the fact sets differ"));
  }
  switch (result.outcome) {
    case ChaseOutcome::kSuccess: {
      DependencySet deps;
      deps.tgds = tgds;
      deps.egds = egds;
      if (!SatisfiesAll(replay, deps)) {
        return InternalError("kSuccess but a dependency is violated");
      }
      break;
    }
    case ChaseOutcome::kFailed:
      if (!trace_internal::SomeEgdClashes(egds, replay)) {
        return InternalError("kFailed but no egd match equates constants");
      }
      break;
    case ChaseOutcome::kBudgetExhausted:
      if (result.steps != max_steps) {
        return InternalError(StrCat("kBudgetExhausted after ", result.steps,
                                    " steps, budget ", max_steps));
      }
      break;
  }
  return OkStatus();
}

}  // namespace testing_util
}  // namespace pdx

#endif  // PDX_TESTS_CHASE_TRACE_CHECK_H_
