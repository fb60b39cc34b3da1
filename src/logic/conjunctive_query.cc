#include "logic/conjunctive_query.h"

#include <algorithm>
#include <set>

#include "base/string_util.h"
#include "hom/match_vm.h"
#include "plan/compiler.h"

namespace pdx {

std::string ConjunctiveQuery::ToString(const Schema& schema,
                                       const SymbolTable& symbols) const {
  std::vector<std::string> head_names;
  head_names.reserve(head_vars.size());
  for (VariableId v : head_vars) head_names.push_back(var_names[v]);
  return StrCat("q(", StrJoin(head_names, ","), ") :- ",
                ConjunctionToString(body, schema, symbols, var_names));
}

std::string UnionQuery::ToString(const Schema& schema,
                                 const SymbolTable& symbols) const {
  std::vector<std::string> parts;
  parts.reserve(disjuncts.size());
  for (const ConjunctiveQuery& q : disjuncts) {
    parts.push_back(q.ToString(schema, symbols));
  }
  return StrJoin(parts, "  |  ");
}

Status ValidateQuery(const ConjunctiveQuery& query, const Schema& schema) {
  if (query.body.empty()) {
    return InvalidArgumentError("query must have a non-empty body");
  }
  for (const Atom& atom : query.body) {
    if (atom.relation < 0 || atom.relation >= schema.relation_count()) {
      return InvalidArgumentError("bad relation id in query body");
    }
    if (static_cast<int>(atom.terms.size()) != schema.arity(atom.relation)) {
      return InvalidArgumentError(
          StrCat("arity mismatch for ", schema.relation_name(atom.relation),
                 " in query body"));
    }
    for (const Term& t : atom.terms) {
      if (t.is_variable() && (t.var() < 0 || t.var() >= query.var_count)) {
        return InvalidArgumentError("variable id out of range in query");
      }
    }
  }
  std::vector<bool> in_body = VariablesIn(query.body, query.var_count);
  for (VariableId v : query.head_vars) {
    if (v < 0 || v >= query.var_count || !in_body[v]) {
      return InvalidArgumentError(
          "query head variable does not occur in the body");
    }
  }
  return OkStatus();
}

Status ValidateUnionQuery(const UnionQuery& query, const Schema& schema) {
  if (query.disjuncts.empty()) {
    return InvalidArgumentError("union query must have at least one disjunct");
  }
  int arity = query.disjuncts[0].head_arity();
  for (const ConjunctiveQuery& q : query.disjuncts) {
    if (q.head_arity() != arity) {
      return InvalidArgumentError(
          "union query disjuncts must share one head arity");
    }
    PDX_RETURN_IF_ERROR(ValidateQuery(q, schema));
  }
  return OkStatus();
}

namespace {

// Queries compile per call (plan::CompileBody), never through the
// process-wide PlanCache: query text comes from clients, and a cache keyed
// on it would grow without bound.
void CollectAnswers(const ConjunctiveQuery& query, const Instance& instance,
                    std::set<Tuple>* answers) {
  EnumerateMatchesPlanned(plan::CompileBody(query.body, query.var_count, {}),
                          instance, Binding::Empty(query.var_count),
                          [&](const Binding& binding) {
                            Tuple answer;
                            answer.reserve(query.head_vars.size());
                            for (VariableId v : query.head_vars) {
                              answer.push_back(binding.values[v]);
                            }
                            answers->insert(std::move(answer));
                            return true;  // keep enumerating
                          });
}

std::vector<Tuple> ToVector(const std::set<Tuple>& answers) {
  return std::vector<Tuple>(answers.begin(), answers.end());
}

bool HasNull(const Tuple& t) {
  return std::any_of(t.begin(), t.end(),
                     [](const Value& v) { return v.is_null(); });
}

}  // namespace

std::vector<Tuple> EvaluateQuery(const ConjunctiveQuery& query,
                                 const Instance& instance) {
  std::set<Tuple> answers;
  CollectAnswers(query, instance, &answers);
  return ToVector(answers);
}

std::vector<Tuple> EvaluateUnionQuery(const UnionQuery& query,
                                      const Instance& instance) {
  std::set<Tuple> answers;
  for (const ConjunctiveQuery& q : query.disjuncts) {
    CollectAnswers(q, instance, &answers);
  }
  return ToVector(answers);
}

std::vector<Tuple> EvaluateQueryNullFree(const ConjunctiveQuery& query,
                                         const Instance& instance) {
  std::vector<Tuple> all = EvaluateQuery(query, instance);
  std::vector<Tuple> kept;
  for (Tuple& t : all) {
    if (!HasNull(t)) kept.push_back(std::move(t));
  }
  return kept;
}

std::vector<Tuple> EvaluateUnionQueryNullFree(const UnionQuery& query,
                                              const Instance& instance) {
  std::vector<Tuple> all = EvaluateUnionQuery(query, instance);
  std::vector<Tuple> kept;
  for (Tuple& t : all) {
    if (!HasNull(t)) kept.push_back(std::move(t));
  }
  return kept;
}

bool EvaluateBoolean(const UnionQuery& query, const Instance& instance) {
  for (const ConjunctiveQuery& q : query.disjuncts) {
    if (HasMatchPlanned(plan::CompileBody(q.body, q.var_count, {}), instance,
                        Binding::Empty(q.var_count))) {
      return true;
    }
  }
  return false;
}

}  // namespace pdx
