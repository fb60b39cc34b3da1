#include "logic/implication.h"

#include <unordered_map>

#include "chase/chase.h"
#include "hom/match_vm.h"
#include "logic/dependency_graph.h"
#include "plan/compiler.h"

namespace pdx {

namespace {

// Freezes a conjunction: each variable becomes one fresh labeled null,
// constants stay. Returns the canonical instance and the per-variable
// frozen values.
Instance Freeze(const std::vector<Atom>& atoms, int var_count,
                const Schema& schema, SymbolTable* symbols,
                std::vector<Value>* frozen) {
  frozen->assign(var_count, Value());
  std::vector<bool> assigned(var_count, false);
  Instance canonical(&schema);
  for (const Atom& atom : atoms) {
    Tuple tuple;
    tuple.reserve(atom.terms.size());
    for (const Term& t : atom.terms) {
      if (t.is_constant()) {
        tuple.push_back(t.constant());
        continue;
      }
      if (!assigned[t.var()]) {
        (*frozen)[t.var()] = symbols->FreshNull();
        assigned[t.var()] = true;
      }
      tuple.push_back((*frozen)[t.var()]);
    }
    canonical.AddFact(atom.relation, std::move(tuple));
  }
  return canonical;
}

}  // namespace

StatusOr<bool> IsContainedIn(const ConjunctiveQuery& q1,
                             const ConjunctiveQuery& q2,
                             const Schema& schema) {
  PDX_RETURN_IF_ERROR(ValidateQuery(q1, schema));
  PDX_RETURN_IF_ERROR(ValidateQuery(q2, schema));
  if (q1.head_arity() != q2.head_arity()) {
    return InvalidArgumentError(
        "containment requires queries of the same head arity");
  }
  // Chandra-Merlin: q1 ⊆ q2 iff there is a homomorphism from q2's body
  // into the frozen body of q1 mapping q2's head onto q1's frozen head.
  SymbolTable scratch_symbols;
  std::vector<Value> frozen;
  Instance canonical =
      Freeze(q1.body, q1.var_count, schema, &scratch_symbols, &frozen);
  Binding pinned = Binding::Empty(q2.var_count);
  for (int i = 0; i < q2.head_arity(); ++i) {
    VariableId v2 = q2.head_vars[i];
    Value target = frozen[q1.head_vars[i]];
    if (pinned.bound[v2]) {
      if (pinned.values[v2] != target) return false;
    } else {
      pinned.Bind(v2, target);
    }
  }
  // Compiled per call, like query evaluation: the queries are request text.
  return HasMatchPlanned(
      plan::CompileBody(q2.body, q2.var_count, pinned.bound), canonical,
      pinned);
}

namespace {

StatusOr<Instance> ChaseFrozenBody(const DependencySet& sigma,
                                   const std::vector<Atom>& body,
                                   int var_count, const Schema& schema,
                                   SymbolTable* symbols,
                                   std::vector<Value>* frozen,
                                   bool* chase_failed) {
  if (!IsWeaklyAcyclic(sigma.tgds, schema)) {
    return FailedPreconditionError(
        "implication via the chase requires a weakly acyclic tgd set");
  }
  if (!sigma.disjunctive_tgds.empty()) {
    return FailedPreconditionError(
        "implication is not supported for disjunctive tgds");
  }
  Instance canonical = Freeze(body, var_count, schema, symbols, frozen);
  ChaseResult result = Chase(canonical, sigma.tgds, sigma.egds, symbols);
  if (result.outcome == ChaseOutcome::kBudgetExhausted) {
    return ResourceExhaustedError("implication chase exceeded its budget");
  }
  *chase_failed = result.outcome == ChaseOutcome::kFailed;
  if (!*chase_failed) {
    // Egd steps may have merged frozen nulls; resolve each frozen variable
    // through the chased instance's value layer to its final value.
    for (Value& v : *frozen) v = result.instance.ResolveValue(v);
  }
  return std::move(result.instance);
}

}  // namespace

StatusOr<bool> ImpliesTgd(const DependencySet& sigma, const Tgd& candidate,
                          const Schema& schema, SymbolTable* symbols) {
  PDX_CHECK(symbols != nullptr);
  PDX_RETURN_IF_ERROR(ValidateTgd(candidate, schema));
  std::vector<Value> frozen;
  bool chase_failed = false;
  PDX_ASSIGN_OR_RETURN(
      Instance chased,
      ChaseFrozenBody(sigma, candidate.body, candidate.var_count, schema,
                      symbols, &frozen, &chase_failed));
  if (chase_failed) return true;  // body unsatisfiable under Σ
  Binding binding = Binding::Empty(candidate.var_count);
  std::vector<bool> in_body =
      VariablesIn(candidate.body, candidate.var_count);
  for (VariableId v = 0; v < candidate.var_count; ++v) {
    if (in_body[v]) binding.Bind(v, frozen[v]);
  }
  return HasMatchPlanned(
      plan::CompileBody(candidate.head, candidate.var_count, binding.bound),
      chased, binding);
}

StatusOr<bool> ImpliesEgd(const DependencySet& sigma, const Egd& candidate,
                          const Schema& schema, SymbolTable* symbols) {
  PDX_CHECK(symbols != nullptr);
  PDX_RETURN_IF_ERROR(ValidateEgd(candidate, schema));
  std::vector<Value> frozen;
  bool chase_failed = false;
  PDX_ASSIGN_OR_RETURN(
      Instance chased,
      ChaseFrozenBody(sigma, candidate.body, candidate.var_count, schema,
                      symbols, &frozen, &chase_failed));
  if (chase_failed) return true;
  return frozen[candidate.left_var] == frozen[candidate.right_var];
}

}  // namespace pdx
