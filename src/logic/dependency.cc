#include "logic/dependency.h"

#include <unordered_set>

#include "base/logging.h"
#include "base/string_util.h"

namespace pdx {

namespace {

// Renders "exists y1,y2: " if any variable is existential.
std::string ExistsPrefix(const std::vector<bool>& existential,
                         const std::vector<std::string>& var_names) {
  std::vector<std::string> names;
  for (size_t v = 0; v < existential.size(); ++v) {
    if (existential[v]) names.push_back(var_names[v]);
  }
  if (names.empty()) return "";
  return StrCat("exists ", StrJoin(names, ","), ": ");
}

Status ValidateAtoms(const std::vector<Atom>& atoms, const Schema& schema,
                     int var_count, const char* where) {
  for (const Atom& atom : atoms) {
    if (atom.relation < 0 || atom.relation >= schema.relation_count()) {
      return InvalidArgumentError(StrCat("bad relation id in ", where));
    }
    if (static_cast<int>(atom.terms.size()) != schema.arity(atom.relation)) {
      return InvalidArgumentError(
          StrCat("arity mismatch for ", schema.relation_name(atom.relation),
                 " in ", where));
    }
    for (const Term& t : atom.terms) {
      if (t.is_variable() && (t.var() < 0 || t.var() >= var_count)) {
        return InvalidArgumentError(
            StrCat("variable id out of range in ", where));
      }
    }
  }
  return OkStatus();
}

}  // namespace

bool Tgd::IsFull() const {
  for (bool e : existential) {
    if (e) return false;
  }
  return true;
}

bool Tgd::IsLav() const {
  if (body.size() != 1) return false;
  std::unordered_set<VariableId> seen;
  for (const Term& t : body[0].terms) {
    if (t.is_constant()) return false;
    if (!seen.insert(t.var()).second) return false;
  }
  return true;
}

bool Tgd::IsGav() const { return IsFull() && head.size() == 1; }

std::string Tgd::ToString(const Schema& schema,
                          const SymbolTable& symbols) const {
  return StrCat(ConjunctionToString(body, schema, symbols, var_names), " -> ",
                ExistsPrefix(existential, var_names),
                ConjunctionToString(head, schema, symbols, var_names));
}

std::string Egd::ToString(const Schema& schema,
                          const SymbolTable& symbols) const {
  return StrCat(ConjunctionToString(body, schema, symbols, var_names), " -> ",
                var_names[left_var], " = ", var_names[right_var]);
}

std::string DisjunctiveTgd::ToString(const Schema& schema,
                                     const SymbolTable& symbols) const {
  std::vector<std::string> options;
  options.reserve(head_disjuncts.size());
  for (const std::vector<Atom>& d : head_disjuncts) {
    options.push_back(
        StrCat("(", ConjunctionToString(d, schema, symbols, var_names), ")"));
  }
  return StrCat(ConjunctionToString(body, schema, symbols, var_names), " -> ",
                ExistsPrefix(existential, var_names),
                StrJoin(options, " | "));
}

std::vector<Tgd> SplitDisjuncts(const DisjunctiveTgd& tgd) {
  PDX_CHECK(!tgd.head_disjuncts.empty());
  std::vector<Tgd> split;
  split.reserve(tgd.head_disjuncts.size());
  for (const std::vector<Atom>& disjunct : tgd.head_disjuncts) {
    split.push_back(
        {tgd.body, disjunct, tgd.var_count, tgd.existential, tgd.var_names});
  }
  return split;
}

Status ValidateTgd(const Tgd& tgd, const Schema& schema) {
  if (tgd.body.empty() || tgd.head.empty()) {
    return InvalidArgumentError("tgd must have non-empty body and head");
  }
  if (static_cast<int>(tgd.existential.size()) != tgd.var_count) {
    return InvalidArgumentError("tgd existential vector size mismatch");
  }
  PDX_RETURN_IF_ERROR(ValidateAtoms(tgd.body, schema, tgd.var_count, "body"));
  PDX_RETURN_IF_ERROR(ValidateAtoms(tgd.head, schema, tgd.var_count, "head"));
  std::vector<bool> in_body = VariablesIn(tgd.body, tgd.var_count);
  std::vector<bool> in_head = VariablesIn(tgd.head, tgd.var_count);
  for (VariableId v = 0; v < tgd.var_count; ++v) {
    if (tgd.existential[v] && in_body[v]) {
      return InvalidArgumentError(
          StrCat("existential variable ", tgd.var_names[v],
                 " occurs in the tgd body"));
    }
    if (!tgd.existential[v] && in_head[v] && !in_body[v]) {
      return InvalidArgumentError(
          StrCat("head variable ", tgd.var_names[v],
                 " is neither existential nor bound by the body"));
    }
  }
  return OkStatus();
}

Status ValidateEgd(const Egd& egd, const Schema& schema) {
  if (egd.body.empty()) {
    return InvalidArgumentError("egd must have a non-empty body");
  }
  PDX_RETURN_IF_ERROR(ValidateAtoms(egd.body, schema, egd.var_count, "body"));
  std::vector<bool> in_body = VariablesIn(egd.body, egd.var_count);
  for (VariableId v : {egd.left_var, egd.right_var}) {
    if (v < 0 || v >= egd.var_count || !in_body[v]) {
      return InvalidArgumentError(
          "egd equates a variable that does not occur in its body");
    }
  }
  return OkStatus();
}

Status ValidateDisjunctiveTgd(const DisjunctiveTgd& tgd,
                              const Schema& schema) {
  if (tgd.body.empty() || tgd.head_disjuncts.empty()) {
    return InvalidArgumentError(
        "disjunctive tgd must have a body and at least one disjunct");
  }
  if (static_cast<int>(tgd.existential.size()) != tgd.var_count) {
    return InvalidArgumentError("existential vector size mismatch");
  }
  PDX_RETURN_IF_ERROR(ValidateAtoms(tgd.body, schema, tgd.var_count, "body"));
  std::vector<bool> in_body = VariablesIn(tgd.body, tgd.var_count);
  for (const std::vector<Atom>& disjunct : tgd.head_disjuncts) {
    if (disjunct.empty()) {
      return InvalidArgumentError("empty disjunct in disjunctive tgd");
    }
    PDX_RETURN_IF_ERROR(
        ValidateAtoms(disjunct, schema, tgd.var_count, "head disjunct"));
    std::vector<bool> in_head = VariablesIn(disjunct, tgd.var_count);
    for (VariableId v = 0; v < tgd.var_count; ++v) {
      if (in_head[v] && !tgd.existential[v] && !in_body[v]) {
        return InvalidArgumentError(
            StrCat("head variable ", tgd.var_names[v],
                   " is neither existential nor bound by the body"));
      }
      if (tgd.existential[v] && in_body[v]) {
        return InvalidArgumentError(
            StrCat("existential variable ", tgd.var_names[v],
                   " occurs in the body"));
      }
    }
  }
  return OkStatus();
}

bool AtomsWithin(const std::vector<Atom>& atoms,
                 const std::vector<bool>& allowed) {
  for (const Atom& atom : atoms) {
    if (atom.relation < 0 ||
        atom.relation >= static_cast<RelationId>(allowed.size()) ||
        !allowed[atom.relation]) {
      return false;
    }
  }
  return true;
}

}  // namespace pdx
