#ifndef PDX_LOGIC_DEPENDENCY_H_
#define PDX_LOGIC_DEPENDENCY_H_

#include <string>
#include <vector>

#include "base/status.h"
#include "logic/atom.h"
#include "relational/schema.h"

namespace pdx {

// A tuple-generating dependency
//     forall x ( phi(x) -> exists y  psi(x, y) )
// phi = `body`, psi = `head`. Variables 0..var_count-1; `existential[v]`
// is true iff v is one of the existentially quantified y. Whether a tgd is
// source-to-target, target-to-source, or target-to-target is a property of
// the PdeSetting that owns it, not of the tgd itself.
struct Tgd {
  std::vector<Atom> body;
  std::vector<Atom> head;
  int var_count = 0;
  std::vector<bool> existential;       // size var_count
  std::vector<std::string> var_names;  // size var_count, for printing

  // A *full* tgd has no existentially quantified variables (Section 4).
  bool IsFull() const;

  // A LAV (local-as-view) tgd has exactly one body atom with no repeated
  // variables and no constants (Section 1 / Corollary 2).
  bool IsLav() const;

  // A GAV (global-as-view) tgd is full with a single head atom.
  bool IsGav() const;

  std::string ToString(const Schema& schema, const SymbolTable& symbols) const;
};

// An equality-generating dependency
//     forall x ( phi(x) -> z1 = z2 )
// with z1, z2 among the variables of phi.
struct Egd {
  std::vector<Atom> body;
  VariableId left_var = 0;
  VariableId right_var = 0;
  int var_count = 0;
  std::vector<std::string> var_names;

  std::string ToString(const Schema& schema, const SymbolTable& symbols) const;
};

// A tgd whose right-hand side is a disjunction of conjunctions:
//     forall x ( phi(x) -> exists y ( psi_1(x,y) | ... | psi_k(x,y) ) )
// Section 4 uses such a dependency (the 3-COLORABILITY setting) to show
// that allowing disjunction crosses the tractability boundary; this is an
// extension type understood by the generic machinery (satisfaction checks,
// generic solver) but excluded from C_tract and the chase by construction.
struct DisjunctiveTgd {
  std::vector<Atom> body;
  std::vector<std::vector<Atom>> head_disjuncts;
  int var_count = 0;
  std::vector<bool> existential;
  std::vector<std::string> var_names;

  std::string ToString(const Schema& schema, const SymbolTable& symbols) const;
};

// One tgd per head disjunct of `tgd`, in disjunct order, each with `tgd`'s
// body, variables and existential mask: a body match of `tgd` is
// satisfied iff it extends to a head match of one of them. The compiled
// Satisfies* check and the generic solver's Σ_ts checks run disjunctive
// tgds in this form. `tgd` must have at least one disjunct.
std::vector<Tgd> SplitDisjuncts(const DisjunctiveTgd& tgd);

// A parsed set of dependencies of all kinds.
struct DependencySet {
  std::vector<Tgd> tgds;
  std::vector<Egd> egds;
  std::vector<DisjunctiveTgd> disjunctive_tgds;

  bool empty() const {
    return tgds.empty() && egds.empty() && disjunctive_tgds.empty();
  }
  size_t size() const {
    return tgds.size() + egds.size() + disjunctive_tgds.size();
  }
};

// Structural validation shared by the parser and programmatic construction:
// arities match the schema, every variable id is in range, every head /
// equated variable that is not existential occurs in the body, and
// existential variables do not occur in the body.
Status ValidateTgd(const Tgd& tgd, const Schema& schema);
Status ValidateEgd(const Egd& egd, const Schema& schema);
Status ValidateDisjunctiveTgd(const DisjunctiveTgd& tgd, const Schema& schema);

// True if every atom of `atoms` uses only relations for which
// `allowed[relation]` is true. Used by PdeSetting to check sidedness
// (source-to-target bodies over S, heads over T, etc.).
bool AtomsWithin(const std::vector<Atom>& atoms,
                 const std::vector<bool>& allowed);

}  // namespace pdx

#endif  // PDX_LOGIC_DEPENDENCY_H_
