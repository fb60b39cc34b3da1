#ifndef PDX_LOGIC_DATALOG_H_
#define PDX_LOGIC_DATALOG_H_

#include <string_view>
#include <vector>

#include "base/status.h"
#include "logic/atom.h"
#include "logic/dependency.h"
#include "relational/instance.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace pdx {

// A positive Datalog rule: head :- body, with a single head atom and every
// head variable bound in the body (range-restricted; no existentials, no
// negation). This is exactly the shape of the *definitional mappings* of
// peer data management systems ([14], Section 2 of the paper), which PDE
// settings deliberately do not use — the engine here lets the PDMS module
// model full PDMS peers and demonstrate the containment.
struct DatalogRule {
  Atom head;
  std::vector<Atom> body;
  int var_count = 0;
  std::vector<std::string> var_names;

  std::string ToString(const Schema& schema, const SymbolTable& symbols) const;
};

// A positive Datalog program over a schema.
struct DatalogProgram {
  std::vector<DatalogRule> rules;

  // Relations that appear in some rule head (the "intensional" ones).
  std::vector<bool> IntensionalRelations(const Schema& schema) const;

  // The rules as full tgds "body -> head", in rule order.
  std::vector<Tgd> AsTgds() const;

  std::string ToString(const Schema& schema, const SymbolTable& symbols) const;
};

// Parses a program of rules in the dependency syntax restricted to
// Datalog: "H(x,y) :- E(x,z), E(z,y)." (also accepts "->" written
// backwards as in tgds: "E(x,z) & E(z,y) -> H(x,y).").
StatusOr<DatalogProgram> ParseDatalogProgram(std::string_view text,
                                             const Schema& schema,
                                             SymbolTable* symbols);

// Statistics of one evaluation.
struct DatalogStats {
  int64_t derived_facts = 0;  // facts added beyond the input
};

// Computes the least fixpoint of `program` over `input` as the chase of
// `input` with the rules as full tgds (AsTgds): the delta-driven
// restricted chase (chase/chase.h) is semi-naive bottom-up evaluation,
// run sequentially on the rules' compiled plans. A full tgd mints no null
// and every step adds one fact, so the chase terminates and each step is
// one derived fact. Returns the (input ∪ derived) instance.
Instance EvaluateDatalog(const DatalogProgram& program, const Instance& input,
                         DatalogStats* stats = nullptr);

// True if `instance` is already a fixpoint of `program` — the consistency
// condition for definitional peer mappings in a PDMS ([14]): it satisfies
// every rule as a tgd (SatisfiesAll), with no fixpoint computed.
bool IsClosedUnder(const DatalogProgram& program, const Instance& instance);

}  // namespace pdx

#endif  // PDX_LOGIC_DATALOG_H_
