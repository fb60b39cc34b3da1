#ifndef PDX_PDE_DATA_EXCHANGE_H_
#define PDX_PDE_DATA_EXCHANGE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "base/status.h"
#include "chase/chase.h"
#include "logic/conjunctive_query.h"
#include "pde/setting.h"
#include "relational/instance.h"
#include "relational/tuple.h"
#include "relational/value.h"

namespace pdx {

// The classical data exchange baseline of [8] ("Data exchange: semantics
// and query answering"): the special case Σ_ts = ∅ of peer data exchange.
// Solution existence and certain answers are polynomial-time here, which
// is the contrast the paper draws with full PDE (Theorem 3).
struct DataExchangeResult {
  bool has_solution = false;
  // The canonical universal solution produced by the chase (present iff
  // has_solution): it homomorphically maps into every solution (Lemma 3),
  // so null-free query answers on it are exactly the certain answers of
  // unions of conjunctive queries.
  std::optional<Instance> universal_solution;
  int64_t chase_steps = 0;
  int64_t nulls_created = 0;
};

// Runs the data exchange chase of (I, J) with Σ_st ∪ Σ_t. Requires
// setting.IsDataExchange(); Σ_t's tgds should be weakly acyclic for the
// polynomial guarantee (a chase budget guards the general case).
// has_solution == false means the chase failed on a target egd.
// `chase_options` sets the chase's thread count and step budget.
StatusOr<DataExchangeResult> SolveDataExchange(
    const PdeSetting& setting, const Instance& source, const Instance& target,
    SymbolTable* symbols, const ChaseOptions& chase_options = ChaseOptions());

// PTIME certain answers for a union of conjunctive queries over the target
// schema, via the universal solution: evaluate naively, keep null-free
// answers. When no solution exists every Boolean query is vacuously
// certain; this returns kFailedPrecondition in that case so callers
// distinguish the vacuous situation explicitly.
StatusOr<std::vector<Tuple>> DataExchangeCertainAnswers(
    const PdeSetting& setting, const Instance& source, const Instance& target,
    const UnionQuery& query, SymbolTable* symbols);

}  // namespace pdx

#endif  // PDX_PDE_DATA_EXCHANGE_H_
