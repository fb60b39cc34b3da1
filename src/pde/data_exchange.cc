#include "pde/data_exchange.h"

#include "chase/chase.h"

namespace pdx {

StatusOr<DataExchangeResult> SolveDataExchange(
    const PdeSetting& setting, const Instance& source, const Instance& target,
    SymbolTable* symbols, const ChaseOptions& chase_options) {
  PDX_CHECK(symbols != nullptr);
  if (!setting.IsDataExchange()) {
    return FailedPreconditionError(
        "SolveDataExchange requires Σ_ts = ∅; use the PDE solvers instead");
  }
  PDX_RETURN_IF_ERROR(setting.ValidateSourceInstance(source));
  PDX_RETURN_IF_ERROR(setting.ValidateTargetInstance(target));

  std::vector<Tgd> tgds = setting.st_tgds();
  tgds.insert(tgds.end(), setting.target_tgds().begin(),
              setting.target_tgds().end());
  Instance combined = setting.CombineInstances(source, target);
  // This chase executes through the dependency compiler; the combined
  // Σ_st ∪ Σ_t plan set is cached by structural fingerprint, so repeated
  // exchanges over one setting compile it once.
  ChaseResult chase =
      Chase(combined, tgds, setting.target_egds(), symbols, chase_options);

  DataExchangeResult result;
  result.chase_steps = chase.steps;
  result.nulls_created = chase.nulls_created;
  switch (chase.outcome) {
    case ChaseOutcome::kFailed:
      result.has_solution = false;
      return result;
    case ChaseOutcome::kBudgetExhausted:
      return ResourceExhaustedError(
          "data exchange chase exceeded its step budget (is Σ_t weakly "
          "acyclic?)");
    case ChaseOutcome::kSuccess:
      result.has_solution = true;
      result.universal_solution = setting.TargetPart(chase.instance);
      return result;
  }
  return InternalError("unreachable chase outcome");
}

StatusOr<std::vector<Tuple>> DataExchangeCertainAnswers(
    const PdeSetting& setting, const Instance& source, const Instance& target,
    const UnionQuery& query, SymbolTable* symbols) {
  PDX_ASSIGN_OR_RETURN(DataExchangeResult result,
                       SolveDataExchange(setting, source, target, symbols));
  if (!result.has_solution) {
    return FailedPreconditionError(
        "no solution exists: certain answers are vacuous");
  }
  return EvaluateUnionQueryNullFree(query, *result.universal_solution);
}

}  // namespace pdx
