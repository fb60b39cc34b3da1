#ifndef PDX_PDE_SETTING_H_
#define PDX_PDE_SETTING_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "logic/dependency.h"
#include "logic/marking.h"
#include "relational/instance.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace pdx {

// A peer data exchange setting P = (S, T, Σ_st, Σ_ts, Σ_t) (Definition 1).
//
// Internally both schemas are merged into one combined schema over (S, T);
// instances are always over the combined schema, with "source instances"
// populating only source relations and "target instances" only target
// relations. That keeps the chase, matcher and homomorphism machinery
// uniform across sides.
//
// Lifetime: instances created against `schema()` hold a pointer into this
// setting; the setting must outlive them. The setting is movable (the
// schema lives behind a stable unique_ptr).
class PdeSetting {
 public:
  // Builds and validates a setting. `sigma_st`, `sigma_ts` and `sigma_t`
  // are programs in the dependency language of logic/parser.h. Validation
  // enforces the paper's sidedness requirements:
  //   * Σ_st: tgds with bodies over S and heads over T;
  //   * Σ_ts: tgds (or, as an extension, disjunctive tgds) with bodies
  //     over T and heads over S;
  //   * Σ_t: tgds and egds entirely over T.
  // Constants in dependencies are interned into `symbols`, which all
  // instances for this setting must share.
  static StatusOr<PdeSetting> Create(
      const std::vector<RelationSchema>& source_relations,
      const std::vector<RelationSchema>& target_relations,
      std::string_view sigma_st, std::string_view sigma_ts,
      std::string_view sigma_t, SymbolTable* symbols);

  PdeSetting(PdeSetting&&) = default;
  PdeSetting& operator=(PdeSetting&&) = default;
  PdeSetting(const PdeSetting&) = delete;
  PdeSetting& operator=(const PdeSetting&) = delete;

  // The combined schema (S, T).
  const Schema& schema() const { return *schema_; }

  bool is_source(RelationId r) const { return is_source_[r]; }
  bool is_target(RelationId r) const { return !is_source_[r]; }
  int source_relation_count() const { return source_count_; }
  int target_relation_count() const {
    return schema_->relation_count() - source_count_;
  }

  const std::vector<Tgd>& st_tgds() const { return st_tgds_; }
  const std::vector<Tgd>& ts_tgds() const { return ts_tgds_; }
  const std::vector<DisjunctiveTgd>& ts_disjunctive_tgds() const {
    return ts_disjunctive_tgds_;
  }
  const std::vector<Tgd>& target_tgds() const { return target_tgds_; }
  const std::vector<Egd>& target_egds() const { return target_egds_; }

  bool HasTargetConstraints() const {
    return !target_tgds_.empty() || !target_egds_.empty();
  }
  bool HasDisjunctiveTsTgds() const { return !ts_disjunctive_tgds_.empty(); }

  // A data exchange setting is the special case Σ_ts = ∅ (Section 2).
  bool IsDataExchange() const {
    return ts_tgds_.empty() && ts_disjunctive_tgds_.empty();
  }

  // Definition 9 classification of (Σ_st, Σ_ts). Membership in C_tract
  // additionally requires Σ_t = ∅ and no disjunctive ts-tgds; InCtract()
  // checks all of it.
  const CtractReport& ctract_report() const { return ctract_report_; }
  bool InCtract() const {
    return !HasTargetConstraints() && !HasDisjunctiveTsTgds() &&
           ctract_report_.in_ctract();
  }

  // Whether Σ_t's tgds form a weakly acyclic set (the Theorem 1/2 upper
  // bound hypothesis).
  bool TargetTgdsWeaklyAcyclic() const { return target_weakly_acyclic_; }

  // An empty instance over the combined schema.
  Instance EmptyInstance() const { return Instance(schema_.get()); }

  // Checks that `instance` populates only source relations and contains no
  // labeled nulls (source instances are ground).
  Status ValidateSourceInstance(const Instance& instance) const;

  // Checks that `instance` populates only target relations.
  Status ValidateTargetInstance(const Instance& instance) const;

  // The union (I, J) of a source-only and a target-only instance.
  Instance CombineInstances(const Instance& source,
                            const Instance& target) const;

  // Projections of a combined instance onto one side: O(#relations),
  // sharing the kept relations' copy-on-write stores (a resolved copy
  // when `combined` carries egd merges; see Instance::KeepRelations).
  Instance SourcePart(const Instance& combined) const;
  Instance TargetPart(const Instance& combined) const;

  std::string ToString(const SymbolTable& symbols) const;

 private:
  PdeSetting() = default;

  std::unique_ptr<Schema> schema_;
  std::vector<bool> is_source_;
  int source_count_ = 0;
  std::vector<Tgd> st_tgds_;
  std::vector<Tgd> ts_tgds_;
  std::vector<DisjunctiveTgd> ts_disjunctive_tgds_;
  std::vector<Tgd> target_tgds_;
  std::vector<Egd> target_egds_;
  CtractReport ctract_report_;
  bool target_weakly_acyclic_ = true;
};

}  // namespace pdx

#endif  // PDX_PDE_SETTING_H_
