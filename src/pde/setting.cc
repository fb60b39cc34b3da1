#include "pde/setting.h"

#include "base/string_util.h"
#include "logic/dependency_graph.h"
#include "logic/parser.h"

namespace pdx {

namespace {

Status CheckSided(const std::vector<Atom>& atoms,
                  const std::vector<bool>& allowed, const Schema& schema,
                  const char* what, const char* side) {
  if (!AtomsWithin(atoms, allowed)) {
    for (const Atom& atom : atoms) {
      if (!allowed[atom.relation]) {
        return InvalidArgumentError(
            StrCat(what, " mentions relation ",
                   schema.relation_name(atom.relation),
                   " which is not a ", side, " relation"));
      }
    }
  }
  return OkStatus();
}

}  // namespace

StatusOr<PdeSetting> PdeSetting::Create(
    const std::vector<RelationSchema>& source_relations,
    const std::vector<RelationSchema>& target_relations,
    std::string_view sigma_st, std::string_view sigma_ts,
    std::string_view sigma_t, SymbolTable* symbols) {
  PDX_CHECK(symbols != nullptr);
  PdeSetting setting;
  setting.schema_ = std::make_unique<Schema>();
  for (const RelationSchema& r : source_relations) {
    PDX_ASSIGN_OR_RETURN(RelationId id,
                         setting.schema_->AddRelation(r.name, r.arity));
    (void)id;
  }
  setting.source_count_ = setting.schema_->relation_count();
  for (const RelationSchema& r : target_relations) {
    PDX_ASSIGN_OR_RETURN(RelationId id,
                         setting.schema_->AddRelation(r.name, r.arity));
    (void)id;
  }
  const Schema& schema = *setting.schema_;
  setting.is_source_.assign(schema.relation_count(), false);
  for (RelationId r = 0; r < setting.source_count_; ++r) {
    setting.is_source_[r] = true;
  }
  std::vector<bool> source_allowed = setting.is_source_;
  std::vector<bool> target_allowed(schema.relation_count(), false);
  for (RelationId r = setting.source_count_; r < schema.relation_count();
       ++r) {
    target_allowed[r] = true;
  }

  // Σ_st: tgds from S to T, no egds, no disjunction.
  {
    PDX_ASSIGN_OR_RETURN(DependencySet deps,
                         ParseDependencies(sigma_st, schema, symbols));
    if (!deps.egds.empty() || !deps.disjunctive_tgds.empty()) {
      return InvalidArgumentError(
          "Σ_st must consist of plain tgds (no egds, no disjunction)");
    }
    for (const Tgd& tgd : deps.tgds) {
      PDX_RETURN_IF_ERROR(CheckSided(tgd.body, source_allowed, schema,
                                     "Σ_st tgd body", "source"));
      PDX_RETURN_IF_ERROR(CheckSided(tgd.head, target_allowed, schema,
                                     "Σ_st tgd head", "target"));
    }
    setting.st_tgds_ = std::move(deps.tgds);
  }

  // Σ_ts: tgds from T to S; disjunctive heads allowed as an extension.
  {
    PDX_ASSIGN_OR_RETURN(DependencySet deps,
                         ParseDependencies(sigma_ts, schema, symbols));
    if (!deps.egds.empty()) {
      return InvalidArgumentError("Σ_ts must not contain egds");
    }
    for (const Tgd& tgd : deps.tgds) {
      PDX_RETURN_IF_ERROR(CheckSided(tgd.body, target_allowed, schema,
                                     "Σ_ts tgd body", "target"));
      PDX_RETURN_IF_ERROR(CheckSided(tgd.head, source_allowed, schema,
                                     "Σ_ts tgd head", "source"));
    }
    for (const DisjunctiveTgd& tgd : deps.disjunctive_tgds) {
      PDX_RETURN_IF_ERROR(CheckSided(tgd.body, target_allowed, schema,
                                     "Σ_ts disjunctive tgd body", "target"));
      for (const std::vector<Atom>& disjunct : tgd.head_disjuncts) {
        PDX_RETURN_IF_ERROR(CheckSided(disjunct, source_allowed, schema,
                                       "Σ_ts disjunctive tgd head",
                                       "source"));
      }
    }
    setting.ts_tgds_ = std::move(deps.tgds);
    setting.ts_disjunctive_tgds_ = std::move(deps.disjunctive_tgds);
  }

  // Σ_t: tgds and egds over T only.
  {
    PDX_ASSIGN_OR_RETURN(DependencySet deps,
                         ParseDependencies(sigma_t, schema, symbols));
    if (!deps.disjunctive_tgds.empty()) {
      return InvalidArgumentError("Σ_t must not contain disjunctive tgds");
    }
    for (const Tgd& tgd : deps.tgds) {
      PDX_RETURN_IF_ERROR(CheckSided(tgd.body, target_allowed, schema,
                                     "Σ_t tgd body", "target"));
      PDX_RETURN_IF_ERROR(CheckSided(tgd.head, target_allowed, schema,
                                     "Σ_t tgd head", "target"));
    }
    for (const Egd& egd : deps.egds) {
      PDX_RETURN_IF_ERROR(CheckSided(egd.body, target_allowed, schema,
                                     "Σ_t egd body", "target"));
    }
    setting.target_tgds_ = std::move(deps.tgds);
    setting.target_egds_ = std::move(deps.egds);
  }

  setting.ctract_report_ =
      ClassifyCtract(setting.st_tgds_, setting.ts_tgds_, schema);
  setting.target_weakly_acyclic_ =
      IsWeaklyAcyclic(setting.target_tgds_, schema);
  return setting;
}

Status PdeSetting::ValidateSourceInstance(const Instance& instance) const {
  if (&instance.schema() != schema_.get()) {
    return InvalidArgumentError(
        "instance is not over this setting's combined schema");
  }
  Status status = OkStatus();
  instance.ForEachFact([&](const Fact& f) {
    if (!status.ok()) return;
    if (!is_source(f.relation)) {
      status = InvalidArgumentError(
          StrCat("source instance populates target relation ",
                 schema_->relation_name(f.relation)));
      return;
    }
    for (const Value& v : f.tuple) {
      if (v.is_null()) {
        status = InvalidArgumentError(
            "source instances must be ground (no labeled nulls)");
        return;
      }
    }
  });
  return status;
}

Status PdeSetting::ValidateTargetInstance(const Instance& instance) const {
  if (&instance.schema() != schema_.get()) {
    return InvalidArgumentError(
        "instance is not over this setting's combined schema");
  }
  Status status = OkStatus();
  instance.ForEachFact([&](const Fact& f) {
    if (!status.ok()) return;
    if (!is_target(f.relation)) {
      status = InvalidArgumentError(
          StrCat("target instance populates source relation ",
                 schema_->relation_name(f.relation)));
    }
  });
  return status;
}

Instance PdeSetting::CombineInstances(const Instance& source,
                                      const Instance& target) const {
  Instance combined = source;
  combined.UnionWith(target);
  return combined;
}

Instance PdeSetting::SourcePart(const Instance& combined) const {
  return combined.KeepRelations(
      [this](RelationId r) { return is_source(r); });
}

Instance PdeSetting::TargetPart(const Instance& combined) const {
  return combined.KeepRelations(
      [this](RelationId r) { return is_target(r); });
}

std::string PdeSetting::ToString(const SymbolTable& symbols) const {
  std::vector<std::string> lines;
  std::vector<std::string> source_names;
  std::vector<std::string> target_names;
  for (RelationId r = 0; r < schema_->relation_count(); ++r) {
    const RelationSchema& rel = schema_->relation(r);
    (is_source(r) ? source_names : target_names)
        .push_back(StrCat(rel.name, "/", rel.arity));
  }
  lines.push_back(StrCat("S = {", StrJoin(source_names, ", "), "}"));
  lines.push_back(StrCat("T = {", StrJoin(target_names, ", "), "}"));
  for (const Tgd& tgd : st_tgds_) {
    lines.push_back(StrCat("Σst: ", tgd.ToString(*schema_, symbols)));
  }
  for (const Tgd& tgd : ts_tgds_) {
    lines.push_back(StrCat("Σts: ", tgd.ToString(*schema_, symbols)));
  }
  for (const DisjunctiveTgd& tgd : ts_disjunctive_tgds_) {
    lines.push_back(StrCat("Σts: ", tgd.ToString(*schema_, symbols)));
  }
  for (const Tgd& tgd : target_tgds_) {
    lines.push_back(StrCat("Σt:  ", tgd.ToString(*schema_, symbols)));
  }
  for (const Egd& egd : target_egds_) {
    lines.push_back(StrCat("Σt:  ", egd.ToString(*schema_, symbols)));
  }
  return StrJoin(lines, "\n");
}

}  // namespace pdx
