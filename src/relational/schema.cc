#include "relational/schema.h"

#include "base/string_util.h"

namespace pdx {

StatusOr<RelationId> Schema::AddRelation(std::string_view name, int arity) {
  if (arity <= 0) {
    return InvalidArgumentError(
        StrCat("relation ", name, " must have positive arity, got ", arity));
  }
  if (name.empty()) {
    return InvalidArgumentError("relation name must be non-empty");
  }
  if (by_name_.find(name) != by_name_.end()) {
    return AlreadyExistsError(StrCat("relation ", name, " already declared"));
  }
  RelationId id = static_cast<RelationId>(relations_.size());
  relations_.push_back(RelationSchema{std::string(name), arity});
  by_name_.emplace(relations_.back().name, id);
  return id;
}

StatusOr<RelationId> Schema::FindRelation(std::string_view name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return NotFoundError(StrCat("unknown relation ", name));
  }
  return it->second;
}

StatusOr<Schema> Schema::DisjointUnion(const Schema& left,
                                       const Schema& right) {
  Schema result = left;
  for (int i = 0; i < right.relation_count(); ++i) {
    const RelationSchema& r = right.relation(i);
    PDX_ASSIGN_OR_RETURN(RelationId id,
                         result.AddRelation(r.name, r.arity));
    (void)id;
  }
  return result;
}

std::string Schema::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(relations_.size());
  for (const RelationSchema& r : relations_) {
    parts.push_back(StrCat(r.name, "/", r.arity));
  }
  return StrJoin(parts, ", ");
}

}  // namespace pdx
