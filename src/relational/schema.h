#ifndef PDX_RELATIONAL_SCHEMA_H_
#define PDX_RELATIONAL_SCHEMA_H_

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/status.h"

namespace pdx {

// Index of a relation symbol within a Schema.
using RelationId = int;

// One relation symbol with a fixed arity.
struct RelationSchema {
  std::string name;
  int arity = 0;
};

// A finite collection of relation symbols R = (R_1, ..., R_k).
//
// A PDE setting uses one combined Schema over (S, T); each relation is
// tagged source or target via PdeSetting, not here, so that generic code
// (chase, homomorphisms) is agnostic to sides.
class Schema {
 public:
  Schema() = default;

  // Adds a relation symbol. Fails with kAlreadyExists on duplicate names
  // and kInvalidArgument on non-positive arity.
  StatusOr<RelationId> AddRelation(std::string_view name, int arity);

  // Returns the id for `name` or kNotFound.
  StatusOr<RelationId> FindRelation(std::string_view name) const;

  int relation_count() const { return static_cast<int>(relations_.size()); }

  const RelationSchema& relation(RelationId id) const {
    PDX_CHECK_GE(id, 0);
    PDX_CHECK_LT(id, relation_count());
    return relations_[id];
  }

  const std::string& relation_name(RelationId id) const {
    return relation(id).name;
  }
  int arity(RelationId id) const { return relation(id).arity; }

  // Builds the union of two schemas with disjoint relation names.
  // Relations of `left` keep their ids; relations of `right` are shifted by
  // left.relation_count().
  static StatusOr<Schema> DisjointUnion(const Schema& left,
                                        const Schema& right);

  std::string ToString() const;

 private:
  // Transparent hash: with std::equal_to<>, by_name_ is probed with a
  // std::string_view directly, so FindRelation allocates nothing (the fact
  // parser calls it once per fact).
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<RelationSchema> relations_;
  std::unordered_map<std::string, RelationId, NameHash, std::equal_to<>>
      by_name_;
};

}  // namespace pdx

#endif  // PDX_RELATIONAL_SCHEMA_H_
