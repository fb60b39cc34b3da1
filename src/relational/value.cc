#include "relational/value.h"

#include "base/string_util.h"

namespace pdx {

Value SymbolTable::InternConstant(std::string_view name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return Value::Constant(it->second);
  uint32_t id = static_cast<uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return Value::Constant(id);
}

Value SymbolTable::LookupConstant(std::string_view name, bool* found) const {
  auto it = ids_.find(name);
  if (it == ids_.end()) {
    if (found != nullptr) *found = false;
    return Value::Constant(0);
  }
  if (found != nullptr) *found = true;
  return Value::Constant(it->second);
}

std::string SymbolTable::ValueToString(Value v) const {
  if (v.is_null()) return StrCat("_N", v.id());
  PDX_CHECK_LT(v.id(), names_.size()) << "constant id out of range";
  return names_[v.id()];
}

}  // namespace pdx
