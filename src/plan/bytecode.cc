#include "plan/bytecode.h"

#include "base/string_util.h"
#include "plan/ir.h"

namespace pdx {
namespace plan {

namespace {

const char* OpName(Instr::Op op) {
  switch (op) {
    case Instr::kScan: return "scan";
    case Instr::kProbeConst: return "probe-const";
    case Instr::kProbeVar: return "probe-var";
    case Instr::kBind: return "bind";
    case Instr::kCheckVar: return "check-var";
    case Instr::kCheckConst: return "check-const";
    case Instr::kEmit: return "emit";
  }
  return "?";
}

std::string CodeVarName(const std::vector<std::string>& names, VariableId v) {
  if (v >= 0 && static_cast<size_t>(v) < names.size() && !names[v].empty()) {
    return names[v];
  }
  return StrCat("v", v);
}

// Disassembles the instruction range [begin, end) stopping after kEmit.
// Returns the offset just past the last printed instruction.
uint32_t DumpRange(const BodyPlan& plan, uint32_t begin, const Schema& schema,
                   const std::vector<std::string>& var_names,
                   std::string* out) {
  uint32_t ip = begin;
  while (ip < plan.code.size()) {
    const Instr& instr = plan.code[ip];
    *out += StrCat("      ", ip, ": ", OpName(instr.op));
    switch (instr.op) {
      case Instr::kScan:
        *out += StrCat(" ", schema.relation_name(instr.relation), " atom#",
                       instr.atom_index, " nops=", instr.nops);
        break;
      case Instr::kProbeConst:
        *out += StrCat(" ", schema.relation_name(instr.relation), "[",
                       instr.pos, "]=const atom#", instr.atom_index,
                       " nops=", instr.nops);
        break;
      case Instr::kProbeVar:
        *out += StrCat(" ", schema.relation_name(instr.relation), "[",
                       instr.pos, "]=", CodeVarName(var_names, instr.var),
                       " atom#", instr.atom_index, " nops=", instr.nops);
        break;
      case Instr::kBind:
      case Instr::kCheckVar:
        *out += StrCat(" [", instr.pos, "] ",
                       CodeVarName(var_names, instr.var));
        break;
      case Instr::kCheckConst:
        *out += StrCat(" [", instr.pos, "]=const");
        break;
      case Instr::kEmit:
        break;
    }
    out->push_back('\n');
    ++ip;
    if (instr.op == Instr::kEmit) break;
  }
  return ip;
}

}  // namespace

void AppendCodeDump(const BodyPlan& plan, const Schema& schema,
                    const std::vector<std::string>& var_names,
                    std::string* out) {
  *out += StrCat("  bytecode (", plan.code.size(), " instrs, max_depth=",
                 plan.max_depth, "):\n");
  *out += StrCat("    full @", plan.full_entry, ":\n");
  DumpRange(plan, plan.full_entry, schema, var_names, out);
  for (size_t pivot = 0; pivot < plan.pivots.size(); ++pivot) {
    const BodyPlan::Pivot& v = plan.pivots[pivot];
    *out += StrCat("    delta pivot atom#", pivot, " slots @[",
                   v.slots_begin, ",", v.slots_end, ") rest @", v.entry,
                   ":\n");
    for (uint32_t ip = v.slots_begin; ip < v.slots_end; ++ip) {
      const Instr& instr = plan.code[ip];
      *out += StrCat("      ", ip, ": ", OpName(instr.op), " [", instr.pos,
                     "]");
      if (instr.op != Instr::kCheckConst) {
        *out += StrCat(" ", CodeVarName(var_names, instr.var));
      }
      out->push_back('\n');
    }
    DumpRange(plan, v.entry, schema, var_names, out);
  }
}

}  // namespace plan
}  // namespace pdx
