#include "plan/compiler.h"

#include <algorithm>

#include "base/string_util.h"

namespace pdx {
namespace plan {

namespace {

// splitmix64-style mixing, same family the trigger fingerprints use.
uint64_t Mix(uint64_t h, uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return (h ^ x) * 0x100000001b3ull;
}

uint64_t HashAtoms(uint64_t h, const std::vector<Atom>& atoms) {
  h = Mix(h, atoms.size());
  for (const Atom& atom : atoms) {
    h = Mix(h, static_cast<uint64_t>(atom.relation) + 1);
    for (const Term& t : atom.terms) {
      h = t.is_constant() ? Mix(h, t.constant().packed() | (1ull << 63))
                          : Mix(h, static_cast<uint64_t>(t.var()) * 2 + 1);
    }
  }
  return h;
}

// Number of terms of `atom` bound under `bound` (constants always count).
int BoundTermCount(const Atom& atom, const std::vector<bool>& bound) {
  int n = 0;
  for (const Term& t : atom.terms) {
    if (t.is_constant() || bound[t.var()]) ++n;
  }
  return n;
}

// Pass 2: the access path for `atom` given the entry bound set. Probing a
// bound-variable position is preferred over a constant position: join-key
// buckets narrow as the binding deepens, while a constant's bucket is a
// fixed filter the slot ops re-check anyway. Lowest such position wins,
// deterministically.
AccessPath SelectAccess(const Atom& atom, const std::vector<bool>& bound) {
  AccessPath access;
  for (int pos = 0; pos < static_cast<int>(atom.terms.size()); ++pos) {
    const Term& t = atom.terms[pos];
    if (t.is_variable() && bound[t.var()]) {
      access.kind = AccessPath::kProbeVar;
      access.pos = pos;
      access.var = t.var();
      return access;
    }
  }
  for (int pos = 0; pos < static_cast<int>(atom.terms.size()); ++pos) {
    const Term& t = atom.terms[pos];
    if (t.is_constant()) {
      access.kind = AccessPath::kProbeConst;
      access.pos = pos;
      access.key = t.constant();
      return access;
    }
  }
  access.kind = AccessPath::kScan;
  return access;
}

// The unification program for `atom`: one SlotOp per position except the
// probed one (the index bucket already guarantees it), in position order.
// Updates `bound` with the variables the ops bind.
std::vector<SlotOp> BuildOps(const Atom& atom, int skip_pos,
                             std::vector<bool>* bound) {
  std::vector<SlotOp> ops;
  ops.reserve(atom.terms.size());
  for (int pos = 0; pos < static_cast<int>(atom.terms.size()); ++pos) {
    if (pos == skip_pos) continue;
    const Term& t = atom.terms[pos];
    SlotOp op;
    op.pos = pos;
    if (t.is_constant()) {
      op.kind = SlotOp::kCheckConst;
      op.key = t.constant();
    } else if ((*bound)[t.var()]) {
      op.kind = SlotOp::kCheckVar;
      op.var = t.var();
    } else {
      op.kind = SlotOp::kBind;
      op.var = t.var();
      (*bound)[t.var()] = true;
    }
    ops.push_back(op);
  }
  return ops;
}

// Marks the variables of `atom` bound (used for the pivot atom, whose ops
// keep every position — there is no probe to skip).
std::vector<SlotOp> BuildPivotOps(const Atom& atom,
                                  std::vector<bool>* bound) {
  return BuildOps(atom, /*skip_pos=*/-1, bound);
}

// Pass 1: greedy join order over `pending` (original atom indexes) from
// the entry bound set, emitting one JoinStep per atom.
std::vector<JoinStep> OrderSteps(const std::vector<Atom>& atoms,
                                 std::vector<int> pending,
                                 std::vector<bool> bound) {
  std::vector<JoinStep> steps;
  steps.reserve(pending.size());
  while (!pending.empty()) {
    size_t best = 0;
    int best_score = -1;
    for (size_t i = 0; i < pending.size(); ++i) {
      int score = BoundTermCount(atoms[pending[i]], bound);
      if (score > best_score) {
        best = i;
        best_score = score;
      }
    }
    int atom_index = pending[best];
    pending.erase(pending.begin() + best);
    const Atom& atom = atoms[atom_index];
    JoinStep step;
    step.relation = atom.relation;
    step.atom_index = atom_index;
    step.access = SelectAccess(atom, bound);
    step.ops = BuildOps(atom, step.access.pos, &bound);
    steps.push_back(std::move(step));
  }
  return steps;
}

ApplyTemplate BuildApplyTemplate(const Tgd& tgd) {
  ApplyTemplate out;
  out.body_bound.assign(tgd.var_count, false);
  std::vector<int> exist_index(tgd.var_count, -1);
  for (VariableId v = 0; v < tgd.var_count; ++v) {
    if (tgd.existential[v]) {
      exist_index[v] = static_cast<int>(out.existentials.size());
      out.existentials.push_back(v);
    } else {
      out.body_bound[v] = true;
    }
  }
  out.fresh_per_trigger = static_cast<int>(out.existentials.size());
  size_t pos = 0;
  for (const Atom& atom : tgd.head) {
    out.head_atoms.push_back(
        {atom.relation, static_cast<int>(atom.terms.size())});
    for (const Term& t : atom.terms) {
      HeadSlot slot;
      if (t.is_constant()) {
        slot.is_const = true;
        slot.key = t.constant();
      } else {
        slot.var = t.var();
        slot.exist = exist_index[t.var()];
        if (slot.exist >= 0) out.head_null_slots.emplace_back(pos, t.var());
      }
      out.slots.push_back(slot);
      ++pos;
    }
  }
  out.head_width = pos;
  return out;
}

const char* AccessKindName(AccessPath::Kind kind) {
  switch (kind) {
    case AccessPath::kScan: return "scan";
    case AccessPath::kProbeConst: return "probe-const";
    case AccessPath::kProbeVar: return "probe-var";
  }
  return "?";
}

std::string VarName(const std::vector<std::string>& names, VariableId v) {
  if (static_cast<size_t>(v) < names.size() && !names[v].empty()) {
    return names[v];
  }
  return StrCat("v", v);
}

void DumpSteps(const std::vector<JoinStep>& steps, const Schema& schema,
               const std::vector<std::string>& var_names, std::string* out) {
  for (const JoinStep& step : steps) {
    *out += StrCat("    step atom#", step.atom_index, " ",
                   schema.relation_name(step.relation), " ",
                   AccessKindName(step.access.kind));
    if (step.access.kind == AccessPath::kProbeVar) {
      *out += StrCat("[", step.access.pos, "]=",
                     VarName(var_names, step.access.var));
    } else if (step.access.kind == AccessPath::kProbeConst) {
      *out += StrCat("[", step.access.pos, "]=const");
    }
    int binds = 0;
    for (const SlotOp& op : step.ops) {
      if (op.kind == SlotOp::kBind) ++binds;
    }
    *out += StrCat(" binds=", binds, "\n");
  }
}

void DumpBody(const BodyPlan& plan, const Schema& schema,
              const std::vector<std::string>& var_names, std::string* out) {
  *out += "  full:\n";
  DumpSteps(plan.full, schema, var_names, out);
  for (const DeltaVariant& variant : plan.variants) {
    *out += StrCat("  delta pivot atom#", variant.pivot, " ",
                   schema.relation_name(variant.pivot_relation), ":\n");
    DumpSteps(variant.rest, schema, var_names, out);
  }
}

}  // namespace

uint64_t SettingFingerprint(const std::vector<Tgd>& tgds,
                            const std::vector<Egd>& egds) {
  uint64_t h = 0xcbf29ce484222325ull;
  h = Mix(h, tgds.size());
  for (const Tgd& tgd : tgds) {
    h = Mix(h, static_cast<uint64_t>(tgd.var_count));
    for (VariableId v = 0; v < tgd.var_count; ++v) {
      h = Mix(h, tgd.existential[v] ? 2 : 1);
    }
    h = HashAtoms(h, tgd.body);
    h = HashAtoms(h, tgd.head);
  }
  h = Mix(h, egds.size());
  for (const Egd& egd : egds) {
    h = Mix(h, static_cast<uint64_t>(egd.var_count));
    h = Mix(h, static_cast<uint64_t>(egd.left_var));
    h = Mix(h, static_cast<uint64_t>(egd.right_var));
    h = HashAtoms(h, egd.body);
  }
  return h;
}

BodyPlan CompileBody(const std::vector<Atom>& atoms, int var_count,
                     const std::vector<bool>& initially_bound) {
  BodyPlan plan;
  plan.var_count = var_count;
  plan.atom_count = static_cast<int>(atoms.size());
  plan.initially_bound = initially_bound;
  plan.initially_bound.resize(var_count, false);
  std::vector<int> all(atoms.size());
  for (size_t i = 0; i < atoms.size(); ++i) all[i] = static_cast<int>(i);
  plan.full = OrderSteps(atoms, all, plan.initially_bound);
  // Pass 3: one pivot-rotation variant per atom, the pivot unified first.
  plan.variants.reserve(atoms.size());
  for (size_t pivot = 0; pivot < atoms.size(); ++pivot) {
    DeltaVariant variant;
    variant.pivot = static_cast<int>(pivot);
    variant.pivot_relation = atoms[pivot].relation;
    std::vector<bool> bound = plan.initially_bound;
    variant.pivot_ops = BuildPivotOps(atoms[pivot], &bound);
    std::vector<int> pending;
    for (size_t i = 0; i < atoms.size(); ++i) {
      if (i != pivot) pending.push_back(static_cast<int>(i));
    }
    variant.rest = OrderSteps(atoms, std::move(pending), std::move(bound));
    plan.variants.push_back(std::move(variant));
  }
  plan.code = LowerBody(plan);
  return plan;
}

TgdPlan CompileTgd(const Tgd& tgd) {
  TgdPlan plan;
  plan.apply = BuildApplyTemplate(tgd);
  plan.body = CompileBody(tgd.body, tgd.var_count, {});
  plan.head = CompileBody(tgd.head, tgd.var_count, plan.apply.body_bound);
  return plan;
}

EgdPlan CompileEgd(const Egd& egd) {
  EgdPlan plan;
  plan.body = CompileBody(egd.body, egd.var_count, {});
  plan.left_var = egd.left_var;
  plan.right_var = egd.right_var;
  return plan;
}

std::shared_ptr<const CompiledSetting> CompileSetting(
    const std::vector<Tgd>& tgds, const std::vector<Egd>& egds) {
  auto compiled = std::make_shared<CompiledSetting>();
  compiled->tgds.reserve(tgds.size());
  for (const Tgd& tgd : tgds) compiled->tgds.push_back(CompileTgd(tgd));
  compiled->egds.reserve(egds.size());
  for (const Egd& egd : egds) compiled->egds.push_back(CompileEgd(egd));
  compiled->fingerprint = SettingFingerprint(tgds, egds);
  return compiled;
}

std::string DumpPlans(const CompiledSetting& compiled,
                      const std::vector<Tgd>& tgds,
                      const std::vector<Egd>& egds, const Schema& schema,
                      const SymbolTable& symbols) {
  std::string out;
  for (size_t d = 0; d < compiled.tgds.size() && d < tgds.size(); ++d) {
    const TgdPlan& plan = compiled.tgds[d];
    out += StrCat("tgd #", d, ": ", tgds[d].ToString(schema, symbols), "\n");
    out += StrCat("  head_width=", plan.apply.head_width,
                  " fresh_per_trigger=", plan.apply.fresh_per_trigger, "\n");
    out += " body:\n";
    DumpBody(plan.body, schema, tgds[d].var_names, &out);
    AppendBodyCodeDump(plan.body.code, schema, tgds[d].var_names, &out);
    out += " head (universals bound):\n";
    DumpSteps(plan.head.full, schema, tgds[d].var_names, &out);
  }
  for (size_t d = 0; d < compiled.egds.size() && d < egds.size(); ++d) {
    out += StrCat("egd #", d, ": ", egds[d].ToString(schema, symbols), "\n");
    out += " body:\n";
    DumpBody(compiled.egds[d].body, schema, egds[d].var_names, &out);
    AppendBodyCodeDump(compiled.egds[d].body.code, schema,
                       egds[d].var_names, &out);
  }
  out += StrCat("fingerprint: ", compiled.fingerprint, "\n");
  return out;
}

}  // namespace plan
}  // namespace pdx
