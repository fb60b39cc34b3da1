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

// Pass 2: the loop header for `atom` given the entry bound set. Probing
// a bound-variable position is preferred over a constant position:
// join-key buckets narrow as the binding deepens, while a constant's
// bucket is a fixed filter the slot instrs re-check anyway. Lowest such
// position wins, deterministically.
Instr SelectAccess(const Atom& atom, int atom_index,
                   const std::vector<bool>& bound) {
  Instr header;
  header.op = Instr::kScan;
  header.atom_index = atom_index;
  header.relation = atom.relation;
  for (int pos = 0; pos < static_cast<int>(atom.terms.size()); ++pos) {
    const Term& t = atom.terms[pos];
    if (t.is_variable() && bound[t.var()]) {
      header.op = Instr::kProbeVar;
      header.pos = static_cast<int16_t>(pos);
      header.var = t.var();
      return header;
    }
  }
  for (int pos = 0; pos < static_cast<int>(atom.terms.size()); ++pos) {
    const Term& t = atom.terms[pos];
    if (t.is_constant()) {
      header.op = Instr::kProbeConst;
      header.pos = static_cast<int16_t>(pos);
      header.key = t.constant();
      return header;
    }
  }
  return header;
}

// The unification program for `atom`: one slot instr per position except
// the probed one (the index bucket already guarantees it), in position
// order, appended to `code`. Updates `bound` with the variables the
// instrs bind and returns how many were appended.
uint16_t BuildOps(const Atom& atom, int skip_pos, std::vector<bool>* bound,
                  std::vector<Instr>* code) {
  uint16_t nops = 0;
  for (int pos = 0; pos < static_cast<int>(atom.terms.size()); ++pos) {
    if (pos == skip_pos) continue;
    const Term& t = atom.terms[pos];
    Instr instr;
    instr.pos = static_cast<int16_t>(pos);
    if (t.is_constant()) {
      instr.op = Instr::kCheckConst;
      instr.key = t.constant();
    } else if ((*bound)[t.var()]) {
      instr.op = Instr::kCheckVar;
      instr.var = t.var();
    } else {
      instr.op = Instr::kBind;
      instr.var = t.var();
      (*bound)[t.var()] = true;
    }
    code->push_back(instr);
    ++nops;
  }
  return nops;
}

// Pass 1: greedy join order over `pending` (original atom indexes) from
// the entry bound set, emitting per atom its loop header and slot instrs,
// then a kEmit terminator. Returns the program's entry offset.
uint32_t OrderSteps(const std::vector<Atom>& atoms, std::vector<int> pending,
                    std::vector<bool> bound, std::vector<Instr>* code) {
  const uint32_t entry = static_cast<uint32_t>(code->size());
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
    const size_t header = code->size();
    code->push_back(SelectAccess(atom, atom_index, bound));
    const uint16_t nops = BuildOps(atom, (*code)[header].pos, &bound, code);
    (*code)[header].nops = nops;
  }
  Instr emit;
  emit.op = Instr::kEmit;
  code->push_back(emit);
  return entry;
}

// Derives the ExistsProbe descriptor from the full program: valid only
// for a single index-accessed join level of at most
// ExistsProbe::kMaxPositions positions, where an existence check is a
// point lookup. kBind on an unbound variable at run time makes its
// position unconstrained; the runtime fast path decides bound-ness per
// call, so every non-probe slot is recorded here with its variable (or
// constant) and the decode cost is paid once.
void DeriveExistsProbe(BodyPlan* plan) {
  const Instr* code = plan->code.data();
  const Instr& h = code[plan->full_entry];
  if (h.op != Instr::kProbeConst && h.op != Instr::kProbeVar) return;
  if (h.nops + 1 > ExistsProbe::kMaxPositions) return;
  const uint32_t ops_end = plan->full_entry + 1 + h.nops;
  if (code[ops_end].op != Instr::kEmit) return;  // > 1 join level
  ExistsProbe& probe = plan->exists;
  probe.relation = h.relation;
  probe.pos = h.pos;
  if (h.op == Instr::kProbeConst) {
    probe.var = -1;
    probe.key = h.key;
  } else {
    probe.var = h.var;
  }
  probe.slots.reserve(h.nops);
  for (uint32_t ip = plan->full_entry + 1; ip < ops_end; ++ip) {
    const Instr& instr = code[ip];
    ExistsProbe::Slot slot;
    slot.pos = instr.pos;
    if (instr.op == Instr::kCheckConst) {
      slot.var = -1;
      slot.key = instr.key;
    } else {
      slot.var = instr.var;
    }
    probe.slots.push_back(slot);
  }
  probe.valid = true;
}

// Sets the template's ApplyMode (plan/ir.h) from the tgd's shape alone,
// and for kLive its refuting atom.
void DeriveApplyMode(const Tgd& tgd, ApplyTemplate* out) {
  if (out->existentials.empty()) {
    out->mode = ApplyMode::kInsert;
    return;
  }
  bool blind = true;
  std::vector<bool> seen_relation;
  size_t offset = 0;
  for (size_t a = 0; a < tgd.head.size(); ++a) {
    const Atom& atom = tgd.head[a];
    const size_t r = static_cast<size_t>(atom.relation);
    if (r >= seen_relation.size()) seen_relation.resize(r + 1, false);
    if (seen_relation[r]) blind = false;
    seen_relation[r] = true;
    std::vector<bool> named(tgd.var_count, false);
    bool has_existential = false;
    for (const Term& t : atom.terms) {
      if (t.is_constant()) continue;
      if (tgd.existential[t.var()]) {
        has_existential = true;
      } else {
        named[t.var()] = true;
      }
    }
    for (VariableId v = 0; v < tgd.var_count; ++v) {
      if (out->body_bound[v] && !named[v]) blind = false;
    }
    if (!has_existential && out->refute_atom < 0) {
      out->refute_atom = static_cast<int>(a);
      out->refute_offset = offset;
    }
    offset += atom.terms.size();
  }
  if (blind) {
    out->mode = ApplyMode::kNone;
    out->refute_atom = -1;
    out->refute_offset = 0;
  } else {
    out->mode = ApplyMode::kLive;
  }
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
  DeriveApplyMode(tgd, &out);
  return out;
}

// Passes 1 and 2 only: the full-order program and its ExistsProbe, with
// no delta pivots. `entry_bound` is sized var_count.
BodyPlan CompileFull(const std::vector<Atom>& atoms, int var_count,
                     const std::vector<bool>& entry_bound) {
  BodyPlan plan;
  plan.var_count = var_count;
  std::vector<int> all(atoms.size());
  for (size_t i = 0; i < atoms.size(); ++i) all[i] = static_cast<int>(i);
  plan.full_entry = OrderSteps(atoms, all, entry_bound, &plan.code);
  plan.max_depth = static_cast<int>(atoms.size());
  DeriveExistsProbe(&plan);
  return plan;
}

const char* ApplyModeName(ApplyMode mode) {
  switch (mode) {
    case ApplyMode::kInsert: return "insert";
    case ApplyMode::kNone: return "none";
    case ApplyMode::kLive: return "live";
  }
  return "unknown";
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
  std::vector<bool> entry_bound = initially_bound;
  entry_bound.resize(var_count, false);
  BodyPlan plan = CompileFull(atoms, var_count, entry_bound);
  // Pass 3: one pivot entry per atom, the pivot unified first.
  plan.pivots.reserve(atoms.size());
  for (size_t pivot = 0; pivot < atoms.size(); ++pivot) {
    BodyPlan::Pivot p;
    p.relation = atoms[pivot].relation;
    std::vector<bool> bound = entry_bound;
    p.slots_begin = static_cast<uint32_t>(plan.code.size());
    BuildOps(atoms[pivot], /*skip_pos=*/-1, &bound, &plan.code);
    p.slots_end = static_cast<uint32_t>(plan.code.size());
    std::vector<int> pending;
    for (size_t i = 0; i < atoms.size(); ++i) {
      if (i != pivot) pending.push_back(static_cast<int>(i));
    }
    p.entry = OrderSteps(atoms, std::move(pending), std::move(bound),
                         &plan.code);
    plan.pivots.push_back(p);
  }
  return plan;
}

TgdPlan CompileTgd(const Tgd& tgd) {
  TgdPlan plan;
  plan.apply = BuildApplyTemplate(tgd);
  plan.body = CompileBody(tgd.body, tgd.var_count, {});
  // Heads only ever run from full_entry (HasMatchPlanned and the witness
  // search), so they get no delta pivots.
  plan.head = CompileFull(tgd.head, tgd.var_count, plan.apply.body_bound);
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
    out += StrCat("  apply=", ApplyModeName(plan.apply.mode));
    if (plan.apply.refute_atom >= 0) {
      const int a = plan.apply.refute_atom;
      out += StrCat(" refute=",
                    schema.relation_name(plan.apply.head_atoms[a].relation),
                    " atom#", a);
    }
    out += "\n";
    out += " body:\n";
    AppendCodeDump(plan.body, schema, tgds[d].var_names, &out);
    out += " head (universals bound):\n";
    AppendCodeDump(plan.head, schema, tgds[d].var_names, &out);
  }
  for (size_t d = 0; d < compiled.egds.size() && d < egds.size(); ++d) {
    out += StrCat("egd #", d, ": ", egds[d].ToString(schema, symbols), "\n");
    out += " body:\n";
    AppendCodeDump(compiled.egds[d].body, schema, egds[d].var_names, &out);
  }
  out += StrCat("fingerprint: ", compiled.fingerprint, "\n");
  return out;
}

}  // namespace plan
}  // namespace pdx
