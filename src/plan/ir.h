#ifndef PDX_PLAN_IR_H_
#define PDX_PLAN_IR_H_

// The plan IR of the dependency compiler: a setting Σ is compiled once,
// at load time, into per-dependency plans — match bytecode for every
// body and head (plan/bytecode.h) plus the fused head apply template —
// that the match VM executes instead of re-deriving atom order, index
// choice and variable bindings from the raw Tgd/Egd AST on every call
// (see plan/compiler.h for the pass pipeline and DESIGN.md "Dependency
// compiler").
//
// A plan is a pure function of the dependency's structure — atom
// relations, term shapes, variable counts — never of instance contents,
// which is what makes compiled plans cacheable across chase rounds,
// solver node re-chases and whole pdxcli invocations (plan/plan_cache.h).
// Execution against a concrete Instance (including resolve-on-read under
// egd merges and the semi-naive delta restrictions) lives in the VM:
// hom/match_vm.h, EnumerateMatches*Planned / HasMatchPlanned.
//
// The compiled path enumerates exactly the match *set* of the definition
// — per delta partition, per pivot — in the plan's static join order.
// Every consumer is order-tolerant: pending
// trigger sets are collected fully before applying, and all result
// contracts are stated on resolved views and canonical fingerprints.

#include <cstdint>
#include <utility>
#include <vector>

#include "logic/atom.h"
#include "plan/bytecode.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace pdx {
namespace plan {

// A compiled conjunction: its bytecode (plan/bytecode.h), holding the
// full-order program (HasMatch-style probes, witness search) and one
// pivot entry per atom (the semi-naive pivot rotation), all in one array.
// Access paths are chosen under the variables the compiler was told are
// bound on entry; the VM tolerates callers binding fewer or more (kBind
// checks at run time).
struct BodyPlan {
  // The program for the case where atom `i` (pivots[i]) ranges over the
  // delta (additive range or merge-dirtied extras): its slot instrs
  // [slots_begin, slots_end) unify the pivot tuple, then the rest of the
  // join runs from `entry`. Headers whose atom_index is below an additive
  // pivot's are confined to pre-delta facts by the VM (hom/match_vm.h,
  // DeltaPartition).
  struct Pivot {
    RelationId relation = -1;
    uint32_t slots_begin = 0;
    uint32_t slots_end = 0;
    uint32_t entry = 0;
  };
  int var_count = 0;
  std::vector<Instr> code;
  uint32_t full_entry = 0;
  std::vector<Pivot> pivots;  // pivots[i]: body atom i
  int max_depth = 0;          // deepest loop nesting across programs
  ExistsProbe exists;         // full-program point-lookup descriptor
};

// One flat head slot of the apply template: where the value of one head
// tuple position comes from. `exist` indexes the template's existentials
// (the fresh-null frame) when the slot is an existential variable.
struct HeadSlot {
  bool is_const = false;
  Value key;            // is_const
  VariableId var = -1;  // otherwise
  int exist = -1;       // index into ApplyTemplate::existentials, or -1
};

struct HeadAtom {
  RelationId relation = -1;
  int arity = 0;
};

// How the chase's apply decides whether a collected trigger still fires
// (DESIGN.md "One tgd phase"). The collect already kept only triggers
// whose head fails on the pre-batch instance; the mode says what an
// earlier trigger of the same batch can change about that. It holds only
// while the instance has no merges: with merges a repeated match may ride
// in the delta, and every trigger takes kLive.
enum class ApplyMode : uint8_t {
  // Full tgd: no separate re-check. A trigger fires (counts as a step and
  // is journalled) iff one of its head inserts adds a fact, which without
  // merges is exactly "the head did not hold".
  kInsert,
  // Batch-blind existential tgd: each head relation occurs in one head
  // atom, and every head atom names every body variable at a
  // non-existential position. A fact an earlier trigger added can only be
  // the image of the same atom, and agreeing with it on those positions
  // forces the same body match. So no trigger of a batch can satisfy
  // another, and the collect's verdict stands: no re-check.
  kNone,
  // Every other tgd: HasMatchPlanned on the live instance, after one
  // ContainsExact of the refuting atom (ApplyTemplate::refute_atom).
  kLive,
};

// The fused apply template of one tgd: everything the chase's tgd phase
// needs to instantiate the head from a complete body match. Parser
// validation guarantees existential variables never occur in the body, so
// every complete body match binds exactly the non-existential variables:
// `body_bound` is the bound mask of every trigger, and `fresh_per_trigger`
// is a constant.
struct ApplyTemplate {
  size_t head_width = 0;      // sum of head-atom arities
  int fresh_per_trigger = 0;  // = existentials.size()
  std::vector<VariableId> existentials;  // ascending variable order
  // Positions within a trigger's flat head row holding an existential
  // variable, with the variable: the slots the apply patches once it has
  // minted the trigger's nulls.
  std::vector<std::pair<size_t, VariableId>> head_null_slots;
  std::vector<bool> body_bound;  // size var_count
  std::vector<HeadSlot> slots;   // flat, atoms concatenated in head order
  std::vector<HeadAtom> head_atoms;
  ApplyMode mode = ApplyMode::kLive;
  // kLive only: the first head atom with no existential position, or -1,
  // and its first slot in the flat head row. A body match fixes its whole
  // image, so one exact lookup that misses refutes the head.
  int refute_atom = -1;
  size_t refute_offset = 0;
};

struct TgdPlan {
  BodyPlan body;
  // The head as a match plan, compiled with the universal variables
  // pre-bound: the restricted engine's violated-trigger filter and
  // re-check (HasMatchPlanned on the head), the Satisfies* checks and the
  // solution-aware witness search all run it from full_entry. It has no delta pivots.
  BodyPlan head;
  ApplyTemplate apply;
};

struct EgdPlan {
  BodyPlan body;
  VariableId left_var = 0;
  VariableId right_var = 0;
};

// A whole compiled setting: plans indexed parallel to the tgd/egd vectors
// they were compiled from, keyed by the structural fingerprint the cache
// uses (plan/compiler.h, SettingFingerprint).
struct CompiledSetting {
  std::vector<TgdPlan> tgds;
  std::vector<EgdPlan> egds;
  uint64_t fingerprint = 0;
};

}  // namespace plan
}  // namespace pdx

#endif  // PDX_PLAN_IR_H_
