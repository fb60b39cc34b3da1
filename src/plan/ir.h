#ifndef PDX_PLAN_IR_H_
#define PDX_PLAN_IR_H_

// The typed plan IR of the dependency compiler: a setting Σ is lowered
// once, at load time, into per-dependency join plans that the matcher
// executes instead of re-deriving atom order, index choice and variable
// bindings from the raw Tgd/Egd AST on every call (see plan/compiler.h
// for the pass pipeline and DESIGN.md "Dependency compiler").
//
// A plan is a pure function of the dependency's structure — atom
// relations, term shapes, variable counts — never of instance contents,
// which is what makes compiled plans cacheable across chase rounds,
// solver node re-chases and whole pdxcli invocations (plan/plan_cache.h).
// Execution against a concrete Instance (including resolve-on-read under
// egd merges and the semi-naive delta restrictions) lives in the matcher:
// hom/matcher.h, EnumerateMatches*Planned / HasMatchPlanned.
//
// The compiled path enumerates exactly the match *set* the interpreter
// enumerates — per delta partition, per pivot — but may visit it in a
// different order (static join order vs. the interpreter's per-node
// fewest-candidates choice). Every consumer is order-tolerant: pending
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

// How one join step obtains its candidate tuples.
struct AccessPath {
  enum Kind : uint8_t {
    kScan,        // full relation scan (nothing usefully bound)
    kProbeConst,  // index probe at `pos` with the constant `key`
    kProbeVar,    // index probe at `pos` with the bound value of `var`
  };
  Kind kind = kScan;
  int pos = -1;          // probed tuple position (probe kinds)
  VariableId var = -1;   // kProbeVar: variable supplying the probe key
  Value key;             // kProbeConst: the probe key
};

// One per-position operation run against a candidate tuple's (resolved)
// value. The probed position of the access path is skipped — the index
// bucket already guarantees it matches.
struct SlotOp {
  enum Kind : uint8_t {
    kBind,        // first occurrence of `var`: bind it (or compare, if the
                  // caller's partial binding already bound it)
    kCheckVar,    // later occurrence: compare against the bound value
    kCheckConst,  // constant term: compare against `key`
  };
  Kind kind = kBind;
  int pos = 0;
  VariableId var = -1;
  Value key;
};

// One atom of the join, in execution order: access path + unification
// program. `atom_index` is the atom's index in the dependency's own body
// (or head) list — the semi-naive "old facts only" restriction is keyed by
// that original index, not by execution position.
struct JoinStep {
  RelationId relation = -1;
  int atom_index = -1;
  AccessPath access;
  std::vector<SlotOp> ops;
};

// Pivot-rotation variant of a body plan: the execution program for the
// case where atom `pivot` ranges over the delta (additive range or
// merge-dirtied extras) and the remaining atoms join around it. Atoms with
// atom_index < pivot are confined to pre-delta facts by the executor when
// the partition is additive, mirroring EnumerateMatchesDeltaPartition.
struct DeltaVariant {
  int pivot = -1;
  RelationId pivot_relation = -1;
  std::vector<SlotOp> pivot_ops;  // unify the pivot tuple first
  std::vector<JoinStep> rest;     // then join the remaining atoms
};

// A compiled conjunction: the static full-order program (used for
// HasMatch-style probes and witness search) plus one delta variant per
// atom (used by the semi-naive pivot rotation).
struct BodyPlan {
  int var_count = 0;
  int atom_count = 0;
  // Variables assumed bound on entry (the caller's partial binding); the
  // executor tolerates callers binding fewer or more — kBind ops check at
  // runtime — but access paths are chosen under this assumption.
  std::vector<bool> initially_bound;
  std::vector<JoinStep> full;
  std::vector<DeltaVariant> variants;  // variants[i].pivot == i
  // Linear lowering of `full` + `variants` (plan/bytecode.h), executed by
  // the match VM. CompileBody always fills it.
  BodyCode code;
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
};

struct TgdPlan {
  BodyPlan body;
  // The head as a match plan, compiled with the universal variables
  // pre-bound: the restricted engine's violated-trigger filter and
  // re-check (HasMatch on the head) and the solution-aware witness search
  // both run it.
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
