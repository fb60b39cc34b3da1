#ifndef PDX_PLAN_BYTECODE_H_
#define PDX_PLAN_BYTECODE_H_

// Linear bytecode lowered from a compiled BodyPlan (plan/ir.h): the final
// stage of the dependency compiler. The tree-shaped JoinStep/SlotOp plan
// is flattened into one contiguous instruction array that the register-
// style match VM in hom/match_vm.h executes without recursion, virtual
// dispatch, or per-call allocation.
//
// Layout: each join level is a loop-header instruction (kScan /
// kProbeConst / kProbeVar) carrying the candidate source, followed by
// `nops` slot instructions (kBind / kCheckVar / kCheckConst, the
// unification program), then either the next level's header or a kEmit
// terminator. Delta variants are alternate entry points into the same
// array: a pivot slot-instruction range [pivot_begin, pivot_end) run
// against the pivot tuple, then a `rest` program at `entry`.
//
// Lowering is mechanical — opcode semantics are exactly the JoinStep /
// SlotOp semantics, including the runtime bind-or-check tolerance and
// probe-var scan degradation — so the VM enumerates the same match sets as
// the interpreter it is cross-validated against.

#include <cstdint>
#include <string>
#include <vector>

#include "logic/atom.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace pdx {
namespace plan {

struct BodyPlan;

struct Instr {
  enum Op : uint8_t {
    // Loop headers (one per join level; `nops` slot instrs follow).
    kScan,        // iterate all tuples of `relation`
    kProbeConst,  // index probe at `pos` with `key`
    kProbeVar,    // index probe at `pos` with the bound value of `var`
    // Slot ops (the unification program of one level).
    kBind,        // bind `var` to tuple[pos] (or compare, if already bound)
    kCheckVar,    // compare tuple[pos] against the bound value of `var`
    kCheckConst,  // compare tuple[pos] against `key`
    // Terminator: a complete match is in the binding.
    kEmit,
  };
  Op op = kScan;
  uint16_t nops = 0;       // headers: number of slot instrs following
  int16_t pos = -1;        // probed / checked tuple position
  int32_t atom_index = -1; // headers: original body index (delta confinement)
  RelationId relation = -1;
  VariableId var = -1;
  Value key;
};

// Precomputed existence-probe descriptor for single-level programs with
// index access: the satisfaction fast path (VmHasMatch in hom/match_vm)
// collapses "does a match exist?" into one hash lookup, and this
// descriptor lets it skip re-decoding the instruction stream on every
// call. `var == -1` on the probe (or a slot) means the constant `key` is
// used instead of a binding value. Invalid (`valid == false`) whenever
// the program has more than one join level or scan access — the generic
// VM loop handles those.
struct ExistsProbe {
  struct Slot {
    int16_t pos = -1;
    VariableId var = -1;  // -1: compare against `key`
    Value key;
  };
  bool valid = false;
  RelationId relation = -1;
  int16_t pos = -1;      // probed tuple position
  VariableId var = -1;   // probe variable; -1: probe with `key`
  Value key;
  std::vector<Slot> slots;  // non-probe positions, in program order
};

// One BodyPlan's bytecode: the full program plus per-pivot delta variants,
// all in one array (entry-point offsets select the program).
struct BodyCode {
  struct Variant {
    uint32_t pivot_begin = 0;  // pivot slot instrs: [pivot_begin, pivot_end)
    uint32_t pivot_end = 0;
    uint32_t entry = 0;        // rest-of-join program (header or kEmit)
  };
  std::vector<Instr> code;
  uint32_t full_entry = 0;
  std::vector<Variant> variants;  // parallel to BodyPlan::variants
  int max_depth = 0;              // deepest loop nesting across programs
  ExistsProbe exists;             // full-program point-lookup descriptor
};

// Lowers `plan` (its full order and every delta variant) into bytecode.
BodyCode LowerBody(const BodyPlan& plan);

// Appends a human-readable disassembly to `out` (pdxcli --dump-plans).
void AppendBodyCodeDump(const BodyCode& code, const Schema& schema,
                        const std::vector<std::string>& var_names,
                        std::string* out);

}  // namespace plan
}  // namespace pdx

#endif  // PDX_PLAN_BYTECODE_H_
