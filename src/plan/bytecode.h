#ifndef PDX_PLAN_BYTECODE_H_
#define PDX_PLAN_BYTECODE_H_

// The instruction set of the match VM (hom/match_vm.h): the one code the
// dependency compiler (plan/compiler.h) emits for every compiled
// conjunction, straight into BodyPlan::code (plan/ir.h). The VM executes
// it without recursion, virtual dispatch, or per-call allocation.
//
// Layout: each join level is a loop-header instruction (kScan /
// kProbeConst / kProbeVar) carrying the candidate source, followed by
// `nops` slot instructions (kBind / kCheckVar / kCheckConst, the
// unification program), then either the next level's header or a kEmit
// terminator. Delta pivots are alternate entry points into the same
// array: a pivot slot-instruction range [slots_begin, slots_end) run
// against the pivot tuple, then a rest-of-join program at `entry`.
//
// The opcodes keep the runtime bind-or-check tolerance (kBind compares
// when the caller already bound the variable) and probe-var scan
// degradation (an unbound probe variable scans and binds at run time), so
// the VM enumerates the same match sets as the test-only reference
// interpreter it is cross-validated against, whatever partial binding a
// caller passes.

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
// index access: the satisfaction fast path (HasMatchPlanned in
// hom/match_vm) collapses "does a match exist?" into one hash lookup, and
// this descriptor lets it skip re-decoding the instruction stream on every
// call. `var == -1` on the probe (or a slot) means the constant `key` is
// used instead of a binding value. Invalid (`valid == false`) whenever
// the program has more than one join level, scan access, or more than
// kMaxPositions tuple positions (the fast path assembles the probed tuple
// in a fixed stack buffer with one mask bit per position) — the generic
// VM loop handles those.
struct ExistsProbe {
  static constexpr int kMaxPositions = 16;
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

// Appends a human-readable disassembly of `plan`'s code to `out`: the full
// program, then per pivot its slot range and rest program (pdxcli
// --dump-plans).
void AppendCodeDump(const BodyPlan& plan, const Schema& schema,
                    const std::vector<std::string>& var_names,
                    std::string* out);

}  // namespace plan
}  // namespace pdx

#endif  // PDX_PLAN_BYTECODE_H_
