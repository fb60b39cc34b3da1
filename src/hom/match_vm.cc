#include "hom/match_vm.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

namespace pdx {

namespace {

constexpr size_t kNoLimit = std::numeric_limits<size_t>::max();

// One join level of the running program: the candidate cursor plus the
// state needed to fetch tuples and to unwind on backtrack. `cand` is null
// for dense scans (the cursor doubles as the tuple index).
struct VmFrame {
  const int32_t* cand = nullptr;
  size_t cursor = 0;
  size_t count = 0;
  size_t limit = kNoLimit;  // exclusive tuple-index bound (delta confinement)
  const Value* data = nullptr;
  size_t arity = 0;
  uint32_t header = 0;      // offset of this frame's loop-header instr
  uint32_t trail_mark = 0;
  bool bind_probe = false;  // degraded probe-var: bind `pos` at runtime
};

// All VM registers: the binding under construction, the unbind trail, and
// the frame stack. Pooled per thread and reused — steady-state execution
// allocates nothing (frames/trail keep their capacity across leases).
struct VmContext {
  Binding binding;
  Binding start;  // partition-entry binding, reused across pivot tuples
  std::vector<VariableId> trail;
  std::vector<VmFrame> frames;
};

// Contexts are leased from a per-thread pool indexed by nesting depth —
// a VM enumeration's callback can itself run a planned head check (the
// chase's keep filter does), so plain thread_local reuse would alias.
struct VmPool {
  std::vector<std::unique_ptr<VmContext>> contexts;
  size_t depth = 0;
};

VmPool& ThreadVmPool() {
  thread_local VmPool pool;
  return pool;
}

class VmLease {
 public:
  VmLease() {
    VmPool& pool = ThreadVmPool();
    if (pool.depth == pool.contexts.size()) {
      pool.contexts.push_back(std::make_unique<VmContext>());
    }
    ctx_ = pool.contexts[pool.depth++].get();
  }
  ~VmLease() { --ThreadVmPool().depth; }
  VmLease(const VmLease&) = delete;
  VmLease& operator=(const VmLease&) = delete;

  VmContext* operator->() const { return ctx_; }
  VmContext* get() const { return ctx_; }

 private:
  VmContext* ctx_;
};

// Binding assignment that reuses the destination's capacity, resolving
// bound values when the instance has merges (bindings always hold
// resolved values).
void AssignResolvedPartial(const Instance& instance, const Binding& partial,
                           Binding* out) {
  *out = partial;
  if (!instance.has_merges()) return;
  for (size_t v = 0; v < out->bound.size(); ++v) {
    if (out->bound[v]) out->values[v] = instance.ResolveValue(out->values[v]);
  }
}

void EnsureVmFrames(VmContext* ctx, int n) {
  if (static_cast<int>(ctx->frames.size()) < n) ctx->frames.resize(n);
}

// Runs the slot instructions [begin, end) against `tuple`. kBind and
// kCheckVar share the runtime-checked path (bind if unbound, else compare)
// so a caller whose partial binding differs from the compiled assumption
// still executes correctly.
template <bool kResolved>
bool RunSlots(VmContext* ctx, const plan::Instr* code, uint32_t begin,
              uint32_t end, const Value* tuple,
              const ValueResolver* resolver) {
  for (uint32_t ip = begin; ip < end; ++ip) {
    const plan::Instr& instr = code[ip];
    Value tv = tuple[instr.pos];
    if (kResolved) tv = resolver->Resolve(tv);
    if (instr.op == plan::Instr::kCheckConst) {
      if (tv != instr.key) return false;
      continue;
    }
    if (ctx->binding.bound[instr.var]) {
      if (ctx->binding.values[instr.var] != tv) return false;
    } else {
      ctx->binding.Bind(instr.var, tv);
      ctx->trail.push_back(instr.var);
    }
  }
  return true;
}

// The inner loop: executes the loop-nest starting at `entry` against the
// current ctx->binding. Returns true iff the callback stopped the
// enumeration. `additive_pivot` >= 0 confines headers with
// atom_index < additive_pivot to tuples below delta->begin(relation)
// (the pivot confinement of DeltaPartition).
template <bool kResolved, typename Fn>
bool RunLoops(VmContext* ctx, const plan::BodyPlan& plan, uint32_t entry,
              const Instance& instance, const ValueResolver* resolver,
              const DeltaView* delta, int additive_pivot, const Fn& fn) {
  const plan::Instr* code = plan.code.data();
  if (code[entry].op == plan::Instr::kEmit) {
    // Zero remaining joins: the binding is already a complete match.
    return !fn(ctx->binding);
  }
  int depth = 0;
  uint32_t header = entry;
  bool open = true;
  for (;;) {
    if (open) {
      const plan::Instr& h = code[header];
      VmFrame& f = ctx->frames[depth];
      f.header = header;
      f.cursor = 0;
      f.trail_mark = static_cast<uint32_t>(ctx->trail.size());
      f.bind_probe = false;
      const TupleList tuples = instance.tuples(h.relation);
      f.data = tuples.data();
      f.arity = static_cast<size_t>(tuples.arity());
      f.limit = kNoLimit;
      if (additive_pivot >= 0 && h.atom_index < additive_pivot) {
        f.limit = delta->begin(h.relation);
      }
      // Resolve the access path. A probe-var whose variable the caller
      // left unbound degrades to a scan with the probed position handled
      // as a runtime bind.
      plan::Instr::Op op = h.op;
      Value key;
      if (op == plan::Instr::kProbeVar) {
        if (ctx->binding.bound[h.var]) {
          key = ctx->binding.values[h.var];
        } else {
          op = plan::Instr::kScan;
          f.bind_probe = true;
        }
      } else if (op == plan::Instr::kProbeConst) {
        key = h.key;
      }
      if (op == plan::Instr::kScan) {
        f.cand = nullptr;
        f.count = f.limit < tuples.size() ? f.limit : tuples.size();
      } else {
        TupleIndexSpan span;
        if (kResolved) {
          span = instance.TuplesWithResolvedValueAt(h.relation, h.pos, key);
        } else {
          span = instance.TuplesWithValueAt(h.relation, h.pos, key);
        }
        f.cand = span.data();
        f.count = span.size();
      }
      // Leaf fusion: when this level's continuation is kEmit, its
      // candidates need no frame bookkeeping — run them in one tight
      // loop (the innermost level carries nearly all of the fanout, so
      // per-candidate state-machine overhead is what the flattening was
      // meant to eliminate). Semantics are the general path's exactly:
      // same candidate order, same limit confinement, same trail
      // discipline between candidates.
      const uint32_t leaf_ops_begin = header + 1;
      const uint32_t leaf_ops_end = leaf_ops_begin + h.nops;
      if (code[leaf_ops_end].op == plan::Instr::kEmit) {
        for (size_t i = 0; i < f.count; ++i) {
          const size_t candidate =
              f.cand == nullptr ? i : static_cast<size_t>(f.cand[i]);
          if (candidate >= f.limit) continue;
          while (ctx->trail.size() > f.trail_mark) {
            ctx->binding.bound[ctx->trail.back()] = false;
            ctx->trail.pop_back();
          }
          const Value* tuple = f.data + candidate * f.arity;
          bool ok = RunSlots<kResolved>(ctx, code, leaf_ops_begin,
                                        leaf_ops_end, tuple, resolver);
          if (ok && f.bind_probe) {
            Value tv = tuple[h.pos];
            if (kResolved) tv = resolver->Resolve(tv);
            if (ctx->binding.bound[h.var]) {
              ok = ctx->binding.values[h.var] == tv;
            } else {
              ctx->binding.Bind(h.var, tv);
              ctx->trail.push_back(h.var);
            }
          }
          if (!ok) continue;
          if (!fn(ctx->binding)) return true;
        }
        if (depth == 0) return false;
        --depth;
        open = false;
        continue;
      }
      open = false;
    }
    VmFrame& f = ctx->frames[depth];
    const plan::Instr& h = code[f.header];
    // Unwind whatever the previous candidate (and any child frames) bound.
    while (ctx->trail.size() > f.trail_mark) {
      ctx->binding.bound[ctx->trail.back()] = false;
      ctx->trail.pop_back();
    }
    // Next admissible candidate.
    size_t idx = 0;
    bool found = false;
    while (f.cursor < f.count) {
      const size_t i = f.cursor++;
      const size_t candidate =
          f.cand == nullptr ? i : static_cast<size_t>(f.cand[i]);
      if (candidate >= f.limit) continue;
      idx = candidate;
      found = true;
      break;
    }
    if (!found) {
      if (depth == 0) return false;
      --depth;
      continue;
    }
    const Value* tuple = f.data + idx * f.arity;
    const uint32_t ops_begin = f.header + 1;
    const uint32_t ops_end = ops_begin + h.nops;
    bool ok =
        RunSlots<kResolved>(ctx, code, ops_begin, ops_end, tuple, resolver);
    if (ok && f.bind_probe) {
      Value tv = tuple[h.pos];
      if (kResolved) tv = resolver->Resolve(tv);
      if (ctx->binding.bound[h.var]) {
        ok = ctx->binding.values[h.var] == tv;
      } else {
        ctx->binding.Bind(h.var, tv);
        ctx->trail.push_back(h.var);
      }
    }
    if (!ok) continue;
    if (code[ops_end].op == plan::Instr::kEmit) {
      if (!fn(ctx->binding)) return true;
      continue;
    }
    header = ops_end;
    ++depth;
    open = true;
  }
}

// Index-level fast path for existence checks on single-join-level plans
// over a merge-free instance. The partial binding determines the probe
// key plus some subset of the remaining positions; positions held by
// unbound (existential) variables are free. Fully determined plans
// collapse to one dedup-set point lookup; plans with free positions to a
// raw walk of the probe's index bucket comparing only the determined
// positions. Either way: no context lease, no binding copy, no trail.
// Only sound with a trivial resolver (raw equality == resolved
// equality). Returns true via `*result` when it applied; false means
// fall back to the generic loop (multi-level plans, scan access, an
// unbound variable repeated across positions).
bool TryFastExists(const plan::BodyPlan& plan, const Instance& instance,
                   const Binding& partial, bool* result) {
  constexpr size_t kMaxArity = plan::ExistsProbe::kMaxPositions;
  const plan::ExistsProbe& probe = plan.exists;
  // Invalid for > 1 level, scan access, or more than kMaxArity positions,
  // so every position below indexes `buf` and shifts within 32 bits.
  if (!probe.valid) return false;
  Value key;
  if (probe.var < 0) {
    key = probe.key;
  } else if (partial.bound[probe.var]) {
    key = partial.values[probe.var];
  } else {
    return false;  // unbound probe
  }
  Value buf[kMaxArity];
  buf[probe.pos] = key;
  uint32_t filled = 1u << probe.pos;
  uint32_t free_mask = 0;
  VariableId free_vars[kMaxArity];
  int n_free = 0;
  for (const plan::ExistsProbe::Slot& slot : probe.slots) {
    Value v;
    if (slot.var < 0) {
      v = slot.key;
    } else if (partial.bound[slot.var]) {
      v = partial.values[slot.var];
    } else {
      // Unbound variable: its position is unconstrained — unless the
      // same variable covers two positions, which couples them and
      // needs the generic unifier.
      for (int i = 0; i < n_free; ++i) {
        if (free_vars[i] == slot.var) return false;
      }
      free_vars[n_free++] = slot.var;
      free_mask |= 1u << slot.pos;
      continue;
    }
    // A repeated determined position must agree with the earlier value
    // or the lookup trivially fails.
    if ((filled >> slot.pos) & 1u) {
      if (buf[slot.pos] != v) {
        *result = false;
        return true;
      }
      continue;
    }
    buf[slot.pos] = v;
    filled |= 1u << slot.pos;
  }
  const TupleList tuples = instance.tuples(probe.relation);
  const size_t arity = static_cast<size_t>(tuples.arity());
  if (arity > kMaxArity || (filled | free_mask) != (1u << arity) - 1) {
    return false;
  }
  if (free_mask == 0) {
    *result = instance.ContainsExact(probe.relation, buf, arity);
    return true;
  }
  const TupleIndexSpan span =
      instance.TuplesWithValueAt(probe.relation, probe.pos, key);
  const Value* data = tuples.data();
  const uint32_t check = filled & ~(1u << probe.pos);  // bucket fixes pos
  for (const int32_t idx : span) {
    const Value* t = data + static_cast<size_t>(idx) * arity;
    bool ok = true;
    for (size_t pos = 0; pos < arity; ++pos) {
      if (((check >> pos) & 1u) && t[pos] != buf[pos]) {
        ok = false;
        break;
      }
    }
    if (ok) {
      *result = true;
      return true;
    }
  }
  *result = false;
  return true;
}

}  // namespace

bool EnumerateMatchesPlanned(const plan::BodyPlan& plan,
                             const Instance& instance, const Binding& partial,
                             const std::function<bool(const Binding&)>& fn) {
  PDX_CHECK_EQ(static_cast<int>(partial.bound.size()), plan.var_count);
  VmLease ctx;
  AssignResolvedPartial(instance, partial, &ctx->binding);
  ctx->trail.clear();
  EnsureVmFrames(ctx.get(), plan.max_depth);
  if (instance.has_merges()) {
    return RunLoops<true>(ctx.get(), plan, plan.full_entry, instance,
                          &instance.resolver(), nullptr, -1, fn);
  }
  return RunLoops<false>(ctx.get(), plan, plan.full_entry, instance, nullptr,
                         nullptr, -1, fn);
}

bool HasMatchPlanned(const plan::BodyPlan& plan, const Instance& instance,
                     const Binding& partial) {
  PDX_CHECK_EQ(static_cast<int>(partial.bound.size()), plan.var_count);
  if (plan.code[plan.full_entry].op == plan::Instr::kEmit) {
    return true;  // zero joins: the partial binding is already a match
  }
  bool result = false;
  if (!instance.has_merges() &&
      TryFastExists(plan, instance, partial, &result)) {
    return result;
  }
  // Generic fallback: the full enumeration loop, stopped at the first
  // emit. The inlined callback keeps std::function off this path.
  VmLease ctx;
  AssignResolvedPartial(instance, partial, &ctx->binding);
  ctx->trail.clear();
  EnsureVmFrames(ctx.get(), plan.max_depth);
  const auto stop = [](const Binding&) { return false; };
  if (instance.has_merges()) {
    return RunLoops<true>(ctx.get(), plan, plan.full_entry, instance,
                          &instance.resolver(), nullptr, -1, stop);
  }
  return RunLoops<false>(ctx.get(), plan, plan.full_entry, instance, nullptr,
                         nullptr, -1, stop);
}

void PartitionDeltaMatches(const plan::BodyPlan& plan, const DeltaView& delta,
                           size_t max_partitions,
                           std::vector<DeltaPartition>* parts) {
  // Additive pivots come first (atoms before them are confined to
  // pre-delta facts, so each match is enumerated under exactly one such
  // pivot — its first delta atom), then the merge-dirtied extras pivots.
  size_t total = 0;
  for (const plan::BodyPlan::Pivot& p : plan.pivots) {
    size_t begin = delta.begin(p.relation);
    size_t end = delta.end(p.relation);
    if (begin < end) total += end - begin;
    total += delta.extras(p.relation).size();
  }
  parts->clear();
  if (total == 0) return;
  if (max_partitions == 0) max_partitions = 1;
  // Equal-width chunks of the combined pivot space; chunks never span
  // pivots, so the count can exceed the cap by at most one per pivot.
  size_t chunk = std::max<size_t>(1, (total + max_partitions - 1) /
                                         max_partitions);
  for (size_t pivot = 0; pivot < plan.pivots.size(); ++pivot) {
    size_t begin = delta.begin(plan.pivots[pivot].relation);
    size_t end = delta.end(plan.pivots[pivot].relation);
    for (size_t s = begin; s < end; s += chunk) {
      parts->push_back({pivot, s, std::min(end, s + chunk), false});
    }
  }
  for (size_t pivot = 0; pivot < plan.pivots.size(); ++pivot) {
    size_t count = delta.extras(plan.pivots[pivot].relation).size();
    for (size_t s = 0; s < count; s += chunk) {
      parts->push_back({pivot, s, std::min(count, s + chunk), true});
    }
  }
}

bool EnumerateDeltaPartitionPlanned(
    const plan::BodyPlan& plan, const Instance& instance,
    const DeltaView& delta, const DeltaPartition& partition,
    const Binding& partial, const std::function<bool(const Binding&)>& fn) {
  PDX_CHECK_EQ(static_cast<int>(partial.bound.size()), plan.var_count);
  PDX_CHECK_LT(partition.pivot, plan.pivots.size());
  const plan::BodyPlan::Pivot& v = plan.pivots[partition.pivot];
  const TupleList tuples = instance.tuples(v.relation);
  const bool resolved = instance.has_merges();
  const ValueResolver* resolver = resolved ? &instance.resolver() : nullptr;
  VmLease ctx;
  AssignResolvedPartial(instance, partial, &ctx->start);
  EnsureVmFrames(ctx.get(), plan.max_depth);
  const int additive_pivot =
      partition.over_extras ? -1 : static_cast<int>(partition.pivot);
  const plan::Instr* instrs = plan.code.data();
  // Unifies one pivot tuple then runs the pivot's rest program.
  auto run_pivot = [&](size_t idx) {
    ctx->binding = ctx->start;
    ctx->trail.clear();
    const Value* tuple = tuples.data() + idx * tuples.arity();
    if (resolved) {
      if (!RunSlots<true>(ctx.get(), instrs, v.slots_begin, v.slots_end,
                          tuple, resolver)) {
        return false;
      }
      return RunLoops<true>(ctx.get(), plan, v.entry, instance, resolver,
                            &delta, additive_pivot, fn);
    }
    if (!RunSlots<false>(ctx.get(), instrs, v.slots_begin, v.slots_end,
                         tuple, resolver)) {
      return false;
    }
    return RunLoops<false>(ctx.get(), plan, v.entry, instance, resolver,
                           &delta, additive_pivot, fn);
  };
  if (!partition.over_extras) {
    for (size_t idx = partition.begin;
         idx < partition.end && idx < tuples.size(); ++idx) {
      if (run_pivot(idx)) return true;
    }
    return false;
  }
  const std::vector<int>& extra = delta.extras(v.relation);
  PDX_CHECK_LE(partition.end, extra.size());
  for (size_t e = partition.begin; e < partition.end; ++e) {
    const size_t idx = static_cast<size_t>(extra[e]);
    PDX_DCHECK(idx < tuples.size());
    if (run_pivot(idx)) return true;
  }
  return false;
}

}  // namespace pdx
