#include "pde/ctract_solver.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <optional>
#include <vector>

#include "base/string_util.h"
#include "base/thread_pool.h"
#include "chase/chase.h"
#include "chase/delta_phase.h"
#include "hom/instance_hom.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/plan_cache.h"

namespace pdx {

namespace {

// Blocks per pooled check task: fixed, so chunk boundaries do not depend
// on the thread count.
constexpr size_t kBlocksPerChunk = 1024;

// Σ_ts body pivot tuples per worker of the by-trigger pass: a request
// whose J_can fits in one chunk runs the pass on the calling thread.
constexpr size_t kPivotTuplesPerChunk = 1024;

struct CtractMetrics {
  obs::Counter runs, blocks, block_checks, trigger_checks;
  static CtractMetrics& Get() {
    static CtractMetrics* m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      auto* metrics = new CtractMetrics();
      metrics->runs = reg.GetCounter("pdx_ctract_runs_total");
      metrics->blocks = reg.GetCounter("pdx_ctract_blocks_total");
      metrics->block_checks = reg.GetCounter("pdx_ctract_block_checks_total");
      metrics->trigger_checks =
          reg.GetCounter("pdx_ctract_trigger_checks_total");
      return metrics;
    }();
    return *m;
  }
};

// What one firing of a Σ_ts tgd adds to the blocks of I_can when its
// frontier (the body variables its head names) binds no null: its fresh
// nulls, grouped into the connected components of "occur in one head
// atom", each a block of its own, and its existential-free head atoms,
// which join the one null-free block.
struct HeadBlocks {
  std::vector<VariableId> frontier;
  int64_t components = 0;     // blocks per firing
  int64_t max_component = 0;  // nulls in the largest of them
  std::vector<bool> ground;   // per head atom: it has no existential
};

HeadBlocks AnalyzeHead(const Tgd& tgd) {
  HeadBlocks shape;
  std::vector<VariableId> parent(tgd.var_count);
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&](VariableId v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  };
  std::vector<bool> in_head(tgd.var_count, false);
  for (const Atom& atom : tgd.head) {
    VariableId first = -1;
    for (const Term& term : atom.terms) {
      if (term.is_constant()) continue;
      const VariableId v = term.var();
      in_head[v] = true;
      if (!tgd.existential[v]) continue;
      if (first < 0) {
        first = v;
      } else {
        parent[find(v)] = find(first);
      }
    }
    shape.ground.push_back(first < 0);
  }
  std::vector<int64_t> size(tgd.var_count, 0);
  for (VariableId v = 0; v < tgd.var_count; ++v) {
    if (!in_head[v]) continue;
    if (!tgd.existential[v]) {
      shape.frontier.push_back(v);
    } else if (++size[find(v)] == 1) {
      ++shape.components;
    }
  }
  for (int64_t nulls : size) {
    shape.max_component = std::max(shape.max_component, nulls);
  }
  return shape;
}

// One worker's share of the by-trigger pass.
struct TriggerSlot {
  int64_t probes = 0;
  std::vector<Value> head;  // scratch head row, reused across probes
  void clear() { probes = 0; }
};

struct TriggerPass {
  bool frontier_null = false;  // some body match binds a null at a frontier
  bool failed = false;         // some null-free frontier's head misses I
  int64_t probes = 0;          // head probes run
};

// True iff the head of `plan` holds in `into` under the body match `m`
// (`head` is scratch). The head splits along the blocks of I_can: an
// existential-free atom belongs to the null-free block, its image is
// fixed by `m`, and one exact lookup decides it; the atoms holding an
// existential run as `open`, their own compiled plan. So no index of I is
// built for an atom the probe can look up whole.
bool HeadHolds(const plan::TgdPlan& plan, const plan::BodyPlan& open,
               const HeadBlocks& shape, const Instance& into, const Binding& m,
               std::vector<Value>* head) {
  head->clear();
  AppendHeadRow(plan.apply, m.values.data(), head);
  const Value* row = head->data();
  for (size_t k = 0; k < shape.ground.size(); ++k) {
    const plan::HeadAtom& atom = plan.apply.head_atoms[k];
    if (shape.ground[k] &&
        !into.ContainsExact(atom.relation, row,
                            static_cast<size_t>(atom.arity))) {
      return false;
    }
    row += atom.arity;
  }
  return shape.components == 0 || HasMatchPlanned(open, into, m);
}

// Figure 3 by trigger. Runs every Σ_ts tgd's body over J_can and, for each
// match whose frontier binds no null, probes the head under that binding
// in `into` (I) with HeadHolds. Stops at the first frontier
// null; after the first head that misses I it stops probing but still
// reads the frontiers, which the exact block statistics depend on.
//
// The probes need not know which matches fired in the Σ_ts chase. A match
// the restricted chase skipped has its head held by I_can facts, and any
// homomorphism h: I_can → I fixes the frontier's constants, so that head
// matches I too: every probe of a solvable input succeeds. Conversely, if
// no frontier binds a null, no J_can null reaches I_can, the facts a
// firing adds hold only constants and its own fresh nulls, and the probes
// of the fired matches together give an h.
TriggerPass CheckTriggers(const std::vector<Tgd>& tgds,
                          const std::vector<HeadBlocks>& shapes,
                          const Instance& j_can, const Instance& into,
                          int threads, uint64_t parent_span) {
  std::shared_ptr<const plan::CompiledSetting> compiled =
      plan::PlanCache::Global().GetOrCompile(tgds, {});
  // Each tgd with only its head atoms that hold an existential, compiled
  // (and cached) like any setting: HeadHolds runs their head plans.
  std::vector<Tgd> open_heads;
  for (size_t d = 0; d < tgds.size(); ++d) {
    Tgd open = tgds[d];
    open.head.clear();
    for (size_t k = 0; k < tgds[d].head.size(); ++k) {
      if (!shapes[d].ground[k]) open.head.push_back(tgds[d].head[k]);
    }
    open_heads.push_back(std::move(open));
  }
  std::shared_ptr<const plan::CompiledSetting> open_plans =
      plan::PlanCache::Global().GetOrCompile(open_heads, {});
  const DeltaView delta = DeltaView::All(j_can);
  size_t width = 0;
  for (const plan::TgdPlan& plan : compiled->tgds) {
    for (const plan::BodyPlan::Pivot& pivot : plan.body.pivots) {
      width += delta.end(pivot.relation) - delta.begin(pivot.relation);
    }
  }
  const size_t chunks =
      (width + kPivotTuplesPerChunk - 1) / kPivotTuplesPerChunk;
  const int workers = std::min<int>(threads, static_cast<int>(chunks));
  std::unique_ptr<ThreadPool> pool =
      workers > 1 ? std::make_unique<ThreadPool>(workers) : nullptr;
  std::atomic<bool> frontier_null{false};
  std::atomic<bool> failed{false};
  std::vector<TriggerSlot> slots;
  TriggerPass pass;
  for (size_t d = 0; d < tgds.size() && !frontier_null.load(); ++d) {
    const plan::TgdPlan& plan = compiled->tgds[d];
    const HeadBlocks& shape = shapes[d];
    const size_t used = CollectDeltaSlots(
        plan.body, j_can, delta, pool.get(), parent_span, &slots,
        [&](TriggerSlot* slot, const Binding& m) {
          for (VariableId v : shape.frontier) {
            if (m.values[v].is_null()) {
              frontier_null.store(true, std::memory_order_relaxed);
              return false;
            }
          }
          if (failed.load(std::memory_order_relaxed)) return false;
          ++slot->probes;
          if (!HeadHolds(plan, open_plans->tgds[d].head, shape, into, m,
                         &slot->head)) {
            failed.store(true, std::memory_order_relaxed);
          }
          return true;  // counted as `collected` in chase.collect_part
        },
        &frontier_null);
    for (size_t s = 0; s < used; ++s) pass.probes += slots[s].probes;
  }
  pass.frontier_null = frontier_null.load();
  pass.failed = failed.load();
  return pass;
}

// Figure 3 by block (Theorem 5 as written): decomposes I_can and checks
// fixed chunks of blocks across a pool. Blocks own disjoint nulls, so every
// check writes its nulls' images into their own dense slots: the verdict
// and h are the same at every thread count. After a failing block, chunks
// not yet started are skipped. Sets the verdict and block statistics of
// `result`; returns h when every block maps.
std::optional<NullAssignment> CheckBlocks(const Instance& i_can,
                                          const Instance& into, int threads,
                                          obs::Span* check_span,
                                          CtractSolveResult* result) {
  CtractMetrics& metrics = CtractMetrics::Get();
  const BlockDecomposition blocks(i_can);
  result->block_count = static_cast<int64_t>(blocks.size());
  for (size_t b = 0; b < blocks.size(); ++b) {
    result->max_block_nulls = std::max(
        result->max_block_nulls, static_cast<int64_t>(blocks.null_count(b)));
  }
  std::vector<Value> images(blocks.nulls().size());
  const size_t chunks =
      (blocks.size() + kBlocksPerChunk - 1) / kBlocksPerChunk;
  std::atomic<bool> failed{false};
  const auto check_chunk = [&](size_t c) {
    if (failed.load(std::memory_order_relaxed)) return;
    obs::Span chunk_span(obs::Tracer::Global(), "ctract.block_chunk",
                         check_span->id());
    const size_t begin = c * kBlocksPerChunk;
    const size_t end = std::min(blocks.size(), begin + kBlocksPerChunk);
    const size_t failing = MapBlocks(blocks, begin, end, into, images.data());
    const bool mapped = failing == end;
    if (!mapped) failed.store(true, std::memory_order_relaxed);
    metrics.block_checks.Inc(
        static_cast<int64_t>(failing - begin + (mapped ? 0 : 1)));
    chunk_span.AttrInt("chunk", static_cast<int64_t>(c))
        .AttrInt("blocks", static_cast<int64_t>(end - begin))
        .AttrBool("mapped", mapped);
  };
  const int workers = std::min<int>(threads, static_cast<int>(chunks));
  if (workers > 1) {
    ThreadPool pool(workers);
    pool.ParallelFor(chunks, check_chunk);
  } else {
    for (size_t c = 0; c < chunks; ++c) check_chunk(c);
  }
  check_span->AttrInt("chunks", static_cast<int64_t>(chunks));
  result->has_solution = !failed.load();
  if (!result->has_solution) return std::nullopt;
  return NullAssignment(blocks.slots(), std::move(images));
}

}  // namespace

StatusOr<CtractSolveResult> CtractExistsSolution(
    const PdeSetting& setting, const Instance& source, const Instance& target,
    SymbolTable* symbols, const ChaseOptions& chase_options) {
  PDX_CHECK(symbols != nullptr);
  if (setting.HasTargetConstraints()) {
    return FailedPreconditionError(
        "ExistsSolution requires Σ_t = ∅ (Definition 9 settings)");
  }
  if (setting.HasDisjunctiveTsTgds()) {
    return FailedPreconditionError(
        "ExistsSolution does not support disjunctive ts-tgds");
  }
  if (!setting.ctract_report().theorem5_applicable()) {
    return FailedPreconditionError(
        StrCat("ExistsSolution requires condition 1 of Definition 9; ",
               StrJoin(setting.ctract_report().violations, "; ")));
  }
  PDX_RETURN_IF_ERROR(setting.ValidateSourceInstance(source));
  PDX_RETURN_IF_ERROR(setting.ValidateTargetInstance(target));

  CtractSolveResult result;
  obs::Span run_span(obs::Tracer::Global(), "solve.ctract");
  CtractMetrics& metrics = CtractMetrics::Get();
  metrics.runs.Inc();

  // Step 1: (I, J_can) = chase of (I, J) with Σ_st. Σ_st bodies are over S
  // and heads over T, so the chase adds only target facts and terminates
  // after one pass over the (fixed) source triggers. Both chases of this
  // procedure run through compiled plans: the Σ_st and Σ_ts plan sets are
  // cached process-wide, so repeated solves — and the repeated ctract
  // invocations the pdxcli bench loop issues — compile each of them
  // exactly once.
  Instance combined = setting.CombineInstances(source, target);
  Instance j_can(&setting.schema());
  {
    obs::Span st_span(obs::Tracer::Global(), "ctract.st_chase");
    ChaseResult st_chase =
        Chase(combined, setting.st_tgds(), {}, symbols, chase_options);
    PDX_CHECK(st_chase.outcome == ChaseOutcome::kSuccess)
        << "Σ_st chase cannot fail or diverge";
    result.chase_steps += st_chase.steps;
    j_can = setting.TargetPart(st_chase.instance);
    result.j_can_size = static_cast<int64_t>(j_can.fact_count());
    st_span.AttrInt("steps", st_chase.steps)
        .AttrInt("j_can_size", result.j_can_size);
  }

  // Step 2: (J_can, I_can) = chase of (J_can, ∅) with Σ_ts. Bodies over T
  // (fixed), heads over S: again a single-pass terminating chase.
  Instance i_can(&setting.schema());
  std::vector<int64_t> fired;
  {
    obs::Span ts_span(obs::Tracer::Global(), "ctract.ts_chase");
    ChaseResult ts_chase =
        Chase(j_can, setting.ts_tgds(), {}, symbols, chase_options);
    PDX_CHECK(ts_chase.outcome == ChaseOutcome::kSuccess)
        << "Σ_ts chase cannot fail or diverge";
    result.chase_steps += ts_chase.steps;
    fired = std::move(ts_chase.tgd_fired);
    i_can = setting.SourcePart(ts_chase.instance);
    result.i_can_size = static_cast<int64_t>(i_can.fact_count());
    ts_span.AttrInt("steps", ts_chase.steps)
        .AttrInt("i_can_size", result.i_can_size);
  }

  // Step 3: every block of I_can must map into I. When no Σ_ts frontier
  // binds a J_can null, each block is the nulls of one firing and is
  // decided by that firing's head probe (CheckTriggers); the block
  // statistics then follow from the per-tgd firing counts. Otherwise the
  // blocks are decomposed and checked one by one (CheckBlocks).
  const Instance into = source.has_merges() ? source.CompactResolved() : source;
  const int threads = ResolveThreadCount(chase_options);
  std::optional<NullAssignment> h;
  {
    obs::Span check_span(obs::Tracer::Global(), "ctract.block_check");
    std::vector<HeadBlocks> shapes;
    for (const Tgd& tgd : setting.ts_tgds()) shapes.push_back(AnalyzeHead(tgd));
    const TriggerPass pass = CheckTriggers(setting.ts_tgds(), shapes, j_can,
                                           into, threads, check_span.id());
    metrics.trigger_checks.Inc(pass.probes);
    result.by_trigger = !pass.frontier_null;
    if (result.by_trigger) {
      result.has_solution = !pass.failed;
      bool ground = false;
      for (size_t d = 0; d < shapes.size(); ++d) {
        if (fired[d] == 0) continue;
        result.block_count += fired[d] * shapes[d].components;
        result.max_block_nulls =
            std::max(result.max_block_nulls, shapes[d].max_component);
        const std::vector<bool>& atoms = shapes[d].ground;
        ground |= std::find(atoms.begin(), atoms.end(), true) != atoms.end();
      }
      if (ground) ++result.block_count;
    } else {
      h = CheckBlocks(i_can, into, threads, &check_span, &result);
    }
    metrics.blocks.Inc(result.block_count);
    check_span.AttrBool("by_trigger", result.by_trigger)
        .AttrInt("triggers", pass.probes)
        .AttrInt("blocks", result.block_count)
        .AttrBool("mapped", result.has_solution);
  }
  run_span.AttrInt("blocks", result.block_count)
      .AttrBool("has_solution", result.has_solution);
  if (!result.has_solution) return result;

  // Witness construction (Theorem 5, ⇐): J_img = h_J(J_can) where h_J maps
  // the nulls that J_can shares with I_can per h and fixes everything
  // else. ApplyAssignment leaves nulls outside `h` unchanged, which is
  // exactly h_J, and rebuilds only the J_can relations holding a null h
  // maps. On the by-trigger path no J_can null reaches I_can, so h_J is
  // the identity and the witness is J_can itself.
  result.solution = h.has_value() ? ApplyAssignment(j_can, *h)
                                  : std::move(j_can);
  return result;
}

}  // namespace pdx
