#include "pde/generic_solver.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_set>
#include <utility>

#include "base/thread_pool.h"
#include "chase/chase.h"
#include "chase/delta_phase.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/ir.h"
#include "pde/solution.h"
#include "plan/plan_cache.h"
#include "relational/snapshot.h"

namespace pdx {

namespace {

// Search-effort metrics. The registry totals and the GenericSolveResult
// fields are fed from the same per-run tallies (one bulk Inc per run), so
// BENCH outputs and --metrics-out can never disagree about them.
struct SolverMetrics {
  obs::Counter runs, nodes, nodes_clash, nodes_memo, nodes_pruned;
  obs::Counter candidates_discovered, candidate_checks, witness_revalidated;
  static SolverMetrics& Get() {
    static SolverMetrics* m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      auto* metrics = new SolverMetrics();
      metrics->runs = reg.GetCounter("pdx_solver_runs_total");
      metrics->nodes = reg.GetCounter("pdx_solver_nodes_total");
      metrics->nodes_clash = reg.GetCounter("pdx_solver_nodes_clash_total");
      metrics->nodes_memo = reg.GetCounter("pdx_solver_nodes_memo_total");
      metrics->nodes_pruned = reg.GetCounter("pdx_solver_nodes_pruned_total");
      metrics->candidates_discovered =
          reg.GetCounter("pdx_solver_candidates_discovered_total");
      metrics->candidate_checks =
          reg.GetCounter("pdx_solver_candidate_checks_total");
      metrics->witness_revalidated =
          reg.GetCounter("pdx_solver_witness_revalidated_total");
      return metrics;
    }();
    return *m;
  }
};

enum class TsStatus {
  kSatisfied,
  kViolatedPermanent,  // no later step can repair it: prune
  kViolatedFixable,    // violated only on triggers with nulls, and Σ_t has
                       // egds that might merge them later
};

// A violated st/t tgd trigger to branch on.
struct PendingTrigger {
  const Tgd* tgd = nullptr;
  const plan::ApplyTemplate* apply = nullptr;
  Binding binding;
};

class Searcher {
 public:
  Searcher(const PdeSetting& setting, SymbolTable* symbols,
           const GenericSolverOptions& options)
      : setting_(setting),
        symbols_(symbols),
        options_(options),
        has_egds_(!setting.target_egds().empty()) {
    // Fixed dependency order for candidate buckets and trigger selection:
    // st tgds before target tgds (the historical scan order), ts checks
    // after. Full tgds keep priority over existential ones at selection
    // time via the full_pass loop.
    for (const Tgd& tgd : setting_.st_tgds()) tgd_order_.push_back(&tgd);
    for (const Tgd& tgd : setting_.target_tgds()) tgd_order_.push_back(&tgd);
    tgd_cands_.resize(tgd_order_.size());
    // One cache probe per solve, keyed by the combined setting: the st and
    // target tgds in tgd_order_ order (so compiled_->tgds[t] pairs with
    // tgd_order_[t]), then Σ_ts in check form as one tgd per (dependency,
    // head disjunct), whose body plans drive candidate discovery and whose
    // head plans (compiled with the body variables bound) the checks. Node
    // re-chases never recompile; repeated solves of the same setting hit
    // the process cache.
    std::vector<Tgd> all_tgds;
    for (const Tgd* tgd : tgd_order_) all_tgds.push_back(*tgd);
    std::vector<size_t> ts_heads;  // per ts dependency: its disjunct count
    for (const Tgd& tgd : setting_.ts_tgds()) {
      all_tgds.push_back(tgd);
      ts_heads.push_back(1);
    }
    for (const DisjunctiveTgd& tgd : setting_.ts_disjunctive_tgds()) {
      std::vector<Tgd> split = SplitDisjuncts(tgd);
      ts_heads.push_back(split.size());
      std::move(split.begin(), split.end(), std::back_inserter(all_tgds));
    }
    compiled_ = plan::PlanCache::Global().GetOrCompile(all_tgds,
                                                       setting_.target_egds());
    size_t next = tgd_order_.size();
    for (size_t heads : ts_heads) {
      TsDep dep{&compiled_->tgds[next].body, {}, all_tgds[next].var_count};
      for (size_t h = 0; h < heads; ++h, ++next) {
        dep.heads.push_back(&compiled_->tgds[next].head);
      }
      ts_deps_.push_back(std::move(dep));
    }
    ts_cands_.resize(ts_deps_.size());
  }

  GenericSolveResult Run(Instance start) {
    obs::Span run_span(obs::Tracer::Global(), "solve.generic");
    run_span.AttrBool("enumerate_all", options_.enumerate_all);
    int threads = options_.num_threads <= 0
                      ? ThreadPool::HardwareConcurrency()
                      : options_.num_threads;
    if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
    // The egd probe's nulls: one id per existential of the widest tgd,
    // reserved once and reused by every probe of this solve.
    if (has_egds_) {
      uint32_t most = 0;
      for (size_t t = 0; t < tgd_order_.size(); ++t) {
        most = std::max(most, static_cast<uint32_t>(
                                  compiled_->tgds[t].apply.fresh_per_trigger));
      }
      if (most > 0) probe_null_base_ = symbols_->ReserveNullRange(most);
    }
    // At the root everything is "new", so the root's candidate discovery
    // is the one full scan; below the root, children only discover what
    // they added or merged.
    InstanceWatermark origin = InstanceWatermark::Origin(start);
    Explore(std::move(start), 0, origin);
    result_.nodes_explored = nodes_;
    run_span.AttrInt("nodes", nodes_).AttrBool("found", found_);
    SolverMetrics& metrics = SolverMetrics::Get();
    metrics.runs.Inc();
    metrics.nodes.Inc(nodes_);
    metrics.nodes_clash.Inc(result_.nodes_clash);
    metrics.nodes_memo.Inc(result_.nodes_memo);
    metrics.nodes_pruned.Inc(result_.nodes_pruned);
    metrics.candidates_discovered.Inc(result_.candidates_discovered);
    metrics.candidate_checks.Inc(result_.candidate_checks);
    if (budget_hit_ && !found_) {
      result_.outcome = SolveOutcome::kBudgetExhausted;
    } else if (budget_hit_ && options_.enumerate_all) {
      // Found some solutions but could not finish the enumeration.
      result_.outcome = SolveOutcome::kBudgetExhausted;
    } else if (found_) {
      result_.outcome = SolveOutcome::kSolutionFound;
    } else {
      result_.outcome = SolveOutcome::kNoSolution;
    }
    return std::move(result_);
  }

 private:
  // One ts dependency in check form: the compiled body plus the
  // admissible head options (a single head for plain tgds, one per
  // disjunct otherwise), all plans owned by compiled_.
  struct TsDep {
    const plan::BodyPlan* body;
    std::vector<const plan::BodyPlan*> heads;
    int var_count;
  };

  // A cached trigger: a body match discovered violated at some node of the
  // current DFS path. `satisfied` marks candidates proven repaired at the
  // current node or an ancestor of it within this subtree — satisfaction
  // is monotone (facts only grow, merges only coarsen), so descendants
  // skip them; the mark is undone on backtrack past the marking node.
  struct Candidate {
    Binding binding;
    bool satisfied = false;
  };

  // Bucket snapshot taken at node entry and restored at node exit: the
  // DFS append/truncate discipline that keeps buckets holding exactly the
  // candidates discovered on the current root-to-node path.
  struct Frame {
    std::vector<size_t> tgd_sizes;
    std::vector<size_t> ts_sizes;
    size_t trail_size = 0;
  };

  // The reusable buffers of one search depth: Explore at depth d works
  // in ScratchAt(d). Siblings at one depth run one after another, and a
  // node's buffers are left alone while its children (depth d + 1) run,
  // so nothing a frame still reads is overwritten; each buffer keeps its
  // capacity from node to node, so a node allocates only for what it
  // must own (its copy-on-write clones and union-find state).
  struct NodeScratch {
    std::vector<std::vector<int>> extras;  // the egd fixpoint's dirty tuples
    DeltaView delta;                        // the node's discovery delta
    Frame frame;
    PendingTrigger trigger;
    std::vector<Value> domain;  // plus the nulls of the assignment so far
    std::vector<VariableId> exist_vars;
    std::vector<std::optional<Value>> forced;
    // The egd probe's binding, nulls and dirty tuples.
    Binding probe_binding;
    std::vector<Value> probe_nulls;
    std::vector<std::vector<int>> probe_extras;
  };

  NodeScratch& ScratchAt(int depth) {
    while (scratch_.size() <= static_cast<size_t>(depth)) {
      scratch_.push_back(std::make_unique<NodeScratch>());
    }
    return *scratch_[depth];
  }

  void PushFrame(Frame* f) const {
    f->tgd_sizes.clear();
    for (const auto& bucket : tgd_cands_) f->tgd_sizes.push_back(bucket.size());
    f->ts_sizes.clear();
    for (const auto& bucket : ts_cands_) f->ts_sizes.push_back(bucket.size());
    f->trail_size = satisfied_trail_.size();
  }

  void PopFrame(const Frame& f) {
    // Unmark before truncating: a trail entry may point at a candidate
    // this node appended (about to be dropped) or at an ancestor's (kept,
    // and possibly violated again on the next sibling branch).
    while (satisfied_trail_.size() > f.trail_size) {
      auto [bucket, idx] = satisfied_trail_.back();
      satisfied_trail_.pop_back();
      BucketAt(bucket)[idx].satisfied = false;
    }
    for (size_t t = 0; t < tgd_cands_.size(); ++t) {
      tgd_cands_[t].resize(f.tgd_sizes[t]);
    }
    for (size_t j = 0; j < ts_cands_.size(); ++j) {
      ts_cands_[j].resize(f.ts_sizes[j]);
    }
  }

  // Buckets are addressed jointly in the trail: [0, #tgds) are tgd
  // buckets, #tgds + j is ts bucket j.
  std::vector<Candidate>& BucketAt(size_t bucket) {
    return bucket < tgd_cands_.size()
               ? tgd_cands_[bucket]
               : ts_cands_[bucket - tgd_cands_.size()];
  }

  void MarkSatisfied(size_t bucket, size_t idx) {
    BucketAt(bucket)[idx].satisfied = true;
    satisfied_trail_.push_back({bucket, idx});
  }

  // Returns true to abort the entire search (first solution found in
  // non-enumerating mode, or budget exhausted). `since` is the parent
  // snapshot's watermark: everything `k` holds beyond it is what this
  // branch added, and is the only place a new violation can hide (the
  // parent discovered everything up to its own state).
  bool Explore(Instance k, int depth, const InstanceWatermark& since) {
    if (nodes_ >= options_.max_nodes || depth > options_.max_depth) {
      budget_hit_ = true;
      return true;
    }
    ++nodes_;
    obs::Span node_span(obs::Tracer::Global(), "solve.node");
    node_span.AttrInt("depth", depth);

    // Deterministic phase: egd fixpoint, delta-restricted. The merge
    // extras feed candidate discovery below — a merge-enabled trigger
    // binds a dirtied tuple, not necessarily an added fact.
    NodeScratch& s = ScratchAt(depth);
    ClearLists(&s.extras);
    if (!ApplyEgdFixpoint(&k, since, &s.extras)) {  // clash: dead
      ++result_.nodes_clash;
      return false;
    }

    // Memoization (after egds so equivalent states coincide).
    if (!visited_.insert(k.CanonicalFingerprint()).second) {
      ++result_.nodes_memo;
      return false;
    }

    PushFrame(&s.frame);
    bool stop = ExploreCore(std::move(k), depth, since, &s);
    PopFrame(s.frame);
    return stop;
  }

  bool ExploreCore(Instance k, int depth, const InstanceWatermark& since,
                   NodeScratch* s) {
    // Incremental trigger maintenance: discover candidates the node's
    // delta (branch additions + merge-dirtied tuples) can have created,
    // then answer the ts check and the pending-trigger search from the
    // cached candidates alone. No full-instance rescans.
    s->delta.Reset(k, &since, &s->extras);
    if (!DiscoverCandidates(k, s->delta)) return false;  // permanent ts hit

    TsStatus ts = CheckTsCached(k);
    if (ts == TsStatus::kViolatedPermanent) return false;

    PendingTrigger& trigger = s->trigger;
    if (!FindPendingTriggerCached(k, &trigger)) {
      // Fixpoint of Σ_st ∪ Σ_t.
      if (ts != TsStatus::kSatisfied) return false;
      return RecordSolution(k);
    }

    // Branch over witness assignments for the trigger's existential
    // variables: current active domain values, nulls introduced for
    // earlier variables of this same assignment, or one fresh null.
    // Branches fork off a copy-on-write snapshot of the egd-normalized
    // state, so each child costs O(relations touched), not O(instance).
    k.ActiveDomain(&s->domain);
    s->exist_vars.clear();
    for (VariableId v = 0; v < trigger.tgd->var_count; ++v) {
      if (trigger.tgd->existential[v] && !trigger.binding.bound[v]) {
        s->exist_vars.push_back(v);
      }
    }
    const InstanceSnapshot snapshot(std::move(k));
    s->forced.assign(s->exist_vars.size(), std::nullopt);
    if (has_egds_ && !s->exist_vars.empty() &&
        !ProbeAssignment(snapshot, *trigger.apply, s)) {
      ++result_.nodes_pruned;  // every assignment clashes
      return false;
    }
    return BranchOnAssignment(snapshot, depth, *trigger.apply, s, 0);
  }

  // The most-general probe of a branching node: one branch in which every
  // existential takes its own fresh null, run to its egd fixpoint. Mapping
  // each probe null to the value an assignment chooses is a homomorphism
  // from the probe state into that assignment's state, so every egd
  // trigger of the probe is one of the assignment too: every clash and
  // every forced equality of the probe holds for every assignment.
  // Returns false if the probe clashes (no assignment survives). Otherwise
  // forced[i] is set when the probe equates exist_vars[i] with a value r
  // of `domain`: the fresh-null choice for it is then the same state as
  // choosing r, and when r is a constant every other constant clashes.
  // The probe nulls are the ids reserved once per solve (Run): the probe
  // instance is discarded before any child runs and no forced value is a
  // probe null, so no search state ever holds them and every probe may
  // reuse them. Reads the trigger, the existentials and the domain from
  // `s` and writes s->forced.
  bool ProbeAssignment(const InstanceSnapshot& snapshot,
                       const plan::ApplyTemplate& apply, NodeScratch* s) {
    const std::vector<Value>& domain = s->domain;
    std::vector<std::optional<Value>>* forced = &s->forced;
    std::vector<Value>& probe_nulls = s->probe_nulls;
    Binding& binding = s->probe_binding;
    binding = s->trigger.binding;
    probe_nulls.clear();
    for (VariableId v : s->exist_vars) {
      probe_nulls.push_back(Value::Null(
          probe_null_base_ + static_cast<uint32_t>(probe_nulls.size())));
      binding.Bind(v, probe_nulls.back());
    }
    Instance probe = snapshot.Branch();
    AddHeadFacts(apply, binding.values.data(), &probe);
    ClearLists(&s->probe_extras);
    if (!ApplyEgdFixpoint(&probe, snapshot.watermark(), &s->probe_extras)) {
      return false;
    }
    auto is_probe_null = [&](Value v) {
      return std::find(probe_nulls.begin(), probe_nulls.end(), v) !=
             probe_nulls.end();
    };
    const Instance& k = snapshot.get();
    for (size_t i = 0; i < probe_nulls.size(); ++i) {
      Value root = probe.ResolveValue(probe_nulls[i]);
      if (root.is_constant()) {
        // A head constant outside the domain is no branch of its own.
        if (std::find(domain.begin(), domain.end(), root) != domain.end()) {
          (*forced)[i] = root;
        }
        continue;
      }
      // A null root: a pre-existing one is a root of k already, so it is
      // in the domain; a probe null may still have absorbed a class of k,
      // whose root is then the value it is forced to.
      if (!is_probe_null(root)) {
        (*forced)[i] = root;
        continue;
      }
      if (const std::vector<Value>* members = probe.resolver().ClassMembers(
              root)) {
        for (Value m : *members) {
          if (!is_probe_null(m)) {
            (*forced)[i] = k.ResolveValue(m);
            break;
          }
        }
      }
    }
    return true;
  }

  // Recursively enumerates assignments for exist_vars[i..): each variable
  // tries every current-domain value, every null invented for an earlier
  // variable of this assignment (those are appended to `domain` as we
  // recurse), and one fresh null. A variable the probe forced to a value
  // r skips its fresh null (the same state as r), and every other
  // constant when r is a constant (a certain clash). The assignment is
  // written into s->trigger.binding in place: level i binds exist_vars[i]
  // before each descent, so the leaf reads a complete assignment.
  bool BranchOnAssignment(const InstanceSnapshot& snapshot, int depth,
                          const plan::ApplyTemplate& apply, NodeScratch* s,
                          size_t i) {
    Binding& binding = s->trigger.binding;
    const std::vector<VariableId>& exist_vars = s->exist_vars;
    std::vector<Value>& domain = s->domain;
    if (i == exist_vars.size()) {
      Instance k2 = snapshot.Branch();
      AddHeadFacts(apply, binding.values.data(), &k2);
      return Explore(std::move(k2), depth + 1, snapshot.watermark());
    }
    VariableId v = exist_vars[i];
    const std::optional<Value>& r = s->forced[i];
    // Existing values (including nulls invented for earlier variables of
    // this assignment, which BranchOnAssignment appended below).
    size_t domain_size = domain.size();
    for (size_t d = 0; d < domain_size; ++d) {
      if (r.has_value() && r->is_constant() && domain[d].is_constant() &&
          domain[d] != *r) {
        ++result_.nodes_pruned;
        continue;
      }
      binding.Bind(v, domain[d]);
      if (BranchOnAssignment(snapshot, depth, apply, s, i + 1)) return true;
    }
    if (r.has_value()) {
      ++result_.nodes_pruned;
      return false;
    }
    // One fresh null.
    Value fresh = symbols_->FreshNull();
    binding.Bind(v, fresh);
    domain.push_back(fresh);
    bool stop = BranchOnAssignment(snapshot, depth, apply, s, i + 1);
    domain.pop_back();
    return stop;
  }

  // Applies target egds to fixpoint as union-find merges in k's value
  // layer, scanning only triggers that touch facts beyond `since` (the
  // parent state was already egd-clean) or tuples a merge dirtied. The
  // dirty extras are handed back to the caller: they are the merge half
  // of the node's delta, from which new trigger candidates are
  // discovered. Returns false on constant/constant clash. A clash only
  // ends the branch, so no failure message is rendered (no symbols).
  bool ApplyEgdFixpoint(Instance* k, const InstanceWatermark& since,
                        std::vector<std::vector<int>>* extras) {
    EgdFixpointOutcome out = RunEgdsToFixpointDelta(
        setting_.target_egds(), compiled_->egds, k, since,
        std::numeric_limits<int64_t>::max(), /*symbols=*/nullptr, extras,
        pool_.get());
    return !out.failed;
  }

  // A violated ts trigger is permanent — unrepairable by any later step —
  // when its match resolves to constants only (facts never disappear and
  // target facts only grow), or when Σ_t has no egds to merge its nulls.
  bool IsPermanentViolation(const Instance& k, const Binding& match,
                            int var_count) const {
    if (!has_egds_) return true;
    for (VariableId v = 0; v < var_count; ++v) {
      if (match.bound[v] && k.ResolveValue(match.values[v]).is_null()) {
        return false;
      }
    }
    return true;
  }

  // Appends the candidates this node's delta can have created. A body
  // match absent from every ancestor's delta cannot be newly violated
  // here (its facts all predate `since`, so it was discovered — or
  // filtered as satisfied — when its newest fact or dirtying merge
  // arrived; satisfaction is monotone, so filtered stays satisfied).
  // Satisfied tgd/ts triggers are dropped at discovery for the same
  // monotonicity reason; violated ts triggers that are permanent kill the
  // node: returns false in that case.
  bool DiscoverCandidates(const Instance& k, const DeltaView& delta) {
    for (size_t t = 0; t < tgd_order_.size(); ++t) {
      const plan::TgdPlan& plan = compiled_->tgds[t];
      if (!TouchesDelta(plan.body, delta)) continue;
      CollectDeltaSlots(plan.body, k, delta, /*pool=*/nullptr, 0, &discovered_,
                        [&](std::vector<Candidate>* out, const Binding& m) {
                          ++result_.candidates_discovered;
                          if (HasMatchPlanned(plan.head, k, m)) return false;
                          out->push_back({m, false});
                          return true;
                        });
      AppendDiscovered(&tgd_cands_[t]);
    }
    bool permanent = false;
    for (size_t j = 0; j < ts_deps_.size() && !permanent; ++j) {
      const TsDep& dep = ts_deps_[j];
      if (!TouchesDelta(*dep.body, delta)) continue;
      CollectDeltaSlots(*dep.body, k, delta, /*pool=*/nullptr, 0,
                        &discovered_,
                        [&](std::vector<Candidate>* out, const Binding& m) {
                          if (permanent) return false;  // the node is dead
                          ++result_.candidates_discovered;
                          if (TsSatisfied(dep, k, m)) return false;
                          if (IsPermanentViolation(k, m, dep.var_count)) {
                            permanent = true;
                            return false;
                          }
                          out->push_back({m, false});
                          return true;
                        });
      if (!permanent) AppendDiscovered(&ts_cands_[j]);
    }
    return !permanent;
  }

  // Moves the candidates the last discovery collected into `bucket`.
  void AppendDiscovered(std::vector<Candidate>* bucket) {
    std::vector<Candidate>& found = discovered_[0];
    bucket->insert(bucket->end(), std::make_move_iterator(found.begin()),
                   std::make_move_iterator(found.end()));
  }

  // True if some head disjunct of `dep` holds under `match`.
  static bool TsSatisfied(const TsDep& dep, const Instance& k,
                          const Binding& match) {
    for (const plan::BodyPlan* head : dep.heads) {
      if (HasMatchPlanned(*head, k, match)) return true;
    }
    return false;
  }

  // The ts check over cached candidates: every stored candidate was
  // violated-but-fixable when discovered; test whether an egd merge since
  // then repaired it (mark and skip from now on), left it fixable, or
  // ground it down to all constants (permanent: prune). Candidates from
  // ancestor frames are visible here — exactly the triggers of the
  // current path — and nothing else needs re-checking: satisfied ts
  // triggers stay satisfied under additions and merges.
  TsStatus CheckTsCached(const Instance& k) {
    TsStatus status = TsStatus::kSatisfied;
    for (size_t j = 0; j < ts_cands_.size(); ++j) {
      const TsDep& dep = ts_deps_[j];
      std::vector<Candidate>& bucket = ts_cands_[j];
      for (size_t c = 0; c < bucket.size(); ++c) {
        if (bucket[c].satisfied) continue;
        ++result_.candidate_checks;
        if (TsSatisfied(dep, k, bucket[c].binding)) {
          MarkSatisfied(tgd_cands_.size() + j, c);
          continue;
        }
        if (IsPermanentViolation(k, bucket[c].binding, dep.var_count)) {
          return TsStatus::kViolatedPermanent;
        }
        status = TsStatus::kViolatedFixable;
      }
    }
    return status;
  }

  // Finds one violated Σ_st or Σ_t tgd trigger among the cached
  // candidates. Returns false at fixpoint. Full tgds are scanned first:
  // their steps are deterministic (no branching), so exhausting them
  // before guessing existential witnesses both shrinks the tree and lets
  // the Σ_ts pruning fire earlier. Candidates found satisfied are marked
  // (with undo on backtrack), so along one DFS path each repaired
  // candidate costs one test, not one per node.
  bool FindPendingTriggerCached(const Instance& k, PendingTrigger* out) {
    for (bool full_pass : {true, false}) {
      for (size_t t = 0; t < tgd_order_.size(); ++t) {
        const Tgd& tgd = *tgd_order_[t];
        if (tgd.IsFull() != full_pass) continue;
        std::vector<Candidate>& bucket = tgd_cands_[t];
        const plan::BodyPlan& head_plan = compiled_->tgds[t].head;
        for (size_t c = 0; c < bucket.size(); ++c) {
          if (bucket[c].satisfied) continue;
          ++result_.candidate_checks;
          if (HasMatchPlanned(head_plan, k, bucket[c].binding)) {
            MarkSatisfied(t, c);
            continue;
          }
          out->tgd = &tgd;
          out->apply = &compiled_->tgds[t].apply;
          // Re-resolve: the stored match may hold nulls merged away since
          // discovery; head instantiation must use current roots.
          out->binding = bucket[c].binding;
          for (VariableId v = 0; v < tgd.var_count; ++v) {
            if (out->binding.bound[v]) {
              out->binding.values[v] = k.ResolveValue(out->binding.values[v]);
            }
          }
          return true;
        }
      }
    }
    return false;
  }

  // Records the target part of `k` as a solution. Returns true if the
  // search should stop (non-enumerating mode).
  bool RecordSolution(const Instance& k) {
    Instance target_part = setting_.TargetPart(k);
    found_ = true;
    if (!result_.solution.has_value()) {
      result_.solution = target_part;
    }
    if (!options_.enumerate_all) return true;
    if (solution_fps_.insert(target_part.CanonicalFingerprint()).second) {
      result_.solutions.push_back(std::move(target_part));
    }
    return false;
  }

  const PdeSetting& setting_;
  SymbolTable* symbols_;
  GenericSolverOptions options_;
  bool has_egds_;
  int64_t nodes_ = 0;
  bool budget_hit_ = false;
  bool found_ = false;
  std::unordered_set<uint64_t> visited_;
  std::unordered_set<uint64_t> solution_fps_;
  // The violated-trigger cache: per-dependency candidate buckets
  // maintained by the DFS frames (append at discovery, truncate on
  // backtrack), plus the undo trail of satisfied marks.
  std::vector<const Tgd*> tgd_order_;
  std::vector<std::vector<Candidate>> tgd_cands_;
  std::vector<TsDep> ts_deps_;
  std::vector<std::vector<Candidate>> ts_cands_;
  std::vector<std::pair<size_t, size_t>> satisfied_trail_;
  GenericSolveResult result_;
  std::unique_ptr<ThreadPool> pool_;  // egd-fixpoint collection only
  // Compiled plans: compiled_->tgds holds tgd_order_'s plans, then the
  // Σ_ts plans ts_deps_ points into; compiled_->egds is parallel to
  // setting_.target_egds().
  std::shared_ptr<const plan::CompiledSetting> compiled_;
  // Discovery's collect slot, reused across nodes.
  std::vector<std::vector<Candidate>> discovered_;
  // Per-depth node buffers (ScratchAt); boxed so that growing the list
  // never moves the buffers of a node still on the path.
  std::vector<std::unique_ptr<NodeScratch>> scratch_;
  uint32_t probe_null_base_ = 0;  // first of the egd probe's null ids
};

}  // namespace

StatusOr<GenericSolveResult> GenericExistsSolution(
    const PdeSetting& setting, const Instance& source, const Instance& target,
    SymbolTable* symbols, const GenericSolverOptions& options) {
  PDX_CHECK(symbols != nullptr);
  PDX_RETURN_IF_ERROR(setting.ValidateSourceInstance(source));
  PDX_RETURN_IF_ERROR(setting.ValidateTargetInstance(target));
  Searcher searcher(setting, symbols, options);
  return searcher.Run(setting.CombineInstances(source, target));
}

StatusOr<IncrementalSolveResult> GenericExistsSolutionIncremental(
    const PdeSetting& setting, const Instance& source, const Instance& target,
    const Instance* prior_witness, SymbolTable* symbols,
    const GenericSolverOptions& options) {
  PDX_CHECK(symbols != nullptr);
  IncrementalSolveResult out;
  if (prior_witness != nullptr &&
      IsSolution(setting, source, target, *prior_witness, *symbols)) {
    SolverMetrics::Get().witness_revalidated.Inc();
    out.result.outcome = SolveOutcome::kSolutionFound;
    out.result.solution = *prior_witness;
    out.revalidated = true;
    return out;
  }
  auto solved = GenericExistsSolution(setting, source, target, symbols,
                                      options);
  if (!solved.ok()) return solved.status();
  out.result = std::move(solved).value();
  return out;
}

}  // namespace pdx
