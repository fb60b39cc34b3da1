#ifndef PDX_CHASE_CHASE_H_
#define PDX_CHASE_CHASE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "logic/dependency.h"
#include "relational/instance.h"
#include "relational/value.h"

namespace pdx {

// How a chase run ended.
enum class ChaseOutcome {
  kSuccess,           // fixpoint reached, all dependencies satisfied
  kFailed,            // an egd equated two distinct constants
  kBudgetExhausted,   // step budget hit (e.g. non-terminating chase)
};

// Which chase variant to run: the one restricted (standard) chase of [9],
// delta-driven. A tgd fires for a body homomorphism only if no head
// extension already exists, and the fixpoint is computed over a worklist
// of dirty (relation, watermark) pairs — each round only evaluates
// triggers whose body touches a fact added since the previous round or
// dirtied by an egd merge. Egd steps are union-find merges in the
// instance's value layer (Instance::MergeValues): O(α) unions that mark
// only the dirty equivalence classes, never rewriting tuples or
// invalidating watermarks. The tests check every run against the
// definition of a restricted chase sequence by replaying its firing
// journal (tests/chase_trace_check.h). A one-value type kept because
// callers name it (bench/pdxbench sets kRestricted explicitly).
enum class ChaseStrategy {
  kRestricted,
};

class ChaseJournal;

struct ChaseOptions {
  // Upper bound on the number of chase steps before giving up. Weakly
  // acyclic inputs terminate well under this for the sizes we run; the
  // budget exists so that non-weakly-acyclic inputs fail loudly instead of
  // looping.
  int64_t max_steps = 1'000'000;

  ChaseStrategy strategy = ChaseStrategy::kRestricted;

  // Worker threads for delta trigger enumeration: 0 = hardware
  // concurrency, 1 = fully sequential. Any value > 1 fans the collect half
  // of every tgd batch and egd pass across partitioned parallel
  // enumeration; workers also build the kept triggers' head rows.
  // The apply half (which triggers fire, their fresh nulls and the
  // inserts) stays sequential, in the same order, so results are
  // bit-identical at every setting — same outcome, steps, failure,
  // nulls_created, null ids and fingerprint (see DESIGN.md "Parallel
  // execution model").
  int num_threads = 0;

  // Incremental resume: when non-null, the first round's delta covers
  // only the facts added to the start instance after this watermark,
  // instead of the whole instance. Correct exactly when the pre-watermark
  // state already satisfies every dependency being chased (it was itself
  // chased to fixpoint and only AddFact happened since — the pdxd
  // generation store's single-writer discipline). The pointee must outlive
  // the call.
  const InstanceWatermark* resume_from = nullptr;

  // Auto-compaction of merge-heavy raw stores: when the fraction of raw
  // tuples that are duplicates under resolution exceeds this ratio — and
  // the raw store holds at least compact_min_facts tuples — the chase
  // swaps in CompactResolved(keep_resolver=true) and restarts its
  // watermark (the extra rescan round fires nothing: satisfied triggers
  // stay satisfied). Reclaims memory on long egd-heavy runs
  // without changing any result. Set the ratio outside (0, 1) to disable.
  double compact_duplicate_ratio = 0.5;
  size_t compact_min_facts = 4096;

  // Firing journal for deletion propagation (see chase/journal.h and
  // chase/stream.h) and for the tests' trace checker
  // (tests/chase_trace_check.h). When non-null, every applied tgd trigger
  // and every successful egd merge is recorded — with its full extended
  // binding — from the sequential apply phases, so a later ±Δ batch
  // (StreamingChase::ResumeWithDeltas) can count surviving justifications
  // per derived fact and propagate retractions. Null keeps the hot path
  // entirely free of journaling. The pointee must outlive the call.
  ChaseJournal* journal = nullptr;
};

struct ChaseResult {
  ChaseOutcome outcome = ChaseOutcome::kSuccess;
  Instance instance;       // the chased instance (final state even on failure)
  int64_t steps = 0;       // number of chase steps applied
  int64_t nulls_created = 0;
  int64_t compactions = 0; // CompactResolved swaps (see ChaseOptions)
  std::string failure;     // human-readable description when kFailed

  explicit ChaseResult(Instance i) : instance(std::move(i)) {}
};

// The worker count options.num_threads asks for: 0 means hardware
// concurrency, anything else is taken literally.
int ResolveThreadCount(const ChaseOptions& options);

// Runs the restricted (standard) chase of `start` with the given tgds and
// egds, in the sense of [9]: a tgd fires for a body homomorphism only if no
// head extension already exists; fresh labeled nulls (from `symbols`)
// witness existential variables; an egd trigger merges a null into the
// other value or fails on a constant/constant clash.
//
// The engine executes trigger enumeration, head probes, applies and the
// egd fixpoint through the setting's compiled plans (plan/ir.h), fetched
// from the process-wide PlanCache: repeated chases of one setting compile
// it exactly once.
//
// The chase is fair: it loops over dependencies round-robin until a full
// pass finds no applicable trigger.
ChaseResult Chase(const Instance& start, const std::vector<Tgd>& tgds,
                  const std::vector<Egd>& egds, SymbolTable* symbols,
                  const ChaseOptions& options = ChaseOptions());

// Move-in overload: consumes `start`. The COW relation stores stay
// uniquely owned, so the chase mutates them in place instead of
// re-materializing every touched relation — the streaming resume path
// (chase/stream.h) hands its own instance back in every ±Δ batch and
// would otherwise pay a second O(instance) copy per batch.
ChaseResult Chase(Instance&& start, const std::vector<Tgd>& tgds,
                  const std::vector<Egd>& egds, SymbolTable* symbols,
                  const ChaseOptions& options = ChaseOptions());

// Convenience overload without egds.
ChaseResult Chase(const Instance& start, const std::vector<Tgd>& tgds,
                  SymbolTable* symbols,
                  const ChaseOptions& options = ChaseOptions());

// Outcome of a union-find egd fixpoint (see RunEgdsToFixpointDelta).
struct EgdFixpointOutcome {
  bool failed = false;             // constant/constant clash
  bool budget_exhausted = false;   // max_steps merges applied
  std::string failure;             // set when failed
  int64_t steps = 0;               // merges applied
  // Total dirty (relation, tuple) entries the merges reported: an upper
  // bound on the resolved duplicates the fixpoint can have created, used
  // by the chase's auto-compaction trigger.
  int64_t dirtied = 0;
};

class ThreadPool;

namespace plan {
struct EgdPlan;
}  // namespace plan

// Applies `egds` to fixpoint over the delta of `instance` beyond `mark`
// using union-find merges (Instance::MergeValues). The first pass pivots
// on the facts added since `mark`; since any trigger newly violated by a
// merge must touch a tuple whose resolved content that merge changed,
// each subsequent pass pivots only on the tuples the previous pass
// dirtied, until no merge fires. All dirty tuple indexes are accumulated
// into `extras` (one vector per relation, appended, possibly with
// duplicates) so the caller's tgd round can re-examine exactly those
// tuples. `symbols` is only used to render the failure message and may be
// null. Shared by the delta chase engine, the solution-aware chase, the
// pde solvers' branch-local fixpoints and StreamingChase.
//
// Each pass is batched collect-then-apply: per egd, the delta matches are
// enumerated once against the pre-pass state and every violated one is
// kept as a flat row (buffers reused across passes and calls); the merges
// then run in collection order on the calling thread, skipping rows whose
// two sides an earlier merge already equated. Every union lowers the
// class count by exactly one, so the merge count is that of any other
// order. With a non-null `pool` the enumeration fans across the delta
// partitions and the rows are applied in partition order — the same rows
// in the same order as without one — so outcome, steps, failure message
// and every null-root identity are identical at every thread count.
//
// Trigger enumeration executes through `egd_plans`, the compiled plans
// indexed parallel to `egds` (CompiledSetting::egds).
//
// With a non-null `journal`, every successful merge is recorded under the
// row that forced it, feeding deletion propagation's egd-death detection
// (chase/stream.h).
EgdFixpointOutcome RunEgdsToFixpointDelta(
    const std::vector<Egd>& egds, const std::vector<plan::EgdPlan>& egd_plans,
    Instance* instance, const InstanceWatermark& mark, int64_t max_steps,
    const SymbolTable* symbols, std::vector<std::vector<int>>* extras,
    ThreadPool* pool = nullptr, ChaseJournal* journal = nullptr);

// True if `instance` satisfies the tgd / egd under standard first-order
// semantics (nulls behave as ordinary values).
bool SatisfiesTgd(const Instance& instance, const Tgd& tgd);
bool SatisfiesEgd(const Instance& instance, const Egd& egd);
bool SatisfiesDisjunctiveTgd(const Instance& instance,
                             const DisjunctiveTgd& tgd);

// True if all dependencies of `deps` are satisfied.
bool SatisfiesAll(const Instance& instance, const DependencySet& deps);

}  // namespace pdx

#endif  // PDX_CHASE_CHASE_H_
