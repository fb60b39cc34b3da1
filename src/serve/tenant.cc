#include "serve/tenant.h"

#include <cstdio>

#include "base/string_util.h"
#include "logic/parser.h"
#include "pde/certain_answers.h"
#include "pde/ctract_solver.h"
#include "pde/generic_solver.h"
#include "pde/setting_file.h"
#include "relational/instance_io.h"
#include "serve/metrics.h"

namespace pdx {
namespace serve {

namespace {

uint64_t Fnv1a64(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string HexId(uint64_t h) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(h));
  return buffer;
}

}  // namespace

StatusOr<std::string> Tenant::IdForSetting(std::string_view setting_text) {
  SymbolTable symbols;
  PDX_ASSIGN_OR_RETURN(PdeSetting setting,
                       ParseSettingFile(setting_text, &symbols));
  return HexId(Fnv1a64(SettingToFileText(setting, symbols)));
}

StatusOr<std::shared_ptr<Tenant>> Tenant::Create(std::string_view setting_text,
                                                 const TenantOptions& options) {
  std::shared_ptr<Tenant> tenant(new Tenant());
  tenant->options_ = options;
  tenant->symbols_ = std::make_unique<SymbolTable>();
  PDX_ASSIGN_OR_RETURN(
      PdeSetting setting,
      ParseSettingFile(setting_text, tenant->symbols_.get()));
  tenant->setting_.emplace(std::move(setting));
  // The id hashes the *canonical rendering*, not the raw text, so loads
  // that differ only in whitespace, comments or section order share a
  // tenant.
  tenant->id_ = HexId(
      Fnv1a64(SettingToFileText(*tenant->setting_, *tenant->symbols_)));
  tenant->generating_tgds_ = tenant->setting_->st_tgds();
  tenant->generating_tgds_.insert(tenant->generating_tgds_.end(),
                                  tenant->setting_->target_tgds().begin(),
                                  tenant->setting_->target_tgds().end());
  // Generation 0: the streaming chase initialized on the empty instance.
  // Trivial data-wise, but it compiles this setting's plans into the
  // process-wide PlanCache once (so the first real write doesn't pay
  // compilation) and seeds the firing journal deletion propagation reads.
  tenant->stream_ = std::make_unique<StreamingChase>(
      &tenant->setting_->schema(), tenant->generating_tgds_,
      tenant->setting_->target_egds(), tenant->symbols_.get(),
      tenant->BatchChaseOptions());
  Status init = tenant->stream_->Initialize(tenant->setting_->EmptyInstance());
  if (!init.ok()) {
    return InvalidArgumentError(
        StrCat("setting rejects even the empty instance: ", init.message()));
  }
  auto gen0 = std::make_shared<Generation>(
      0, Instance(tenant->stream_->base()),
      Instance(tenant->stream_->instance()),
      InstanceWatermark(tenant->stream_->mark()));
  gen0->set_chase_steps(tenant->stream_->total_steps());
  tenant->store_.Publish(std::move(gen0));
  tenant->writer_ = std::thread(&Tenant::WriterLoop, tenant.get());
  return tenant;
}

Tenant::~Tenant() { Shutdown(); }

void Tenant::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  queue_.Close();
  if (writer_.joinable()) writer_.join();
}

ChaseOptions Tenant::BatchChaseOptions() const {
  ChaseOptions opts;
  opts.num_threads = options_.chase_threads;
  opts.max_steps = options_.max_chase_steps;
  return opts;
}

// --- Write path ----------------------------------------------------------

StatusOr<WriteOutcome> Tenant::SubmitDelta(
    std::string_view facts_text, bool retract,
    std::chrono::steady_clock::time_point deadline) {
  std::vector<Fact> facts;
  {
    // Parsing interns constants: exclusive on the symbol universe.
    std::unique_lock<std::shared_mutex> lock(symbols_mu_);
    PDX_ASSIGN_OR_RETURN(
        Instance parsed,
        ParseInstance(facts_text, setting_->schema(), symbols_.get()));
    facts = parsed.AllFacts();
  }
  if (!retract) {
    for (const Fact& fact : facts) {
      if (!setting_->is_source(fact.relation)) continue;
      for (Value v : fact.tuple) {
        if (v.is_null()) {
          return InvalidArgumentError(
              "source-side facts must be ground (no labeled nulls)");
        }
      }
    }
  }
  ServeMetrics& metrics = GlobalServeMetrics();
  if (retract) {
    metrics.retract_requests_total.Inc();
  } else {
    metrics.write_requests_total.Inc();
  }
  metrics.generation_lag.Add(1);
  auto ticket = retract
                    ? std::make_shared<WriteTicket>(std::vector<Fact>(),
                                                    std::move(facts))
                    : std::make_shared<WriteTicket>(std::move(facts));
  if (!queue_.Submit(ticket)) {
    metrics.generation_lag.Add(-1);
    return FailedPreconditionError("tenant is shutting down");
  }
  std::shared_ptr<const Generation> published;
  PDX_RETURN_IF_ERROR(ticket->Wait(deadline, &published));
  WriteOutcome out;
  out.generation = published->seq();
  out.fingerprint = published->Fingerprint();
  return out;
}

StatusOr<WriteOutcome> Tenant::Write(
    std::string_view facts_text,
    std::chrono::steady_clock::time_point deadline) {
  return SubmitDelta(facts_text, /*retract=*/false, deadline);
}

StatusOr<WriteOutcome> Tenant::Retract(
    std::string_view facts_text,
    std::chrono::steady_clock::time_point deadline) {
  return SubmitDelta(facts_text, /*retract=*/true, deadline);
}

void Tenant::WriterLoop() {
  while (true) {
    std::vector<std::shared_ptr<WriteTicket>> batch = queue_.DrainBlocking();
    if (batch.empty()) return;
    ApplyBatch(batch);
  }
}

Status Tenant::TryPublish(
    const std::shared_ptr<const Generation>& prev,
    const std::vector<std::shared_ptr<WriteTicket>>& tickets) {
  std::vector<Fact> adds;
  std::vector<Fact> deletes;
  for (const auto& ticket : tickets) {
    adds.insert(adds.end(), ticket->facts().begin(), ticket->facts().end());
    deletes.insert(deletes.end(), ticket->deletes().begin(),
                   ticket->deletes().end());
  }
  // One ±Δ round on the writer's streaming state: deletes propagate
  // through the firing journal (retraction cascade + re-derivation), adds
  // resume the delta chase from the post-removal watermark — never a full
  // rescan unless a retraction invalidated an egd merge. A failed batch
  // rolls the stream back wholesale, so per-ticket replay below always
  // starts from the published state.
  StatusOr<StreamStats> stats = [&] {
    std::shared_lock<std::shared_mutex> lock(symbols_mu_);
    return stream_->ResumeWithDeltas(adds, deletes);
  }();
  if (!stats.ok()) {
    if (stats.status().code() == StatusCode::kFailedPrecondition) {
      return FailedPreconditionError(
          StrCat("write rejected, no solution would exist: ",
                 stats.status().message()));
    }
    return stats.status();
  }
  auto next = std::make_shared<Generation>(
      prev->seq() + 1, Instance(stream_->base()),
      Instance(stream_->instance()), InstanceWatermark(stream_->mark()));
  next->set_chase_steps(prev->chase_steps() + stats.value().steps);
  ServeMetrics& metrics = GlobalServeMetrics();
  metrics.batches_total.Inc();
  metrics.batch_size.Observe(static_cast<int64_t>(tickets.size()));
  if (stats.value().fell_back) metrics.stream_fallbacks_total.Inc();
  metrics.generation_seq.Set(static_cast<int64_t>(next->seq()));
  store_.Publish(next);
  for (const auto& ticket : tickets) {
    ticket->Complete(OkStatus(), next);
  }
  return OkStatus();
}

void Tenant::ApplyBatch(
    const std::vector<std::shared_ptr<WriteTicket>>& batch) {
  ServeMetrics& metrics = GlobalServeMetrics();
  std::shared_ptr<const Generation> prev = store_.Acquire();
  Status status = TryPublish(prev, batch);
  if (!status.ok()) {
    if (batch.size() == 1) {
      batch[0]->Complete(status, nullptr);
    } else {
      // The union failed, but individual writes may be fine (two writes
      // each consistent alone can clash through an egd, or a retraction
      // can strand a sibling write's egd batch). Replay one by one so
      // only the offenders are rejected — sound because a failed
      // ResumeWithDeltas left the stream exactly at the published state.
      for (const auto& ticket : batch) {
        metrics.batch_retries_total.Inc();
        prev = store_.Acquire();
        status = TryPublish(prev, {ticket});
        if (!status.ok()) {
          ticket->Complete(status, nullptr);
        }
      }
    }
  }
  metrics.generation_lag.Add(-static_cast<int64_t>(batch.size()));
}

// --- Read paths ----------------------------------------------------------

StatusOr<ExistsOutcome> Tenant::Exists(const std::string& solver) {
  std::shared_ptr<const Generation> gen = store_.Acquire();
  ExistsOutcome out;
  out.generation = gen->seq();
  out.fingerprint = gen->Fingerprint();

  bool use_ctract;
  bool is_auto = solver == "auto" || solver.empty();
  if (is_auto) {
    if (std::optional<bool> cached = gen->CachedExists();
        cached.has_value()) {
      out.exists = *cached;
      out.solver = "cached";
      return out;
    }
    // Figure 3 is correct whenever Definition 9 condition 1 holds and
    // there are no target constraints; otherwise search.
    use_ctract = !setting_->HasTargetConstraints() &&
                 !setting_->HasDisjunctiveTsTgds() &&
                 setting_->ctract_report().theorem5_applicable();
  } else if (solver == "ctract") {
    use_ctract = true;
  } else if (solver == "generic") {
    use_ctract = false;
  } else {
    return InvalidArgumentError(
        StrCat("unknown solver '", solver, "' (want auto, ctract, generic)"));
  }

  std::shared_lock<std::shared_mutex> lock(symbols_mu_);
  const Instance& source = gen->SourceView(*setting_);
  const Instance& target = gen->TargetView(*setting_);
  if (use_ctract) {
    ChaseOptions opts = BatchChaseOptions();
    PDX_ASSIGN_OR_RETURN(
        CtractSolveResult result,
        CtractExistsSolution(*setting_, source, target, symbols_.get(), opts));
    out.exists = result.has_solution;
    out.solver = "ctract";
  } else {
    GenericSolverOptions opts;
    opts.max_nodes = options_.max_solver_nodes;
    opts.num_threads = options_.chase_threads;
    // Reuse the last witness across generations: when churn left the old
    // solution J' intact, a PTIME IsSolution revalidation replaces the NP
    // search. The witness is copied out under witness_mu_ (COW, cheap) so
    // concurrent Exists calls don't share a mutable Instance.
    std::optional<Instance> prior;
    {
      std::lock_guard<std::mutex> wlock(witness_mu_);
      if (exists_witness_.has_value()) prior.emplace(*exists_witness_);
    }
    PDX_ASSIGN_OR_RETURN(
        IncrementalSolveResult inc,
        GenericExistsSolutionIncremental(
            *setting_, source, target,
            prior.has_value() ? &*prior : nullptr, symbols_.get(), opts));
    if (inc.result.outcome == SolveOutcome::kBudgetExhausted) {
      return ResourceExhaustedError(
          "solver budget exhausted; existence unknown");
    }
    out.exists = inc.result.outcome == SolveOutcome::kSolutionFound;
    out.solver = inc.revalidated ? "generic+revalidated" : "generic";
    std::lock_guard<std::mutex> wlock(witness_mu_);
    if (out.exists && inc.result.solution.has_value()) {
      exists_witness_.emplace(*inc.result.solution);
    } else if (!out.exists) {
      exists_witness_.reset();
    }
  }
  if (is_auto) gen->CacheExists(out.exists);
  return out;
}

StatusOr<CertainOutcome> Tenant::Certain(std::string_view query_text,
                                         const std::string& mode) {
  UnionQuery query;
  {
    std::unique_lock<std::shared_mutex> lock(symbols_mu_);
    PDX_ASSIGN_OR_RETURN(
        query,
        ParseUnionQuery(query_text, setting_->schema(), symbols_.get()));
  }
  std::shared_ptr<const Generation> gen = store_.Acquire();
  CertainOutcome out;
  out.generation = gen->seq();
  out.fingerprint = gen->Fingerprint();
  out.is_boolean = query.IsBoolean();

  std::shared_lock<std::shared_mutex> lock(symbols_mu_);
  const Instance& source = gen->SourceView(*setting_);
  const Instance& target = gen->TargetView(*setting_);
  std::vector<Tuple> answers;
  if (mode == "lower_bound") {
    PDX_ASSIGN_OR_RETURN(
        CertainLowerBoundResult result,
        ComputeCertainAnswersLowerBound(*setting_, source, target, query,
                                        symbols_.get()));
    out.boolean_value = result.boolean_value;
    answers = std::move(result.answers);
  } else if (mode == "exact" || mode.empty()) {
    GenericSolverOptions opts;
    opts.max_nodes = options_.max_solver_nodes;
    opts.num_threads = options_.chase_threads;
    PDX_ASSIGN_OR_RETURN(
        CertainAnswersResult result,
        ComputeCertainAnswers(*setting_, source, target, query,
                              symbols_.get(), opts));
    out.no_solution = result.no_solution;
    out.boolean_value = result.boolean_value;
    answers = std::move(result.answers);
  } else {
    return InvalidArgumentError(
        StrCat("unknown mode '", mode, "' (want exact or lower_bound)"));
  }
  out.answers.reserve(answers.size());
  for (const Tuple& tuple : answers) {
    out.answers.push_back(TupleToString(tuple, *symbols_));
  }
  return out;
}

StatusOr<ContainsOutcome> Tenant::Contains(std::string_view facts_text) {
  std::vector<Fact> facts;
  {
    std::unique_lock<std::shared_mutex> lock(symbols_mu_);
    PDX_ASSIGN_OR_RETURN(
        Instance parsed,
        ParseInstance(facts_text, setting_->schema(), symbols_.get()));
    facts = parsed.AllFacts();
  }
  std::shared_ptr<const Generation> gen = store_.Acquire();
  ContainsOutcome out;
  out.generation = gen->seq();
  out.fingerprint = gen->Fingerprint();
  out.contains = true;
  for (const Fact& fact : facts) {
    if (!gen->canonical().Contains(fact)) {
      out.contains = false;
      break;
    }
  }
  return out;
}

TenantStats Tenant::Stats() const {
  std::shared_ptr<const Generation> gen = store_.Acquire();
  TenantStats stats;
  stats.id = id_;
  stats.generation = gen->seq();
  stats.base_facts = gen->base().fact_count();
  stats.canonical_facts = gen->canonical().ResolvedFactCount();
  stats.queue_depth = queue_.Depth();
  stats.chase_steps = gen->chase_steps();
  return stats;
}

}  // namespace serve
}  // namespace pdx
