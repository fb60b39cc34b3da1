// The offline workloads: bulk_exchange (the `pdxcli solve` path at 1e5
// proteins), chase_egd (the egd fixpoint) and np_search (the generic
// NP search inside one serve::Tenant). All are closed loops with one
// caller.

#include <sys/resource.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <numeric>
#include <string>

#include "chase/chase.h"
#include "gen.h"
#include "harness.h"
#include "pde/ctract_solver.h"
#include "pde/setting_file.h"
#include "relational/instance_io.h"
#include "serve/tenant.h"
#include "stats.h"

namespace pdxbench {

using Clock = std::chrono::steady_clock;
using pdx::obs::Span;
using pdx::obs::Tracer;

namespace {

// Closed-loop runs time at least this many warm requests.
constexpr size_t kMinRepeats = 5;

struct Sample {
  double seconds = -1;  // negative: the request failed its oracle
  double cpu_s = 0;     // process CPU time over the same span
  int64_t nulls = 0;    // nulls the request minted
  uint64_t fingerprint = 0;  // of its result, on traced runs
};

// One request; on a wrong answer it returns a negative time and says why
// in `*wrong`.
using Request = std::function<Sample(std::string* wrong)>;

double CpuSeconds() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

// Repeats `request` until `seconds` have passed and `min_repeats` ran,
// filing each as a request in `log` when given. Returns the samples.
std::vector<Sample> Loop(const Request& request, double seconds,
                         size_t min_repeats, SpanLog* log,
                         WorkloadResult* result) {
  std::vector<Sample> samples;
  auto start = Clock::now();
  while (samples.size() < min_repeats || SecondsSince(start) < seconds) {
    std::string wrong;
    samples.push_back(request(&wrong));
    if (log != nullptr) log->EndRequest("request");
    if (samples.back().seconds < 0) {
      result->Fail(wrong);
      break;
    }
  }
  return samples;
}

std::vector<double> Millis(const std::vector<Sample>& samples) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (s.seconds >= 0) out.push_back(s.seconds * 1000);
  }
  return out;
}

// Workload-specific per-layer metrics, from the traced requests' log, the
// registry deltas across them and the untraced requests' median.
using LayerFn = std::function<void(
    const SpanLog& log, const Counters& before, const Counters& after,
    int64_t requests, double untraced_p50_ms, WorkloadResult* result)>;

// The closed loop shared by bulk_exchange and chase_egd, where
// set-up is the cold first request, sampled in `cold_forks` forked
// children and once in this process. Requests chase on `chase_threads`.
WorkloadResult RunClosedLoop(WorkloadResult result, const RunOptions& options,
                             int cold_forks, int chase_threads,
                             const Request& request, const LayerFn& layers) {
  if (!options.trace) {
    std::string wrong;
    std::vector<double> cold =
        ColdSamples(options.smoke ? 0 : cold_forks,
                    [&](bool) { return request(&wrong).seconds; });
    for (double s : cold) {
      if (s < 0) result.Fail(wrong.empty() ? "a cold request failed" : wrong);
    }
    if (!result.correct()) return result;
    std::vector<double> warm = Millis(
        Loop(request, options.seconds, kMinRepeats, nullptr, &result));
    result.attempted = static_cast<int64_t>(cold.size() + warm.size());
    result.Add("setup_s", Median(cold), "s", static_cast<int64_t>(cold.size()));
    result.Add("p50_ms", Median(warm), "ms", static_cast<int64_t>(warm.size()));
    result.Add("peak_rss_mb", PeakRssMb(), "MB", 1);
    return result;
  }

  // Traced: the cold request (its plan compilation is part of the
  // trace), then half the time untraced and half traced, for the
  // overhead; the per-layer numbers come from the traced half.
  Tracer& tracer = Tracer::Global();
  tracer.Enable(kRingCapacity);
  SpanLog log;
  std::string wrong;
  if (request(&wrong).seconds < 0) result.Fail(wrong);
  log.EndRequest("@setup");
  tracer.Disable();
  std::vector<double> untraced =
      Millis(Loop(request, options.seconds / 2, 2, nullptr, &result));
  tracer.Enable(kRingCapacity);
  Counters before = Counters::Now();
  std::vector<Sample> traced =
      Loop(request, options.seconds / 2, 2, &log, &result);
  Counters after = Counters::Now();
  tracer.Disable();

  std::vector<double> traced_ms = Millis(traced);
  int64_t nulls = 0;
  double cpu_s = 0, wall_s = 0;
  for (const Sample& s : traced) {
    nulls += s.nulls;
    cpu_s += s.cpu_s;
    wall_s += s.seconds;
    if (s.fingerprint != traced.front().fingerprint) {
      result.Fail("result fingerprints differ between identical requests");
    }
  }
  int64_t n = static_cast<int64_t>(traced.size());
  result.attempted = n;
  double untraced_p50 = Median(untraced);
  result.Add("pdxbench.trace_overhead_pct",
             untraced_p50 > 0 ? (Median(traced_ms) / untraced_p50 - 1) * 100
                              : 0,
             "%", n);
  result.Add("pool.cpu_util", wall_s > 0 ? cpu_s / (wall_s * chase_threads) : 0,
             "ratio", n);
  AddCommonLayers(log, "", before, after, n, nulls, &result);
  layers(log, before, after, n, untraced_p50, &result);
  KeepTrace(log, &result);
  return result;
}

void AddP50(const SpanLog& log, const std::string& span, const char* metric,
            WorkloadResult* result) {
  std::vector<double> v = log.PerRequestMs(span);
  result->Add(metric, Median(v), "ms", static_cast<int64_t>(v.size()));
}

double PerRequest(const Counters& before, const Counters& after,
                  const char* counter, int64_t requests) {
  return requests > 0
             ? static_cast<double>(after.Delta(before, counter)) / requests
             : 0;
}

template <typename T>
bool Parsed(const pdx::StatusOr<T>& parsed, const char* what,
            std::string* wrong) {
  if (!parsed.ok()) *wrong = std::string(what) + ": " + parsed.status().ToString();
  return parsed.ok();
}

}  // namespace

WorkloadResult RunBulkExchange(const RunOptions& options) {
  WorkloadResult result;
  result.workload = "bulk_exchange";
  const int64_t proteins = options.smoke ? 2'000 : 50'000;
  const int64_t backed = options.smoke ? 200 : 5'000;
  BulkInput input = MakeBulkInput(options.seed, proteins, backed);
  result.input_hash = input.hash;
  result.Config("loop", "closed, one caller");
  result.Config("proteins", std::to_string(proteins));
  result.Config("source_facts", std::to_string(input.source_facts));
  result.Config("backed_annotations", std::to_string(backed));
  result.Config("chase_threads", std::to_string(options.threads));
  result.Config("request",
                "ParseSettingFile + ParseInstance(I, J) + CtractExistsSolution");

  int threads = options.threads;
  Request request = [&](std::string* wrong) {
    Sample sample;
    auto start = Clock::now();
    double cpu_start = CpuSeconds();
    pdx::SymbolTable symbols;
    pdx::StatusOr<pdx::PdeSetting> setting = [&] {
      Span span(kSpanParseSetting);
      return pdx::ParseSettingFile(input.setting, &symbols);
    }();
    if (!Parsed(setting, "setting", wrong)) return sample;
    pdx::StatusOr<pdx::Instance> source = pdx::InvalidArgumentError("");
    pdx::StatusOr<pdx::Instance> target = pdx::InvalidArgumentError("");
    {
      Span span(kSpanParseInstance);
      source = pdx::ParseInstance(input.source, setting->schema(), &symbols);
      target = pdx::ParseInstance(input.target, setting->schema(), &symbols);
    }
    if (!Parsed(source, "I", wrong) || !Parsed(target, "J", wrong)) {
      return sample;
    }
    pdx::ChaseOptions chase;
    chase.num_threads = threads;
    pdx::StatusOr<pdx::CtractSolveResult> solved = [&] {
      Span span(kSpanCtract);
      return pdx::CtractExistsSolution(*setting, *source, *target, &symbols,
                                       chase);
    }();
    double seconds = SecondsSince(start);
    double cpu_s = CpuSeconds() - cpu_start;
    if (!Parsed(solved, "CtractExistsSolution", wrong)) return sample;
    if (!solved->has_solution || solved->j_can_size != input.expected_j_can ||
        solved->i_can_size != input.expected_i_can) {
      char buffer[160];
      std::snprintf(buffer, sizeof(buffer),
                    "exists=%d j_can=%lld (want %lld) i_can=%lld (want %lld)",
                    solved->has_solution,
                    static_cast<long long>(solved->j_can_size),
                    static_cast<long long>(input.expected_j_can),
                    static_cast<long long>(solved->i_can_size),
                    static_cast<long long>(input.expected_i_can));
      *wrong = buffer;
      return sample;
    }
    if (Tracer::Global().enabled() && solved->solution.has_value()) {
      Span span(kSpanFingerprint);
      sample.fingerprint = solved->solution->CanonicalFingerprint();
    }
    sample.seconds = seconds;
    sample.cpu_s = cpu_s;
    sample.nulls = symbols.null_count();
    return sample;
  };

  const double facts = static_cast<double>(input.source_facts + backed);
  return RunClosedLoop(
      std::move(result), options, /*cold_forks=*/3, options.threads, request,
      [&](const SpanLog& log, const Counters& before, const Counters& after,
          int64_t requests, double untraced_p50_ms, WorkloadResult* r) {
        AddP50(log, "solve.ctract", "ctract.run_ms", r);
        AddP50(log, "ctract.st_chase", "ctract.st_chase_ms", r);
        AddP50(log, "ctract.ts_chase", "ctract.ts_chase_ms", r);
        AddP50(log, "ctract.block_check", "ctract.block_check_ms", r);
        r->Add("ctract.blocks",
               PerRequest(before, after, "pdx_ctract_blocks_total", requests),
               "count", requests);
        double parse_ms = Median(log.PerRequestMs(kSpanParseInstance));
        r->Add("relational.parse_mfacts_per_s",
               parse_ms > 0 ? facts / (parse_ms / 1000) / 1e6 : 0, "Mfacts/s",
               requests);
        r->Add("pool.tasks",
               PerRequest(before, after, "pdx_pool_tasks_total", requests),
               "count", requests);
        r->Add("pool.steals",
               PerRequest(before, after, "pdx_pool_steals_total", requests),
               "count", requests);
        // One untraced request on a single chase thread: below 1, the
        // pool's CPU buys no speed.
        threads = 1;
        std::string wrong;
        Sample single = request(&wrong);
        threads = options.threads;
        if (single.seconds < 0 || untraced_p50_ms <= 0) {
          r->Fail("the single-thread reference request failed: " + wrong);
        } else {
          r->Add("pool.speedup_vs_1_thread",
                 single.seconds * 1000 / untraced_p50_ms, "ratio", 1);
        }
      });
}

WorkloadResult RunChaseEgd(const RunOptions& options) {
  WorkloadResult result;
  result.workload = "chase_egd";
  const int64_t nodes = options.smoke ? 256 : 2048;
  EgdInput input = MakeEgdInput(options.seed, nodes, 2);
  result.input_hash = input.hash;
  result.Config("loop", "closed, one caller");
  result.Config("nodes", std::to_string(nodes));
  result.Config("edges", std::to_string(input.edges));
  result.Config("chase_threads", "1");
  result.Config("expected_resolved_facts",
                std::to_string(input.expected_resolved));
  result.Config("request", "ParseSettingFile + ParseInstance + Chase");

  Request request = [&](std::string* wrong) {
    Sample sample;
    auto start = Clock::now();
    double cpu_start = CpuSeconds();
    pdx::SymbolTable symbols;
    pdx::StatusOr<pdx::PdeSetting> setting = [&] {
      Span span(kSpanParseSetting);
      return pdx::ParseSettingFile(input.setting, &symbols);
    }();
    if (!Parsed(setting, "setting", wrong)) return sample;
    pdx::StatusOr<pdx::Instance> facts = [&] {
      Span span(kSpanParseInstance);
      return pdx::ParseInstance(input.facts, setting->schema(), &symbols);
    }();
    if (!Parsed(facts, "facts", wrong)) return sample;
    pdx::ChaseOptions chase;
    chase.num_threads = 1;
    pdx::ChaseResult chased = [&] {
      Span span(kSpanChase);
      return pdx::Chase(*facts, setting->st_tgds(), setting->target_egds(),
                        &symbols, chase);
    }();
    double seconds = SecondsSince(start);
    double cpu_s = CpuSeconds() - cpu_start;
    pdx::DependencySet deps;
    deps.tgds = setting->st_tgds();
    deps.egds = setting->target_egds();
    int64_t resolved =
        static_cast<int64_t>(chased.instance.ResolvedFactCount());
    if (chased.outcome != pdx::ChaseOutcome::kSuccess ||
        resolved != input.expected_resolved ||
        !pdx::SatisfiesAll(chased.instance, deps)) {
      *wrong = "chase_egd: outcome " +
               std::to_string(static_cast<int>(chased.outcome)) +
               ", resolved facts " + std::to_string(resolved) + " (want " +
               std::to_string(input.expected_resolved) + ")";
      return sample;
    }
    if (Tracer::Global().enabled()) {
      Span span(kSpanFingerprint);
      sample.fingerprint = chased.instance.CanonicalFingerprint();
    }
    sample.seconds = seconds;
    sample.cpu_s = cpu_s;
    sample.nulls = symbols.null_count();
    return sample;
  };

  return RunClosedLoop(
      std::move(result), options, /*cold_forks=*/4, /*chase_threads=*/1,
      request,
      [&](const SpanLog& log, const Counters& before, const Counters& after,
          int64_t requests, double, WorkloadResult* r) {
        AddP50(log, "chase.egd_fixpoint", "chase.egd_fixpoint_ms", r);
        AddP50(log, "chase.tgd", "chase.tgd_ms", r);
        r->Add("chase.rounds",
               PerRequest(before, after, "pdx_chase_rounds_total", requests),
               "count", requests);
        r->Add("chase.nulls_created",
               PerRequest(before, after, "pdx_chase_nulls_created_total",
                          requests),
               "count", requests);
        double matches = PerRequest(before, after,
                                    "pdx_chase_tgd_matches_total", requests);
        double steps =
            PerRequest(before, after, "pdx_chase_steps_total", requests);
        r->Add("chase.fire_ratio", matches > 0 ? steps / matches : 0, "ratio",
               requests);
      });
}

namespace {

// One np_search round on a tenant: retract one edge, write it back, then
// ExistsSolution, which must be false.
double NpRound(pdx::serve::Tenant& tenant, const std::string& edge,
               std::string* wrong) {
  auto start = Clock::now();
  auto deadline = start + std::chrono::hours(1);
  if (!tenant.Retract(edge, deadline).ok() ||
      !tenant.Write(edge, deadline).ok()) {
    *wrong = "np_search: edge write failed";
    return -1;
  }
  pdx::StatusOr<pdx::serve::ExistsOutcome> exists = [&] {
    Span span(kSpanTenant);
    return tenant.Exists("auto");
  }();
  double seconds = SecondsSince(start);
  if (!exists.ok() || exists->exists) {
    *wrong = "np_search: exists on a bipartite graph answered " +
             (exists.ok() ? std::string("true") : exists.status().ToString());
    return -1;
  }
  return seconds;
}

std::shared_ptr<pdx::serve::Tenant> NpTenant(const NpInput& input) {
  auto tenant = pdx::serve::Tenant::Create(input.setting, {});
  if (!tenant.ok()) return nullptr;
  if (!(*tenant)->Write(input.facts, Clock::now() + std::chrono::hours(1))
           .ok()) {
    return nullptr;
  }
  return *tenant;
}

}  // namespace

// A request is one tenant's life: set-up, then its rounds. Each round is
// slower than the last because the tenant's symbol table keeps the nulls
// every search minted, so the request covers whole lives: a time box over
// single rounds would change which rounds the median covers.
WorkloadResult RunNpSearch(const RunOptions& options) {
  WorkloadResult result;
  result.workload = "np_search";
  const int rounds = options.smoke ? 2 : 4;
  NpInput input = MakeNpInput(options.seed, rounds);
  result.input_hash = input.hash;
  result.Config("loop", "closed, one caller");
  result.Config("graph", "4-node path, k = 3");
  result.Config("rounds", std::to_string(rounds));
  result.Config("request",
                "serve::Tenant::Create + load, then per round Retract + "
                "Write of one E edge and Exists(auto)");

  // The rounds of one tenant's life, in ms; empty when one failed.
  auto life = [&](pdx::serve::Tenant& tenant, SpanLog* log) {
    std::vector<double> ms;
    for (const std::string& edge : input.rounds) {
      std::string wrong;
      double s = NpRound(tenant, edge, &wrong);
      if (log != nullptr) log->EndRequest("tenant");
      if (s < 0) {
        result.Fail(wrong);
        return std::vector<double>();
      }
      ms.push_back(s * 1000);
    }
    return ms;
  };
  auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };

  if (!options.trace) {
    std::shared_ptr<pdx::serve::Tenant> tenant;
    std::vector<double> setup =
        ColdSamples(options.smoke ? 0 : 8, [&](bool in_child) {
          auto start = Clock::now();
          tenant = NpTenant(input);
          double seconds = tenant != nullptr ? SecondsSince(start) : -1;
          if (in_child) tenant.reset();
          return seconds;
        });
    if (tenant == nullptr) {
      result.Fail("np_search: tenant set-up failed");
      return result;
    }
    // The cold request: the set-up tenant's life.
    if (life(*tenant, nullptr).empty()) return result;
    tenant.reset();
    std::vector<double> warm;
    auto start = Clock::now();
    while (warm.size() < 2 || SecondsSince(start) < options.seconds) {
      auto begin = Clock::now();
      std::shared_ptr<pdx::serve::Tenant> t = NpTenant(input);
      if (t == nullptr || life(*t, nullptr).empty()) {
        result.Fail("np_search: a tenant's life failed");
        return result;
      }
      warm.push_back(SecondsSince(begin) * 1000);
    }
    result.attempted = static_cast<int64_t>(warm.size()) + 1;
    result.Add("setup_s", Median(setup), "s",
               static_cast<int64_t>(setup.size()));
    result.Add("p50_ms", Median(warm), "ms", static_cast<int64_t>(warm.size()));
    result.Add("peak_rss_mb", PeakRssMb(), "MB", 1);
    return result;
  }

  // Traced: one life untraced, one traced through serve::Tenant (for the
  // overhead), then one through the layer peel, whose symbol table the
  // bench can watch.
  Tracer& tracer = Tracer::Global();
  tracer.Enable(kRingCapacity);
  SpanLog log;
  std::shared_ptr<pdx::serve::Tenant> tenant = NpTenant(input);
  log.EndRequest("@setup");
  tracer.Disable();
  if (tenant == nullptr) {
    result.Fail("np_search: tenant set-up failed");
    return result;
  }
  std::vector<double> untraced = life(*tenant, nullptr);
  tracer.Enable(kRingCapacity);
  tenant = NpTenant(input);
  log.EndRequest("@setup");
  std::vector<double> traced = life(*tenant, &log);
  tenant.reset();

  Counters before = Counters::Now();
  int64_t nulls = 0;
  int64_t n = 0;
  auto layered = LayerTenant::Create(input.setting);
  if (!layered.ok() || !(*layered)->Write(input.facts, false).ok()) {
    result.Fail("np_search: layer peel set-up failed");
  } else {
    LayerTenant& t = **layered;
    log.EndRequest("@setup");
    uint32_t nulls_before = t.null_count();
    for (const std::string& edge : input.rounds) {
      pdx::StatusOr<bool> exists = pdx::InternalError("edge write failed");
      if (t.Write(edge, true).ok() && t.Write(edge, false).ok()) {
        exists = t.Exists();
      }
      log.EndRequest("layer");
      ++n;
      if (!exists.ok() || *exists) {
        result.Fail("np_search layer peel: exists did not answer false");
        break;
      }
    }
    nulls = t.null_count() - nulls_before;
  }
  Counters after = Counters::Now();
  tracer.Disable();

  result.attempted = n;
  result.Add("pdxbench.trace_overhead_pct",
             sum(untraced) > 0 ? (sum(traced) / sum(untraced) - 1) * 100 : 0,
             "%", static_cast<int64_t>(traced.size()));
  AddCommonLayers(log, "layer", before, after, n, nulls, &result);
  std::vector<double> solver = log.PerRequestMs("solve.generic", "layer");
  result.Add("solver.run_ms", Median(solver), "ms",
             static_cast<int64_t>(solver.size()));
  double nodes = PerRequest(before, after, "pdx_solver_nodes_total", n);
  result.Add("solver.nodes", nodes, "count", n);
  double solver_s = Median(solver) / 1000;
  result.Add("solver.nodes_per_s", solver_s > 0 ? nodes / solver_s : 0, "1/s",
             n);
  double discovered = static_cast<double>(
      after.Delta(before, "pdx_solver_candidates_discovered_total"));
  double checks = static_cast<double>(
      after.Delta(before, "pdx_solver_candidate_checks_total"));
  result.Add("solver.check_yield", checks > 0 ? discovered / checks : 0,
             "ratio", n);
  result.Add("solver.growth",
             untraced.size() >= 2 ? untraced.back() / untraced.front() : 0,
             "ratio", static_cast<int64_t>(untraced.size()));
  std::vector<double> tenant_exists = log.PerRequestMs(kSpanTenant, "tenant");
  result.Add("serve.tenant_exists_ms", Median(tenant_exists), "ms",
             static_cast<int64_t>(tenant_exists.size()));
  KeepTrace(log, &result);
  return result;
}

}  // namespace pdxbench
