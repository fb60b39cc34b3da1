// The pdxd serving workloads, serve_point and serve_churn: an in-process
// Server on a unix socket, a genomics tenant loaded with a seeded base,
// and an open-loop Poisson script over min(4, nproc) connections.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "harness.h"
#include "loadgen.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/tenant.h"
#include "stats.h"

namespace pdxbench {

using pdx::serve::JsonValue;
using Clock = std::chrono::steady_clock;

namespace {

struct ServeSpec {
  const char* name;
  ServeShape shape;
  int smoke_base;
  // The frozen ladder (requests/s); latencies are reported at the middle
  // rate, rates[1].
  double rates[3];
  double tail_pct;  // target tail percentile
  double limit_ms;  // latency limit at the tail percentile
  // p50_ms is the median of the workload's main request class: reads
  // where most requests read, writes where the workload is about churn.
  bool p50_over_writes;
};

// Reads mostly hit the per-generation memo: transport, JSON and dispatch
// dominate, so protocol, tracing and metrics changes show here.
constexpr ServeSpec kServePoint = {
    "serve_point", {1000, {70, 15, 5, 7, 3}}, 100, {100, 200, 400}, 99, 40,
    false};
// Half the requests publish a generation, so nearly every read lands on a
// new one: the fingerprint, views, the Figure 3 recompute and deletion
// propagation dominate.
constexpr ServeSpec kServeChurn = {
    "serve_churn", {10000, {15, 35, 0, 35, 15}}, 200, {10, 20, 40}, 95, 250,
    true};

std::string SocketAddress() {
  return "unix:.pdxbench-" + std::to_string(::getpid()) + ".sock";
}

std::string LoadLine(const std::string& setting, const std::string& base) {
  std::string line = "{\"verb\":\"load\",\"setting\":\"";
  pdx::serve::AppendJsonEscaped(setting, &line);
  line += "\",\"facts\":\"";
  pdx::serve::AppendJsonEscaped(base, &line);
  line += "\"}";
  return line;
}

// Server::Start plus the load of the setting and base, published.
pdx::StatusOr<std::unique_ptr<pdx::serve::Server>> StartPdxd(
    const ServeInput& input, int threads) {
  pdx::serve::ServerOptions options;
  options.address = SocketAddress();
  options.worker_threads = threads;
  PDX_ASSIGN_OR_RETURN(std::unique_ptr<pdx::serve::Server> server,
                       pdx::serve::Server::Start(options));
  PDX_ASSIGN_OR_RETURN(pdx::serve::Client client,
                       pdx::serve::Client::Connect(server->address()));
  PDX_ASSIGN_OR_RETURN(JsonValue reply,
                       client.CallRaw(LoadLine(input.setting, input.base)));
  if (!reply.GetBool("ok") || reply.GetString("tenant") != input.tenant) {
    return pdx::InternalError("load failed: " + reply.Dump());
  }
  return server;
}

// Checks one reply against the model. Returns "" when it is right, or
// why not. `*failed` is set for a failed request (transport error or
// ok=false), which counts against error_frac instead of correctness.
std::string CheckReply(const ScriptedRequest& req, const JsonValue& reply,
                       bool transport_ok, bool* failed) {
  *failed = !transport_ok || !reply.GetBool("ok");
  if (*failed) return "";
  switch (req.verb) {
    case Verb::kContains:
      if (reply.GetBool("contains") != req.expect.contains) {
        return "contains " + req.text + " answered " + reply.Dump();
      }
      break;
    case Verb::kCertain: {
      const JsonValue* answers = reply.Find("answers");
      int64_t n = answers != nullptr ? answers->items().size() : -1;
      if (n != req.expect.answers) {
        return "certain " + req.text + " answered " + reply.Dump();
      }
      break;
    }
    case Verb::kExists:
      if (!reply.GetBool("exists")) return "exists answered " + reply.Dump();
      break;
    case Verb::kWrite:
    case Verb::kRetract:
      break;
  }
  return "";
}

struct WindowStats {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<double> all, reads, writes, late, service_reads;
  int64_t exists = 0;
  int64_t exists_cached = 0;
};

// Checks every reply and gathers the requests due in [from_s, to_s).
WindowStats Gather(const std::vector<ScriptedRequest>& requests,
                   const std::vector<Outcome>& outcomes, double from_s,
                   double to_s, WorkloadResult* result) {
  WindowStats w;
  for (size_t i = 0; i < requests.size(); ++i) {
    const ScriptedRequest& req = requests[i];
    const Outcome& out = outcomes[i];
    bool failed = false;
    std::string wrong = CheckReply(req, out.reply, out.transport_ok, &failed);
    if (!wrong.empty()) result->Fail(wrong);
    if (req.due_s < from_s || req.due_s >= to_s) continue;
    ++w.attempted;
    if (failed) {
      ++w.failed;
      continue;
    }
    w.all.push_back(out.latency_ms);
    w.late.push_back(out.late_ms);
    if (IsRead(req.verb)) {
      w.reads.push_back(out.latency_ms);
      w.service_reads.push_back(out.service_ms);
    } else {
      w.writes.push_back(out.latency_ms);
    }
    if (req.verb == Verb::kExists) {
      ++w.exists;
      if (out.reply.GetString("solver") == "cached") ++w.exists_cached;
    }
  }
  return w;
}

void AddTail(const char* name, const std::vector<double>& values,
             double target, WorkloadResult* result) {
  if (std::optional<Tail> tail = TailPercentile(values, target)) {
    result->Add(name, tail->value, "ms", static_cast<int64_t>(values.size()));
    result->Config(std::string(name) + ".pct", Num(tail->pct));
  } else {
    result->Config(std::string(name) + ".pct", "refused: too few samples");
  }
}

// The ServeInput for a run at `rate` over `duration_s`.
ServeInput MakeInput(const ServeSpec& spec, const RunOptions& options,
                     double rate, double duration_s) {
  ServeShape shape = spec.shape;
  if (options.smoke) shape.base_proteins = spec.smoke_base;
  static const std::string tenant =
      pdx::serve::Tenant::IdForSetting(kGenomicsSetting).value();
  return MakeServeInput(shape, options.seed, rate, duration_s, tenant);
}

// Rates scale down for the smoke run so it stays well inside its budget.
double Rate(const ServeSpec& spec, const RunOptions& options, int step) {
  return options.smoke ? spec.rates[step] / 4 : spec.rates[step];
}

double Warmup(const RunOptions& options) { return options.smoke ? 0.2 : 2.0; }

void AddConfig(const ServeSpec& spec, const RunOptions& options,
               WorkloadResult* result) {
  const int* mix = spec.shape.mix;
  result->Config("loop", "open, Poisson arrivals timed from due time");
  result->Config("connections", std::to_string(options.threads));
  result->Config("worker_threads", std::to_string(options.threads));
  result->Config("base_proteins",
                 std::to_string(options.smoke ? spec.smoke_base
                                              : spec.shape.base_proteins));
  result->Config("mix", "contains " + std::to_string(mix[0]) + " / exists " +
                            std::to_string(mix[1]) + " / certain " +
                            std::to_string(mix[2]) + " / write " +
                            std::to_string(mix[3]) + " / retract " +
                            std::to_string(mix[4]));
  result->Config("ladder_rps", Num(spec.rates[0]) + " / " +
                                  Num(spec.rates[1]) + " / " +
                                  Num(spec.rates[2]));
  result->Config("rate_rps", Num(Rate(spec, options, 1)));
  result->Config("warmup_s", Num(Warmup(options)));
  result->Config("tail_target_pct", Num(spec.tail_pct));
  result->Config("limit_ms", Num(spec.limit_ms));
}

WorkloadResult RunUntraced(const ServeSpec& spec, const RunOptions& options) {
  WorkloadResult result;
  result.workload = spec.name;
  AddConfig(spec, options, &result);
  const double warmup = Warmup(options);
  ServeInput input = MakeInput(spec, options, Rate(spec, options, 1),
                               warmup + options.seconds);
  result.input_hash = input.hash;

  std::unique_ptr<pdx::serve::Server> server;
  std::string setup_error;
  auto setup = [&](bool in_child) {
    auto start = Clock::now();
    auto started = StartPdxd(input, options.threads);
    double seconds = SecondsSince(start);
    if (!started.ok()) {
      setup_error = started.status().ToString();
      return -1.0;
    }
    server = std::move(started).value();
    if (in_child) server->Shutdown();
    return seconds;
  };
  std::vector<double> samples = ColdSamples(options.smoke ? 0 : 8, setup);
  if (server == nullptr) {
    result.Fail("set-up failed: " + setup_error);
    return result;
  }
  for (double s : samples) {
    if (s < 0) result.Fail("a forked set-up failed");
  }
  result.Add("setup_s", Median(samples), "s",
             static_cast<int64_t>(samples.size()));

  std::vector<Outcome> outcomes =
      RunOpenLoop(server->address(), input.requests, options.threads,
                  Clock::now() + std::chrono::milliseconds(20));
  server->Shutdown();

  WindowStats w = Gather(input.requests, outcomes, warmup,
                         warmup + options.seconds, &result);
  result.attempted = w.attempted;
  result.failed = w.failed;
  auto count = [](const std::vector<double>& v) {
    return static_cast<int64_t>(v.size());
  };
  const std::vector<double>& main = spec.p50_over_writes ? w.writes : w.reads;
  result.Add("p50_ms", Median(main), "ms", count(main));
  result.Add("peak_rss_mb", PeakRssMb(), "MB", 1);
  result.Add("read_p50_ms", Median(w.reads), "ms", count(w.reads));
  AddTail("read_tail_ms", w.reads, spec.tail_pct, &result);
  result.Add("write_p50_ms", Median(w.writes), "ms", count(w.writes));
  AddTail("write_tail_ms", w.writes, spec.tail_pct, &result);
  result.Add("error_frac",
             w.attempted > 0 ? static_cast<double>(w.failed) / w.attempted : 0,
             "ratio", w.attempted);
  AddTail("pdxbench.gen_late_p99_ms", w.late, 99, &result);
  return result;
}

// Replays requests [0, count) of `input` through `call`, one at a time,
// filing each under `peel` + verb. With count < 0 it replays until
// `budget_s` has passed. Returns the number replayed.
int64_t Replay(const ServeInput& input, int64_t count, double budget_s,
               const std::string& peel, SpanLog* log,
               const std::function<std::string(const ScriptedRequest&)>& call,
               WorkloadResult* result) {
  auto start = Clock::now();
  int64_t n = 0;
  for (const ScriptedRequest& req : input.requests) {
    if (count >= 0 ? n >= count : SecondsSince(start) >= budget_s) break;
    std::string wrong = call(req);
    if (!wrong.empty()) result->Fail(peel + " peel: " + wrong);
    log->EndRequest(peel + VerbName(req.verb));
    ++n;
  }
  return n;
}

WorkloadResult RunTraced(const ServeSpec& spec, const RunOptions& options) {
  WorkloadResult result;
  result.workload = spec.name;
  AddConfig(spec, options, &result);
  const double warmup = Warmup(options);
  const double half = options.seconds / 4;
  ServeInput input = MakeInput(spec, options, Rate(spec, options, 1),
                               warmup + 2 * half);
  result.input_hash = input.hash;
  pdx::obs::Tracer& tracer = pdx::obs::Tracer::Global();
  tracer.Enable(kRingCapacity);
  SpanLog log;

  auto started = StartPdxd(input, options.threads);
  log.EndRequest("@setup");
  if (!started.ok()) {
    result.Fail("set-up failed: " + started.status().ToString());
    return result;
  }
  std::unique_ptr<pdx::serve::Server> server = std::move(started).value();

  // The middle step twice, untraced then traced, for the overhead. The
  // two halves continue one script, so each connection's model holds.
  std::vector<ScriptedRequest> first, second;
  for (const ScriptedRequest& req : input.requests) {
    if (req.due_s < warmup + half) {
      first.push_back(req);
    } else {
      second.push_back(req);
      second.back().due_s -= warmup + half;
    }
  }
  tracer.Disable();
  std::vector<Outcome> untraced =
      RunOpenLoop(server->address(), first, options.threads,
                  Clock::now() + std::chrono::milliseconds(20));
  WindowStats a = Gather(first, untraced, warmup, warmup + half, &result);

  tracer.Enable(kRingCapacity);
  Counters before = Counters::Now();
  std::shared_ptr<pdx::serve::Tenant> tenant =
      server->registry().Find(input.tenant).value();
  std::atomic<bool> sampling{true};
  size_t queue_depth_max = 0;
  std::thread sampler([&] {
    while (sampling.load()) {
      queue_depth_max = std::max(queue_depth_max, tenant->Stats().queue_depth);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<Outcome> traced =
      RunOpenLoop(server->address(), second, options.threads,
                  Clock::now() + std::chrono::milliseconds(20));
  sampling.store(false);
  sampler.join();
  Counters after = Counters::Now();
  log.EndRequest("@concurrent");
  WindowStats b = Gather(second, traced, 0, half, &result);
  tenant.reset();
  server->Shutdown();

  double untraced_p50 = Median(a.all);
  result.Add("pdxbench.trace_overhead_pct",
             untraced_p50 > 0 ? (Median(b.all) / untraced_p50 - 1) * 100 : 0,
             "%", static_cast<int64_t>(b.all.size()));
  int64_t writes = after.Delta(before, "pdx_serve_write_requests_total") +
                   after.Delta(before, "pdx_serve_retract_requests_total");
  int64_t batches = after.Delta(before, "pdx_serve_batches_total");
  result.Add("serve.writes_per_batch",
             batches > 0 ? static_cast<double>(writes) / batches : 0, "count",
             batches);
  result.Add("serve.batch_retries",
             after.Delta(before, "pdx_serve_batch_retries_total"), "count",
             batches);
  result.Add("serve.queue_depth_max", static_cast<double>(queue_depth_max),
             "count", 1);
  result.Add("serve.exists_memo_hit_ratio",
             b.exists > 0 ? static_cast<double>(b.exists_cached) / b.exists : 0,
             "ratio", b.exists);

  // Single-threaded replays of the same sequence on fresh state, peeling
  // one layer at a time.
  const double peel_budget = options.seconds * 0.15;

  // (a) protocol peel.
  int64_t replayed = 0;
  {
    pdx::serve::TenantRegistry registry;
    pdx::serve::ProtocolHandler handler(&registry, {});
    JsonValue loaded = pdx::serve::ParseJson(handler.HandleLine(
                                                 LoadLine(input.setting,
                                                          input.base),
                                                 nullptr))
                           .value();
    log.EndRequest("@setup");
    if (!loaded.GetBool("ok")) result.Fail("protocol peel: load failed");
    replayed = Replay(input, -1, peel_budget, "a:", &log,
                      [&](const ScriptedRequest& req) {
                        std::string line;
                        {
                          pdx::obs::Span span(kSpanProtocol);
                          line = handler.HandleLine(req.line, nullptr);
                        }
                        auto reply = pdx::serve::ParseJson(line);
                        bool failed = false;
                        std::string wrong = CheckReply(
                            req, reply.ok() ? *reply : JsonValue(),
                            reply.ok(), &failed);
                        return failed ? "request failed: " + line : wrong;
                      },
                      &result);
  }

  // (b) tenant peel.
  {
    auto created = pdx::serve::Tenant::Create(input.setting, {});
    auto deadline = Clock::now() + std::chrono::hours(1);
    if (!created.ok() || !(*created)->Write(input.base, deadline).ok()) {
      result.Fail("tenant peel: set-up failed");
    } else {
      pdx::serve::Tenant& t = **created;
      log.EndRequest("@setup");
      Replay(input, replayed, 0, "b:", &log,
             [&](const ScriptedRequest& req) -> std::string {
               pdx::obs::Span span(kSpanTenant);
               switch (req.verb) {
                 case Verb::kContains: {
                   auto r = t.Contains(req.text);
                   if (!r.ok()) return r.status().ToString();
                   return r->contains == req.expect.contains
                              ? ""
                              : "contains " + req.text;
                 }
                 case Verb::kExists: {
                   auto r = t.Exists("auto");
                   if (!r.ok()) return r.status().ToString();
                   return r->exists ? "" : "exists answered false";
                 }
                 case Verb::kCertain: {
                   auto r = t.Certain(req.text, "lower_bound");
                   if (!r.ok()) return r.status().ToString();
                   return static_cast<int>(r->answers.size()) ==
                                  req.expect.answers
                              ? ""
                              : "certain " + req.text;
                 }
                 case Verb::kWrite:
                 case Verb::kRetract: {
                   auto r = req.verb == Verb::kWrite
                                ? t.Write(req.text, deadline)
                                : t.Retract(req.text, deadline);
                   return r.ok() ? "" : r.status().ToString();
                 }
               }
               return "";
             },
             &result);
    }
  }

  // (c) layer peel.
  Counters layer_before = Counters::Now();
  int64_t nulls = 0;
  int64_t retracted = 0, rederived = 0, fallbacks = 0;
  int64_t max_block_nulls = 0;
  {
    auto created = LayerTenant::Create(input.setting);
    if (!created.ok() || !(*created)->Write(input.base, false).ok()) {
      result.Fail("layer peel: set-up failed");
    } else {
      LayerTenant& t = **created;
      log.EndRequest("@setup");
      uint32_t nulls_before = t.null_count();
      Replay(input, replayed, 0, "c:", &log,
             [&](const ScriptedRequest& req) -> std::string {
               switch (req.verb) {
                 case Verb::kContains: {
                   auto r = t.Contains(req.text);
                   if (!r.ok()) return r.status().ToString();
                   return *r == req.expect.contains ? ""
                                                    : "contains " + req.text;
                 }
                 case Verb::kExists: {
                   auto r = t.Exists();
                   if (!r.ok()) return r.status().ToString();
                   return *r ? "" : "exists answered false";
                 }
                 case Verb::kCertain: {
                   auto r = t.CertainLowerBound(req.text);
                   if (!r.ok()) return r.status().ToString();
                   return *r == req.expect.answers ? ""
                                                   : "certain " + req.text;
                 }
                 case Verb::kWrite:
                 case Verb::kRetract: {
                   pdx::Status s = t.Write(req.text, req.verb == Verb::kRetract);
                   retracted += t.last_stream().retracted;
                   rederived += t.last_stream().rederived;
                   fallbacks += t.last_stream().fell_back ? 1 : 0;
                   return s.ok() ? "" : s.ToString();
                 }
               }
               return "";
             },
             &result);
      nulls = t.null_count() - nulls_before;
      max_block_nulls = t.max_block_nulls();
    }
  }
  Counters layer_after = Counters::Now();
  AddCommonLayers(log, "c:", layer_before, layer_after, replayed, nulls,
                  &result);

  auto p50 = [](const std::vector<double>& v) { return Median(v); };
  auto n = [](const std::vector<double>& v) {
    return static_cast<int64_t>(v.size());
  };
  // The peels replayed the same requests in the same order, so their
  // per-request times pair up by index.
  std::vector<double> protocol = log.Column(kSpanProtocol, "a:");
  std::vector<double> tenant_call = log.Column(kSpanTenant, "b:");
  std::vector<double> parse = log.Column(kSpanParseInstance, "c:");
  std::vector<double> resume = log.Column(kSpanResume, "c:");
  std::vector<double> fingerprint = log.Column(kSpanFingerprint, "c:");
  std::vector<double> protocol_reads, protocol_over_tenant, write_overhead;
  for (size_t i = 0; i < input.requests.size() && i < protocol.size() &&
                     i < tenant_call.size() && i < resume.size();
       ++i) {
    if (IsRead(input.requests[i].verb)) {
      protocol_reads.push_back(protocol[i]);
      protocol_over_tenant.push_back(protocol[i] - tenant_call[i]);
    } else {
      write_overhead.push_back(tenant_call[i] -
                               (parse[i] + resume[i] + fingerprint[i]));
    }
  }
  result.Add("serve.transport_us",
             (p50(a.service_reads) - p50(protocol_reads)) * 1000, "us",
             n(a.service_reads));
  result.Add("serve.protocol_us", p50(protocol_over_tenant) * 1000, "us",
             n(protocol_over_tenant));
  result.Add("serve.write_overhead_ms", p50(write_overhead), "ms",
             n(write_overhead));
  std::vector<double> views = log.PerRequestMs(kSpanViews, "c:");
  result.Add("generation.views_ms", p50(views), "ms", n(views));
  std::vector<double> adds = log.PerRequestMs(kSpanResume, "c:write");
  result.Add("stream.resume_ms", p50(adds), "ms", n(adds));
  std::vector<double> retract = log.PerRequestMs(kSpanResume, "c:retract");
  result.Add("stream.retract_ms", p50(retract), "ms", n(retract));
  result.Add("stream.retracted", static_cast<double>(retracted), "count",
             n(retract));
  result.Add("stream.rederived", static_cast<double>(rederived), "count",
             n(retract));
  result.Add("stream.fallbacks", static_cast<double>(fallbacks), "count",
             n(retract));
  for (const char* span : {"solve.ctract", "ctract.st_chase",
                           "ctract.ts_chase", "ctract.block_check"}) {
    std::vector<double> v = log.PerRequestMs(span, "c:");
    std::string name = span;
    if (name == "solve.ctract") name = "ctract.run";
    result.Add(name + "_ms", p50(v), "ms", n(v));
  }
  int64_t runs = layer_after.Delta(layer_before, "pdx_ctract_runs_total");
  result.Add("ctract.blocks",
             runs > 0 ? static_cast<double>(layer_after.Delta(
                            layer_before, "pdx_ctract_blocks_total")) /
                            runs
                      : 0,
             "count", runs);
  result.Add("ctract.max_block_nulls", static_cast<double>(max_block_nulls),
             "count", runs);
  std::vector<double> certain = log.PerRequestMs(kSpanCertain, "c:");
  result.Add("certain.lower_bound_ms", p50(certain), "ms", n(certain));
  std::vector<double> query = log.PerRequestMs(kSpanParseQuery, "c:");
  result.Add("logic.parse_query_us", p50(query) * 1000, "us", n(query));
  result.attempted = replayed;
  KeepTrace(log, &result);
  tracer.Disable();
  return result;
}

// Calibration: each ladder rate in turn on a fresh pdxd. slo_rps is the
// highest rate at which the share of sent requests answered within the
// latency limit reaches the tail percentile (a failed request misses)
// while the generator's own lateness p99 stays under the limit.
WorkloadResult RunLadder(const ServeSpec& spec, const RunOptions& options) {
  WorkloadResult result;
  result.workload = spec.name;
  AddConfig(spec, options, &result);
  const double warmup = Warmup(options);
  double slo_rps = 0;
  for (int step = 0; step < 3; ++step) {
    const double rate = Rate(spec, options, step);
    ServeInput input = MakeInput(spec, options, rate, warmup + options.seconds);
    auto started = StartPdxd(input, options.threads);
    if (!started.ok()) {
      result.Fail("set-up failed: " + started.status().ToString());
      return result;
    }
    std::vector<Outcome> outcomes =
        RunOpenLoop((*started)->address(), input.requests, options.threads,
                    Clock::now() + std::chrono::milliseconds(20));
    (*started)->Shutdown();
    WindowStats w = Gather(input.requests, outcomes, warmup,
                           warmup + options.seconds, &result);
    result.attempted += w.attempted;
    result.failed += w.failed;
    int64_t within = std::count_if(w.all.begin(), w.all.end(),
                                   [&](double ms) { return ms <= spec.limit_ms; });
    double share =
        w.attempted > 0 ? static_cast<double>(within) / w.attempted : 0;
    std::optional<Tail> late = TailPercentile(w.late, 99);
    const std::string step_name = "ladder." + Num(rate) + ".";
    result.Add(step_name + "p50_ms", Median(w.all), "ms",
               static_cast<int64_t>(w.all.size()));
    AddTail((step_name + "tail_ms").c_str(), w.all, spec.tail_pct, &result);
    result.Add(step_name + "within_limit", share, "ratio", w.attempted);
    if (late) {
      result.Add(step_name + "gen_late_p99_ms", late->value, "ms",
                 static_cast<int64_t>(w.late.size()));
    }
    if (share >= spec.tail_pct / 100 && late && late->value < spec.limit_ms) {
      slo_rps = rate;
    }
  }
  result.Add("slo_rps", slo_rps, "req/s", 3);
  return result;
}

WorkloadResult RunServing(const ServeSpec& spec, const RunOptions& options) {
  if (options.ladder) return RunLadder(spec, options);
  return options.trace ? RunTraced(spec, options)
                       : RunUntraced(spec, options);
}

}  // namespace

WorkloadResult RunServePoint(const RunOptions& options) {
  return RunServing(kServePoint, options);
}

WorkloadResult RunServeChurn(const RunOptions& options) {
  return RunServing(kServeChurn, options);
}

}  // namespace pdxbench
