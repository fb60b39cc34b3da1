#include "harness.h"

#include <sys/wait.h>
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>

#include "obs/metrics.h"
#include "stats.h"

namespace pdxbench {

std::vector<double> ColdSamples(int forks,
                                const std::function<double(bool)>& setup) {
  std::vector<double> samples;
  for (int i = 0; i < forks; ++i) {
    int fds[2];
    if (::pipe(fds) != 0) {
      samples.push_back(-1);
      continue;
    }
    pid_t pid = ::fork();
    if (pid == 0) {
      ::close(fds[0]);
      double seconds = setup(/*in_child=*/true);
      ssize_t written = ::write(fds[1], &seconds, sizeof(seconds));
      ::_exit(written == static_cast<ssize_t>(sizeof(seconds)) ? 0 : 1);
    }
    ::close(fds[1]);
    double seconds = -1;
    if (pid > 0) {
      if (::read(fds[0], &seconds, sizeof(seconds)) !=
          static_cast<ssize_t>(sizeof(seconds))) {
        seconds = -1;
      }
      int status = 0;
      ::waitpid(pid, &status, 0);
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) seconds = -1;
    }
    ::close(fds[0]);
    samples.push_back(seconds);
  }
  samples.push_back(setup(/*in_child=*/false));
  return samples;
}

std::string Num(double value) {
  // JSON has no NaN or infinity; null keeps the line valid and fails the
  // results check.
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return ec == std::errc() ? std::string(buffer, end) : "0";
}

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so a launcher bigger than the workload would set it.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

Counters Counters::Now() {
  Counters c;
  for (const pdx::obs::MetricSnapshot& m :
       pdx::obs::MetricsRegistry::Global().Snapshot()) {
    if (m.kind == pdx::obs::MetricKind::kHistogram) {
      c.values_[m.name + "_sum"] = m.hist.sum;
      c.values_[m.name + "_count"] = m.hist.count;
    } else {
      c.values_[m.name] = m.value;
    }
  }
  return c;
}

int64_t Counters::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second;
}

int64_t Counters::Delta(const Counters& before, const std::string& name) const {
  return Get(name) - before.Get(name);
}

void AddCommonLayers(const SpanLog& log, const std::string& prefix,
                     const Counters& before, const Counters& after,
                     int64_t requests, int64_t nulls, WorkloadResult* result) {
  auto p50 = [&](const std::string& key, const char* metric) {
    std::vector<double> v = log.PerRequestMs(key, prefix);
    result->Add(metric, Median(v), "ms", static_cast<int64_t>(v.size()));
  };
  auto per_request = [&](double total, const char* metric) {
    result->Add(metric, requests > 0 ? total / requests : 0, "count",
                requests);
  };
  p50(kSpanParseInstance, "relational.parse_ms");
  std::vector<double> setting = log.PerRequestMs(kSpanParseSetting, prefix);
  std::vector<double> setup = log.PerRequestMs(kSpanParseSetting, "@");
  setting.insert(setting.end(), setup.begin(), setup.end());
  result->Add("logic.parse_setting_ms", Median(setting), "ms",
              static_cast<int64_t>(setting.size()));
  // Plans compile once per process, often before the traced requests, so
  // this is the process total.
  result->Add("plan.compile_ms",
              static_cast<double>(after.Get("pdx_plan_compile_micros_sum")) /
                  1000,
              "ms", after.Get("pdx_plan_compile_micros_count"));
  p50(kChaseGroupKey, "chase.run_ms");
  p50(kSpanFingerprint, "relational.fingerprint_ms");
  per_request(after.Delta(before, "pdx_chase_steps_total"), "chase.steps");
  per_request(after.Delta(before, "pdx_chase_egd_merges_total"),
              "chase.egd_merges");
  per_request(nulls, "relational.nulls_minted");
  int64_t hits = after.Delta(before, "pdx_plan_cache_hits_total");
  int64_t misses = after.Delta(before, "pdx_plan_cache_misses_total");
  result->Add("plan.cache_hit_ratio",
              hits + misses > 0 ? static_cast<double>(hits) / (hits + misses)
                                : 0,
              "ratio", hits + misses);
  result->Add("pdxbench.trace_dropped",
              static_cast<double>(pdx::obs::Tracer::Global().dropped()),
              "count", log.spans());
  if (pdx::obs::Tracer::Global().dropped() > 0) {
    result->Fail("the tracer dropped spans; per-layer numbers are partial");
  }
}

void KeepTrace(const SpanLog& log, WorkloadResult* result) {
  result->span_table = log.names();
  result->trace = log.kept();
}

}  // namespace pdxbench
