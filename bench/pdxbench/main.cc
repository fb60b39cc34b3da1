// pdxbench: the seeded end-to-end and per-layer benchmark of pdx (see
// README.md).
//
//   pdxbench --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//            [--out FILE]
//   pdxbench --all [same options]   each workload in its own child process
//   pdxbench --workload serve_point|serve_churn --ladder   rate calibration
//   pdxbench --compare parent.json change.json
//
// A run prints its metrics as a table, appends one results line to FILE
// when --out is given (JSON Lines, the input of --compare), writes
// pdxbench-trace-<workload>.json when traced, and ends stdout with one
// JSON object: {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics (untraced) or the per-layer metrics (traced) that
// BENCHMARK.json lists. Exit status: 0 when every oracle passed, 1 when
// one failed, 2 on bad usage.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "obs/export.h"
#include "serve/json.h"
#include "stats.h"

namespace pdxbench {
namespace {

struct WorkloadInfo {
  const char* name;
  WorkloadResult (*run)(const RunOptions&);
  // input_hash at seed 1 and full size: a changed generator shows here.
  uint64_t golden_hash;
};

constexpr WorkloadInfo kWorkloads[] = {
    {"serve_point", RunServePoint, 0xe5d7b58dc246fe74},
    {"serve_churn", RunServeChurn, 0x5cf72161024aa863},
    {"bulk_exchange", RunBulkExchange, 0xe232d58241a84150},
    {"chase_egd", RunChaseEgd, 0xdf8751cd2736df2b},
    {"np_search", RunNpSearch, 0x8e87ac25b88aac19},
};

// The metrics BENCHMARK.json lists: every workload reports all of them.
constexpr const char* kEndToEnd[] = {"setup_s", "p50_ms", "peak_rss_mb"};
constexpr const char* kPerLayer[] = {
    "relational.parse_ms",       "logic.parse_setting_ms",
    "chase.run_ms",              "relational.fingerprint_ms",
    "chase.steps",               "chase.egd_merges",
    "relational.nulls_minted",
};

constexpr char kUsage[] =
    "usage: pdxbench --workload NAME | --all [--seed N] [--seconds S]\n"
    "                [--trace 0|1] [--smoke] [--ladder] [--out FILE]\n"
    "       pdxbench --compare PARENT.json CHANGE.json\n"
    "workloads: serve_point serve_churn bulk_exchange chase_egd np_search\n";

struct Args {
  RunOptions run;
  std::string workload;
  bool all = false;
  std::string out;
  std::vector<std::string> compare;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  std::vector<std::string> a(argv + 1, argv + argc);
  for (size_t i = 0; i < a.size(); ++i) {
    auto value = [&](std::string* out) {
      if (i + 1 >= a.size()) return false;
      *out = a[++i];
      return true;
    };
    std::string v;
    char* end = nullptr;
    if (a[i] == "--workload") {
      if (!value(&args->workload)) return false;
    } else if (a[i] == "--all") {
      args->all = true;
    } else if (a[i] == "--seed") {
      if (!value(&v)) return false;
      args->run.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return false;
    } else if (a[i] == "--seconds") {
      if (!value(&v)) return false;
      args->run.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(args->run.seconds > 0)) return false;
    } else if (a[i] == "--trace") {
      // "--trace" alone means --trace 1.
      args->run.trace = true;
      if (i + 1 < a.size() && (a[i + 1] == "0" || a[i + 1] == "1")) {
        args->run.trace = a[++i] == "1";
      }
    } else if (a[i] == "--smoke") {
      args->run.smoke = true;
    } else if (a[i] == "--ladder") {
      args->run.ladder = true;
    } else if (a[i] == "--out") {
      if (!value(&args->out)) return false;
    } else if (a[i] == "--compare") {
      std::string parent, change;
      if (!value(&parent) || !value(&change)) return false;
      args->compare = {parent, change};
    } else {
      return false;
    }
  }
  return !args->compare.empty() || args->all || !args->workload.empty();
}

const WorkloadInfo* FindWorkload(const std::string& name) {
  for (const WorkloadInfo& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string Hex(uint64_t h) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(h));
  return buffer;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  pdx::serve::AppendJsonEscaped(s, &out);
  return out + "\"";
}

const Metric* FindMetric(const WorkloadResult& r, const std::string& name) {
  for (const Metric& m : r.metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void PrintTable(const WorkloadResult& r, const RunOptions& o) {
  std::printf("pdxbench %s seed=%llu seconds=%s trace=%d smoke=%d nproc=%u "
              "threads=%d input_hash=%s\n",
              r.workload.c_str(), static_cast<unsigned long long>(o.seed),
              Num(o.seconds).c_str(), o.trace, o.smoke,
              std::thread::hardware_concurrency(), o.threads,
              Hex(r.input_hash).c_str());
  for (const auto& [key, value] : r.config) {
    std::printf("  %-28s %s\n", key.c_str(), value.c_str());
  }
  for (const Metric& m : r.metrics) {
    std::printf("  %-34s %14.6g %-9s n=%lld\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.n));
  }
  if (!r.span_table.empty()) {
    std::vector<std::pair<std::string, SpanLog::NameStats>> spans(
        r.span_table.begin(), r.span_table.end());
    std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
      return a.second.self_ms > b.second.self_ms;
    });
    std::printf("  %-34s %10s %12s %12s\n", "span (by self time)", "count",
                "total_ms", "self_ms");
    for (const auto& [name, s] : spans) {
      std::printf("  %-34s %10lld %12.3f %12.3f\n", name.c_str(),
                  static_cast<long long>(s.count), s.total_ms, s.self_ms);
    }
  }
  std::printf("  attempted=%lld failed=%lld oracle=%s\n",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed), r.correct() ? "ok" : "FAILED");
  for (size_t i = 0; i < r.failures.size() && i < 5; ++i) {
    std::printf("  ! %s\n", r.failures[i].c_str());
  }
}

// A JSON object built member by member.
class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, const std::string& json) {
    if (text_.size() > 1) text_ += ',';
    text_ += Quote(key);
    text_ += ':';
    text_ += json;
    return *this;
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    return Raw(key, Quote(value));
  }
  JsonObject& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonObject& Int(const std::string& key, int64_t value) {
    return Raw(key, std::to_string(value));
  }
  std::string Close() const { return text_ + "}"; }

 private:
  std::string text_ = "{";
};

std::string MetricJson(const Metric& m, bool with_n) {
  JsonObject json;
  json.Raw("value", Num(m.value)).Str("unit", m.unit);
  if (with_n) json.Int("n", m.n);
  return json.Close();
}

std::string ResultsLine(const WorkloadResult& r, const RunOptions& o) {
  std::string failures = "[";
  for (const std::string& f : r.failures) {
    if (failures.size() > 1) failures += ',';
    failures += Quote(f);
  }
  failures += ']';
  JsonObject config, metrics, spans;
  for (const auto& [key, value] : r.config) config.Str(key, value);
  for (const Metric& m : r.metrics) metrics.Raw(m.name, MetricJson(m, true));
  for (const auto& [name, s] : r.span_table) {
    spans.Raw(name, JsonObject()
                        .Int("count", s.count)
                        .Raw("total_ms", Num(s.total_ms))
                        .Raw("self_ms", Num(s.self_ms))
                        .Close());
  }
  return JsonObject()
      .Str("bench", "pdxbench")
      .Str("workload", r.workload)
      .Raw("seed", std::to_string(o.seed))
      .Raw("seconds", Num(o.seconds))
      .Bool("trace", o.trace)
      .Bool("smoke", o.smoke)
      .Int("nproc", std::thread::hardware_concurrency())
      .Int("threads", o.threads)
      .Str("input_hash", Hex(r.input_hash))
      .Bool("correct", r.correct())
      .Raw("failures", failures)
      .Int("attempted", r.attempted)
      .Int("failed", r.failed)
      .Raw("config", config.Close())
      .Raw("metrics", metrics.Close())
      .Raw("spans", spans.Close())
      .Close();
}

// The last stdout line: exactly the metrics BENCHMARK.json lists for this
// kind of run. False when one is missing.
bool DriverLine(const WorkloadResult& r, const RunOptions& o,
                std::string* line) {
  JsonObject metrics;
  bool complete = true;
  auto add = [&](const char* name) {
    const Metric* m = FindMetric(r, name);
    if (m == nullptr) {
      complete = false;
    } else {
      metrics.Raw(name, MetricJson(*m, false));
    }
  };
  if (o.trace) {
    for (const char* name : kPerLayer) add(name);
  } else {
    for (const char* name : kEndToEnd) add(name);
  }
  *line = JsonObject()
              .Bool("correct", r.correct())
              .Int("attempted", std::max<int64_t>(1, r.attempted))
              .Int("failed", r.failed)
              .Raw("metrics", metrics.Close())
              .Close();
  return complete;
}

int RunOne(const WorkloadInfo& info, const Args& args) {
  WorkloadResult r = info.run(args.run);
  if (args.run.seed == 1 && !args.run.smoke && !args.run.ladder &&
      r.input_hash != info.golden_hash) {
    r.Fail("input hash " + Hex(r.input_hash) + " differs from the seed-1 "
           "golden " + Hex(info.golden_hash) + ": the generator changed");
  }
  if (args.run.trace && !r.trace.empty()) {
    std::string path = std::string("pdxbench-trace-") + info.name + ".json";
    pdx::Status written = pdx::obs::WriteFileOrStdout(
        path, pdx::obs::ExportChromeTrace(r.trace));
    if (!written.ok()) r.Fail("cannot write " + path);
  }
  std::string line;
  bool complete = args.run.ladder || DriverLine(r, args.run, &line);
  if (!complete) r.Fail("a metric BENCHMARK.json lists is missing");
  PrintTable(r, args.run);
  if (!args.out.empty()) {
    std::ofstream out(args.out, std::ios::app);
    out << ResultsLine(r, args.run) << "\n";
    if (!out) {
      std::fprintf(stderr, "pdxbench: cannot append to %s\n",
                   args.out.c_str());
      return 1;
    }
  }
  std::fflush(stdout);
  if (complete && !args.run.ladder) std::printf("%s\n", line.c_str());
  return r.correct() ? 0 : 1;
}

// --all: every workload in a child process of its own, so each one's
// peak RSS and plan cache are its own.
int RunAll(const Args& args, char** argv) {
  std::string out = args.out.empty() ? "pdxbench-results.json" : args.out;
  int status_all = 0;
  for (const WorkloadInfo& info : kWorkloads) {
    std::vector<std::string> child = {
        argv[0],           "--workload", info.name,
        "--seed",          std::to_string(args.run.seed),
        "--seconds",       Num(args.run.seconds),
        "--trace",         args.run.trace ? "1" : "0",
        "--out",           out};
    if (args.run.smoke) child.push_back("--smoke");
    std::vector<char*> cargv;
    for (std::string& s : child) cargv.push_back(s.data());
    cargv.push_back(nullptr);
    std::fflush(stdout);
    pid_t pid = ::fork();
    if (pid == 0) {
      ::execv("/proc/self/exe", cargv.data());
      ::_exit(127);
    }
    int status = 1;
    if (pid < 0 || ::waitpid(pid, &status, 0) < 0) status = 1;
    bool ok = pid > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    std::printf("pdxbench --all: %s %s\n", info.name, ok ? "ok" : "FAILED");
    if (!ok) status_all = 1;
  }
  std::printf("pdxbench --all: results in %s\n", out.c_str());
  return status_all;
}

bool HigherIsBetter(const std::string& metric) {
  auto ends_with = [&](const char* suffix) {
    size_t n = std::strlen(suffix);
    return metric.size() >= n &&
           metric.compare(metric.size() - n, n, suffix) == 0;
  };
  return metric == "slo_rps" || ends_with("hit_ratio") ||
         ends_with("_per_s") || ends_with("speedup_vs_1_thread") ||
         metric == "solver.check_yield";
}

// workload -> metric -> values in file order.
using Series = std::map<std::string, std::map<std::string, std::vector<double>>>;

bool LoadSeries(const std::string& path, Series* series) {
  std::ifstream in(path);
  if (!in) return false;
  std::string text;
  while (std::getline(in, text)) {
    if (text.empty()) continue;
    auto parsed = pdx::serve::ParseJson(text);
    if (!parsed.ok()) return false;
    const pdx::serve::JsonValue* metrics = parsed->Find("metrics");
    if (metrics == nullptr) return false;
    std::string workload = parsed->GetString("workload");
    for (const auto& [name, m] : metrics->members()) {
      if (const pdx::serve::JsonValue* v = m.Find("value")) {
        (*series)[workload][name].push_back(v->as_double());
      }
    }
  }
  return true;
}

// The choosing-metrics §8 rule: a gain needs the change to win at least
// nine tenths of the pairs and the medians to differ by more than the
// parent's own quartile spread.
int Compare(const std::string& parent_path, const std::string& change_path) {
  Series parent, change;
  if (!LoadSeries(parent_path, &parent) || !LoadSeries(change_path, &change)) {
    std::fprintf(stderr, "pdxbench: cannot read %s or %s\n",
                 parent_path.c_str(), change_path.c_str());
    return 2;
  }
  std::printf("%-14s %-30s %30s %30s %8s %6s %s\n", "workload", "metric",
              "parent median [q1, q3]", "change median [q1, q3]", "delta",
              "wins", "claim");
  for (const auto& [workload, metrics] : parent) {
    auto other = change.find(workload);
    if (other == change.end()) continue;
    for (const auto& [metric, p] : metrics) {
      auto c = other->second.find(metric);
      if (c == other->second.end()) continue;
      Quartiles pq = QuartilesOf(p);
      Quartiles cq = QuartilesOf(c->second);
      bool higher = HigherIsBetter(metric);
      double wins = PairWinFraction(p, c->second, !higher);
      bool gain = wins >= 0.9 &&
                  std::abs(cq.median - pq.median) > pq.q3 - pq.q1;
      char pbuf[64], cbuf[64];
      std::snprintf(pbuf, sizeof(pbuf), "%.4g [%.4g, %.4g]", pq.median, pq.q1,
                    pq.q3);
      std::snprintf(cbuf, sizeof(cbuf), "%.4g [%.4g, %.4g]", cq.median, cq.q1,
                    cq.q3);
      std::printf("%-14s %-30s %30s %30s %+7.1f%% %6.2f %s\n",
                  workload.c_str(), metric.c_str(), pbuf, cbuf,
                  pq.median != 0 ? (cq.median / pq.median - 1) * 100 : 0.0,
                  wins, gain ? "gain" : "-");
    }
  }
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (!args.compare.empty()) return Compare(args.compare[0], args.compare[1]);
  args.run.threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  if (args.all) return RunAll(args, argv);
  const WorkloadInfo* info = FindWorkload(args.workload);
  if (info == nullptr ||
      (args.run.ladder && args.workload.rfind("serve_", 0) != 0)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  return RunOne(*info, args);
}

}  // namespace
}  // namespace pdxbench

int main(int argc, char** argv) { return pdxbench::Main(argc, argv); }
