#ifndef PDXBENCH_HARNESS_H_
#define PDXBENCH_HARNESS_H_

// What every workload shares: run options, the result record, cold set-up
// sampling, peak memory, registry counter deltas and the per-layer metrics
// every workload reports.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "layers.h"

namespace pdxbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;  // measured time per run
  bool trace = false;   // per-layer run instead of the end-to-end one
  bool smoke = false;   // tiny sizes, for the ctest smoke run
  bool ladder = false;  // serving calibration: every ladder rate in turn
  // min(4, nproc): pdxd connections and workers, bulk chase threads.
  int threads = 1;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  int64_t n = 0;  // samples behind the value
};

struct WorkloadResult {
  std::string workload;
  std::vector<std::string> failures;  // oracle violations; empty = correct
  int64_t attempted = 0;
  int64_t failed = 0;
  uint64_t input_hash = 0;
  std::vector<Metric> metrics;
  // The workload's frozen parameters, echoed into the results file.
  std::vector<std::pair<std::string, std::string>> config;
  // Traced runs: per span name count/total/self, and spans to export.
  std::map<std::string, SpanLog::NameStats> span_table;
  std::vector<pdx::obs::SpanRecord> trace;

  void Add(std::string name, double value, std::string unit, int64_t n) {
    metrics.push_back({std::move(name), value, std::move(unit), n});
  }
  void Fail(std::string why) { failures.push_back(std::move(why)); }
  void Config(std::string key, std::string value) {
    config.emplace_back(std::move(key), std::move(value));
  }
  bool correct() const { return failures.empty(); }
};

WorkloadResult RunServePoint(const RunOptions& options);
WorkloadResult RunServeChurn(const RunOptions& options);
WorkloadResult RunBulkExchange(const RunOptions& options);
WorkloadResult RunChaseEgd(const RunOptions& options);
WorkloadResult RunNpSearch(const RunOptions& options);

// Runs `setup` in `forks` forked children one after another, then once in
// this process, and returns the seconds each reported: every sample
// starts from a process in which the program has done nothing yet. The
// argument tells `setup` whether it runs in a child, which exits right
// after it. Must be called before this process starts any thread. A
// failed child yields a negative sample.
std::vector<double> ColdSamples(int forks,
                                const std::function<double(bool)>& setup);

// `value` as JSON, with every digit it needs to read back exactly.
std::string Num(double value);

// Peak resident memory of this process image, in MB.
double PeakRssMb();

// Seconds since `start` on the steady clock.
double SecondsSince(std::chrono::steady_clock::time_point start);

// Process-wide registry counters and gauges by name; a histogram H
// appears as H_sum and H_count.
class Counters {
 public:
  static Counters Now();
  // This snapshot's value minus `before`'s.
  int64_t Delta(const Counters& before, const std::string& name) const;
  int64_t Get(const std::string& name) const;

 private:
  std::map<std::string, int64_t> values_;
};

// Adds the per-layer metrics every workload reports, from the spans of
// the requests whose tag starts with `prefix` (see SpanLog::PerRequestMs)
// and the registry deltas across them. `requests` is the number of
// requests the deltas cover and `nulls` the nulls they minted. Set-up
// parsing counts from the whole log, plan compilation from the process.
void AddCommonLayers(const SpanLog& log, const std::string& prefix,
                     const Counters& before, const Counters& after,
                     int64_t requests, int64_t nulls, WorkloadResult* result);

// Copies the span table and the kept spans of `log` into `result`.
void KeepTrace(const SpanLog& log, WorkloadResult* result);

}  // namespace pdxbench

#endif  // PDXBENCH_HARNESS_H_
