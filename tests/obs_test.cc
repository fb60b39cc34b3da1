// Tests for the observability layer (src/obs/): the sharded metrics
// registry, the span tracer, and — the contract the whole PR hangs on —
// thread-count invariance of the chase metrics: running the same chase at
// num_threads 1 and 8 must produce identical aggregated totals for every
// pdx_chase_* metric, mirroring the result-invariance chase_parallel_test
// pins. Carries the `parallel` ctest label (run under TSan by
// tools/check.sh).

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "chase/chase.h"
#include "logic/parser.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tests/test_util.h"
#include "workload/random.h"

namespace pdx {
namespace {

using obs::HistogramData;
using obs::MetricKind;
using obs::MetricSnapshot;
using obs::MetricsRegistry;
using obs::Span;
using obs::SpanRecord;
using obs::Tracer;
using testing_util::Unwrap;

// ---------------------------------------------------------------------------
// Metrics registry

TEST(MetricsRegistryTest, CounterBasics) {
  MetricsRegistry reg;
  obs::Counter c = reg.GetCounter("requests");
  EXPECT_EQ(c.Value(), 0);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.Value(), 42);
  // Find-or-create: a second handle addresses the same metric.
  obs::Counter again = reg.GetCounter("requests");
  again.Inc(8);
  EXPECT_EQ(c.Value(), 50);
}

TEST(MetricsRegistryTest, GaugeBasics) {
  MetricsRegistry reg;
  obs::Gauge g = reg.GetGauge("depth");
  g.Set(7);
  EXPECT_EQ(g.Value(), 7);
  g.Add(3);
  g.Add(-5);
  EXPECT_EQ(g.Value(), 5);
}

TEST(MetricsRegistryTest, HistogramBuckets) {
  MetricsRegistry reg;
  obs::Histogram h = reg.GetHistogram("sizes", {1, 4, 16});
  h.Observe(0);   // <= 1
  h.Observe(1);   // <= 1 (bounds are inclusive)
  h.Observe(2);   // <= 4
  h.Observe(16);  // <= 16
  h.Observe(99);  // overflow
  HistogramData data = h.Value();
  ASSERT_EQ(data.upper_bounds, (std::vector<int64_t>{1, 4, 16}));
  ASSERT_EQ(data.bucket_counts, (std::vector<int64_t>{2, 1, 1, 1}));
  EXPECT_EQ(data.count, 5);
  EXPECT_EQ(data.sum, 0 + 1 + 2 + 16 + 99);
}

TEST(MetricsRegistryTest, SnapshotIsNameSorted) {
  MetricsRegistry reg;
  reg.GetCounter("zeta").Inc(1);
  reg.GetGauge("alpha").Set(2);
  reg.GetHistogram("mid", {10}).Observe(3);
  std::vector<MetricSnapshot> snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "alpha");
  EXPECT_EQ(snap[1].name, "mid");
  EXPECT_EQ(snap[2].name, "zeta");
  EXPECT_EQ(snap[0].kind, MetricKind::kGauge);
  EXPECT_EQ(snap[0].value, 2);
  EXPECT_EQ(snap[2].kind, MetricKind::kCounter);
  EXPECT_EQ(snap[2].value, 1);
}

TEST(MetricsRegistryTest, ResetZeroesEverything) {
  MetricsRegistry reg;
  obs::Counter c = reg.GetCounter("c");
  obs::Gauge g = reg.GetGauge("g");
  obs::Histogram h = reg.GetHistogram("h", {5});
  c.Inc(3);
  g.Set(4);
  h.Observe(2);
  reg.Reset();
  EXPECT_EQ(c.Value(), 0);
  EXPECT_EQ(g.Value(), 0);
  EXPECT_EQ(h.Value().count, 0);
  EXPECT_EQ(h.Value().sum, 0);
  // Registrations survive a reset.
  EXPECT_EQ(reg.Snapshot().size(), 3u);
}

// Increments from many threads must aggregate exactly, both while the
// threads are alive and after they exit (thread exit folds the per-thread
// shard into the registry's retired totals).
TEST(MetricsRegistryTest, ConcurrentIncrementsAggregateExactly) {
  MetricsRegistry reg;
  obs::Counter c = reg.GetCounter("contended");
  obs::Histogram h = reg.GetHistogram("contended_sizes", {8});
  constexpr int kThreads = 8;
  constexpr int kIncs = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h] {
      for (int i = 0; i < kIncs; ++i) {
        c.Inc();
        h.Observe(i % 16);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // All writer threads have exited: the totals live in retired[] now.
  EXPECT_EQ(c.Value(), int64_t{kThreads} * kIncs);
  HistogramData data = h.Value();
  EXPECT_EQ(data.count, int64_t{kThreads} * kIncs);
  // i % 16: half the observations are <= 8 (0..8), half overflow (9..15).
  ASSERT_EQ(data.bucket_counts.size(), 2u);
  EXPECT_EQ(data.bucket_counts[0], int64_t{kThreads} * kIncs * 9 / 16);
  EXPECT_EQ(data.bucket_counts[1], int64_t{kThreads} * kIncs * 7 / 16);
}

// Two registries do not share shards or names.
TEST(MetricsRegistryTest, RegistriesAreIndependent) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.GetCounter("same").Inc(5);
  b.GetCounter("same").Inc(7);
  EXPECT_EQ(a.GetCounter("same").Value(), 5);
  EXPECT_EQ(b.GetCounter("same").Value(), 7);
}

// ---------------------------------------------------------------------------
// Tracer

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer;
  {
    Span span(tracer, "ignored");
    EXPECT_EQ(span.id(), 0u);
    span.AttrInt("k", 1);
  }
  EXPECT_TRUE(tracer.Drain().empty());
}

TEST(TracerTest, NestingLinksParentIds) {
  Tracer tracer;
  tracer.Enable();
  {
    Span outer(tracer, "outer");
    outer.AttrStr("phase", "demo");
    {
      Span inner(tracer, "inner");
      inner.AttrInt("round", 3).AttrBool("last", true);
      EXPECT_NE(inner.id(), outer.id());
    }
  }
  std::vector<SpanRecord> spans = tracer.Drain();
  ASSERT_EQ(spans.size(), 2u);  // completion order: inner first
  const SpanRecord& inner = spans[0];
  const SpanRecord& outer = spans[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(inner.parent, outer.id);
  ASSERT_EQ(inner.attrs.size(), 2u);
  EXPECT_EQ(inner.attrs[0].key, "round");
  EXPECT_EQ(inner.attrs[0].i, 3);
  EXPECT_EQ(inner.attrs[1].key, "last");
  EXPECT_TRUE(inner.attrs[1].b);
  ASSERT_EQ(outer.attrs.size(), 1u);
  EXPECT_EQ(outer.attrs[0].s, "demo");
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_GE(inner.dur_ns, 0);
  EXPECT_GE(outer.dur_ns, inner.dur_ns);
}

// The explicit-parent constructor carries the linkage across threads,
// where the thread_local nesting stack cannot.
TEST(TracerTest, ExplicitParentCrossesThreads) {
  Tracer tracer;
  tracer.Enable();
  uint64_t parent_id = 0;
  {
    Span parent(tracer, "batch");
    parent_id = parent.id();
    std::thread worker([&tracer, parent_id] {
      Span child(tracer, "task", parent_id);
      child.AttrInt("partition", 0);
    });
    worker.join();
  }
  std::vector<SpanRecord> spans = tracer.Drain();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "task");
  EXPECT_EQ(spans[0].parent, parent_id);
  EXPECT_NE(spans[0].tid, spans[1].tid);
}

TEST(TracerTest, RingOverwritesOldestAndCountsDropped) {
  Tracer tracer;
  tracer.Enable(/*capacity=*/4);
  for (int i = 0; i < 6; ++i) {
    Span span(tracer, "s");
    span.AttrInt("i", i);
  }
  EXPECT_EQ(tracer.dropped(), 2u);
  std::vector<SpanRecord> spans = tracer.Drain();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first: spans 0 and 1 were overwritten.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(spans[i].attrs[0].i, i + 2);
  }
  // Drain cleared the ring; recording continues while enabled.
  { Span span(tracer, "after"); }
  EXPECT_EQ(tracer.Drain().size(), 1u);
}

TEST(TracerTest, DisableStopsRecording) {
  Tracer tracer;
  tracer.Enable();
  { Span span(tracer, "kept"); }
  tracer.Disable();
  { Span span(tracer, "ignored"); }
  std::vector<SpanRecord> spans = tracer.Drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "kept");
}

// ---------------------------------------------------------------------------
// Thread-count invariance of the chase metrics

// The chase metrics that must not depend on num_threads. Pool metrics
// (pdx_pool_*) are deliberately absent: steal counts are scheduling noise.
// The egd fixpoint runs the same batched passes at every thread count, so
// its merge count (one per union) is pinned here like the rest.
constexpr const char* kInvariantCounters[] = {
    "pdx_chase_runs_total",        "pdx_chase_steps_total",
    "pdx_chase_nulls_created_total", "pdx_chase_rounds_total",
    "pdx_chase_tgd_matches_total", "pdx_chase_egd_merges_total",
    "pdx_chase_compactions_total",
};

struct ObsInvarianceTest : ::testing::Test {
  Schema schema;
  SymbolTable symbols;
  std::vector<Tgd> pipeline_tgds;
  std::vector<Tgd> egd_heavy_tgds;
  std::vector<Egd> egd_heavy_egds;

  ObsInvarianceTest() {
    PDX_CHECK(schema.AddRelation("E", 2).ok());
    PDX_CHECK(schema.AddRelation("H", 2).ok());
    PDX_CHECK(schema.AddRelation("F", 2).ok());
    pipeline_tgds = Unwrap(ParseDependencies("E(x,z) & E(z,y) -> H(x,y)."
                                             "H(x,y) -> exists w: F(y,w).",
                                             schema, &symbols),
                           "pipeline")
                        .tgds;
    auto heavy = Unwrap(
        ParseDependencies("E(x,y) -> exists z: H(x,z) & F(y,z).", schema,
                          &symbols),
        "heavy tgds");
    egd_heavy_tgds = heavy.tgds;
    egd_heavy_egds =
        Unwrap(ParseDependencies(
                   "H(x,y) & H(x,z) -> y = z. F(x,y) & F(x,z) -> y = z.",
                   schema, &symbols),
               "heavy egds")
            .egds;
  }

  Instance RandomEdges(int n, int edges_per_node, uint64_t seed) {
    Rng rng(seed);
    Instance instance(&schema);
    for (int i = 0; i < edges_per_node * n; ++i) {
      Value u =
          symbols.InternConstant("n" + std::to_string(rng.UniformInt(n)));
      Value v =
          symbols.InternConstant("n" + std::to_string(rng.UniformInt(n)));
      instance.AddFact(0, {u, v});
    }
    return instance;
  }

  static std::map<std::string, MetricSnapshot> SnapMap() {
    std::map<std::string, MetricSnapshot> out;
    for (MetricSnapshot& snap : MetricsRegistry::Global().Snapshot()) {
      out[snap.name] = std::move(snap);
    }
    return out;
  }

  static int64_t CounterDelta(const std::map<std::string, MetricSnapshot>& a,
                              const std::map<std::string, MetricSnapshot>& b,
                              const std::string& name) {
    auto before = a.find(name);
    auto after = b.find(name);
    int64_t v0 = before == a.end() ? 0 : before->second.value;
    int64_t v1 = after == b.end() ? 0 : after->second.value;
    return v1 - v0;
  }

  static std::vector<int64_t> HistDelta(
      const std::map<std::string, MetricSnapshot>& a,
      const std::map<std::string, MetricSnapshot>& b,
      const std::string& name) {
    auto before = a.find(name);
    auto after = b.find(name);
    if (after == b.end()) return {};
    std::vector<int64_t> delta = after->second.hist.bucket_counts;
    if (before != a.end()) {
      for (size_t i = 0; i < delta.size() &&
                         i < before->second.hist.bucket_counts.size();
           ++i) {
        delta[i] -= before->second.hist.bucket_counts[i];
      }
    }
    return delta;
  }

  // Runs the workload once at `threads` and returns every invariant
  // counter's registry delta (plus the batch-size histogram's).
  struct MetricDeltas {
    std::map<std::string, int64_t> counters;
    std::vector<int64_t> batch_buckets;
  };

  MetricDeltas RunAndMeasure(const Instance& start,
                             const std::vector<Tgd>& tgds,
                             const std::vector<Egd>& egds, int threads) {
    ChaseOptions options;
    options.strategy = ChaseStrategy::kRestricted;
    options.num_threads = threads;
    std::map<std::string, MetricSnapshot> before = SnapMap();
    ChaseResult result = Chase(start, tgds, egds, &symbols, options);
    PDX_CHECK(result.outcome == ChaseOutcome::kSuccess);
    std::map<std::string, MetricSnapshot> after = SnapMap();
    MetricDeltas deltas;
    for (const char* name : kInvariantCounters) {
      deltas.counters[name] = CounterDelta(before, after, name);
    }
    deltas.batch_buckets =
        HistDelta(before, after, "pdx_chase_batch_triggers");
    return deltas;
  }

  void ExpectMetricInvariance(const Instance& start,
                              const std::vector<Tgd>& tgds,
                              const std::vector<Egd>& egds) {
    MetricDeltas ref = RunAndMeasure(start, tgds, egds, /*threads=*/1);
    // The run must actually exercise the metrics for the comparison to
    // mean anything.
    EXPECT_EQ(ref.counters["pdx_chase_runs_total"], 1);
    EXPECT_GT(ref.counters["pdx_chase_steps_total"], 0);
    EXPECT_GT(ref.counters["pdx_chase_rounds_total"], 0);
    EXPECT_GT(ref.counters["pdx_chase_tgd_matches_total"], 0);
    for (int threads : {2, 8}) {
      MetricDeltas got = RunAndMeasure(start, tgds, egds, threads);
      for (const char* name : kInvariantCounters) {
        EXPECT_EQ(got.counters[name], ref.counters[name])
            << name << " differs at " << threads << " threads";
      }
      EXPECT_EQ(got.batch_buckets, ref.batch_buckets)
          << "pdx_chase_batch_triggers differs at " << threads << " threads";
    }
  }
};

TEST_F(ObsInvarianceTest, PipelineMetricsAreThreadInvariant) {
  Instance start = RandomEdges(48, 2, 17);
  ExpectMetricInvariance(start, pipeline_tgds, {});
}

TEST_F(ObsInvarianceTest, EgdHeavyMetricsAreThreadInvariant) {
  Instance start = RandomEdges(32, 3, 29);
  // The merge cascade drives pdx_chase_egd_merges_total; assert it moved.
  MetricDeltas ref =
      RunAndMeasure(start, egd_heavy_tgds, egd_heavy_egds, /*threads=*/1);
  EXPECT_GT(ref.counters["pdx_chase_egd_merges_total"], 0);
  EXPECT_GT(ref.counters["pdx_chase_nulls_created_total"], 0);
  ExpectMetricInvariance(start, egd_heavy_tgds, egd_heavy_egds);
}

}  // namespace
}  // namespace pdx
