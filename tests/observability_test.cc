// Tests for the unified observability layer (common/observability.h):
// counter/histogram correctness, the multi-thread shard merge (run under
// TSan via the *Observability* filter in ci.yml), tracer nesting and path
// interning, the exporters, and the structured EpochStats training API that
// replaced the scalar TrainEpoch return.

#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/observability.h"
#include "core/logcl_model.h"
#include "synth/generator.h"
#include "tensor/buffer_pool.h"

namespace logcl {
namespace {

// Metric names are interned process-wide for the binary's lifetime, so every
// test uses its own obs_test.* names to stay independent of ordering.

TEST(ObservabilityTest, CounterAccumulatesAndSnapshots) {
  Counter* c = Metrics().GetCounter("obs_test.counter.basic");
  c->Increment();
  c->Add(41);
  EXPECT_EQ(Metrics().Snapshot().CounterValue("obs_test.counter.basic"), 42u);
  // Interning the same name again returns the same handle.
  EXPECT_EQ(Metrics().GetCounter("obs_test.counter.basic"), c);
  c->Add(8);
  EXPECT_EQ(Metrics().Snapshot().CounterValue("obs_test.counter.basic"), 50u);
}

TEST(ObservabilityTest, GaugeIsLastValue) {
  Gauge* g = Metrics().GetGauge("obs_test.gauge.basic");
  g->Set(7);
  g->Add(-3);
  EXPECT_EQ(Metrics().Snapshot().GaugeValue("obs_test.gauge.basic"), 4);
}

TEST(ObservabilityTest, MissingMetricsReadAsZero) {
  MetricsSnapshot snap = Metrics().Snapshot();
  EXPECT_EQ(snap.Find("obs_test.never_created"), nullptr);
  EXPECT_EQ(snap.CounterValue("obs_test.never_created"), 0u);
  EXPECT_EQ(snap.GaugeValue("obs_test.never_created"), 0);
  EXPECT_EQ(snap.HistogramValue("obs_test.never_created").count, 0u);
}

TEST(ObservabilityTest, HistogramCountSumMaxMean) {
  Histogram* h = Metrics().GetHistogram("obs_test.hist.moments");
  for (uint64_t v : {3u, 5u, 100u, 1000u}) h->Record(v);
  HistogramSnapshot snap =
      Metrics().Snapshot().HistogramValue("obs_test.hist.moments");
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.sum, 1108u);
  EXPECT_EQ(snap.max, 1000u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 277.0);
}

TEST(ObservabilityTest, HistogramBucketLayoutIsMonotonicAndExactForSmall) {
  // Values 0..7 land in exact unit buckets.
  for (uint64_t v = 0; v < 8; ++v) {
    int index = HistogramBuckets::Index(v);
    EXPECT_EQ(HistogramBuckets::Lower(index), v);
    EXPECT_EQ(HistogramBuckets::Upper(index), v + 1);
  }
  // Index is monotonic and every value falls inside its bucket's bounds.
  int prev = -1;
  for (uint64_t v : {0ull, 7ull, 8ull, 9ull, 100ull, 4096ull, 1234567ull,
                     (1ull << 39) + 17ull}) {
    int index = HistogramBuckets::Index(v);
    EXPECT_GE(index, prev);
    prev = index;
    EXPECT_GE(v, HistogramBuckets::Lower(index));
    EXPECT_LT(v, HistogramBuckets::Upper(index));
  }
}

TEST(ObservabilityTest, HistogramPercentileWithinBucketResolution) {
  Histogram* h = Metrics().GetHistogram("obs_test.hist.percentile");
  for (uint64_t v = 1; v <= 1000; ++v) h->Record(v);
  HistogramSnapshot snap =
      Metrics().Snapshot().HistogramValue("obs_test.hist.percentile");
  // Log buckets are 12.5% wide, so percentiles land within that of truth.
  EXPECT_NEAR(snap.Percentile(0.50), 500.0, 0.125 * 500.0);
  EXPECT_NEAR(snap.Percentile(0.99), 990.0, 0.125 * 990.0);
  // p100 is clamped by the exact max.
  EXPECT_LE(snap.Percentile(1.0), 1000.0);
}

// Shard-merge correctness under contention: hammered by several threads,
// the merged totals must be exact once the writers have joined. This test
// runs under TSan in CI to prove the lock-free write path is race-free.
TEST(ObservabilityTest, MultiThreadMergeIsExact) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  Counter* c = Metrics().GetCounter("obs_test.counter.mt");
  Histogram* h = Metrics().GetHistogram("obs_test.hist.mt");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        h->Record(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  MetricsSnapshot snap = Metrics().Snapshot();
  EXPECT_EQ(snap.CounterValue("obs_test.counter.mt"),
            static_cast<uint64_t>(kThreads) * kPerThread);
  HistogramSnapshot hist = snap.HistogramValue("obs_test.hist.mt");
  EXPECT_EQ(hist.count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(hist.sum, static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(ObservabilityTest, TracerNestingBuildsHierarchicalPaths) {
  int64_t base_depth = TraceDepthForTest();
  {
    LOGCL_TRACE_SCOPE("obs_outer");
    EXPECT_EQ(TraceDepthForTest(), base_depth + 1);
    {
      LOGCL_TRACE_SCOPE("obs_inner");
      EXPECT_EQ(TraceDepthForTest(), base_depth + 2);
    }
    EXPECT_EQ(TraceDepthForTest(), base_depth + 1);
  }
  EXPECT_EQ(TraceDepthForTest(), base_depth);
  MetricsSnapshot snap = Metrics().Snapshot();
  EXPECT_GE(snap.HistogramValue("logcl.trace.obs_outer").count, 1u);
  EXPECT_GE(snap.HistogramValue("logcl.trace.obs_outer/obs_inner").count, 1u);
}

TEST(ObservabilityTest, SameLeafUnderDifferentParentsIsDistinct) {
  {
    LOGCL_TRACE_SCOPE("obs_parent_a");
    LOGCL_TRACE_SCOPE("obs_leaf");
  }
  {
    LOGCL_TRACE_SCOPE("obs_parent_b");
    LOGCL_TRACE_SCOPE("obs_leaf");
  }
  MetricsSnapshot snap = Metrics().Snapshot();
  EXPECT_GE(snap.HistogramValue("logcl.trace.obs_parent_a/obs_leaf").count,
            1u);
  EXPECT_GE(snap.HistogramValue("logcl.trace.obs_parent_b/obs_leaf").count,
            1u);
}

TEST(ObservabilityTest, PoolSourcePublishesUnderRegistryNames) {
  // Drive some traffic through the pool, then check the registered source
  // surfaces the same numbers as PoolSnapshot() under the logcl.pool.*
  // schema (DESIGN.md §12).
  { Tensor scratch = Tensor::Zeros(Shape{64, 64}); }
  BufferPoolStats pool = PoolSnapshot();
  ASSERT_GT(pool.acquires, 0u);
  MetricsSnapshot snap = Metrics().Snapshot();
  EXPECT_GE(snap.CounterValue("logcl.pool.acquires"), pool.acquires);
  EXPECT_NE(snap.Find("logcl.pool.live_bytes"), nullptr);
}

TEST(ObservabilityTest, DumpMetricsTextAndJsonShapes) {
  Metrics().GetCounter("obs_test.counter.dump")->Add(3);
  Metrics().GetHistogram("obs_test.hist.dump")->Record(12);
  std::ostringstream text;
  DumpMetrics(text, MetricsFormat::kText);
  EXPECT_NE(text.str().find("obs_test.counter.dump"), std::string::npos);
  EXPECT_NE(text.str().find("obs_test.hist.dump"), std::string::npos);
  std::ostringstream json;
  DumpMetrics(json, MetricsFormat::kJson);
  const std::string s = json.str();
  EXPECT_EQ(s.front(), '{');
  EXPECT_EQ(s.back(), '\n');
  EXPECT_NE(s.find("\"counters\""), std::string::npos);
  EXPECT_NE(s.find("\"gauges\""), std::string::npos);
  EXPECT_NE(s.find("\"histograms\""), std::string::npos);
  EXPECT_NE(s.find("\"obs_test.counter.dump\": 3"), std::string::npos);
}

// --- Structured training stats ----------------------------------------------

TkgDataset ObsData() {
  SynthConfig config;
  config.name = "obs-test";
  config.seed = 515;
  config.num_entities = 20;
  config.num_relations = 4;
  config.num_timestamps = 12;
  config.recurring_pool = 16;
  config.recurring_prob = 0.4;
  return GenerateSyntheticTkg(config);
}

LogClConfig ObsConfig() {
  LogClConfig config;
  config.embedding_dim = 16;
  config.local.history_length = 3;
  config.local.num_layers = 1;
  config.local.time_dim = 4;
  config.global.num_layers = 1;
  config.decoder.num_kernels = 8;
  config.seed = 99;
  return config;
}

TEST(ObservabilityTest, EpochStatsComponentsSumToLoss) {
  TkgDataset data = ObsData();
  LogClModel model(&data, ObsConfig());
  AdamOptimizer optimizer(model.Parameters(), {});
  EpochStats stats = model.TrainEpoch(&optimizer);
  EXPECT_GT(stats.steps, 0);
  EXPECT_GT(stats.loss, 0.0);
  // The structured breakdown must reconstruct the scalar the old API
  // returned: total = task + contrast (+ aux, zero for LogCL).
  EXPECT_NEAR(stats.loss, stats.loss_task + stats.loss_contrast +
                              stats.loss_aux,
              1e-4 * std::max(1.0, stats.loss));
  EXPECT_GE(stats.loss_contrast, 0.0);
  EXPECT_GE(stats.seconds_total, 0.0);
  EXPECT_GE(stats.seconds_total,
            stats.seconds_forward + stats.seconds_backward);
  EXPECT_GT(stats.grad_norm, 0.0);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(ObservabilityTest, TrainEpochLossShimMatchesStructuredLoss) {
  // Two identical models (same data, config, seed) step in lockstep: the
  // deprecated scalar shim must return exactly the structured total.
  TkgDataset data_a = ObsData();
  TkgDataset data_b = ObsData();
  LogClModel a(&data_a, ObsConfig());
  LogClModel b(&data_b, ObsConfig());
  AdamOptimizer opt_a(a.Parameters(), {});
  AdamOptimizer opt_b(b.Parameters(), {});
  double structured = a.TrainEpoch(&opt_a).loss;
  double shim = b.TrainEpochLoss(&opt_b);
  EXPECT_NEAR(structured, shim, 1e-9 * std::max(1.0, std::abs(structured)));
}

TEST(ObservabilityTest, TrainEpochFeedsTraceHistograms) {
  TkgDataset data = ObsData();
  LogClModel model(&data, ObsConfig());
  AdamOptimizer optimizer(model.Parameters(), {});
  HistogramSnapshot before =
      Metrics().Snapshot().HistogramValue("logcl.trace.train_epoch");
  model.TrainEpoch(&optimizer);
  MetricsSnapshot snap = Metrics().Snapshot();
  EXPECT_EQ(snap.HistogramValue("logcl.trace.train_epoch").count,
            before.count + 1);
  EXPECT_GT(snap.HistogramValue("logcl.trace.train_epoch/train_step").count,
            0u);
}

}  // namespace
}  // namespace logcl
