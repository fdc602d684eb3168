// Serving benchmark: sequential per-query ScoreQueries versus the
// InferenceEngine with concurrent clients and micro-batching, on the
// ICEWS14-like preset. Reports QPS, p50/p99 latency and the realised batch
// size for a sweep of max_batch_size, plus the engine's own counters.
//
// Latency is reported twice on purpose: from the clients' own clocks and
// from the registry histogram `logcl.serve.request_us` the engine feeds
// (common/observability.h) — the two must reconcile within the histogram's
// 12.5% bucket resolution.
//
// The engine wins twice: the snapshot freezes the query-independent local
// evolution (recomputed per call by ScoreQueries), and coalesced batches
// amortise the query-subgraph encode + ConvTransE decode across clients.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/logcl_model.h"
#include "serve/inference_engine.h"
#include "serve/quant.h"
#include "tensor/simd.h"

namespace logcl {
namespace {

using Clock = std::chrono::steady_clock;

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  size_t index = static_cast<size_t>(p * static_cast<double>(xs.size() - 1));
  return xs[index];
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Per-sweep view of a cumulative registry histogram: bucket-wise difference
// against the snapshot taken before the sweep (max is not diffable; the
// current max is an upper bound).
HistogramSnapshot SinceBaseline(const HistogramSnapshot& now,
                                const HistogramSnapshot& before) {
  HistogramSnapshot out = now;
  out.count -= before.count;
  out.sum -= before.sum;
  for (size_t i = 0; i < before.buckets.size() && i < out.buckets.size(); ++i) {
    out.buckets[i] -= before.buckets[i];
  }
  return out;
}

void Run() {
  TkgDataset dataset = MakePaperDataset(PaperDataset::kIcews14Like);
  LogClConfig config;
  config.embedding_dim = 32;
  config.local.history_length = 5;
  LogClModel model(&dataset, config);

  // Serve the last horizon that still has a day of real queries behind it.
  int64_t horizon = dataset.num_timestamps() - 2;
  const std::vector<Quadruple>& day = dataset.FactsAt(horizon);
  int64_t total = bench::FastMode() ? 64 : 512;
  std::vector<ServeQuery> queries;
  queries.reserve(total);
  for (int64_t i = 0; i < total; ++i) {
    const Quadruple& q = day[static_cast<size_t>(i) % day.size()];
    queries.push_back({q.subject, q.relation});
  }

  bench::PrintSectionTitle("Serving on " + dataset.name() +
                           " (horizon t=" + std::to_string(horizon) + ", " +
                           std::to_string(total) + " queries)");

  // --- Baseline: one offline ScoreQueries call per query, sequential. ---
  double baseline_seconds;
  {
    bench::PhaseTimer timer("serve_baseline");
    for (const ServeQuery& q : queries) {
      std::vector<Quadruple> single = {{q.subject, q.relation, 0, horizon}};
      volatile float sink = model.ScoreQueries(single)[0][0];
      (void)sink;
    }
    baseline_seconds = timer.Stop();
  }
  double baseline_qps = static_cast<double>(total) / baseline_seconds;
  std::printf("sequential ScoreQueries baseline: %8.1f QPS (%.3f s)\n\n",
              baseline_qps, baseline_seconds);

  // --- Engine sweep: concurrent clients, varying max_batch_size. ---
  std::printf("%-12s %10s %10s %10s %10s %10s %10s %10s\n", "max_batch",
              "QPS", "speedup", "p50 us", "p99 us", "reg_p50", "reg_p99",
              "mean_b");
  std::printf("%s\n", std::string(88, '-').c_str());
  constexpr int kClients = 32;  // enough concurrency to fill every batch size
  for (int64_t max_batch : {int64_t{1}, int64_t{8}, int64_t{32}}) {
    EngineOptions options;
    options.max_batch_size = max_batch;
    options.batch_deadline_us = 200;
    HistogramSnapshot before =
        Metrics().Snapshot().HistogramValue("logcl.serve.request_us");
    InferenceEngine engine(&model, horizon, options);
    std::vector<std::vector<double>> latencies(kClients);
    bench::PhaseTimer timer("serve_sweep");
    Clock::time_point start = Clock::now();
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int64_t i = c; i < total; i += kClients) {
          Clock::time_point sent = Clock::now();
          engine.Score(queries[static_cast<size_t>(i)]);
          latencies[c].push_back(SecondsSince(sent) * 1e6);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    double seconds = SecondsSince(start);
    timer.Stop();
    std::vector<double> all;
    for (const auto& per_client : latencies) {
      all.insert(all.end(), per_client.begin(), per_client.end());
    }
    double qps = static_cast<double>(total) / seconds;
    EngineStats stats = engine.Snapshot();
    HistogramSnapshot served = SinceBaseline(
        Metrics().Snapshot().HistogramValue("logcl.serve.request_us"), before);
    std::printf("%-12lld %10.1f %9.1fx %10.0f %10.0f %10.0f %10.0f %10.2f\n",
                static_cast<long long>(max_batch), qps, qps / baseline_qps,
                Percentile(all, 0.50), Percentile(all, 0.99),
                served.Percentile(0.50), served.Percentile(0.99),
                stats.MeanBatchSize());
    std::fflush(stdout);
    if (max_batch == 32) {
      std::printf("\nengine counters: %s\n", stats.ToString().c_str());
    }
  }
  bench::PrintMetrics("Registry metrics (logcl.serve.* / logcl.bench.*)");
  std::printf(
      "\nExpected shape: QPS grows with max_batch; the batched engine beats\n"
      "the sequential baseline well beyond 5x once batches amortise the\n"
      "per-pass evolution and subgraph work. reg_p50/p99 come from the\n"
      "logcl.serve.request_us histogram and must track the client-side\n"
      "columns within bucket resolution.\n");
}

// --precision_sweep: fp32 vs int8 snapshot scoring at a fixed batch size
// (serve/quant.h). The fp32 row is the reference; the int8 row trades the
// fused fp32 score for a per-row quantized dot against the frozen candidate
// matrix, and is gated elsewhere by the Spearman/MRR parity tests
// (tests/quant_test.cc) — this sweep measures the throughput side of that
// trade for EXPERIMENTS.md.
void RunPrecisionSweep() {
  TkgDataset dataset = MakePaperDataset(PaperDataset::kIcews14Like);
  LogClConfig config;
  config.embedding_dim = 32;
  config.local.history_length = 5;
  LogClModel model(&dataset, config);

  int64_t horizon = dataset.num_timestamps() - 2;
  const std::vector<Quadruple>& day = dataset.FactsAt(horizon);
  int64_t total = bench::FastMode() ? 64 : 512;
  std::vector<ServeQuery> queries;
  queries.reserve(total);
  for (int64_t i = 0; i < total; ++i) {
    const Quadruple& q = day[static_cast<size_t>(i) % day.size()];
    queries.push_back({q.subject, q.relation});
  }

  bench::PrintSectionTitle(
      "Precision sweep on " + dataset.name() + " (horizon t=" +
      std::to_string(horizon) + ", " + std::to_string(total) +
      " queries, max_batch=32, simd=" +
      simd::IsaName(simd::ActiveIsa()) + ")");
  std::printf("%-10s %10s %10s %10s %10s %10s %10s %10s\n", "precision",
              "QPS", "speedup", "p50 us", "p99 us", "reg_p50", "reg_p99",
              "score_p50");
  std::printf("%s\n", std::string(87, '-').c_str());

  constexpr int kClients = 32;
  double fp32_qps = 0.0;
  for (ScorePrecision precision :
       {ScorePrecision::kFp32, ScorePrecision::kInt8}) {
    EngineOptions options;
    options.max_batch_size = 32;
    options.batch_deadline_us = 200;
    options.precision = precision;
    MetricsSnapshot baseline = Metrics().Snapshot();
    HistogramSnapshot before =
        baseline.HistogramValue("logcl.serve.request_us");
    HistogramSnapshot score_before =
        baseline.HistogramValue("logcl.serve.score_us");
    InferenceEngine engine(&model, horizon, options);
    std::vector<std::vector<double>> latencies(kClients);
    bench::PhaseTimer timer("serve_precision_sweep");
    Clock::time_point start = Clock::now();
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int64_t i = c; i < total; i += kClients) {
          Clock::time_point sent = Clock::now();
          engine.Score(queries[static_cast<size_t>(i)]);
          latencies[c].push_back(SecondsSince(sent) * 1e6);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    double seconds = SecondsSince(start);
    timer.Stop();
    std::vector<double> all;
    for (const auto& per_client : latencies) {
      all.insert(all.end(), per_client.begin(), per_client.end());
    }
    double qps = static_cast<double>(total) / seconds;
    if (precision == ScorePrecision::kFp32) fp32_qps = qps;
    MetricsSnapshot after = Metrics().Snapshot();
    HistogramSnapshot served = SinceBaseline(
        after.HistogramValue("logcl.serve.request_us"), before);
    HistogramSnapshot scored = SinceBaseline(
        after.HistogramValue("logcl.serve.score_us"), score_before);
    std::printf("%-10s %10.1f %9.2fx %10.0f %10.0f %10.0f %10.0f %10.0f\n",
                PrecisionName(engine.snapshot()->precision()), qps,
                fp32_qps > 0.0 ? qps / fp32_qps : 1.0, Percentile(all, 0.50),
                Percentile(all, 0.99), served.Percentile(0.50),
                served.Percentile(0.99), scored.Percentile(0.50));
    std::fflush(stdout);
  }
  std::printf(
      "\nExpected shape: int8 beats fp32 on the scoring half (the decode\n"
      "is fp32 in both rows, so end-to-end speedups are bounded by\n"
      "the score fraction). Accuracy gating lives in tests/quant_test.cc\n"
      "(per-query Spearman >= 0.99, |delta MRR| <= 0.005).\n");
}

}  // namespace
}  // namespace logcl

int main(int argc, char** argv) {
  logcl::bench::InitObservability();
  bool precision_sweep = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--precision_sweep") == 0) precision_sweep = true;
  }
  if (precision_sweep) {
    logcl::RunPrecisionSweep();
  } else {
    logcl::Run();
  }
  return 0;
}
