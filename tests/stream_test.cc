// Tests for the streaming continual-learning tier: mmap checkpoint
// round-trips and whole-tensor writeback, typed admission-control shedding
// under overload (and that it never deadlocks), the StreamGenerator's
// statistics, the StreamSession's drift numbers against an offline
// re-evaluation built from the public primitives, and that queries served
// during a fine-tune leave its training bitwise unchanged.

#include <atomic>
#include <cstring>
#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/logcl_model.h"
#include "eval/drift.h"
#include "serve/engine_snapshot.h"
#include "serve/inference_engine.h"
#include "stream/stream_generator.h"
#include "stream/stream_session.h"
#include "synth/generator.h"
#include "tensor/buffer_pool.h"
#include "tensor/checkpoint.h"
#include "tensor/optimizer.h"

namespace logcl {
namespace {

namespace fs = std::filesystem;

std::vector<Tensor> DeterministicParams() {
  std::vector<float> a(8 * 4);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = 0.05f * static_cast<float>(i % 11) - 0.2f;
  }
  std::vector<float> b(6);
  for (size_t i = 0; i < b.size(); ++i) {
    b[i] = 0.3f - 0.07f * static_cast<float>(i);
  }
  return {Tensor::FromVector(Shape({8, 4}), a, /*requires_grad=*/true),
          Tensor::FromVector(Shape({6}), b, /*requires_grad=*/true)};
}

void ExpectBitwiseEqual(const std::vector<Tensor>& a,
                        const std::vector<Tensor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].num_elements(), b[i].num_elements());
    EXPECT_EQ(0, std::memcmp(a[i].data().data(), b[i].data().data(),
                             sizeof(float) * a[i].data().size()))
        << "parameter " << i << " diverged";
  }
}

// ---------------------------------------------------------------------------
// Mmap checkpoint
// ---------------------------------------------------------------------------

TEST(StreamCheckpointTest, MmapViewMatchesInMemoryLoad) {
  std::vector<Tensor> params = DeterministicParams();
  fs::path path = fs::temp_directory_path() / "stream_ckpt_roundtrip.bin";
  ASSERT_TRUE(checkpoint::Save(params, path.string()).ok());

  std::vector<Tensor> loaded = {Tensor::Zeros(Shape({8, 4})),
                                Tensor::Zeros(Shape({6}))};
  ASSERT_TRUE(checkpoint::Load(path.string(), &loaded).ok());
  ExpectBitwiseEqual(params, loaded);

  Result<checkpoint::MmapCheckpoint> opened = checkpoint::Open(path.string());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  checkpoint::MmapCheckpoint view = std::move(opened).value();
  ASSERT_EQ(view.tensor_count(), 2u);
  // The raw view aliases the same bytes Load produced.
  for (size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(view.shape(i), loaded[i].shape());
    EXPECT_EQ(0, std::memcmp(view.data(i), loaded[i].data().data(),
                             sizeof(float) * loaded[i].data().size()))
        << "tensor " << i;
  }
  fs::remove(path);
}

TEST(StreamCheckpointTest, WritebackAllRoundTripsAndRejectsBadInput) {
  std::vector<Tensor> params = DeterministicParams();
  fs::path path = fs::temp_directory_path() / "stream_ckpt_writeback.bin";
  ASSERT_TRUE(checkpoint::Save(params, path.string()).ok());

  std::vector<Tensor> mutated = DeterministicParams();
  for (float& v : mutated[0].mutable_data()) v = 9.0f - v;
  mutated[1].mutable_data()[3] = 42.0f;

  {
    Result<checkpoint::MmapCheckpoint> opened =
        checkpoint::Open(path.string());
    ASSERT_TRUE(opened.ok());
    checkpoint::MmapCheckpoint view = std::move(opened).value();
    // A source whose shape differs from the stored tensor, and an index past
    // the last tensor, are refused without touching the mapping.
    EXPECT_EQ(view.WritebackAll(0, mutated[1]).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(view.WritebackAll(2, mutated[0]).code(),
              StatusCode::kInvalidArgument);
    ASSERT_TRUE(view.WritebackAll(0, mutated[0]).ok());
    ASSERT_TRUE(view.WritebackAll(1, mutated[1]).ok());
    ASSERT_TRUE(view.Flush().ok());
  }

  // Re-read from scratch: the file holds exactly the written tensors.
  std::vector<Tensor> reread = {Tensor::Zeros(Shape({8, 4})),
                                Tensor::Zeros(Shape({6}))};
  ASSERT_TRUE(checkpoint::Load(path.string(), &reread).ok());
  ExpectBitwiseEqual(mutated, reread);
  fs::remove(path);
}

// ---------------------------------------------------------------------------
// Pool cap under streaming size drift
// ---------------------------------------------------------------------------

// Streaming ingest grows history-dependent tensor shapes every snapshot, so
// releases drift into new size classes that nothing pops again once the
// shapes have grown past them. Without the global-tier byte cap the process
// grows without bound (observed with exact-size buckets: ~750 MiB/ingest at
// bench_stream's full profile).
TEST(StreamPoolCapTest, GlobalTierStaysBoundedUnderSizeDrift) {
  const int64_t cap_was = BufferPoolCapBytes();
  TrimBufferPool();
  const int64_t cap = int64_t{100} << 20;  // 100 MiB global tier
  SetBufferPoolCapBytes(cap);
  const uint64_t base = PoolSnapshot().pooled_bytes;

  // Each buffer is 40-96 MiB — over the thread-cache budget, so every
  // release spills straight to the capped global tier — and every size is
  // in a new size class (sizes within one class share a bucket).
  const size_t kMiB = (size_t{1} << 20) / sizeof(float);
  const size_t kBase = 40 * kMiB;
  bool saw_trim = false;
  uint64_t prev = base;
  for (size_t mib : {40, 48, 56, 64, 80, 96}) {
    ReleaseBuffer(AcquireBuffer(mib * kMiB - 1000, BufferFill::kUninit));
    uint64_t pooled = PoolSnapshot().pooled_bytes;
    EXPECT_LE(pooled - base, static_cast<uint64_t>(cap)) << mib << " MiB";
    if (pooled < prev) saw_trim = true;
    prev = pooled;
  }
  EXPECT_TRUE(saw_trim) << "cap never engaged: drifting sizes accumulated";

  // A single buffer larger than the cap is freed, not pooled.
  SetBufferPoolCapBytes(int64_t{1} << 20);
  TrimBufferPool();
  const uint64_t before_oversize = PoolSnapshot().pooled_bytes;
  ReleaseBuffer(AcquireBuffer(kBase, BufferFill::kUninit));
  EXPECT_EQ(before_oversize, PoolSnapshot().pooled_bytes);

  SetBufferPoolCapBytes(cap_was);
  TrimBufferPool();
}

// ---------------------------------------------------------------------------
// Admission control under overload
// ---------------------------------------------------------------------------

StreamConfig SmallStreamConfig() {
  StreamConfig config;
  config.num_entities = 40;
  config.num_relations = 6;
  config.facts_per_snapshot = 30;
  config.warmup_timestamps = 6;
  config.repeat_reservoir = 500;
  return config;
}

LogClConfig SmallModelConfig() {
  LogClConfig config;
  config.embedding_dim = 8;
  config.local.history_length = 2;
  return config;
}

TEST(StreamShedTest, SubmitRejectionsAreTyped) {
  StreamGenerator gen(SmallStreamConfig());
  TkgDataset dataset = gen.WarmupDataset();
  LogClModel model(&dataset, SmallModelConfig());
  EngineOptions options;
  options.max_queue_depth = 2;
  InferenceEngine engine(&model, dataset.num_timestamps() - 1, options);

  // Out-of-range ids are a caller bug, not load.
  Result<std::future<InferenceEngine::EngineResponse>> bad =
      engine.Submit(ServeQuery{-1, 0}, 0);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  // Pause dispatch so the queue cannot drain, then overfill it: exactly
  // max_queue_depth submissions are accepted, the rest shed kUnavailable.
  engine.Pause();
  std::vector<std::future<InferenceEngine::EngineResponse>> accepted;
  int64_t shed = 0;
  for (int i = 0; i < 10; ++i) {
    Result<std::future<InferenceEngine::EngineResponse>> r =
        engine.Submit(ServeQuery{1, 1}, 3);
    if (r.ok()) {
      accepted.push_back(std::move(r).value());
    } else {
      EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
      ++shed;
    }
  }
  EXPECT_EQ(static_cast<int64_t>(accepted.size()), 2);
  EXPECT_EQ(shed, 8);
  engine.Resume();
  for (std::future<InferenceEngine::EngineResponse>& f : accepted) {
    InferenceEngine::EngineResponse response = f.get();
    EXPECT_TRUE(response.status.ok());
    EXPECT_EQ(response.topk.size(), 3u);
  }
  EXPECT_EQ(engine.Snapshot().shed, 8u);
}

TEST(StreamShedTest, DeadlineShedAnswersThroughTheFuture) {
  StreamGenerator gen(SmallStreamConfig());
  TkgDataset dataset = gen.WarmupDataset();
  LogClModel model(&dataset, SmallModelConfig());
  EngineOptions options;
  options.admission_deadline_us = 1000;  // 1ms — ages out while paused
  InferenceEngine engine(&model, dataset.num_timestamps() - 1, options);

  engine.Pause();
  std::vector<std::future<InferenceEngine::EngineResponse>> futures;
  for (int i = 0; i < 4; ++i) {
    Result<std::future<InferenceEngine::EngineResponse>> r =
        engine.Submit(ServeQuery{2, 0}, 0);
    ASSERT_TRUE(r.ok());
    futures.push_back(std::move(r).value());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  engine.Resume();
  uint64_t shed = 0;
  for (std::future<InferenceEngine::EngineResponse>& f : futures) {
    InferenceEngine::EngineResponse response = f.get();
    if (!response.status.ok()) {
      EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
      ++shed;
    }
  }
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(engine.Snapshot().shed, shed);
}

TEST(StreamShedTest, OverloadWithPauseResumeNeverDeadlocks) {
  StreamGenerator gen(SmallStreamConfig());
  TkgDataset dataset = gen.WarmupDataset();
  LogClModel model(&dataset, SmallModelConfig());
  EngineOptions options;
  options.max_queue_depth = 8;
  options.admission_deadline_us = 2000;
  InferenceEngine engine(&model, gen.next_time(), options);

  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> shed{0};
  constexpr int kClients = 4;
  constexpr int kPerClient = 40;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        Result<std::vector<std::pair<int64_t, float>>> r =
            engine.TryTopK(ServeQuery{(c + i) % 40, i % 6}, 5);
        if (r.ok()) {
          answered.fetch_add(1);
        } else {
          EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
          shed.fetch_add(1);
        }
      }
    });
  }
  // Interleave quiesce cycles and an advance with the query storm.
  for (int i = 0; i < 5; ++i) {
    engine.Pause();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    engine.Resume();
  }
  engine.Advance(gen.NextSnapshot());
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(answered.load() + shed.load(),
            static_cast<uint64_t>(kClients * kPerClient));
  // Destructor drains cleanly (no deadlock) — reaching here is the test.
}

// ---------------------------------------------------------------------------
// StreamGenerator statistics
// ---------------------------------------------------------------------------

TEST(StreamGeneratorTest, DeterministicPerSeed) {
  StreamGenerator a(SmallStreamConfig());
  StreamGenerator b(SmallStreamConfig());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(a.NextSnapshot(), b.NextSnapshot());
  }
  StreamConfig other = SmallStreamConfig();
  other.seed = 99;
  StreamGenerator c(other);
  c.NextSnapshot();
  EXPECT_NE(a.NextSnapshot(), c.NextSnapshot());
}

TEST(StreamGeneratorTest, MeasuredRepeatRateTracksConfigured) {
  StreamConfig config;
  config.num_entities = 500;
  config.num_relations = 20;
  config.facts_per_snapshot = 400;
  config.history_repeat_rate = 0.6;
  StreamGenerator gen(config);
  for (int i = 0; i < 100; ++i) gen.NextSnapshot();
  EXPECT_NEAR(gen.measured_repeat_rate(), 0.6, 0.05);
}

TEST(StreamGeneratorTest, WarmupDatasetCoversExactlyTheWarmupWindow) {
  StreamConfig config = SmallStreamConfig();
  StreamGenerator gen(config);
  TkgDataset dataset = gen.WarmupDataset();
  EXPECT_EQ(dataset.num_timestamps(), config.warmup_timestamps);
  EXPECT_EQ(gen.next_time(), config.warmup_timestamps);
  EXPECT_EQ(dataset.num_entities(), config.num_entities);
  // The live stream continues where the warmup stopped.
  std::vector<Quadruple> next = gen.NextSnapshot();
  ASSERT_FALSE(next.empty());
  EXPECT_EQ(next.front().time, config.warmup_timestamps);
}

TEST(StreamGeneratorTest, ZipfHeadDominates) {
  std::vector<double> cdf = BuildZipfCdf(1000, 1.1);
  ASSERT_EQ(cdf.size(), 1000u);
  // The head rank alone carries far more than the uniform 1/1000 share, and
  // the cdf is monotone ending at 1.
  EXPECT_GT(cdf[0], 0.05);
  for (size_t i = 1; i < cdf.size(); ++i) EXPECT_GE(cdf[i], cdf[i - 1]);
  EXPECT_NEAR(cdf.back(), 1.0, 1e-9);
}

// ---------------------------------------------------------------------------
// StreamSession drift vs offline re-eval
// ---------------------------------------------------------------------------

TEST(StreamSessionTest, DriftMatchesOfflineReEvalOnTwoAdvances) {
  StreamConfig stream = SmallStreamConfig();
  // Two identical universes: same warmup data, same model init, same
  // pretraining, same scripted arrivals.
  StreamGenerator gen_a(stream);
  StreamGenerator gen_b(stream);
  TkgDataset dataset_a = gen_a.WarmupDataset();
  TkgDataset dataset_b = gen_b.WarmupDataset();
  LogClModel model_a(&dataset_a, SmallModelConfig());
  LogClModel model_b(&dataset_b, SmallModelConfig());
  FitModel(&model_a, 2, 0.01f);
  FitModel(&model_b, 2, 0.01f);

  AdamOptions adam;
  adam.learning_rate = 0.01f;

  // Universe A: the StreamSession API.
  StreamSessionOptions options;
  options.adam = adam;
  options.eval_queries = 1 << 20;  // evaluate every arrival
  StreamSession session(&model_a, stream.warmup_timestamps, options);

  // Universe B: the same loop hand-built from the public primitives.
  model_b.SetEvalMode(true);
  AdamOptimizer optimizer_b(model_b.Parameters(), adam);
  std::shared_ptr<const EngineSnapshot> snap =
      EngineSnapshot::Build(&model_b, stream.warmup_timestamps);

  auto score_rows = [](const EngineSnapshot& s,
                       const std::vector<Quadruple>& facts) {
    std::vector<ServeQuery> queries;
    for (const Quadruple& q : facts) queries.push_back({q.subject, q.relation});
    Tensor scores = s.ScoreBatch(queries);
    int64_t cols = scores.shape().cols();
    std::vector<std::vector<float>> rows(queries.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      const float* begin =
          scores.data().data() + static_cast<int64_t>(i) * cols;
      rows[i].assign(begin, begin + cols);
    }
    return rows;
  };

  for (int advance = 0; advance < 2; ++advance) {
    std::vector<Quadruple> facts_a = gen_a.NextSnapshot();
    std::vector<Quadruple> facts_b = gen_b.NextSnapshot();
    ASSERT_EQ(facts_a, facts_b);
    int64_t t = snap->time();

    StreamIngestReport report = session.IngestSnapshot(facts_a);

    double stale = EvalScoredFacts(score_rows(*snap, facts_b), facts_b).mrr;
    model_b.ExtendHistory(facts_b);
    std::vector<const SnapshotGraph*> graphs;
    std::vector<int64_t> times;
    for (const auto& [wt, graph] : snap->window()) {
      times.push_back(wt);
      graphs.push_back(graph.get());
    }
    optimizer_b.ZeroGrad();
    model_b.ForwardBackwardOnFacts(facts_b, graphs, times, t);
    optimizer_b.Step();
    snap = snap->Advance(facts_b);
    double fresh = EvalScoredFacts(score_rows(*snap, facts_b), facts_b).mrr;

    EXPECT_EQ(report.drift.mrr_stale, stale) << "advance " << advance;
    EXPECT_EQ(report.drift.mrr_fresh, fresh) << "advance " << advance;
    EXPECT_EQ(report.drift.count, static_cast<int64_t>(facts_a.size()));
    EXPECT_EQ(report.time, t);
  }
  EXPECT_EQ(session.drift().advances(), 2);
}

// Serving stays live through the fine-tune's forward and backward (only the
// optimizer step pauses it): a session ingesting under concurrent TopK
// traffic trains exactly as one that serves nothing, and every concurrent
// answer is complete.
TEST(StreamSessionTest, QueriesDuringFineTuneLeaveTrainingBitwise) {
  constexpr int kIngests = 3;
  constexpr int64_t kTopK = 5;
  StreamConfig stream = SmallStreamConfig();
  StreamGenerator gen_a(stream);
  StreamGenerator gen_b(stream);
  TkgDataset dataset_a = gen_a.WarmupDataset();
  TkgDataset dataset_b = gen_b.WarmupDataset();
  LogClModel model_a(&dataset_a, SmallModelConfig());
  LogClModel model_b(&dataset_b, SmallModelConfig());
  StreamSessionOptions options;
  options.finetune_passes = 2;
  options.eval_queries = 1 << 20;  // evaluate every arrival
  StreamSession session_a(&model_a, stream.warmup_timestamps, options);
  StreamSession session_b(&model_b, stream.warmup_timestamps, options);

  // Session A: ingests while a second thread loops TopK.
  std::atomic<bool> stop{false};
  std::atomic<int64_t> answered{0};
  std::atomic<int64_t> incomplete{0};
  std::thread client([&] {
    for (int64_t i = 0; !stop.load(); ++i) {
      ServeQuery query{i % dataset_a.num_entities(),
                       i % dataset_a.num_relations_with_inverse()};
      Result<std::vector<std::pair<int64_t, float>>> top =
          session_a.TopK(query, kTopK);
      if (!top.ok() || static_cast<int64_t>(top.value().size()) != kTopK) {
        ++incomplete;
      }
      ++answered;
    }
  });
  while (answered.load() == 0) std::this_thread::yield();
  std::vector<StreamIngestReport> reports_a;
  std::vector<std::vector<Quadruple>> arrivals;
  for (int i = 0; i < kIngests; ++i) {
    arrivals.push_back(gen_a.NextSnapshot());
    reports_a.push_back(session_a.IngestSnapshot(arrivals.back()));
  }
  stop.store(true);
  client.join();
  EXPECT_GT(answered.load(), 0);
  EXPECT_EQ(incomplete.load(), 0);

  // Session B: the same arrivals with no queries.
  for (int i = 0; i < kIngests; ++i) {
    std::vector<Quadruple> facts = gen_b.NextSnapshot();
    ASSERT_EQ(facts, arrivals[static_cast<size_t>(i)]);
    StreamIngestReport report_b = session_b.IngestSnapshot(facts);
    const StreamIngestReport& report_a = reports_a[static_cast<size_t>(i)];
    EXPECT_EQ(report_a.finetune_loss, report_b.finetune_loss)
        << "ingest " << i;
    EXPECT_EQ(report_a.drift.mrr_stale, report_b.drift.mrr_stale)
        << "ingest " << i;
    EXPECT_EQ(report_a.drift.mrr_fresh, report_b.drift.mrr_fresh)
        << "ingest " << i;
  }
  ExpectBitwiseEqual(model_a.Parameters(), model_b.Parameters());
}

TEST(StreamSessionTest, IngestLeavesNothingPooled) {
  // Ingest shapes grow with the history, so buffers pooled by one ingest
  // would never be reused; each ingest trims them instead of letting them
  // pile up to the global-tier cap.
  StreamConfig stream = SmallStreamConfig();
  StreamGenerator gen(stream);
  TkgDataset dataset = gen.WarmupDataset();
  LogClModel model(&dataset, SmallModelConfig());
  FitModel(&model, 1, 0.01f);
  StreamSessionOptions options;
  options.eval_queries = 8;
  {
    StreamSession session(&model, stream.warmup_timestamps, options);
    for (int ingest = 0; ingest < 3; ++ingest) {
      session.IngestSnapshot(gen.NextSnapshot());
      EXPECT_EQ(PoolSnapshot().pooled_bytes, 0u) << "ingest " << ingest;
    }
  }
}

// StreamSession::TopK(q, 0) returns kInvalidArgument, as the router's
// PredictTopK returns normally, instead of aborting the process.
TEST(StreamSessionTest, TopKZeroIsInvalidArgument) {
  StreamConfig stream = SmallStreamConfig();
  StreamGenerator gen(stream);
  TkgDataset dataset = gen.WarmupDataset();
  LogClModel model(&dataset, SmallModelConfig());
  StreamSession session(&model, stream.warmup_timestamps);
  ServeQuery query{0, 0};
  Result<std::vector<std::pair<int64_t, float>>> zero = session.TopK(query, 0);
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.status().code(), StatusCode::kInvalidArgument);
  Result<std::vector<std::pair<int64_t, float>>> three =
      session.TopK(query, 3);
  ASSERT_TRUE(three.ok());
  EXPECT_EQ(three.value().size(), 3u);
}

TEST(StreamSessionTest, MmapWritebackPersistsFineTunedRows) {
  StreamConfig stream = SmallStreamConfig();
  StreamGenerator gen(stream);
  TkgDataset dataset = gen.WarmupDataset();
  LogClModel model(&dataset, SmallModelConfig());
  FitModel(&model, 1, 0.01f);

  fs::path path = fs::temp_directory_path() / "stream_session_ckpt.bin";
  StreamSessionOptions options;
  options.eval_queries = 8;
  options.mmap_checkpoint_path = path.string();
  std::vector<Tensor> params = model.Parameters();
  int64_t total_rows = 0;
  for (const Tensor& p : params) total_rows += p.shape().dim(0);
  {
    StreamSession session(&model, stream.warmup_timestamps, options);
    StreamIngestReport report = session.IngestSnapshot(gen.NextSnapshot());
    EXPECT_EQ(report.rows_written, total_rows);
  }
  // The checkpoint on disk now equals the live fine-tuned parameters.
  std::vector<Tensor> reloaded;
  for (const Tensor& p : params) reloaded.push_back(Tensor::Zeros(p.shape()));
  ASSERT_TRUE(checkpoint::Load(path.string(), &reloaded).ok());
  ExpectBitwiseEqual(params, reloaded);
  fs::remove(path);
}

}  // namespace
}  // namespace logcl
