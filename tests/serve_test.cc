// Tests for the serving subsystem: EngineSnapshot parity with the offline
// scorer, copy-on-write Advance equivalence, eval-mode determinism under
// noise injection, partial top-k selection, the micro-batching
// InferenceEngine front-end, and the checkpoint deploy path.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "core/logcl_model.h"
#include "eval/ranking.h"
#include "serve/engine_snapshot.h"
#include "serve/inference_engine.h"
#include "synth/generator.h"
#include "tensor/checkpoint.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "tensor/simd.h"
#include "tkg/dataset.h"

namespace logcl {
namespace {

namespace fs = std::filesystem;

TkgDataset ServeData() {
  SynthConfig config;
  config.name = "serve-test";
  config.seed = 404;
  config.num_entities = 25;
  config.num_relations = 5;
  config.num_timestamps = 30;
  config.recurring_pool = 25;
  config.recurring_prob = 0.35;
  config.alternating_pool = 12;
  config.num_cyclic = 8;
  config.chains_per_timestamp = 2.0;
  config.noise_per_timestamp = 1.0;
  return GenerateSyntheticTkg(config);
}

LogClConfig ServeConfig() {
  LogClConfig config;
  config.embedding_dim = 16;
  config.local.history_length = 3;
  config.local.num_layers = 1;
  config.local.time_dim = 4;
  config.global.num_layers = 1;
  config.decoder.num_kernels = 8;
  config.seed = 77;
  return config;
}

std::vector<Quadruple> ServeQueriesAt(int64_t t) {
  return {{0, 0, 1, t}, {2, 1, 3, t}, {7, 3, 0, t}, {11, 8, 4, t}};
}

// 32 queries at `t` cycling over the serve world's 25 entities and its 10
// relations with inverses — a full batch at the paper's batch size.
std::vector<Quadruple> ServeBatch32At(int64_t t) {
  std::vector<Quadruple> quads;
  for (int64_t i = 0; i < 32; ++i) {
    quads.push_back({(i * 7) % 25, (i * 3) % 10, /*object=*/0, t});
  }
  return quads;
}

std::vector<ServeQuery> AsServeQueries(const std::vector<Quadruple>& quads) {
  std::vector<ServeQuery> queries;
  for (const Quadruple& q : quads) queries.push_back({q.subject, q.relation});
  return queries;
}

// Bitwise row-by-row comparison of a [B, E] score tensor against the
// offline scorer's nested vectors.
void ExpectScoresBitwiseEqual(const Tensor& batch,
                              const std::vector<std::vector<float>>& oracle) {
  ASSERT_EQ(static_cast<size_t>(batch.shape().rows()), oracle.size());
  int64_t num_entities = batch.shape().cols();
  const std::vector<float>& data = batch.data();
  for (size_t i = 0; i < oracle.size(); ++i) {
    ASSERT_EQ(oracle[i].size(), static_cast<size_t>(num_entities));
    for (int64_t e = 0; e < num_entities; ++e) {
      float got = data[static_cast<int64_t>(i) * num_entities + e];
      ASSERT_EQ(got, oracle[i][e])
          << "score mismatch at row " << i << " entity " << e;
    }
  }
}

// Restores the global thread count on scope exit so tests do not leak
// configuration into each other.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int n) : previous_(GetNumThreads()) {
    SetNumThreads(n);
  }
  ~ThreadCountGuard() { SetNumThreads(previous_); }

 private:
  int previous_;
};

// --- Snapshot parity --------------------------------------------------------

// ScoreBatch multiplies the decoded batch by the candidate transpose the
// build cached; ScoreQueries transposes the entity matrix per call. Both
// kernel tables, 1 and 4 threads, at B=1, 4 and 32.
TEST(ServeSnapshotTest, ScoreBatchMatchesModelBitwise) {
  TkgDataset data = ServeData();
  LogClModel model(&data, ServeConfig());
  std::vector<Quadruple> batch32 = ServeBatch32At(25);
  const std::vector<Quadruple> batches[] = {{batch32[5]}, ServeQueriesAt(25),
                                            batch32};
  const bool simd_was = simd::SimdEnabled();
  for (bool simd_on : {false, true}) {
    simd::SetSimdEnabled(simd_on);
    for (int threads : {1, 4}) {
      ThreadCountGuard guard(threads);
      auto snapshot = EngineSnapshot::Build(&model, 25);
      EXPECT_EQ(snapshot->time(), 25);
      for (const std::vector<Quadruple>& batch : batches) {
        SCOPED_TRACE(testing::Message() << "simd=" << simd_on << " threads="
                                        << threads << " B=" << batch.size());
        ExpectScoresBitwiseEqual(snapshot->ScoreBatch(AsServeQueries(batch)),
                                 model.ScoreQueries(batch));
      }
    }
  }
  simd::SetSimdEnabled(simd_was);
}

TEST(ServeSnapshotTest, EvolutionCachesTransposedCandidates) {
  TkgDataset data = ServeData();
  LogClModel model(&data, ServeConfig());
  LogClModel::EvolutionState state = model.PrecomputeEvolution(25);
  ASSERT_TRUE(state.candidates_t.defined());
  Tensor expected = ops::Transpose(state.local.entities);
  EXPECT_EQ(state.candidates_t.shape(), expected.shape());
  EXPECT_EQ(state.candidates_t.data(), expected.data());
}

// LogCL-G scores against the per-batch global encode, so its evolution has
// no cached candidate matrix and ScoreWithEvolution keeps the per-batch
// ConvTransE::Score path.
TEST(ServeSnapshotTest, GlobalOnlyScoreBatchMatchesModelBitwise) {
  TkgDataset data = ServeData();
  LogClConfig config = ServeConfig();
  config.use_local = false;
  LogClModel model(&data, config);
  EXPECT_FALSE(model.PrecomputeEvolution(25).candidates_t.defined());
  auto snapshot = EngineSnapshot::Build(&model, 25);
  std::vector<Quadruple> batch32 = ServeBatch32At(25);
  for (const std::vector<Quadruple>& batch :
       {std::vector<Quadruple>{batch32[5]}, ServeQueriesAt(25), batch32}) {
    ExpectScoresBitwiseEqual(snapshot->ScoreBatch(AsServeQueries(batch)),
                             model.ScoreQueries(batch));
  }
}

TEST(ServeSnapshotTest, RepeatedScoreBatchIsBitwiseStable) {
  TkgDataset data = ServeData();
  LogClModel model(&data, ServeConfig());
  auto snapshot = EngineSnapshot::Build(&model, 20);
  std::vector<ServeQuery> queries = AsServeQueries(ServeQueriesAt(20));
  Tensor a = snapshot->ScoreBatch(queries);
  Tensor b = snapshot->ScoreBatch(queries);
  EXPECT_EQ(a.data(), b.data());
}

// Advance must be bitwise equivalent to building against a dataset that
// already contains the new facts. The cut dataset drops the last two test
// timestamps; Advance folds them back in one day at a time.
TEST(ServeSnapshotTest, AdvanceMatchesModelWithExtendedDataset) {
  TkgDataset full = ServeData();
  int64_t horizon = full.num_timestamps() - 2;  // 28
  std::vector<Quadruple> cut_test;
  for (const Quadruple& q : full.test()) {
    if (q.time < horizon) cut_test.push_back(q);
  }
  TkgDataset cut = TkgDataset::FromQuadruples(
      "serve-test-cut", full.num_entities(), full.num_base_relations(),
      full.train(), full.valid(), cut_test);
  // Premise: the generator splits chronologically, so everything at or past
  // the horizon is test-only and the cut dataset genuinely ends there.
  ASSERT_TRUE(cut.FactsAt(horizon).empty());
  ASSERT_TRUE(cut.FactsAt(horizon + 1).empty());
  ASSERT_FALSE(full.FactsAt(horizon).empty());
  ASSERT_FALSE(full.FactsAt(horizon + 1).empty());

  // Same config + seed => bitwise identical parameters.
  LogClModel model_cut(&cut, ServeConfig());
  LogClModel model_full(&full, ServeConfig());

  auto snapshot = EngineSnapshot::Build(&model_cut, horizon);
  auto advanced = snapshot->Advance(full.FactsAt(horizon));
  ASSERT_EQ(advanced->time(), horizon + 1);
  std::vector<Quadruple> day1 = ServeQueriesAt(horizon + 1);
  ExpectScoresBitwiseEqual(advanced->ScoreBatch(AsServeQueries(day1)),
                           model_full.ScoreQueries(day1));
  // Advance re-caches the transposed candidates: a fresh build at the new
  // horizon scores a full batch identically.
  std::vector<ServeQuery> day1_full =
      AsServeQueries(ServeBatch32At(horizon + 1));
  EXPECT_EQ(advanced->ScoreBatch(day1_full).data(),
            EngineSnapshot::Build(&model_full, horizon + 1)
                ->ScoreBatch(day1_full)
                .data());

  // A second hop exercises the owned-graph window rotation.
  auto advanced2 = advanced->Advance(full.FactsAt(horizon + 1));
  ASSERT_EQ(advanced2->time(), horizon + 2);
  std::vector<Quadruple> day2 = ServeQueriesAt(horizon + 2);
  ExpectScoresBitwiseEqual(advanced2->ScoreBatch(AsServeQueries(day2)),
                           model_full.ScoreQueries(day2));
  std::vector<ServeQuery> day2_full =
      AsServeQueries(ServeBatch32At(horizon + 2));
  EXPECT_EQ(advanced2->ScoreBatch(day2_full).data(),
            EngineSnapshot::Build(&model_full, horizon + 2)
                ->ScoreBatch(day2_full)
                .data());
  // The original snapshot is untouched by either Advance.
  EXPECT_EQ(snapshot->time(), horizon);
}

// --- Eval-mode determinism --------------------------------------------------

TEST(ServeEvalModeTest, NoiseInjectionDoesNotPerturbEvalScores) {
  TkgDataset data = ServeData();
  LogClConfig config = ServeConfig();
  config.noise_stddev = 0.1f;
  LogClModel model(&data, config);
  std::vector<Quadruple> queries = ServeQueriesAt(25);

  // Default (paper protocol): eval inputs are contaminated per call.
  auto noisy1 = model.ScoreQueries(queries);
  auto noisy2 = model.ScoreQueries(queries);
  EXPECT_NE(noisy1, noisy2);

  // Eval mode pins the inputs: repeated calls are bitwise identical.
  model.SetEvalMode(true);
  auto pinned1 = model.ScoreQueries(queries);
  auto pinned2 = model.ScoreQueries(queries);
  EXPECT_EQ(pinned1, pinned2);

  // And snapshots built from the eval-mode model agree with it bitwise.
  auto snapshot = EngineSnapshot::Build(&model, 25);
  ExpectScoresBitwiseEqual(snapshot->ScoreBatch(AsServeQueries(queries)),
                           model.ScoreQueries(queries));
}

// --- Top-k ------------------------------------------------------------------

// The pre-serving implementation: full softmax over all logits, full sort.
std::vector<std::pair<int64_t, float>> FullSoftmaxTopK(
    const std::vector<float>& logits, int64_t k) {
  int64_t n = static_cast<int64_t>(logits.size());
  float max_logit = *std::max_element(logits.begin(), logits.end());
  std::vector<float> exp(n);
  double sum = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    exp[i] = std::exp(logits[i] - max_logit);
    sum += exp[i];
  }
  std::vector<std::pair<int64_t, float>> ranked;
  for (int64_t i = 0; i < n; ++i) {
    ranked.emplace_back(i, static_cast<float>(exp[i] / sum));
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     return a.second != b.second ? a.second > b.second
                                                 : a.first < b.first;
                   });
  ranked.resize(std::min<int64_t>(k, n));
  return ranked;
}

TEST(ServeTopKTest, TopKSoftmaxMatchesFullSoftmaxOracle) {
  Rng rng(99);
  Tensor logits = Tensor::RandomNormal(Shape{1, 200}, 2.0f, &rng);
  const std::vector<float>& row = logits.data();
  for (int64_t k : {1, 5, 37, 200}) {
    auto fast = TopKSoftmax(row.data(), 200, k);
    auto oracle = FullSoftmaxTopK(row, k);
    ASSERT_EQ(fast.size(), oracle.size());
    for (size_t i = 0; i < fast.size(); ++i) {
      EXPECT_EQ(fast[i].first, oracle[i].first) << "rank " << i;
      EXPECT_EQ(fast[i].second, oracle[i].second) << "rank " << i;
    }
  }
}

TEST(ServeTopKTest, TopKSoftmaxBreaksTiesTowardLowerIndex) {
  std::vector<float> row = {1.0f, 3.0f, 3.0f, 0.5f, 3.0f};
  auto top = TopKSoftmax(row.data(), 5, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].first, 1);
  EXPECT_EQ(top[1].first, 2);
  EXPECT_EQ(top[2].first, 4);
  EXPECT_EQ(top[0].second, top[1].second);
}

TEST(ServeTopKTest, TopKPartialMatchesFullSort) {
  Rng rng(123);
  Tensor logits = Tensor::RandomNormal(Shape{1, 150}, 1.0f, &rng);
  const std::vector<float>& row = logits.data();
  std::vector<int64_t> full(150);
  for (int64_t i = 0; i < 150; ++i) full[i] = i;
  std::stable_sort(full.begin(), full.end(), [&](int64_t a, int64_t b) {
    return row[a] != row[b] ? row[a] > row[b] : a < b;
  });
  for (int64_t k : {1, 10, 150}) {
    auto partial = TopKPartial(row.data(), 150, k);
    ASSERT_EQ(partial.size(), static_cast<size_t>(k));
    for (int64_t i = 0; i < k; ++i) EXPECT_EQ(partial[i], full[i]);
  }
}

TEST(ServeTopKTest, PredictTopKMatchesOracleOverModelScores) {
  TkgDataset data = ServeData();
  LogClModel model(&data, ServeConfig());
  Quadruple query{3, 2, 0, 24};
  std::vector<float> row = model.ScoreQueries({query})[0];
  auto fast = model.PredictTopK(query, 5);
  auto oracle = FullSoftmaxTopK(row, 5);
  ASSERT_EQ(fast.size(), oracle.size());
  for (size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].first, oracle[i].first);
    EXPECT_EQ(fast[i].second, oracle[i].second);
  }
}

// --- InferenceEngine --------------------------------------------------------

// With max_batch_size=1 every request is its own batch, so engine answers
// must equal per-query ScoreQueries bitwise (the union subgraph of a
// singleton batch is the query's own subgraph).
TEST(ServeEngineTest, SingleQueryBatchesMatchScoreQueries) {
  TkgDataset data = ServeData();
  LogClModel model(&data, ServeConfig());
  EngineOptions options;
  options.max_batch_size = 1;
  options.batch_deadline_us = 0;
  InferenceEngine engine(&model, 25, options);
  for (const Quadruple& q : ServeQueriesAt(25)) {
    std::vector<float> row = engine.Score({q.subject, q.relation});
    EXPECT_EQ(row, model.ScoreQueries({q})[0]);
  }
  EngineStats stats = engine.Snapshot();
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.batches, 4u);
  EXPECT_EQ(stats.max_batch, 1u);
}

// A non-positive k is a caller bug: TryTopK answers it with
// kInvalidArgument before submitting instead of aborting the process, and
// Submit rejects a negative k (k == 0 asks for the full row).
TEST(ServeEngineTest, NonPositiveTopKIsInvalidArgument) {
  TkgDataset data = ServeData();
  LogClModel model(&data, ServeConfig());
  InferenceEngine engine(&model, 25);
  ServeQuery query{5, 3};
  for (int64_t k : {0, -1}) {
    Result<std::vector<std::pair<int64_t, float>>> top =
        engine.TryTopK(query, k);
    ASSERT_FALSE(top.ok()) << "k=" << k;
    EXPECT_EQ(top.status().code(), StatusCode::kInvalidArgument);
  }
  Result<std::future<InferenceEngine::EngineResponse>> negative =
      engine.Submit(query, -1);
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(negative.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Snapshot().requests, 0u);
  // The engine still serves afterwards.
  Result<std::vector<std::pair<int64_t, float>>> one = engine.TryTopK(query, 1);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one.value().size(), 1u);
}

TEST(ServeEngineTest, TopKMatchesScoreRow) {
  TkgDataset data = ServeData();
  LogClModel model(&data, ServeConfig());
  EngineOptions options;
  options.max_batch_size = 1;
  options.batch_deadline_us = 0;
  InferenceEngine engine(&model, 25, options);
  ServeQuery query{5, 3};
  std::vector<float> row = engine.Score(query);
  auto top = engine.TopK(query, 3);
  auto oracle = FullSoftmaxTopK(row, 3);
  ASSERT_EQ(top.size(), 3u);
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].first, oracle[i].first);
    EXPECT_EQ(top[i].second, oracle[i].second);
  }
}

TEST(ServeEngineTest, AdvancePublishesNewHorizon) {
  TkgDataset data = ServeData();
  int64_t horizon = data.num_timestamps() - 2;
  LogClModel model(&data, ServeConfig());
  InferenceEngine engine(&model, horizon);
  EXPECT_EQ(engine.time(), horizon);
  engine.Advance(data.FactsAt(horizon));
  EXPECT_EQ(engine.time(), horizon + 1);
  // Served answers after the swap match a snapshot built at the new horizon.
  std::vector<Quadruple> queries = {{0, 0, 1, horizon + 1}};
  std::vector<float> row = engine.Score({0, 0});
  auto fresh = engine.snapshot()->ScoreBatch({{0, 0}});
  ASSERT_EQ(row.size(), static_cast<size_t>(data.num_entities()));
  for (int64_t e = 0; e < data.num_entities(); ++e) {
    EXPECT_EQ(row[e], fresh.data()[e]);
  }
  EXPECT_EQ(engine.Snapshot().advances, 1u);
}

// TSan target: concurrent submitters racing one Advance. Correctness of the
// answers is covered by the parity tests; this asserts the bookkeeping and
// that every request is answered with a full row.
TEST(ServeEngineTest, ConcurrentSubmitAndAdvance) {
  TkgDataset data = ServeData();
  int64_t horizon = data.num_timestamps() - 2;
  LogClModel model(&data, ServeConfig());
  EngineOptions options;
  options.max_batch_size = 8;
  options.batch_deadline_us = 200;
  InferenceEngine engine(&model, horizon, options);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 6;
  std::atomic<int> full_rows{0};
  std::vector<std::thread> submitters;
  for (int thread_id = 0; thread_id < kThreads; ++thread_id) {
    submitters.emplace_back([&, thread_id] {
      for (int i = 0; i < kPerThread; ++i) {
        ServeQuery query{(thread_id * kPerThread + i) % data.num_entities(),
                         i % data.num_relations_with_inverse()};
        std::vector<float> row = engine.Score(query);
        if (row.size() == static_cast<size_t>(data.num_entities())) {
          full_rows.fetch_add(1);
        }
      }
    });
  }
  std::thread advancer([&] { engine.Advance(data.FactsAt(horizon)); });
  for (std::thread& t : submitters) t.join();
  advancer.join();

  EXPECT_EQ(full_rows.load(), kThreads * kPerThread);
  EXPECT_EQ(engine.time(), horizon + 1);
  EngineStats stats = engine.Snapshot();
  EXPECT_EQ(stats.requests, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_GE(stats.batches, 1u);
  EXPECT_LE(stats.batches, stats.requests);
  EXPECT_LE(stats.max_batch, 8u);
  EXPECT_EQ(stats.advances, 1u);
  EXPECT_GE(stats.peak_queue_depth, 1u);
  EXPECT_FALSE(stats.ToString().empty());
}

// --- Checkpoint deploy path -------------------------------------------------

TEST(ServeCheckpointTest, LoadedModelServesIdenticalScores) {
  TkgDataset data = ServeData();
  LogClModel trained(&data, ServeConfig());
  AdamOptimizer optimizer(trained.Parameters(), {});
  trained.TrainEpoch(&optimizer);  // move weights off their init values
  std::string path =
      (fs::temp_directory_path() / "logcl_serve_ckpt.bin").string();
  ASSERT_TRUE(checkpoint::Save(trained.Parameters(), path).ok());

  LogClModel deployed(&data, ServeConfig());
  ASSERT_TRUE(LoadModelCheckpoint(&deployed, path).ok());
  fs::remove(path);

  std::vector<Quadruple> queries = ServeQueriesAt(25);
  auto snapshot = EngineSnapshot::Build(&deployed, 25);
  ExpectScoresBitwiseEqual(snapshot->ScoreBatch(AsServeQueries(queries)),
                           trained.ScoreQueries(queries));
}

TEST(ServeCheckpointTest, SaveModelCheckpointRoundTripsBitwise) {
  TkgDataset data = ServeData();
  LogClModel trained(&data, ServeConfig());
  AdamOptimizer optimizer(trained.Parameters(), {});
  trained.TrainEpoch(&optimizer);
  std::string path =
      (fs::temp_directory_path() / "logcl_serve_ckpt_roundtrip.bin").string();
  ASSERT_TRUE(SaveModelCheckpoint(trained, path).ok());

  LogClModel restored(&data, ServeConfig());
  ASSERT_TRUE(LoadModelCheckpoint(&restored, path).ok());
  fs::remove(path);

  std::vector<Tensor> want = trained.Parameters();
  std::vector<Tensor> got = restored.Parameters();
  ASSERT_EQ(got.size(), want.size());
  for (size_t p = 0; p < want.size(); ++p) {
    const std::vector<float>& a = want[p].data();
    const std::vector<float>& b = got[p].data();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      uint32_t ai, bi;
      std::memcpy(&ai, &a[i], 4);
      std::memcpy(&bi, &b[i], 4);
      ASSERT_EQ(ai, bi) << "parameter " << p << " element " << i;
    }
  }
}

TEST(ServeCheckpointTest, SaveToUnwritablePathIsStatusNotCrash) {
  TkgDataset data = ServeData();
  LogClModel model(&data, ServeConfig());
  Status status =
      SaveModelCheckpoint(model, "/nonexistent-dir/nested/ckpt.bin");
  EXPECT_FALSE(status.ok());
}

}  // namespace
}  // namespace logcl
