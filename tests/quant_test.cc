// Tests for int8 snapshot scoring (serve/quant.h): symmetric per-row int8
// quantization, and the statistical gates the serving integration is held
// to — per-query Spearman rank correlation >= 0.99 and |delta MRR| <= 0.005
// against the fp32 scorer on a synthetic eval set, under both kernel
// tables. int8 scoring has no bitwise contract with fp32; these gates are
// the contract.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/logcl_model.h"
#include "eval/metrics.h"
#include "eval/ranking.h"
#include "serve/engine_snapshot.h"
#include "serve/inference_engine.h"
#include "serve/quant.h"
#include "synth/generator.h"
#include "tensor/simd.h"
#include "tkg/dataset.h"

namespace logcl {
namespace {

// --- int8 symmetric per-row quantization ------------------------------------

TEST(Int8QuantTest, CodesAndScale) {
  const float row[] = {-1.0f, 0.0f, 0.5f, 1.0f};
  int8_t codes[4];
  float scale = QuantizeRowInt8(row, 4, codes);
  EXPECT_FLOAT_EQ(scale, 1.0f / 127.0f);
  EXPECT_EQ(codes[0], -127);
  EXPECT_EQ(codes[1], 0);
  EXPECT_EQ(codes[2], 64);  // 63.5 ties-to-even -> 64
  EXPECT_EQ(codes[3], 127);
}

TEST(Int8QuantTest, AllZeroRowHasZeroScale) {
  const float row[] = {0.0f, 0.0f, 0.0f};
  int8_t codes[3] = {9, 9, 9};
  EXPECT_EQ(QuantizeRowInt8(row, 3, codes), 0.0f);
  for (int8_t c : codes) EXPECT_EQ(c, 0);
}

TEST(Int8QuantTest, ReconstructionErrorWithinHalfStep) {
  std::vector<float> row;
  for (int i = 0; i < 57; ++i) {
    row.push_back(static_cast<float>(i * 13 % 29) / 7.0f - 2.0f);
  }
  std::vector<int8_t> codes(row.size());
  float scale = QuantizeRowInt8(row.data(), row.size(), codes.data());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_LE(std::fabs(row[i] - scale * codes[i]), scale * 0.5f + 1e-7f);
  }
}

TEST(Int8QuantTest, PerRowScalesAreIndependent) {
  // Two rows with very different ranges must not share a scale.
  const float m[] = {100.0f, -50.0f, 0.01f, -0.005f};
  Int8Matrix q = QuantizeInt8PerRow(m, 2, 2);
  EXPECT_FLOAT_EQ(q.scales[0], 100.0f / 127.0f);
  EXPECT_FLOAT_EQ(q.scales[1], 0.01f / 127.0f);
  EXPECT_EQ(q.data[0], 127);
  EXPECT_EQ(q.data[2], 127);
}

TEST(QuantPrecisionEnvTest, ParsesKnownNames) {
  EXPECT_STREQ(PrecisionName(ScorePrecision::kFp32), "fp32");
  EXPECT_STREQ(PrecisionName(ScorePrecision::kInt8), "int8");
}

// --- statistical gates on the serving path ----------------------------------

TkgDataset QuantData() {
  SynthConfig config;
  config.name = "quant-test";
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

LogClConfig QuantModelConfig() {
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

// A batch wide enough for stable rank statistics: every entity appears as a
// subject, relations cycle.
std::vector<ServeQuery> EvalQueries(const TkgDataset& data) {
  std::vector<ServeQuery> queries;
  for (int64_t s = 0; s < data.num_entities(); ++s) {
    queries.push_back({s, s % data.num_base_relations()});
  }
  return queries;
}

// Spearman rank correlation between two score rows (average ranks for ties).
double Spearman(const std::vector<float>& a, const std::vector<float>& b) {
  auto ranks = [](const std::vector<float>& v) {
    std::vector<int64_t> order(v.size());
    for (size_t i = 0; i < v.size(); ++i) order[i] = static_cast<int64_t>(i);
    std::sort(order.begin(), order.end(),
              [&](int64_t x, int64_t y) { return v[x] < v[y]; });
    std::vector<double> r(v.size());
    size_t i = 0;
    while (i < order.size()) {
      size_t j = i;
      while (j + 1 < order.size() &&
             v[order[j + 1]] == v[order[i]]) {
        ++j;
      }
      double mean_rank = 0.5 * (static_cast<double>(i) +
                                static_cast<double>(j)) + 1.0;
      for (size_t t = i; t <= j; ++t) r[order[t]] = mean_rank;
      i = j + 1;
    }
    return r;
  };
  std::vector<double> ra = ranks(a), rb = ranks(b);
  double ma = 0.0, mb = 0.0;
  for (size_t i = 0; i < ra.size(); ++i) {
    ma += ra[i];
    mb += rb[i];
  }
  ma /= static_cast<double>(ra.size());
  mb /= static_cast<double>(rb.size());
  double cov = 0.0, va = 0.0, vb = 0.0;
  for (size_t i = 0; i < ra.size(); ++i) {
    cov += (ra[i] - ma) * (rb[i] - mb);
    va += (ra[i] - ma) * (ra[i] - ma);
    vb += (rb[i] - mb) * (rb[i] - mb);
  }
  return cov / std::sqrt(va * vb);
}

double MrrOf(const std::vector<std::vector<float>>& scores,
             const TkgDataset& data) {
  MetricsAccumulator acc;
  for (size_t i = 0; i < scores.size(); ++i) {
    // Deterministic spread of targets across entities.
    int64_t target = static_cast<int64_t>(i * 7 + 3) % data.num_entities();
    acc.AddRank(RankOfTarget(scores[i], target));
  }
  return acc.Result().mrr / 100.0;
}

// Splits logits [B, E] into B rows.
std::vector<std::vector<float>> RowsOf(const Tensor& scores) {
  int64_t cols = scores.shape().cols();
  const float* data = scores.data().data();
  std::vector<std::vector<float>> rows(
      static_cast<size_t>(scores.shape().rows()));
  for (size_t i = 0; i < rows.size(); ++i) {
    const float* row = data + static_cast<int64_t>(i) * cols;
    rows[i].assign(row, row + cols);
  }
  return rows;
}

// Parameter: whether the SIMD kernel table is active (false = scalar).
// The fixture restores the table the process started with.
class QuantGateTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { simd::SetSimdEnabled(GetParam()); }
  void TearDown() override { simd::SetSimdEnabled(previous_simd_); }

 private:
  const bool previous_simd_ = simd::SimdEnabled();
};

TEST_P(QuantGateTest, SpearmanAndMrrParityWithFp32) {
  TkgDataset data = QuantData();
  LogClModel model(&data, QuantModelConfig());
  auto fp32 = EngineSnapshot::Build(&model, 25, ScorePrecision::kFp32);
  auto quant = EngineSnapshot::Build(&model, 25, ScorePrecision::kInt8);
  ASSERT_EQ(fp32->precision(), ScorePrecision::kFp32);
  ASSERT_EQ(quant->precision(), ScorePrecision::kInt8);

  std::vector<ServeQuery> queries = EvalQueries(data);
  std::vector<std::vector<float>> exact = RowsOf(fp32->ScoreBatch(queries));
  std::vector<std::vector<float>> approx =
      RowsOf(quant->ScoreBatchQuantized(queries));
  ASSERT_EQ(exact.size(), approx.size());

  for (size_t i = 0; i < exact.size(); ++i) {
    ASSERT_EQ(exact[i].size(), approx[i].size());
    EXPECT_GE(Spearman(exact[i], approx[i]), 0.99) << "query " << i;
  }
  EXPECT_LE(std::fabs(MrrOf(exact, data) - MrrOf(approx, data)), 0.005);
}

INSTANTIATE_TEST_SUITE_P(KernelTables, QuantGateTest, ::testing::Bool());

TEST(QuantSnapshotTest, GlobalOnlyModelFallsBackToFp32) {
  TkgDataset data = QuantData();
  LogClConfig config = QuantModelConfig();
  config.use_local = false;  // no query-independent candidate matrix
  LogClModel model(&data, config);
  auto snapshot = EngineSnapshot::Build(&model, 25, ScorePrecision::kInt8);
  EXPECT_EQ(snapshot->precision(), ScorePrecision::kFp32);
  EXPECT_TRUE(snapshot->int8_candidates().empty());
}

TEST(QuantSnapshotTest, Fp32SnapshotHasNoInt8Candidates) {
  TkgDataset data = QuantData();
  LogClModel model(&data, QuantModelConfig());
  auto snapshot = EngineSnapshot::Build(&model, 25, ScorePrecision::kFp32);
  EXPECT_EQ(snapshot->precision(), ScorePrecision::kFp32);
  EXPECT_TRUE(snapshot->int8_candidates().empty());
}

TEST(QuantSnapshotTest, AdvanceRequantizesMatchingFreshBuild) {
  TkgDataset data = QuantData();
  LogClModel model(&data, QuantModelConfig());
  int64_t horizon = 25;
  ASSERT_FALSE(data.FactsAt(horizon).empty());
  auto built = EngineSnapshot::Build(&model, horizon, ScorePrecision::kInt8);
  auto advanced = built->Advance(data.FactsAt(horizon));
  ASSERT_EQ(advanced->precision(), ScorePrecision::kInt8);

  // The advanced window equals the dataset's own window at horizon + 1, so
  // a fresh build there must produce identical quantized scores.
  auto fresh =
      EngineSnapshot::Build(&model, horizon + 1, ScorePrecision::kInt8);
  std::vector<ServeQuery> queries = EvalQueries(data);
  Tensor advanced_scores = advanced->ScoreBatchQuantized(queries);
  Tensor fresh_scores = fresh->ScoreBatchQuantized(queries);
  EXPECT_TRUE(advanced_scores.shape() == fresh_scores.shape());
  EXPECT_EQ(advanced_scores.data(), fresh_scores.data());
}

TEST(QuantEngineTest, QuantizedEngineAnswersMatchSnapshotScoring) {
  TkgDataset data = QuantData();
  LogClModel model(&data, QuantModelConfig());
  EngineOptions options;
  options.precision = ScorePrecision::kInt8;
  InferenceEngine engine(&model, 25, options);
  ASSERT_EQ(engine.snapshot()->precision(), ScorePrecision::kInt8);

  // Full-row answers come straight from ScoreBatchQuantized on a
  // singleton batch.
  ServeQuery q{3, 1};
  std::vector<float> row = engine.Score(q);
  std::vector<std::vector<float>> direct =
      RowsOf(engine.snapshot()->ScoreBatchQuantized({q}));
  ASSERT_EQ(direct.size(), 1u);
  EXPECT_EQ(row, direct[0]);

  // Top-k selection runs on the quantized logits.
  auto top = engine.TopK(q, 3);
  ASSERT_EQ(top.size(), 3u);
  std::vector<int64_t> expect =
      TopKPartial(direct[0].data(), static_cast<int64_t>(direct[0].size()), 3);
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].first, expect[i]);
  }
}

}  // namespace
}  // namespace logcl
