// Tests for the LogCL core: contrast module, local/global encoders, the
// assembled model, ablation switches, two-phase propagation and training
// behaviour on small synthetic data.

#include <cmath>
#include <cstdlib>

#include <gtest/gtest.h>

#include "core/contrast.h"
#include "core/global_encoder.h"
#include "core/local_encoder.h"
#include "core/logcl_model.h"
#include "core/trainer.h"
#include "synth/generator.h"
#include "tensor/ops.h"
#include "tkg/filters.h"

namespace logcl {
namespace {

// --- Contrast --------------------------------------------------------------

Tensor UnitRows(std::vector<float> data, int64_t rows, int64_t cols) {
  return ops::RowL2Normalize(
      Tensor::FromVector(Shape{rows, cols}, std::move(data)));
}

TEST(SupervisedInfoNceTest, AlignedPairsScoreLowerThanMisaligned) {
  // Anchors equal to their positives -> low loss; orthogonal -> higher.
  Tensor a = UnitRows({1, 0, 0, 1}, 2, 2);
  Tensor aligned = UnitRows({1, 0, 0, 1}, 2, 2);
  Tensor misaligned = UnitRows({0, 1, 1, 0}, 2, 2);
  std::vector<int64_t> labels = {0, 1};
  float low = SupervisedInfoNce(a, aligned, labels, 0.1f, false).at(0);
  float high = SupervisedInfoNce(a, misaligned, labels, 0.1f, false).at(0);
  EXPECT_LT(low, high);
}

TEST(SupervisedInfoNceTest, SharedLabelsArePositives) {
  // Three queries, two sharing a label: the shared pair's similarity lowers
  // the loss relative to identical geometry with distinct labels.
  Tensor a = UnitRows({1, 0, 1, 0, 0, 1}, 3, 2);
  Tensor b = UnitRows({1, 0, 1, 0, 0, 1}, 3, 2);
  float shared = SupervisedInfoNce(a, b, {5, 5, 7}, 0.1f, false).at(0);
  float distinct = SupervisedInfoNce(a, b, {5, 6, 7}, 0.1f, false).at(0);
  EXPECT_LE(shared, distinct + 1e-4f);
}

TEST(SupervisedInfoNceTest, ExcludeSelfSkipsSingletons) {
  // With self-exclusion and all-distinct labels nobody has a positive:
  // the loss is exactly zero.
  Tensor a = UnitRows({1, 0, 0, 1}, 2, 2);
  Tensor loss = SupervisedInfoNce(a, a, {0, 1}, 0.1f, true);
  EXPECT_EQ(loss.at(0), 0.0f);
}

TEST(SupervisedInfoNceTest, GradientsFlowToAnchors) {
  Rng rng(20);
  Tensor a = Tensor::RandomNormal(Shape{3, 4}, 1.0f, &rng, true);
  Tensor b = Tensor::RandomNormal(Shape{3, 4}, 1.0f, &rng, true);
  Tensor loss = SupervisedInfoNce(ops::RowL2Normalize(a), ops::RowL2Normalize(b),
                                  {0, 0, 1}, 0.5f, false);
  Backward(loss);
  bool nonzero = false;
  for (float g : a.grad()) {
    if (g != 0.0f) nonzero = true;
  }
  EXPECT_TRUE(nonzero);
}

TEST(ContrastModuleTest, LossRespectsOptionSwitches) {
  Rng rng(21);
  ContrastOptions all;
  ContrastModule contrast(8, 4, all, &rng);
  Rng data_rng(22);
  Tensor local = contrast.Project(
      Tensor::RandomNormal(Shape{4, 8}, 1.0f, &data_rng));
  Tensor global = contrast.Project(
      Tensor::RandomNormal(Shape{4, 8}, 1.0f, &data_rng));
  std::vector<int64_t> labels = {0, 1, 0, 2};
  float full = contrast.Loss(local, global, labels).at(0);
  EXPECT_GT(full, 0.0f);

  ContrastOptions none;
  none.use_lg = none.use_gl = none.use_ll = none.use_gg = false;
  Rng rng2(21);
  ContrastModule disabled(8, 4, none, &rng2);
  EXPECT_EQ(disabled.Loss(local, global, labels).at(0), 0.0f);
}

TEST(ContrastModuleTest, TrainingPullsPositivePairsTogether) {
  // Optimize raw features through the projection head: the local/global
  // views of the same label must end up closer than mismatched views.
  Rng rng(23);
  ContrastOptions options;
  options.tau = 0.2f;
  ContrastModule contrast(4, 4, options, &rng);
  Rng data_rng(24);
  Tensor local_raw = Tensor::RandomNormal(Shape{4, 4}, 1.0f, &data_rng, true);
  Tensor global_raw = Tensor::RandomNormal(Shape{4, 4}, 1.0f, &data_rng, true);
  std::vector<int64_t> labels = {0, 1, 2, 3};
  std::vector<Tensor> params = contrast.Parameters();
  params.push_back(local_raw);
  params.push_back(global_raw);
  AdamOptions opts;
  opts.learning_rate = 0.05f;
  AdamOptimizer optimizer(params, opts);
  for (int step = 0; step < 100; ++step) {
    optimizer.ZeroGrad();
    Tensor z_l = contrast.Project(local_raw);
    Tensor z_g = contrast.Project(global_raw);
    Backward(contrast.Loss(z_l, z_g, labels));
    optimizer.Step();
  }
  NoGradGuard guard;
  Tensor z_l = contrast.Project(local_raw);
  Tensor z_g = contrast.Project(global_raw);
  Tensor sims = ops::MatMul(z_l, ops::Transpose(z_g));
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      if (i != j) EXPECT_GT(sims.at(i, i), sims.at(i, j));
    }
  }
}

// --- Encoders ---------------------------------------------------------------

TkgDataset SmallData() {
  SynthConfig config;
  config.name = "core-test";
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

TEST(LocalEncoderTest, EncodeProducesPerSnapshotStates) {
  TkgDataset data = SmallData();
  Rng rng(30);
  LocalEncoderOptions options;
  options.history_length = 3;
  options.num_layers = 1;
  options.dropout = 0.0f;
  LocalEncoder encoder(8, data.num_relations_with_inverse(), options, &rng);
  Tensor h0 = Tensor::XavierUniform(Shape{data.num_entities(), 8}, &rng);
  Tensor r0 = Tensor::XavierUniform(
      Shape{data.num_relations_with_inverse(), 8}, &rng);
  LocalEncoderOutput out =
      encoder.Encode(data, 10, h0, r0, /*training=*/false, nullptr);
  EXPECT_EQ(out.aggregated.size(), 3u);
  EXPECT_EQ(out.evolved.size(), 3u);
  EXPECT_EQ(out.entities.shape(), Shape({data.num_entities(), 8}));
  EXPECT_EQ(out.relations.shape(),
            Shape({data.num_relations_with_inverse(), 8}));
}

TEST(LocalEncoderTest, HistoryClippedAtTimeZero) {
  TkgDataset data = SmallData();
  Rng rng(31);
  LocalEncoderOptions options;
  options.history_length = 5;
  LocalEncoder encoder(8, data.num_relations_with_inverse(), options, &rng);
  Tensor h0 = Tensor::XavierUniform(Shape{data.num_entities(), 8}, &rng);
  Tensor r0 = Tensor::XavierUniform(
      Shape{data.num_relations_with_inverse(), 8}, &rng);
  LocalEncoderOutput out = encoder.Encode(data, 2, h0, r0, false, nullptr);
  EXPECT_EQ(out.aggregated.size(), 2u);  // only snapshots 0 and 1 exist
}

TEST(LocalEncoderTest, AttentionChangesQueryRepresentation) {
  TkgDataset data = SmallData();
  Rng rng(32);
  LocalEncoderOptions options;
  options.history_length = 4;
  LocalEncoder encoder(8, data.num_relations_with_inverse(), options, &rng);
  Tensor h0 = Tensor::XavierUniform(Shape{data.num_entities(), 8}, &rng);
  Tensor r0 = Tensor::XavierUniform(
      Shape{data.num_relations_with_inverse(), 8}, &rng);
  LocalEncoderOutput out = encoder.Encode(data, 10, h0, r0, false, nullptr);
  std::vector<Quadruple> queries = {{0, 1, 2, 10}, {3, 0, 4, 10}};
  Tensor with = encoder.QueryRepresentations(out, queries, true);
  Tensor without = encoder.QueryRepresentations(out, queries, false);
  EXPECT_EQ(with.shape(), Shape({2, 8}));
  bool differs = false;
  for (int64_t i = 0; i < with.num_elements(); ++i) {
    if (std::abs(with.at(i) - without.at(i)) > 1e-6f) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(GlobalEncoderTest, SubgraphOnlyUsesHistory) {
  TkgDataset data = SmallData();
  HistoryIndex history(data);
  Rng rng(33);
  GlobalEncoderOptions options;
  GlobalEncoder encoder(8, options, &rng);
  std::vector<Quadruple> queries;
  for (const Quadruple& q : data.FactsAt(12)) queries.push_back(q);
  ASSERT_FALSE(queries.empty());
  QuerySubgraph sub =
      encoder.BuildQuerySubgraph(history, queries, data.num_entities());
  const SnapshotGraph& graph = sub.graph;
  EXPECT_GT(graph.num_edges(), 0);
  // Every sampled edge, mapped back to entity ids, must exist somewhere in
  // history before t=12.
  for (int64_t e = 0; e < graph.num_edges(); ++e) {
    size_t i = static_cast<size_t>(e);
    int64_t s = sub.node_ids[static_cast<size_t>(graph.src[i])];
    int64_t o = sub.node_ids[static_cast<size_t>(graph.dst[i])];
    EXPECT_EQ(sub.entity_src[i], s);
    bool found = false;
    for (const HistoryEdge& edge : history.FactsTouchingBefore(s, 12)) {
      if (edge.relation == graph.rel[i] && edge.neighbor == o) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "edge " << e << " not in history";
  }
}

TEST(GlobalEncoderTest, FanOutCapBoundsEdges) {
  TkgDataset data = SmallData();
  HistoryIndex history(data);
  Rng rng(34);
  GlobalEncoderOptions capped;
  capped.max_edges_per_anchor = 2;
  capped.max_answers_per_query = 1;
  GlobalEncoder encoder(8, capped, &rng);
  std::vector<Quadruple> queries = {{0, 0, 1, 25}};
  QuerySubgraph sub =
      encoder.BuildQuerySubgraph(history, queries, data.num_entities());
  // <= (1 subject + 1 answer) anchors x 2 edges.
  EXPECT_LE(sub.graph.num_edges(), 4);
}

TEST(GlobalEncoderTest, QueryGateShrinksNorm) {
  // beta is a sigmoid gate in (0, 1): the gated representation never has a
  // larger norm than the raw encoded subject row.
  TkgDataset data = SmallData();
  HistoryIndex history(data);
  Rng rng(35);
  GlobalEncoder encoder(8, {}, &rng);
  Tensor h0 = Tensor::XavierUniform(Shape{data.num_entities(), 8}, &rng);
  Tensor r0 = Tensor::XavierUniform(
      Shape{data.num_relations_with_inverse(), 8}, &rng);
  std::vector<Quadruple> queries = {{0, 0, 1, 20}, {2, 1, 3, 20}};
  QuerySubgraph sub =
      encoder.BuildQuerySubgraph(history, queries, data.num_entities());
  Tensor encoded = encoder.Encode(sub, h0, r0, false, nullptr);
  Tensor gated = encoder.QueryRepresentations(sub, encoded, h0, queries, true);
  Tensor raw = encoder.QueryRepresentations(sub, encoded, h0, queries, false);
  for (int64_t i = 0; i < 2; ++i) {
    double gated_sq = 0, raw_sq = 0;
    for (int64_t j = 0; j < 8; ++j) {
      gated_sq += gated.at(i, j) * gated.at(i, j);
      raw_sq += raw.at(i, j) * raw.at(i, j);
    }
    EXPECT_LE(gated_sq, raw_sq + 1e-6);
  }
}

// --- Full model --------------------------------------------------------------

LogClConfig FastConfig() {
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

TEST(LogClModelTest, ScoreShapeAndDeterminismInEval) {
  TkgDataset data = SmallData();
  LogClModel model(&data, FastConfig());
  std::vector<Quadruple> queries = {{0, 0, 1, 25}, {2, 1, 3, 25}};
  auto s1 = model.ScoreQueries(queries);
  ASSERT_EQ(s1.size(), 2u);
  EXPECT_EQ(s1[0].size(), static_cast<size_t>(data.num_entities()));
  auto s2 = model.ScoreQueries(queries);
  EXPECT_EQ(s1, s2) << "eval scoring must be deterministic";
}

TEST(LogClModelTest, TrainingReducesLoss) {
  TkgDataset data = SmallData();
  LogClModel model(&data, FastConfig());
  AdamOptimizer optimizer(model.Parameters(), {});
  double first = model.TrainEpoch(&optimizer).loss;
  double last = first;
  for (int epoch = 0; epoch < 4; ++epoch) {
    last = model.TrainEpoch(&optimizer).loss;
  }
  EXPECT_LT(last, first);
}

TEST(LogClModelTest, TrainedModelBeatsRandomRanking) {
  TkgDataset data = SmallData();
  LogClModel model(&data, FastConfig());
  TimeAwareFilter filter(data);
  EvalResult result = TrainAndEvaluate(
      &model, &filter, {.epochs = 8, .learning_rate = 3e-3f});
  // Random ranking over 25 entities gives MRR ~ 15%; the planted patterns
  // should push a trained model well beyond that.
  EXPECT_GT(result.mrr, 25.0);
  EXPECT_GT(result.count, 0);
}

TEST(LogClModelTest, AblationSwitchesChangeParameterUsage) {
  TkgDataset data = SmallData();
  LogClConfig local_only = FastConfig();
  local_only.use_global = false;
  LogClConfig global_only = FastConfig();
  global_only.use_local = false;
  LogClModel a(&data, local_only);
  LogClModel b(&data, global_only);
  std::vector<Quadruple> queries = {{0, 0, 1, 25}};
  EXPECT_NE(a.ScoreQueries(queries)[0], b.ScoreQueries(queries)[0]);
}

TEST(LogClModelTest, RequiresAtLeastOneEncoder) {
  TkgDataset data = SmallData();
  LogClConfig bad = FastConfig();
  bad.use_local = false;
  bad.use_global = false;
  EXPECT_DEATH(LogClModel(&data, bad), "at least one encoder");
}

TEST(LogClModelTest, ContrastSwitchChangesTrainingLoss) {
  TkgDataset data = SmallData();
  LogClConfig with_cl = FastConfig();
  LogClConfig without_cl = FastConfig();
  without_cl.use_contrast = false;
  LogClModel a(&data, with_cl);
  LogClModel b(&data, without_cl);
  AdamOptimizer opt_a(a.Parameters(), {});
  AdamOptimizer opt_b(b.Parameters(), {});
  // Same seed/initialisation: the contrast term makes the loss strictly
  // larger on the very first step.
  double loss_a = a.TrainEpoch(&opt_a).loss;
  double loss_b = b.TrainEpoch(&opt_b).loss;
  EXPECT_GT(loss_a, loss_b);
}

TEST(LogClModelTest, NoiseInjectionPerturbsScores) {
  TkgDataset data = SmallData();
  LogClConfig clean = FastConfig();
  LogClConfig noisy = FastConfig();
  noisy.noise_stddev = 1.0f;
  LogClModel a(&data, clean);
  LogClModel b(&data, noisy);
  std::vector<Quadruple> queries = {{0, 0, 1, 25}};
  EXPECT_NE(a.ScoreQueries(queries)[0], b.ScoreQueries(queries)[0]);
}

TEST(LogClModelTest, PredictTopKReturnsProbabilities) {
  TkgDataset data = SmallData();
  LogClModel model(&data, FastConfig());
  auto top = model.PredictTopK({0, 0, 1, 25}, 5);
  ASSERT_EQ(top.size(), 5u);
  float previous = 1.1f;
  float sum = 0.0f;
  for (const auto& [entity, prob] : top) {
    EXPECT_GE(entity, 0);
    EXPECT_LT(entity, data.num_entities());
    EXPECT_LE(prob, previous);
    EXPECT_GE(prob, 0.0f);
    previous = prob;
    sum += prob;
  }
  EXPECT_LE(sum, 1.0f + 1e-4f);
}

TEST(LogClModelTest, TwoPhaseDirectionsScoreDifferentQuerySets) {
  TkgDataset data = SmallData();
  LogClModel model(&data, FastConfig());
  TimeAwareFilter filter(data);
  EvalResult both = model.Evaluate(Split::kTest, &filter,
                                   QueryDirection::kBoth);
  EvalResult forward = model.Evaluate(Split::kTest, &filter,
                                      QueryDirection::kForwardOnly);
  EvalResult inverse = model.Evaluate(Split::kTest, &filter,
                                      QueryDirection::kInverseOnly);
  EXPECT_EQ(both.count, forward.count + inverse.count);
}

TEST(TrainerTest, OnlineUpdatesImproveOverOffline) {
  // The online protocol may not always win on tiny data, but it must run
  // and produce the same query count.
  TkgDataset data = SmallData();
  LogClConfig config = FastConfig();
  LogClModel offline_model(&data, config);
  LogClModel online_model(&data, config);
  TimeAwareFilter filter(data);
  EvalResult offline = TrainAndEvaluate(&offline_model, &filter, {.epochs = 3});
  EvalResult online =
      TrainAndEvaluateOnline(&online_model, &filter, {.offline_epochs = 3});
  EXPECT_EQ(offline.count, online.count);
  EXPECT_GT(online.mrr, 0.0);
}

}  // namespace
}  // namespace logcl
