// Tests for the fused CSR message-passing path: EdgeCsr layout correctness,
// bitwise parity of the CSR/fused ops and of every graph layer against a
// composed reference chain kept here as the oracle (forward and backward, at
// 1 and 4 threads), gradchecks of the fused backwards, and cross-epoch
// structure-cache identity.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "core/global_encoder.h"
#include "graph/rel_graph_encoder.h"
#include "graph/snapshot_graph.h"
#include "synth/generator.h"
#include "tensor/edge_csr.h"
#include "tensor/gradcheck.h"
#include "tensor/ops.h"
#include "tkg/history_index.h"

namespace logcl {
namespace {

// Restores the default thread count when a test exits, pass or fail.
struct ThreadCountGuard {
  ~ThreadCountGuard() { SetNumThreads(0); }
};

// Deterministic LCG for index/data generation (independent of common/rng.h).
struct Lcg {
  uint32_t state;
  explicit Lcg(uint32_t seed) : state(seed) {}
  uint32_t Next() {
    state = state * 1664525u + 1013904223u;
    return state;
  }
  int64_t NextIndex(int64_t limit) {
    return static_cast<int64_t>(Next() % static_cast<uint32_t>(limit));
  }
  float NextFloat() {  // roughly [-1, 1]
    return static_cast<float>(Next() % 2000) / 1000.0f - 1.0f;
  }
};

// Random multigraph with duplicate edges and isolated tail nodes (the last
// quarter of the node range never appears as src or dst).
SnapshotGraph RandomGraph(int64_t num_nodes, int64_t num_rels,
                          int64_t num_edges, uint32_t seed) {
  SnapshotGraph g;
  g.num_nodes = num_nodes;
  Lcg lcg(seed);
  int64_t active = std::max<int64_t>(1, num_nodes - num_nodes / 4);
  for (int64_t e = 0; e < num_edges; ++e) {
    int64_t s = lcg.NextIndex(active);
    int64_t r = lcg.NextIndex(num_rels);
    int64_t d = lcg.NextIndex(active);
    g.AddEdge(s, r, d);
    if (e % 7 == 0) g.AddEdge(s, r, d);  // guaranteed duplicates
  }
  return g;
}

Tensor RandomTensor(const Shape& shape, uint32_t seed,
                    bool requires_grad = false) {
  Lcg lcg(seed);
  std::vector<float> values(static_cast<size_t>(shape.num_elements()));
  for (float& v : values) v = lcg.NextFloat();
  return Tensor::FromVector(shape, std::move(values), requires_grad);
}

// --- EdgeCsr layout ---------------------------------------------------------

TEST(EdgeCsrTest, GroupsEdgesByRowInAscendingEdgeOrder) {
  std::vector<int64_t> dst = {2, 0, 2, 1, 0, 2};
  EdgeCsrPtr csr = EdgeCsr::Build(dst, 4);
  EXPECT_EQ(csr->num_rows, 4);
  EXPECT_EQ(csr->num_edges, 6);
  EXPECT_EQ(csr->offsets, (std::vector<int64_t>{0, 2, 3, 6, 6}));
  // Stable counting sort: within each row, ascending edge id.
  EXPECT_EQ(csr->edge_order, (std::vector<int64_t>{1, 4, 3, 0, 2, 5}));
  EXPECT_FLOAT_EQ(csr->inv_in_degree[0], 0.5f);
  EXPECT_FLOAT_EQ(csr->inv_in_degree[1], 1.0f);
  EXPECT_FLOAT_EQ(csr->inv_in_degree[2], 1.0f / 3.0f);
  EXPECT_FLOAT_EQ(csr->inv_in_degree[3], 0.0f);  // isolated row
  EXPECT_EQ(csr->degree(3), 0);
}

TEST(EdgeCsrTest, EmptyEdgeList) {
  EdgeCsrPtr csr = EdgeCsr::Build({}, 3);
  EXPECT_EQ(csr->num_edges, 0);
  EXPECT_EQ(csr->offsets, (std::vector<int64_t>{0, 0, 0, 0}));
  EXPECT_TRUE(csr->edge_order.empty());
}

// --- CSR overloads vs index-vector reference --------------------------------

// Runs fn for both the reference and CSR variants and demands bitwise equal
// outputs and input gradients.
void ExpectScatterParity(
    const std::function<Tensor(const Tensor&)>& reference,
    const std::function<Tensor(const Tensor&)>& csr_variant, int64_t num_edges,
    int64_t cols, uint32_t seed) {
  for (int num_threads : {1, 4}) {
    ThreadCountGuard guard;
    SetNumThreads(num_threads);
    Tensor v_ref = RandomTensor(Shape{num_edges, cols}, seed, true);
    Tensor v_csr = RandomTensor(Shape{num_edges, cols}, seed, true);
    Tensor out_ref = reference(v_ref);
    Tensor out_csr = csr_variant(v_csr);
    ASSERT_EQ(out_ref.shape(), out_csr.shape());
    EXPECT_EQ(out_ref.data(), out_csr.data()) << num_threads << " threads";
    // Distinct per-element grads via a fixed random mask.
    Tensor m = RandomTensor(out_ref.shape(), seed + 17);
    Backward(ops::SumAll(ops::Mul(out_ref, m)));
    Backward(ops::SumAll(ops::Mul(out_csr, m)));
    EXPECT_EQ(v_ref.grad(), v_csr.grad()) << num_threads << " threads";
  }
}

TEST(CsrOpsTest, ScatterAddRowsMatchesReference) {
  const int64_t kEdges = 57, kRows = 11, kCols = 5;
  Lcg lcg(101);
  std::vector<int64_t> indices;
  for (int64_t e = 0; e < kEdges; ++e) indices.push_back(lcg.NextIndex(kRows));
  EdgeCsrPtr csr = EdgeCsr::Build(indices, kRows);
  ExpectScatterParity(
      [&](const Tensor& v) { return ops::ScatterAddRows(v, indices, kRows); },
      [&](const Tensor& v) { return ops::ScatterAddRows(v, csr); }, kEdges,
      kCols, 7);
}

TEST(CsrOpsTest, ScatterMeanRowsMatchesReference) {
  const int64_t kEdges = 57, kRows = 11, kCols = 5;
  Lcg lcg(202);
  std::vector<int64_t> indices;
  for (int64_t e = 0; e < kEdges; ++e) indices.push_back(lcg.NextIndex(kRows));
  EdgeCsrPtr csr = EdgeCsr::Build(indices, kRows);
  ExpectScatterParity(
      [&](const Tensor& v) { return ops::ScatterMeanRows(v, indices, kRows); },
      [&](const Tensor& v) { return ops::ScatterMeanRows(v, csr); }, kEdges,
      kCols, 8);
}

TEST(CsrOpsTest, SegmentSoftmaxMatchesReference) {
  const int64_t kEdges = 43, kSegments = 9;
  Lcg lcg(303);
  std::vector<int64_t> segments;
  // Segment 0 stays empty; the rest get random edges.
  for (int64_t e = 0; e < kEdges; ++e) {
    segments.push_back(1 + lcg.NextIndex(kSegments - 1));
  }
  EdgeCsrPtr csr = EdgeCsr::Build(segments, kSegments);
  ExpectScatterParity(
      [&](const Tensor& v) {
        return ops::SegmentSoftmax(v, segments, kSegments);
      },
      [&](const Tensor& v) { return ops::SegmentSoftmax(v, csr); }, kEdges, 1,
      9);
}

// --- Fused layer path vs composed reference ---------------------------------

// The composed chain each layer's fused Forward replaces, built from the
// layer's own parameters (Parameters() order: W1 message, W2 self-loop, then
// KBGAT's attention vector). IndexSelectRows -> compose -> MatMul ->
// ScatterMeanRows, or KBGAT's attention over the materialized messages.
Tensor ComposedForward(GcnKind kind, const RelGraphLayer& layer,
                       const SnapshotGraph& graph, const Tensor& nodes,
                       const Tensor& relations) {
  std::vector<Tensor> params = layer.Parameters();
  const Tensor& w_message = params[0];
  const Tensor& w_self_loop = params[1];
  Tensor self = ops::MatMul(nodes, w_self_loop);
  if (graph.empty()) return ops::RRelu(self, /*training=*/false, nullptr);
  Tensor subjects = ops::IndexSelectRows(nodes, graph.src);
  Tensor rels = ops::IndexSelectRows(relations, graph.rel);
  Tensor aggregated;
  switch (kind) {
    case GcnKind::kRgcn:
      aggregated = ops::ScatterMeanRows(
          ops::MatMul(ops::Add(subjects, rels), w_message), graph.DstCsr());
      break;
    case GcnKind::kCompGcnSub:
      aggregated = ops::ScatterMeanRows(
          ops::MatMul(ops::Sub(subjects, rels), w_message), graph.DstCsr());
      break;
    case GcnKind::kCompGcnMult:
      aggregated = ops::ScatterMeanRows(
          ops::MatMul(ops::Mul(subjects, rels), w_message), graph.DstCsr());
      break;
    case GcnKind::kKbgat: {
      Tensor messages = ops::MatMul(ops::Add(subjects, rels), w_message);
      Tensor receivers = ops::IndexSelectRows(self, graph.dst);
      Tensor logits = ops::LeakyRelu(
          ops::MatMul(ops::ConcatCols({messages, receivers}), params[2]),
          /*negative_slope=*/0.2f);
      Tensor alpha = ops::SegmentSoftmax(logits, graph.dst, graph.num_nodes);
      aggregated = ops::ScatterAddRows(ops::MulColBroadcast(messages, alpha),
                                       graph.dst, graph.num_nodes);
      break;
    }
  }
  return ops::RRelu(ops::Add(aggregated, self), /*training=*/false, nullptr);
}

struct LayerRun {
  std::vector<float> output;
  std::vector<float> node_grads;
  std::vector<float> rel_grads;
  std::vector<std::vector<float>> param_grads;
};

LayerRun RunLayer(GcnKind kind, const SnapshotGraph& graph, bool fused,
                  int64_t dim, uint32_t seed) {
  Rng rng(seed);
  auto layer = MakeRelGraphLayer(kind, dim, &rng);
  Tensor nodes = RandomTensor(Shape{graph.num_nodes, dim}, seed + 1, true);
  Tensor rels = RandomTensor(Shape{4, dim}, seed + 2, true);
  Tensor out =
      fused ? layer->Forward(graph, nodes, rels, /*training=*/false, nullptr)
            : ComposedForward(kind, *layer, graph, nodes, rels);
  Tensor mask = RandomTensor(out.shape(), seed + 3);
  Backward(ops::SumAll(ops::Mul(out, mask)));
  LayerRun run;
  run.output = out.data();
  run.node_grads = nodes.grad();
  run.rel_grads = rels.grad();
  for (const Tensor& p : layer->Parameters()) run.param_grads.push_back(p.grad());
  return run;
}

class FusedLayerParity : public ::testing::TestWithParam<GcnKind> {};

TEST_P(FusedLayerParity, BitwiseEqualForwardAndBackward) {
  // Odd sizes (not multiples of the 8-edge / 64-column tiles), duplicate
  // edges and isolated nodes.
  SnapshotGraph graph = RandomGraph(/*num_nodes=*/13, /*num_rels=*/4,
                                    /*num_edges=*/37, /*seed=*/11);
  for (int num_threads : {1, 4}) {
    ThreadCountGuard guard;
    SetNumThreads(num_threads);
    LayerRun fused = RunLayer(GetParam(), graph, /*fused=*/true, 5, 21);
    LayerRun composed = RunLayer(GetParam(), graph, /*fused=*/false, 5, 21);
    EXPECT_EQ(fused.output, composed.output) << num_threads << " threads";
    EXPECT_EQ(fused.node_grads, composed.node_grads);
    EXPECT_EQ(fused.rel_grads, composed.rel_grads);
    ASSERT_EQ(fused.param_grads.size(), composed.param_grads.size());
    for (size_t i = 0; i < fused.param_grads.size(); ++i) {
      EXPECT_EQ(fused.param_grads[i], composed.param_grads[i])
          << "param " << i;
    }
  }
}

TEST_P(FusedLayerParity, EmptyGraphMatches) {
  SnapshotGraph graph;
  graph.num_nodes = 6;
  LayerRun fused = RunLayer(GetParam(), graph, /*fused=*/true, 3, 5);
  LayerRun composed = RunLayer(GetParam(), graph, /*fused=*/false, 3, 5);
  EXPECT_EQ(fused.output, composed.output);
  EXPECT_EQ(fused.node_grads, composed.node_grads);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, FusedLayerParity,
                         ::testing::Values(GcnKind::kRgcn, GcnKind::kCompGcnSub,
                                           GcnKind::kCompGcnMult,
                                           GcnKind::kKbgat));

// --- Gradchecks of the fused ops against finite differences -----------------

class FusedOpGradCheck : public ::testing::TestWithParam<ops::EdgeCompose> {};

TEST_P(FusedOpGradCheck, FusedRelMessagePassing) {
  SnapshotGraph g = RandomGraph(5, 2, 9, 31);
  const EdgeCsrPtr& csr = g.DstCsr();
  Tensor nodes = RandomTensor(Shape{5, 3}, 41, true);
  Tensor rels = RandomTensor(Shape{2, 3}, 42, true);
  Tensor weight = RandomTensor(Shape{3, 3}, 43, true);
  auto report = CheckGradients(
      [&](const std::vector<Tensor>& in) {
        Tensor out = ops::FusedRelMessagePassing(in[0], in[1], in[2], g.src,
                                                 g.rel, g.dst, csr, GetParam());
        return ops::SumAll(ops::Tanh(out));
      },
      {nodes, rels, weight});
  EXPECT_TRUE(report.passed) << report.detail;
}

TEST_P(FusedOpGradCheck, EdgeMessages) {
  SnapshotGraph g = RandomGraph(5, 2, 9, 32);
  Tensor nodes = RandomTensor(Shape{5, 3}, 51, true);
  Tensor rels = RandomTensor(Shape{2, 3}, 52, true);
  Tensor weight = RandomTensor(Shape{3, 3}, 53, true);
  auto report = CheckGradients(
      [&](const std::vector<Tensor>& in) {
        Tensor out =
            ops::EdgeMessages(in[0], in[1], in[2], g.src, g.rel, GetParam());
        return ops::SumAll(ops::Tanh(out));
      },
      {nodes, rels, weight});
  EXPECT_TRUE(report.passed) << report.detail;
}

INSTANTIATE_TEST_SUITE_P(AllCompositions, FusedOpGradCheck,
                         ::testing::Values(ops::EdgeCompose::kAdd,
                                           ops::EdgeCompose::kSubtract,
                                           ops::EdgeCompose::kMultiply));

// --- Structure caches -------------------------------------------------------

TEST(StructureCacheTest, SnapshotGraphAtIsCachedAndMatchesFromFacts) {
  SynthConfig config;
  config.seed = 77;
  config.num_entities = 12;
  config.num_relations = 3;
  config.num_timestamps = 8;
  TkgDataset d = GenerateSyntheticTkg(config);
  const SnapshotGraph& a = d.SnapshotGraphAt(3);
  const SnapshotGraph& b = d.SnapshotGraphAt(3);
  EXPECT_EQ(&a, &b);  // cache hit returns the same object
  SnapshotGraph fresh = SnapshotGraph::FromFacts(
      d.WithInverses(d.FactsAt(3)), d.num_entities());
  EXPECT_EQ(a.src, fresh.src);
  EXPECT_EQ(a.rel, fresh.rel);
  EXPECT_EQ(a.dst, fresh.dst);
  EXPECT_EQ(a.num_nodes, d.num_entities());
  // Out-of-range timestamps share the edgeless graph.
  const SnapshotGraph& past_end = d.SnapshotGraphAt(d.num_timestamps() + 5);
  EXPECT_TRUE(past_end.empty());
  EXPECT_EQ(past_end.num_nodes, d.num_entities());
  EXPECT_EQ(&past_end, &d.SnapshotGraphAt(-1));
}

TEST(StructureCacheTest, CsrLayoutsAreCachedAndInvalidatedByAddEdge) {
  SnapshotGraph g = RandomGraph(7, 3, 15, 61);
  const EdgeCsr* dst_csr = g.DstCsr().get();
  EXPECT_EQ(g.DstCsr().get(), dst_csr);  // cached
  const EdgeCsr* rel_csr = g.RelCsr(3).get();
  EXPECT_EQ(g.RelCsr(3).get(), rel_csr);
  g.AddEdge(0, 1, 2);
  EXPECT_NE(g.DstCsr().get(), dst_csr);  // invalidated and rebuilt
  EXPECT_EQ(g.DstCsr()->num_edges, g.num_edges());
  EXPECT_NE(g.RelCsr(3).get(), rel_csr);
}

TEST(StructureCacheTest, FromFactsWithInversesMatchesComposedBuild) {
  SynthConfig config;
  config.seed = 78;
  config.num_entities = 10;
  config.num_relations = 3;
  config.num_timestamps = 6;
  TkgDataset d = GenerateSyntheticTkg(config);
  SnapshotGraph direct = SnapshotGraph::FromFactsWithInverses(
      d.FactsAt(2), d.num_entities(), d.num_base_relations());
  SnapshotGraph composed = SnapshotGraph::FromFacts(
      d.WithInverses(d.FactsAt(2)), d.num_entities());
  EXPECT_EQ(direct.src, composed.src);
  EXPECT_EQ(direct.rel, composed.rel);
  EXPECT_EQ(direct.dst, composed.dst);
}

// The subgraph is a pure function of the history index and the query set,
// so rebuilding it every phase yields the same graph.
TEST(QuerySubgraphTest, RepeatedBuildsAreIdentical) {
  SynthConfig config;
  config.seed = 79;
  config.num_entities = 14;
  config.num_relations = 3;
  config.num_timestamps = 12;
  TkgDataset d = GenerateSyntheticTkg(config);
  HistoryIndex history(d);
  Rng rng(80);
  GlobalEncoder encoder(8, {}, &rng);
  std::vector<Quadruple> queries;
  for (const Quadruple& q : d.FactsAt(9)) queries.push_back(q);
  ASSERT_FALSE(queries.empty());

  SnapshotGraph first =
      encoder.BuildQuerySubgraph(history, queries, d.num_entities());
  SnapshotGraph second =
      encoder.BuildQuerySubgraph(history, queries, d.num_entities());
  ASSERT_GT(first.num_edges(), 0);
  EXPECT_EQ(first.src, second.src);
  EXPECT_EQ(first.rel, second.rel);
  EXPECT_EQ(first.dst, second.dst);
}

TEST(QuerySubgraphTest, EdgesAreDeduplicatedAndSorted) {
  SynthConfig config;
  config.seed = 81;
  config.num_entities = 14;
  config.num_relations = 3;
  config.num_timestamps = 12;
  TkgDataset d = GenerateSyntheticTkg(config);
  HistoryIndex history(d);
  Rng rng(82);
  GlobalEncoder encoder(8, {}, &rng);
  std::vector<Quadruple> queries;
  for (const Quadruple& q : d.FactsAt(10)) queries.push_back(q);
  ASSERT_FALSE(queries.empty());
  SnapshotGraph g =
      encoder.BuildQuerySubgraph(history, queries, d.num_entities());
  ASSERT_GT(g.num_edges(), 0);
  for (int64_t e = 1; e < g.num_edges(); ++e) {
    auto key = [&](int64_t i) {
      return std::tuple(g.src[static_cast<size_t>(i)],
                        g.rel[static_cast<size_t>(i)],
                        g.dst[static_cast<size_t>(i)]);
    };
    EXPECT_LT(key(e - 1), key(e)) << "edges must be strictly ascending";
  }
}

}  // namespace
}  // namespace logcl
