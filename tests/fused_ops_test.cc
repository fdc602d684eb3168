// Tests for the fused CSR message-passing path: EdgeCsr layout correctness,
// bitwise parity of the CSR/fused ops and of every graph layer against a
// composed reference chain kept here as the oracle (forward and backward, at
// 1 and 4 threads), gradchecks of the fused backwards, the compact query
// subgraph's layout, and bitwise parity of the compact global encoder
// against a full-entity encoder kept here as the oracle.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/observability.h"
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

  QuerySubgraph first =
      encoder.BuildQuerySubgraph(history, queries, d.num_entities());
  QuerySubgraph second =
      encoder.BuildQuerySubgraph(history, queries, d.num_entities());
  ASSERT_GT(first.graph.num_edges(), 0);
  EXPECT_EQ(first.node_ids, second.node_ids);
  EXPECT_EQ(first.graph.src, second.graph.src);
  EXPECT_EQ(first.graph.rel, second.graph.rel);
  EXPECT_EQ(first.graph.dst, second.graph.dst);
  EXPECT_EQ(first.subject_pos, second.subject_pos);
  EXPECT_EQ(first.answer_pos, second.answer_pos);
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
  QuerySubgraph sub =
      encoder.BuildQuerySubgraph(history, queries, d.num_entities());
  const SnapshotGraph& g = sub.graph;
  ASSERT_GT(g.num_edges(), 0);
  // Sorted by entity-space (s, r, o), mapped back through node_ids.
  for (int64_t e = 1; e < g.num_edges(); ++e) {
    auto key = [&](int64_t i) {
      size_t k = static_cast<size_t>(i);
      return std::tuple(sub.node_ids[static_cast<size_t>(g.src[k])], g.rel[k],
                        sub.node_ids[static_cast<size_t>(g.dst[k])]);
    };
    EXPECT_LT(key(e - 1), key(e)) << "edges must be strictly ascending";
  }
}

// Each build records its compact size, so the subgraph a workload encodes
// can be read from the metrics export.
TEST(QuerySubgraphTest, BuildRecordsSizeHistograms) {
  SynthConfig config;
  config.seed = 87;
  config.num_entities = 30;
  config.num_relations = 3;
  config.num_timestamps = 12;
  TkgDataset d = GenerateSyntheticTkg(config);
  HistoryIndex history(d);
  Rng rng(88);
  GlobalEncoder encoder(8, {}, &rng);
  auto snapshot = [](const char* name) {
    return Metrics().Snapshot().HistogramValue(name);
  };
  HistogramSnapshot nodes_before = snapshot("logcl.global.subgraph_nodes");
  HistogramSnapshot edges_before = snapshot("logcl.global.subgraph_edges");
  QuerySubgraph sub =
      encoder.BuildQuerySubgraph(history, d.FactsAt(10), d.num_entities());
  HistogramSnapshot nodes = snapshot("logcl.global.subgraph_nodes");
  HistogramSnapshot edges = snapshot("logcl.global.subgraph_edges");
  EXPECT_EQ(nodes.count, nodes_before.count + 1);
  EXPECT_EQ(nodes.sum,
            nodes_before.sum + static_cast<uint64_t>(sub.graph.num_nodes));
  EXPECT_EQ(edges.count, edges_before.count + 1);
  EXPECT_EQ(edges.sum,
            edges_before.sum + static_cast<uint64_t>(sub.graph.num_edges()));
}

// The node map is strictly ascending and covers exactly the edge endpoints,
// the query subjects and their kept historical answers; subject and answer
// positions point back at the right entities.
TEST(QuerySubgraphTest, NodeMapIsAscendingAndComplete) {
  SynthConfig config;
  config.seed = 83;
  config.num_entities = 60;
  config.num_relations = 3;
  config.num_timestamps = 12;
  TkgDataset d = GenerateSyntheticTkg(config);
  HistoryIndex history(d);
  ASSERT_GE(d.FactsAt(10).size(), 3u);
  Rng rng(84);
  GlobalEncoderOptions options;
  options.max_edges_per_anchor = 2;
  options.max_answers_per_query = 2;
  GlobalEncoder encoder(8, options, &rng);
  std::vector<Quadruple> queries(d.FactsAt(10).begin(),
                                 d.FactsAt(10).begin() + 3);
  QuerySubgraph sub =
      encoder.BuildQuerySubgraph(history, queries, d.num_entities());
  ASSERT_FALSE(sub.node_ids.empty());
  EXPECT_EQ(sub.graph.num_nodes, static_cast<int64_t>(sub.node_ids.size()));
  EXPECT_LT(sub.graph.num_nodes, d.num_entities());
  for (size_t i = 1; i < sub.node_ids.size(); ++i) {
    EXPECT_LT(sub.node_ids[i - 1], sub.node_ids[i]);
  }
  std::vector<int64_t> expected;
  for (int64_t e = 0; e < sub.graph.num_edges(); ++e) {
    size_t k = static_cast<size_t>(e);
    expected.push_back(sub.entity_src[k]);
    expected.push_back(sub.node_ids[static_cast<size_t>(sub.graph.dst[k])]);
  }
  ASSERT_EQ(sub.subject_pos.size(), queries.size());
  std::vector<int64_t> answers;
  for (const Quadruple& q : queries) {
    expected.push_back(q.subject);
    std::vector<int64_t> objects =
        history.ObjectsBefore(q.subject, q.relation, q.time);
    if (static_cast<int64_t>(objects.size()) > options.max_answers_per_query) {
      objects.resize(static_cast<size_t>(options.max_answers_per_query));
    }
    answers.insert(answers.end(), objects.begin(), objects.end());
  }
  expected.insert(expected.end(), answers.begin(), answers.end());
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());
  EXPECT_EQ(sub.node_ids, expected);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(sub.node_ids[static_cast<size_t>(sub.subject_pos[i])],
              queries[i].subject);
  }
  ASSERT_EQ(sub.answer_pos.size(), answers.size());
  for (size_t i = 0; i < answers.size(); ++i) {
    EXPECT_EQ(sub.node_ids[static_cast<size_t>(sub.answer_pos[i])],
              answers[i]);
  }

  QuerySubgraph every = encoder.BuildQuerySubgraph(
      history, queries, d.num_entities(), /*every_entity=*/true);
  ASSERT_EQ(every.graph.num_nodes, d.num_entities());
  for (int64_t e = 0; e < d.num_entities(); ++e) {
    EXPECT_EQ(every.node_ids[static_cast<size_t>(e)], e);
  }
  EXPECT_EQ(every.graph.rel, sub.graph.rel);
  EXPECT_EQ(every.entity_src, sub.entity_src);
}

// --- Compact global encoder vs full-entity oracle ---------------------------

// What one encoder run leaves behind: the encoded rows of the subgraph's
// nodes (in node order) and the gradients of the entity table, the
// relations and every aggregator weight.
struct EncoderRun {
  std::vector<float> rows;
  std::vector<float> entity_grads;
  std::vector<float> relation_grads;
  std::vector<std::vector<float>> weight_grads;
  uint64_t next_draw = 0;  // where the RNG stream stands afterwards
};

constexpr int64_t kParityDim = 6;  // not a multiple of any tile width
constexpr uint32_t kParitySeed = 91;

// Runs the compact GlobalEncoder (`oracle` false) or a RelGraphEncoder
// seeded like its aggregator over the subgraph's entity-space edges, on the
// whole entity table (`oracle` true). The entity table has a consumer
// created before the encoder and one created after it, as in the model
// (the local encoder, and the query gate's subject gather), so the order in
// which its gradient accumulates is exercised. The loss reads every node
// row through a fixed mask.
EncoderRun RunGlobalEncoder(GcnKind kind, bool training, bool oracle,
                            const QuerySubgraph& sub,
                            const std::vector<Quadruple>& queries,
                            int64_t num_relations) {
  GlobalEncoderOptions options;
  options.gcn_kind = kind;
  Rng init(kParitySeed);
  GlobalEncoder encoder(kParityDim, options, &init);
  Rng oracle_init(kParitySeed);
  RelGraphEncoder full(kind, options.num_layers, kParityDim, options.dropout,
                       &oracle_init);

  Tensor h0 = RandomTensor(Shape{sub.num_entities, kParityDim},
                           kParitySeed + 1, true);
  Tensor r0 = RandomTensor(Shape{num_relations, kParityDim}, kParitySeed + 2,
                           true);
  Tensor earlier =
      ops::SumAll(ops::Mul(h0, RandomTensor(h0.shape(), kParitySeed + 3)));
  Rng draws(kParitySeed + 4);
  Tensor rows;
  if (oracle) {
    SnapshotGraph graph;
    graph.num_nodes = sub.num_entities;
    for (int64_t e = 0; e < sub.graph.num_edges(); ++e) {
      size_t k = static_cast<size_t>(e);
      graph.AddEdge(sub.entity_src[k], sub.graph.rel[k],
                    sub.node_ids[static_cast<size_t>(sub.graph.dst[k])]);
    }
    Tensor encoded = full.Forward(graph, h0, r0, training, &draws);
    rows = ops::IndexSelectRows(encoded, sub.node_ids);
  } else {
    rows = encoder.Encode(sub, h0, r0, training, &draws);
  }
  std::vector<int64_t> subjects;
  for (const Quadruple& q : queries) subjects.push_back(q.subject);
  Tensor later = ops::IndexSelectRows(h0, subjects);
  Tensor loss = ops::Add(
      ops::Add(ops::SumAll(ops::Mul(
                   rows, RandomTensor(rows.shape(), kParitySeed + 5))),
               ops::SumAll(ops::Mul(
                   later, RandomTensor(later.shape(), kParitySeed + 6)))),
      earlier);
  Backward(loss);

  EncoderRun run;
  run.rows = rows.data();
  run.entity_grads = h0.grad();
  run.relation_grads = r0.grad();
  std::vector<Tensor> weights =
      oracle ? full.Parameters() : encoder.Parameters();
  // The aggregator is GlobalEncoder's first child: its weights come first.
  for (size_t i = 0; i < full.Parameters().size(); ++i) {
    run.weight_grads.push_back(weights[i].grad());
  }
  run.next_draw = draws.Next();
  return run;
}

void ExpectCompactMatchesOracle(GcnKind kind, bool every_entity) {
  SynthConfig config;
  config.seed = 85;
  config.num_entities = 60;
  config.num_relations = 4;
  config.num_timestamps = 12;
  TkgDataset d = GenerateSyntheticTkg(config);
  HistoryIndex history(d);
  ASSERT_GE(d.FactsAt(10).size(), 4u);
  std::vector<Quadruple> queries(d.FactsAt(10).begin(),
                                 d.FactsAt(10).begin() + 4);
  Rng rng(86);
  GlobalEncoder builder(kParityDim, {}, &rng);
  QuerySubgraph sub = builder.BuildQuerySubgraph(
      history, queries, d.num_entities(), every_entity);
  ASSERT_GT(sub.graph.num_edges(), 0);
  if (!every_entity) ASSERT_LT(sub.graph.num_nodes, d.num_entities());
  for (int num_threads : {1, 4}) {
    for (bool training : {false, true}) {
      ThreadCountGuard guard;
      SetNumThreads(num_threads);
      SCOPED_TRACE(testing::Message() << num_threads << " threads, training="
                                      << training);
      EncoderRun compact = RunGlobalEncoder(
          kind, training, /*oracle=*/false, sub, queries,
          d.num_relations_with_inverse());
      EncoderRun oracle = RunGlobalEncoder(
          kind, training, /*oracle=*/true, sub, queries,
          d.num_relations_with_inverse());
      EXPECT_EQ(compact.rows, oracle.rows);
      EXPECT_EQ(compact.entity_grads, oracle.entity_grads);
      EXPECT_EQ(compact.relation_grads, oracle.relation_grads);
      ASSERT_EQ(compact.weight_grads.size(), oracle.weight_grads.size());
      for (size_t i = 0; i < compact.weight_grads.size(); ++i) {
        EXPECT_EQ(compact.weight_grads[i], oracle.weight_grads[i])
            << "weight " << i;
      }
      EXPECT_EQ(compact.next_draw, oracle.next_draw);
    }
  }
}

class CompactGlobalEncoderParityTest
    : public ::testing::TestWithParam<GcnKind> {};

TEST_P(CompactGlobalEncoderParityTest, BitwiseEqualToFullEntityEncoder) {
  ExpectCompactMatchesOracle(GetParam(), /*every_entity=*/false);
}

// LogCL-G scores candidates against the encoded matrix, so its node set is
// the whole entity table; the compact path then reproduces the full-entity
// encoder on every row.
TEST_P(CompactGlobalEncoderParityTest, EveryEntityNodeSetMatchesOracle) {
  ExpectCompactMatchesOracle(GetParam(), /*every_entity=*/true);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, CompactGlobalEncoderParityTest,
    ::testing::Values(GcnKind::kRgcn, GcnKind::kCompGcnSub,
                      GcnKind::kCompGcnMult, GcnKind::kKbgat),
    [](const ::testing::TestParamInfo<GcnKind>& info) {
      return GcnKindToString(info.param);
    });

}  // namespace
}  // namespace logcl
