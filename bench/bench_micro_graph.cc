// Micro-benchmarks (google-benchmark) for the graph layers and encoders:
// per-layer forward cost, fused vs composed message passing, full local
// evolution, global subgraph sampling + encoding, and cold vs warm
// structure-cache epoch cost.

#include <benchmark/benchmark.h>

#include "common/parallel.h"
#include "core/global_encoder.h"
#include "core/local_encoder.h"
#include "graph/rel_graph_encoder.h"
#include "synth/presets.h"
#include "tensor/ops.h"
#include "tkg/history_index.h"

namespace logcl {
namespace {

SnapshotGraph RandomGraph(int64_t nodes, int64_t edges, int64_t relations,
                          Rng* rng) {
  SnapshotGraph g;
  g.num_nodes = nodes;
  for (int64_t i = 0; i < edges; ++i) {
    g.AddEdge(static_cast<int64_t>(rng->UniformInt(nodes)),
              static_cast<int64_t>(rng->UniformInt(relations)),
              static_cast<int64_t>(rng->UniformInt(nodes)));
  }
  return g;
}

void BM_LayerForward(benchmark::State& state) {
  GcnKind kind = static_cast<GcnKind>(state.range(0));
  Rng rng(1);
  auto layer = MakeRelGraphLayer(kind, 32, &rng);
  SnapshotGraph g = RandomGraph(256, 2048, 16, &rng);
  Tensor nodes = Tensor::RandomNormal(Shape{256, 32}, 1.0f, &rng);
  Tensor rels = Tensor::RandomNormal(Shape{16, 32}, 1.0f, &rng);
  // Warm the graph's lazily built aggregation layout (CSR) and any per-layer
  // one-off setup outside the timed loop; cold structure cost is measured
  // separately by BM_SnapshotStructureEpoch.
  g.DstCsr();
  layer->Forward(g, nodes, rels, /*training=*/false, nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        layer->Forward(g, nodes, rels, /*training=*/false, nullptr));
  }
  state.SetLabel(GcnKindToString(kind));
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_LayerForward)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// Fused kernel vs the composed IndexSelect -> Add -> MatMul -> ScatterMean
// chain it replaces (RGCN aggregation), forward + backward, at a given
// thread count. Args: {num_edges, dim, fused, num_threads}.
void BM_MessagePassing(benchmark::State& state) {
  const int64_t num_edges = state.range(0);
  const int64_t dim = state.range(1);
  const bool fused = state.range(2) != 0;
  SetNumThreads(static_cast<int>(state.range(3)));
  const int64_t num_nodes = 2048;
  const int64_t num_rels = 32;
  Rng rng(5);
  SnapshotGraph g = RandomGraph(num_nodes, num_edges, num_rels, &rng);
  g.DstCsr();  // structure built once, outside the timed loop
  Tensor weight = Tensor::XavierUniform(Shape{dim, dim}, &rng,
                                        /*requires_grad=*/true);
  Tensor nodes = Tensor::RandomNormal(Shape{num_nodes, dim}, 0.1f, &rng,
                                      /*requires_grad=*/true);
  Tensor rels = Tensor::RandomNormal(Shape{num_rels, dim}, 0.1f, &rng,
                                     /*requires_grad=*/true);
  for (auto _ : state) {
    Tensor out;
    if (fused) {
      out = ops::FusedRelMessagePassing(nodes, rels, weight, g.src, g.rel,
                                        g.dst, g.DstCsr(),
                                        ops::EdgeCompose::kAdd);
    } else {
      // The pre-fusion tape: three materialized [E, d] intermediates and a
      // per-call degree recount in the 3-arg scatter-mean.
      Tensor gathered_nodes = ops::IndexSelectRows(nodes, g.src);
      Tensor gathered_rels = ops::IndexSelectRows(rels, g.rel);
      Tensor messages =
          ops::MatMul(ops::Add(gathered_nodes, gathered_rels), weight);
      out = ops::ScatterMeanRows(messages, g.dst, g.num_nodes);
    }
    Backward(ops::SumAll(out));
    benchmark::DoNotOptimize(out);
  }
  state.SetLabel(fused ? "fused" : "composed");
  state.SetItemsProcessed(state.iterations() * num_edges);
  SetNumThreads(0);
}
BENCHMARK(BM_MessagePassing)
    ->Args({2048, 32, 0, 1})
    ->Args({2048, 32, 1, 1})
    ->Args({2048, 200, 0, 1})
    ->Args({2048, 200, 1, 1})
    ->Args({50000, 32, 0, 1})
    ->Args({50000, 32, 1, 1})
    ->Args({50000, 200, 0, 1})  // the ISSUE's acceptance point
    ->Args({50000, 200, 1, 1})
    ->Args({50000, 200, 0, 4})
    ->Args({50000, 200, 1, 4})
    ->Unit(benchmark::kMillisecond);

void BM_LocalEncode(benchmark::State& state) {
  static TkgDataset* dataset =
      new TkgDataset(MakePaperDataset(PaperDataset::kIcews14Like));
  Rng rng(2);
  LocalEncoderOptions options;
  options.history_length = state.range(0);
  LocalEncoder encoder(32, dataset->num_relations_with_inverse(), options,
                       &rng);
  Tensor h0 = Tensor::XavierUniform(Shape{dataset->num_entities(), 32}, &rng);
  Tensor r0 = Tensor::XavierUniform(
      Shape{dataset->num_relations_with_inverse(), 32}, &rng);
  // Warm-up pass: the first encode over a window populates the dataset's
  // snapshot-graph/CSR caches, which would otherwise be billed to the first
  // timed iteration only (cold cost is BM_SnapshotStructureEpoch's job).
  encoder.Encode(*dataset, 50, h0, r0, /*training=*/false, nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        encoder.Encode(*dataset, 50, h0, r0, /*training=*/false, nullptr));
  }
}
BENCHMARK(BM_LocalEncode)->Arg(3)->Arg(5)->Arg(9);

void BM_GlobalSubgraphBuild(benchmark::State& state) {
  static TkgDataset* dataset =
      new TkgDataset(MakePaperDataset(PaperDataset::kIcews14Like));
  static HistoryIndex* history = new HistoryIndex(*dataset);
  Rng rng(3);
  GlobalEncoder encoder(32, {}, &rng);
  std::vector<Quadruple> queries =
      dataset->WithInverses(dataset->FactsAt(60));
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.BuildQuerySubgraph(
        *history, queries, dataset->num_entities()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
}
BENCHMARK(BM_GlobalSubgraphBuild);

void BM_GlobalEncode(benchmark::State& state) {
  static TkgDataset* dataset =
      new TkgDataset(MakePaperDataset(PaperDataset::kIcews14Like));
  static HistoryIndex* history = new HistoryIndex(*dataset);
  Rng rng(4);
  GlobalEncoder encoder(32, {}, &rng);
  std::vector<Quadruple> queries =
      dataset->WithInverses(dataset->FactsAt(60));
  QuerySubgraph subgraph = encoder.BuildQuerySubgraph(
      *history, queries, dataset->num_entities());
  subgraph.graph.DstCsr();  // structure built once, outside the timed loop
  Tensor h0 = Tensor::XavierUniform(Shape{dataset->num_entities(), 32}, &rng);
  Tensor r0 = Tensor::XavierUniform(
      Shape{dataset->num_relations_with_inverse(), 32}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        encoder.Encode(subgraph, h0, r0, /*training=*/false, nullptr));
  }
  state.SetItemsProcessed(state.iterations() * subgraph.graph.num_edges());
}
BENCHMARK(BM_GlobalEncode);

// One epoch's worth of snapshot-graph structure work: every timestamp's
// inverse-augmented graph plus its CSR aggregation layout. Cold rebuilds
// everything (the pre-cache per-epoch cost); warm reads the dataset cache.
void BM_SnapshotStructureEpoch(benchmark::State& state) {
  static TkgDataset* dataset =
      new TkgDataset(MakePaperDataset(PaperDataset::kIcews14Like));
  const bool warm = state.range(0) != 0;
  if (warm) {
    for (int64_t t = 0; t < dataset->num_timestamps(); ++t) {
      dataset->SnapshotGraphAt(t).DstCsr();
    }
  }
  for (auto _ : state) {
    for (int64_t t = 0; t < dataset->num_timestamps(); ++t) {
      if (warm) {
        benchmark::DoNotOptimize(dataset->SnapshotGraphAt(t).DstCsr());
      } else {
        SnapshotGraph g = SnapshotGraph::FromFactsWithInverses(
            dataset->FactsAt(t), dataset->num_entities(),
            dataset->num_base_relations());
        benchmark::DoNotOptimize(g.DstCsr());
      }
    }
  }
  state.SetLabel(warm ? "warm" : "cold");
  state.SetItemsProcessed(state.iterations() * dataset->num_timestamps());
}
BENCHMARK(BM_SnapshotStructureEpoch)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace logcl

BENCHMARK_MAIN();
