// Abstract relation-aware message-passing layer (pluggable aggregator of
// Eq.4 / Table V: R-GCN, CompGCN-sub, CompGCN-mult, KBGAT).

#ifndef LOGCL_GRAPH_REL_GRAPH_LAYER_H_
#define LOGCL_GRAPH_REL_GRAPH_LAYER_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "graph/snapshot_graph.h"
#include "nn/module.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace logcl {

/// Row layout of one message-passing step. By default `nodes` holds one row
/// per graph node. On a compact graph (the global query subgraph,
/// core/global_encoder.h) graph node i is row `table.ids[i]` of the entity
/// table, and the stochastic pieces draw that table row's randomness
/// (ops::TableRows). The first compact step still reads the full table:
/// `table_src` gives each edge's source as a table row, and the self-loop
/// term gathers rows `table.ids` (created where the self-loop matmul is, so
/// the table's gradient accumulates in the full-table order). Its output
/// and every later step are compact.
struct StepRows {
  ops::TableRows table;
  const std::vector<int64_t>* table_src = nullptr;

  /// Edge sources as rows of the step's `nodes`.
  const std::vector<int64_t>& Src(const SnapshotGraph& graph) const {
    return table_src != nullptr ? *table_src : graph.src;
  }
  /// The self-loop input: `nodes`, or its graph-node rows on a first
  /// compact step.
  Tensor SelfInput(const SnapshotGraph& graph, const Tensor& nodes) const;
};

/// One message-passing step: nodes [N, d] x relations [R, d] -> nodes [N, d]
/// (N = graph.num_nodes; see StepRows for the first compact step).
class RelGraphLayer : public Module {
 public:
  ~RelGraphLayer() override = default;

  /// `training` toggles stochastic pieces (RReLU slopes, dropout); `rng`
  /// must be non-null when training.
  virtual Tensor Forward(const SnapshotGraph& graph, const Tensor& nodes,
                         const Tensor& relations, bool training, Rng* rng,
                         const StepRows& rows = {}) const = 0;
};

}  // namespace logcl

#endif  // LOGCL_GRAPH_REL_GRAPH_LAYER_H_
