#include "graph/rgcn_layer.h"

#include "common/logging.h"
#include "tensor/ops.h"

namespace logcl {

RgcnLayer::RgcnLayer(int64_t dim, Rng* rng) {
  w_message_ = AddParameter(Tensor::XavierUniform(Shape{dim, dim}, rng));
  w_self_loop_ = AddParameter(Tensor::XavierUniform(Shape{dim, dim}, rng));
}

Tensor RgcnLayer::Forward(const SnapshotGraph& graph, const Tensor& nodes,
                          const Tensor& relations, bool training, Rng* rng,
                          const StepRows& rows) const {
  Tensor self = ops::MatMul(rows.SelfInput(graph, nodes), w_self_loop_);
  if (graph.empty()) {
    return ops::RRelu(self, training, rng, rows.table);
  }
  Tensor aggregated = ops::FusedRelMessagePassing(
      nodes, relations, w_message_, rows.Src(graph), graph.rel, graph.dst,
      graph.DstCsr(), ops::EdgeCompose::kAdd);
  return ops::RRelu(ops::Add(aggregated, self), training, rng, rows.table);
}

}  // namespace logcl
