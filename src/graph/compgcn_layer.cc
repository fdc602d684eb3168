#include "graph/compgcn_layer.h"

#include "common/logging.h"
#include "tensor/ops.h"

namespace logcl {

CompGcnLayer::CompGcnLayer(int64_t dim, CompGcnComposition composition,
                           Rng* rng)
    : composition_(composition) {
  w_message_ = AddParameter(Tensor::XavierUniform(Shape{dim, dim}, rng));
  w_self_loop_ = AddParameter(Tensor::XavierUniform(Shape{dim, dim}, rng));
}

Tensor CompGcnLayer::Forward(const SnapshotGraph& graph, const Tensor& nodes,
                             const Tensor& relations, bool training,
                             Rng* rng, const StepRows& rows) const {
  Tensor self = ops::MatMul(rows.SelfInput(graph, nodes), w_self_loop_);
  if (graph.empty()) {
    return ops::RRelu(self, training, rng, rows.table);
  }
  ops::EdgeCompose compose = composition_ == CompGcnComposition::kSubtract
                                 ? ops::EdgeCompose::kSubtract
                                 : ops::EdgeCompose::kMultiply;
  Tensor aggregated = ops::FusedRelMessagePassing(
      nodes, relations, w_message_, rows.Src(graph), graph.rel, graph.dst,
      graph.DstCsr(), compose);
  return ops::RRelu(ops::Add(aggregated, self), training, rng, rows.table);
}

}  // namespace logcl
