#include "graph/kbgat_layer.h"

#include "common/logging.h"
#include "tensor/ops.h"

namespace logcl {

namespace {
constexpr float kAttentionLeak = 0.2f;
}  // namespace

KbgatLayer::KbgatLayer(int64_t dim, Rng* rng) {
  w_message_ = AddParameter(Tensor::XavierUniform(Shape{dim, dim}, rng));
  w_self_loop_ = AddParameter(Tensor::XavierUniform(Shape{dim, dim}, rng));
  attention_ = AddParameter(Tensor::XavierUniform(Shape{2 * dim, 1}, rng));
}

Tensor KbgatLayer::Forward(const SnapshotGraph& graph, const Tensor& nodes,
                           const Tensor& relations, bool training, Rng* rng,
                           const StepRows& rows) const {
  Tensor self = ops::MatMul(rows.SelfInput(graph, nodes), w_self_loop_);
  if (graph.empty()) {
    return ops::RRelu(self, training, rng, rows.table);
  }
  // The attention needs the materialized per-edge messages, so only the
  // gather+compose+matmul front is fused; softmax/scatter read the cached
  // CSR layout.
  Tensor messages =
      ops::EdgeMessages(nodes, relations, w_message_, rows.Src(graph),
                        graph.rel, ops::EdgeCompose::kAdd);
  Tensor receivers = ops::IndexSelectRows(self, graph.dst);
  Tensor logits = ops::LeakyRelu(
      ops::MatMul(ops::ConcatCols({messages, receivers}), attention_),
      kAttentionLeak);
  Tensor alpha = ops::SegmentSoftmax(logits, graph.DstCsr());
  Tensor aggregated = ops::ScatterAddRows(
      ops::MulColBroadcast(messages, alpha), graph.DstCsr());
  return ops::RRelu(ops::Add(aggregated, self), training, rng, rows.table);
}

}  // namespace logcl
