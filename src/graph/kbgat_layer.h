// KBGAT-style attention aggregation (Nathani et al. 2019), the third
// Table V swap-in: per-edge attention logits from the (message, receiver)
// pair, softmax-normalised over each receiver's incoming edges, then an
// attention-weighted sum plus self-loop.
//
//   m_e      = W1 (h_s + r)                       (edge message)
//   logit_e  = LeakyReLU( a^T [m_e || W2 h_o] )
//   alpha_e  = segment-softmax over dst(e)
//   h_o'     = RReLU( sum_e alpha_e * m_e + W2 h_o )

#ifndef LOGCL_GRAPH_KBGAT_LAYER_H_
#define LOGCL_GRAPH_KBGAT_LAYER_H_

#include "graph/rel_graph_layer.h"

namespace logcl {

class KbgatLayer : public RelGraphLayer {
 public:
  KbgatLayer(int64_t dim, Rng* rng);

  Tensor Forward(const SnapshotGraph& graph, const Tensor& nodes,
                 const Tensor& relations, bool training, Rng* rng,
                 const StepRows& rows = {}) const override;

 private:
  Tensor w_message_;
  Tensor w_self_loop_;
  Tensor attention_;  // [2*dim, 1] scoring vector `a`
};

}  // namespace logcl

#endif  // LOGCL_GRAPH_KBGAT_LAYER_H_
