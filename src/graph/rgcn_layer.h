// R-GCN aggregation layer, the paper's Eq.4:
//   h_o^{l+1} = RReLU( (1/c_o) * sum_{(s,r) -> o} W1 (h_s + r)  +  W2 h_o )
// (the RE-GCN variant: relation embeddings are added to subject messages
// instead of per-relation weight matrices, keeping parameters O(d^2)).

#ifndef LOGCL_GRAPH_RGCN_LAYER_H_
#define LOGCL_GRAPH_RGCN_LAYER_H_

#include "graph/rel_graph_layer.h"

namespace logcl {

class RgcnLayer : public RelGraphLayer {
 public:
  RgcnLayer(int64_t dim, Rng* rng);

  Tensor Forward(const SnapshotGraph& graph, const Tensor& nodes,
                 const Tensor& relations, bool training, Rng* rng,
                 const StepRows& rows = {}) const override;

 private:
  Tensor w_message_;   // W1
  Tensor w_self_loop_; // W2
};

}  // namespace logcl

#endif  // LOGCL_GRAPH_RGCN_LAYER_H_
