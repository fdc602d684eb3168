// CompGCN-style aggregation (Vashishth et al. 2020), the Table V swap-ins:
// messages are compositions of subject and relation embeddings,
//   sub  : W1 (h_s - r)
//   mult : W1 (h_s * r)
// aggregated by in-degree mean plus a W2 self-loop, RReLU-activated.
// (The node-aggregation core of CompGCN; per-direction weights and the
// relation-update branch are not needed for the Table V comparison and are
// folded into the shared W1.)

#ifndef LOGCL_GRAPH_COMPGCN_LAYER_H_
#define LOGCL_GRAPH_COMPGCN_LAYER_H_

#include "graph/rel_graph_layer.h"

namespace logcl {

/// Composition operator applied to (h_s, r).
enum class CompGcnComposition { kSubtract, kMultiply };

class CompGcnLayer : public RelGraphLayer {
 public:
  CompGcnLayer(int64_t dim, CompGcnComposition composition, Rng* rng);

  Tensor Forward(const SnapshotGraph& graph, const Tensor& nodes,
                 const Tensor& relations, bool training, Rng* rng,
                 const StepRows& rows = {}) const override;

 private:
  CompGcnComposition composition_;
  Tensor w_message_;
  Tensor w_self_loop_;
};

}  // namespace logcl

#endif  // LOGCL_GRAPH_COMPGCN_LAYER_H_
