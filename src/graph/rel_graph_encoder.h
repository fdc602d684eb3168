// Stacked relation-aware GNN encoder with a pluggable aggregator kind —
// the "RGCN_Local" / "RGCN_Global" blocks of the paper (2 layers by
// default, dropout 0.2 between layers, swap-able per Table V).

#ifndef LOGCL_GRAPH_REL_GRAPH_ENCODER_H_
#define LOGCL_GRAPH_REL_GRAPH_ENCODER_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/rel_graph_layer.h"

namespace logcl {

/// Aggregator families evaluated in Table V.
enum class GcnKind {
  kRgcn,
  kCompGcnSub,
  kCompGcnMult,
  kKbgat,
};

/// Parses "rgcn" / "compgcn_sub" / "compgcn_mult" / "kbgat".
GcnKind GcnKindFromString(const std::string& name);
std::string GcnKindToString(GcnKind kind);

/// Creates one layer of the given kind.
std::unique_ptr<RelGraphLayer> MakeRelGraphLayer(GcnKind kind, int64_t dim,
                                                 Rng* rng);

class RelGraphEncoder : public Module {
 public:
  RelGraphEncoder(GcnKind kind, int64_t num_layers, int64_t dim, float dropout,
                  Rng* rng);

  /// Applies the stacked layers; `training` toggles dropout/RReLU noise.
  /// `rows` is the first step's layout (StepRows); later steps of a compact
  /// graph run on the compact rows the first one returns.
  Tensor Forward(const SnapshotGraph& graph, const Tensor& nodes,
                 const Tensor& relations, bool training, Rng* rng,
                 const StepRows& rows = {}) const;

  int64_t num_layers() const { return static_cast<int64_t>(layers_.size()); }
  GcnKind kind() const { return kind_; }

 private:
  GcnKind kind_;
  float dropout_;
  std::vector<std::unique_ptr<RelGraphLayer>> layers_;
};

}  // namespace logcl

#endif  // LOGCL_GRAPH_REL_GRAPH_ENCODER_H_
