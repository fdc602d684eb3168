#include "graph/rel_graph_encoder.h"

#include "common/logging.h"
#include "common/observability.h"
#include "graph/compgcn_layer.h"
#include "graph/kbgat_layer.h"
#include "graph/rgcn_layer.h"
#include "tensor/ops.h"

namespace logcl {

GcnKind GcnKindFromString(const std::string& name) {
  if (name == "rgcn") return GcnKind::kRgcn;
  if (name == "compgcn_sub") return GcnKind::kCompGcnSub;
  if (name == "compgcn_mult") return GcnKind::kCompGcnMult;
  if (name == "kbgat") return GcnKind::kKbgat;
  LOGCL_CHECK(false) << "unknown GCN kind: " << name;
  return GcnKind::kRgcn;
}

std::string GcnKindToString(GcnKind kind) {
  switch (kind) {
    case GcnKind::kRgcn:
      return "rgcn";
    case GcnKind::kCompGcnSub:
      return "compgcn_sub";
    case GcnKind::kCompGcnMult:
      return "compgcn_mult";
    case GcnKind::kKbgat:
      return "kbgat";
  }
  return "?";
}

std::unique_ptr<RelGraphLayer> MakeRelGraphLayer(GcnKind kind, int64_t dim,
                                                 Rng* rng) {
  switch (kind) {
    case GcnKind::kRgcn:
      return std::make_unique<RgcnLayer>(dim, rng);
    case GcnKind::kCompGcnSub:
      return std::make_unique<CompGcnLayer>(dim, CompGcnComposition::kSubtract,
                                            rng);
    case GcnKind::kCompGcnMult:
      return std::make_unique<CompGcnLayer>(dim, CompGcnComposition::kMultiply,
                                            rng);
    case GcnKind::kKbgat:
      return std::make_unique<KbgatLayer>(dim, rng);
  }
  LOGCL_CHECK(false) << "bad GCN kind";
  return nullptr;
}

RelGraphEncoder::RelGraphEncoder(GcnKind kind, int64_t num_layers, int64_t dim,
                                 float dropout, Rng* rng)
    : kind_(kind), dropout_(dropout) {
  LOGCL_CHECK_GE(num_layers, 1);
  for (int64_t i = 0; i < num_layers; ++i) {
    layers_.push_back(MakeRelGraphLayer(kind, dim, rng));
    AddChild(layers_.back().get());
  }
}

Tensor StepRows::SelfInput(const SnapshotGraph& graph,
                           const Tensor& nodes) const {
  if (table_src == nullptr) {
    LOGCL_CHECK_EQ(nodes.shape().rows(), graph.num_nodes);
    return nodes;
  }
  LOGCL_CHECK_EQ(nodes.shape().rows(), table.table_rows);
  LOGCL_CHECK_EQ(static_cast<int64_t>(table.ids->size()), graph.num_nodes);
  return ops::IndexSelectRows(nodes, *table.ids);
}

Tensor RelGraphEncoder::Forward(const SnapshotGraph& graph, const Tensor& nodes,
                                const Tensor& relations, bool training,
                                Rng* rng, const StepRows& rows) const {
  LOGCL_TRACE_SCOPE("gcn");
  StepRows step = rows;
  Tensor h = nodes;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i]->Forward(graph, h, relations, training, rng, step);
    step.table_src = nullptr;  // later steps read the compact output
    if (i + 1 < layers_.size()) {
      h = ops::Dropout(h, dropout_, training, rng, step.table);
    }
  }
  return h;
}

}  // namespace logcl
