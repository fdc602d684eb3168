// Global entity-aware attention encoder (Section III.D).
//
// For a batch of queries at t_q it builds the *historical query subgraph*:
// the union of (1) one-hop historical facts containing each query subject
// and (2) one-hop historical facts containing each historical answer object
// of the query's (s, r) pair — a static multi-relational graph spanning all
// history before t_q. A second (stacked) R-GCN encodes it from the base
// embeddings (the subgraph carries no time information), and a
// query-conditioned gate selects the relevant part (Eq.13-14).
//
// The subgraph is compact: its nodes are numbered 0..n-1 over the entities
// it touches, so the encoder computes n rows, not one per entity. Each row
// is bitwise equal to that entity's row of the same encoder run over the
// whole entity table, forward and backward (graph/rel_graph_layer.h).

#ifndef LOGCL_CORE_GLOBAL_ENCODER_H_
#define LOGCL_CORE_GLOBAL_ENCODER_H_

#include <vector>

#include "common/rng.h"
#include "graph/rel_graph_encoder.h"
#include "graph/snapshot_graph.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "tkg/history_index.h"

namespace logcl {

struct GlobalEncoderOptions {
  GcnKind gcn_kind = GcnKind::kRgcn;
  int64_t num_layers = 2;
  float dropout = 0.2f;
  /// Fan-out cap per anchor entity when sampling the subgraph (most recent
  /// edges are kept); 0 disables the cap.
  int64_t max_edges_per_anchor = 16;
  /// Cap on historical answers expanded per query (first-seen order).
  int64_t max_answers_per_query = 6;
};

/// The historical query subgraph of one query batch, in compact node ids.
struct QuerySubgraph {
  /// Edges in compact ids: graph node i is entity node_ids[i]. Edge order
  /// is sorted by entity-space (s, r, o), hence deterministic.
  SnapshotGraph graph;
  /// Compact -> entity id, strictly ascending: the edge endpoints, the query
  /// subjects and their kept historical answers (every entity when built
  /// with `every_entity`).
  std::vector<int64_t> node_ids;
  /// graph.src as entity ids: the rows the first layer reads from the
  /// entity table.
  std::vector<int64_t> entity_src;
  /// Rows of the entity table the subgraph was built against.
  int64_t num_entities = 0;
  /// Compact id of each query's subject.
  std::vector<int64_t> subject_pos;
  /// Compact ids of the queries' kept historical answers, flat in query
  /// order, and the query each belongs to.
  std::vector<int64_t> answer_pos;
  std::vector<int64_t> answer_query;
};

class GlobalEncoder : public Module {
 public:
  GlobalEncoder(int64_t dim, GlobalEncoderOptions options, Rng* rng);

  /// Samples the historical query subgraph for `queries` at their time
  /// (all queries must share one timestamp). Edges are deduplicated
  /// (sort+unique on packed (s, r, o) keys). With `every_entity` the node
  /// set is the whole entity table (LogCL-G scores candidates against the
  /// encoded matrix).
  QuerySubgraph BuildQuerySubgraph(const HistoryIndex& history,
                                   const std::vector<Quadruple>& queries,
                                   int64_t num_entities,
                                   bool every_entity = false) const;

  /// Message passing over the subgraph from the base embeddings
  /// [num_entities, d]; returns H_g^Agg [n, d], row i for entity
  /// subgraph.node_ids[i].
  Tensor Encode(const QuerySubgraph& subgraph, const Tensor& base_entities,
                const Tensor& base_relations, bool training, Rng* rng) const;

  /// Eq.13-14: per-query gated global representation [B, d]. The paper's
  /// sigma_2 is a per-query scalar gate here (the softmax reading of Eq.13
  /// would normalise over nothing for a single static subgraph).
  ///
  /// The paper encodes one subgraph *per query*; this implementation
  /// encodes the batched union for tractability, so the per-query view is
  /// restored by pooling each query's own G'_g2 anchors (its historical
  /// answers) into the representation:
  ///   h_g = beta * (H^Agg[s] + mean_{o in answers(s, r, <t)} H^Agg[o]).
  /// With `use_attention` false, the gate is dropped (ablation -w/o-eatt).
  /// `encoded` is Encode's output for `subgraph`, built from `queries`.
  Tensor QueryRepresentations(const QuerySubgraph& subgraph,
                              const Tensor& encoded,
                              const Tensor& base_entities,
                              const std::vector<Quadruple>& queries,
                              bool use_attention) const;

  const GlobalEncoderOptions& options() const { return options_; }

 private:
  GlobalEncoderOptions options_;
  RelGraphEncoder aggregator_;
  Linear w_attention_;  // W6 of Eq.13 (d -> 1)
};

}  // namespace logcl

#endif  // LOGCL_CORE_GLOBAL_ENCODER_H_
