#include "core/global_encoder.h"

#include <algorithm>

#include "common/logging.h"
#include "common/observability.h"
#include "tensor/ops.h"

namespace logcl {

GlobalEncoder::GlobalEncoder(int64_t dim, GlobalEncoderOptions options,
                             Rng* rng)
    : options_(options),
      aggregator_(options.gcn_kind, options.num_layers, dim, options.dropout,
                  rng),
      w_attention_(dim, 1, rng) {
  AddChild(&aggregator_);
  AddChild(&w_attention_);
}

namespace {

// Packed (s, r, o) edge key for sort+unique dedup: 40 bits per field is
// far beyond any benchmark's id range and collision-free by construction
// (unlike a hash). Using sorted keys also makes the edge order
// deterministic and avoids the per-insert rehash churn of a hash set on
// large anchor unions.
using PackedEdge = unsigned __int128;

inline PackedEdge PackEdge(int64_t s, int64_t r, int64_t o) {
  return (static_cast<PackedEdge>(static_cast<uint64_t>(s)) << 80) |
         (static_cast<PackedEdge>(static_cast<uint64_t>(r)) << 40) |
         static_cast<PackedEdge>(static_cast<uint64_t>(o));
}

constexpr uint64_t kPackMask = (uint64_t{1} << 40) - 1;

Histogram* SubgraphNodesHist() {
  static Histogram* h = Metrics().GetHistogram("logcl.global.subgraph_nodes");
  return h;
}

Histogram* SubgraphEdgesHist() {
  static Histogram* h = Metrics().GetHistogram("logcl.global.subgraph_edges");
  return h;
}

}  // namespace

QuerySubgraph GlobalEncoder::BuildQuerySubgraph(
    const HistoryIndex& history, const std::vector<Quadruple>& queries,
    int64_t num_entities, bool every_entity) const {
  LOGCL_TRACE_SCOPE("global_subgraph_build");
  LOGCL_CHECK(!queries.empty());
  QuerySubgraph sub;
  sub.num_entities = num_entities;
  // Compact ids come from a pass over the entity table, so the node map is
  // ascending and the compact edge order (and CSR order) follows the
  // entity-space edge order. -1 marks entities outside the subgraph.
  std::vector<int64_t> position(static_cast<size_t>(num_entities), -1);
  auto mark = [&](int64_t entity) {
    LOGCL_CHECK_GE(entity, 0);
    LOGCL_CHECK_LT(entity, num_entities);
    position[static_cast<size_t>(entity)] = 0;
  };

  // G'_g1 (the query subjects) and G'_g2 (each (s, r)'s historical answer
  // objects, first-seen order, capped) are the anchors; answers are kept
  // flat in query order for QueryRepresentations.
  std::vector<int64_t> anchors;
  std::vector<int64_t> answers;
  anchors.reserve(queries.size() *
                  static_cast<size_t>(1 + std::max<int64_t>(
                                              0, options_.max_answers_per_query)));
  for (size_t i = 0; i < queries.size(); ++i) {
    const Quadruple& q = queries[i];
    mark(q.subject);
    anchors.push_back(q.subject);
    int64_t kept = 0;
    for (int64_t object :
         history.ObjectsBefore(q.subject, q.relation, q.time)) {
      if (options_.max_answers_per_query > 0 &&
          kept >= options_.max_answers_per_query) {
        break;
      }
      mark(object);
      anchors.push_back(object);
      answers.push_back(object);
      sub.answer_query.push_back(static_cast<int64_t>(i));
      ++kept;
    }
  }
  std::sort(anchors.begin(), anchors.end());
  anchors.erase(std::unique(anchors.begin(), anchors.end()), anchors.end());

  // Expand anchors by their one-hop historical facts; dedup on packed
  // (s, r, o) keys via sort+unique.
  int64_t time = queries.front().time;
  std::vector<PackedEdge> edges;
  if (options_.max_edges_per_anchor > 0) {
    edges.reserve(anchors.size() *
                  static_cast<size_t>(options_.max_edges_per_anchor));
  }
  for (int64_t anchor : anchors) {
    for (const HistoryEdge& edge : history.FactsTouchingBefore(
             anchor, time, options_.max_edges_per_anchor)) {
      mark(edge.neighbor);
      edges.push_back(PackEdge(anchor, edge.relation, edge.neighbor));
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  for (int64_t entity = 0; entity < num_entities; ++entity) {
    int64_t& pos = position[static_cast<size_t>(entity)];
    if (pos < 0 && !every_entity) continue;
    pos = static_cast<int64_t>(sub.node_ids.size());
    sub.node_ids.push_back(entity);
  }
  auto compact = [&](int64_t entity) {
    return position[static_cast<size_t>(entity)];
  };

  SnapshotGraph& graph = sub.graph;
  graph.num_nodes = static_cast<int64_t>(sub.node_ids.size());
  graph.src.reserve(edges.size());
  graph.rel.reserve(edges.size());
  graph.dst.reserve(edges.size());
  sub.entity_src.reserve(edges.size());
  for (PackedEdge key : edges) {
    int64_t s = static_cast<int64_t>(static_cast<uint64_t>(key >> 80));
    int64_t r =
        static_cast<int64_t>(static_cast<uint64_t>(key >> 40) & kPackMask);
    int64_t o = static_cast<int64_t>(static_cast<uint64_t>(key) & kPackMask);
    graph.AddEdge(compact(s), r, compact(o));
    sub.entity_src.push_back(s);
  }
  sub.subject_pos.reserve(queries.size());
  for (const Quadruple& q : queries) {
    sub.subject_pos.push_back(compact(q.subject));
  }
  sub.answer_pos.reserve(answers.size());
  for (int64_t object : answers) sub.answer_pos.push_back(compact(object));
  SubgraphNodesHist()->Record(static_cast<uint64_t>(graph.num_nodes));
  SubgraphEdgesHist()->Record(static_cast<uint64_t>(graph.num_edges()));
  return sub;
}

Tensor GlobalEncoder::Encode(const QuerySubgraph& subgraph,
                             const Tensor& base_entities,
                             const Tensor& base_relations, bool training,
                             Rng* rng) const {
  LOGCL_TRACE_SCOPE("global_encoder");
  StepRows rows{{&subgraph.node_ids, subgraph.num_entities},
                &subgraph.entity_src};
  return aggregator_.Forward(subgraph.graph, base_entities, base_relations,
                             training, rng, rows);
}

Tensor GlobalEncoder::QueryRepresentations(
    const QuerySubgraph& subgraph, const Tensor& encoded,
    const Tensor& base_entities, const std::vector<Quadruple>& queries,
    bool use_attention) const {
  LOGCL_TRACE_SCOPE("global_attention");
  LOGCL_CHECK(!queries.empty());
  LOGCL_CHECK_EQ(subgraph.subject_pos.size(), queries.size());
  LOGCL_CHECK_EQ(encoded.shape().rows(), subgraph.graph.num_nodes);
  int64_t batch = static_cast<int64_t>(queries.size());
  Tensor subject_encoded = ops::IndexSelectRows(encoded, subgraph.subject_pos);

  // Per-query G'_g2 pooling: mean of the encoded historical answers of
  // (s, r) (see header comment). Gathered flat, then scatter-meaned back to
  // one row per query; answer-less queries keep a zero contribution.
  Tensor query_state = subject_encoded;
  if (!subgraph.answer_pos.empty()) {
    Tensor answer_rows = ops::IndexSelectRows(encoded, subgraph.answer_pos);
    Tensor answer_means =
        ops::ScatterMeanRows(answer_rows, subgraph.answer_query, batch);
    query_state = ops::Add(query_state, answer_means);
  }
  if (!use_attention) return query_state;
  // Eq.13-14: beta = sigma(W6 (h_g^Agg + h)), h_g = beta * h_g^Agg.
  std::vector<int64_t> subjects;
  subjects.reserve(queries.size());
  for (const Quadruple& q : queries) subjects.push_back(q.subject);
  Tensor subject_base = ops::IndexSelectRows(base_entities, subjects);
  Tensor beta = ops::Sigmoid(
      w_attention_.Forward(ops::Add(subject_encoded, subject_base)));
  return ops::MulColBroadcast(query_state, beta);
}

}  // namespace logcl
