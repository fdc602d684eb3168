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

}  // namespace

SnapshotGraph GlobalEncoder::BuildQuerySubgraph(
    const HistoryIndex& history, const std::vector<Quadruple>& queries,
    int64_t num_entities) const {
  LOGCL_TRACE_SCOPE("global_subgraph_build");
  LOGCL_CHECK(!queries.empty());
  SnapshotGraph graph;
  graph.num_nodes = num_entities;
  std::vector<int64_t> anchors;
  anchors.reserve(queries.size() *
                  static_cast<size_t>(1 + std::max<int64_t>(
                                              0, options_.max_answers_per_query)));
  for (const Quadruple& q : queries) {
    // G'_g1: the query subject.
    anchors.push_back(q.subject);
    // G'_g2: historical answer objects of (s, r).
    std::vector<int64_t> answers =
        history.ObjectsBefore(q.subject, q.relation, q.time);
    int64_t kept = 0;
    for (int64_t object : answers) {
      if (options_.max_answers_per_query > 0 &&
          kept >= options_.max_answers_per_query) {
        break;
      }
      anchors.push_back(object);
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
    LOGCL_CHECK_LT(anchor, num_entities);
    for (const HistoryEdge& edge : history.FactsTouchingBefore(
             anchor, time, options_.max_edges_per_anchor)) {
      edges.push_back(PackEdge(anchor, edge.relation, edge.neighbor));
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  graph.src.reserve(edges.size());
  graph.rel.reserve(edges.size());
  graph.dst.reserve(edges.size());
  for (PackedEdge key : edges) {
    graph.AddEdge(static_cast<int64_t>(static_cast<uint64_t>(key >> 80)),
                  static_cast<int64_t>(static_cast<uint64_t>(key >> 40) &
                                       kPackMask),
                  static_cast<int64_t>(static_cast<uint64_t>(key) &
                                       kPackMask));
  }
  return graph;
}

Tensor GlobalEncoder::Encode(const SnapshotGraph& graph,
                             const Tensor& base_entities,
                             const Tensor& base_relations, bool training,
                             Rng* rng) const {
  LOGCL_TRACE_SCOPE("global_encoder");
  return aggregator_.Forward(graph, base_entities, base_relations, training,
                             rng);
}

Tensor GlobalEncoder::QueryRepresentations(
    const Tensor& encoded, const Tensor& base_entities,
    const std::vector<Quadruple>& queries, const HistoryIndex& history,
    bool use_attention) const {
  LOGCL_TRACE_SCOPE("global_attention");
  LOGCL_CHECK(!queries.empty());
  int64_t batch = static_cast<int64_t>(queries.size());
  std::vector<int64_t> subjects;
  subjects.reserve(queries.size());
  for (const Quadruple& q : queries) subjects.push_back(q.subject);
  Tensor subject_encoded = ops::IndexSelectRows(encoded, subjects);

  // Per-query G'_g2 pooling: mean of the encoded historical answers of
  // (s, r) (see header comment). Gathered flat, then scatter-meaned back to
  // one row per query; answer-less queries keep a zero contribution.
  std::vector<int64_t> flat_answers;
  std::vector<int64_t> owning_query;
  for (int64_t i = 0; i < batch; ++i) {
    const Quadruple& q = queries[static_cast<size_t>(i)];
    std::vector<int64_t> answers =
        history.ObjectsBefore(q.subject, q.relation, q.time);
    int64_t kept = 0;
    for (int64_t object : answers) {
      if (options_.max_answers_per_query > 0 &&
          kept >= options_.max_answers_per_query) {
        break;
      }
      flat_answers.push_back(object);
      owning_query.push_back(i);
      ++kept;
    }
  }
  Tensor query_state = subject_encoded;
  if (!flat_answers.empty()) {
    Tensor answer_rows = ops::IndexSelectRows(encoded, flat_answers);
    Tensor answer_means = ops::ScatterMeanRows(answer_rows, owning_query,
                                               batch);
    query_state = ops::Add(query_state, answer_means);
  }
  if (!use_attention) return query_state;
  // Eq.13-14: beta = sigma(W6 (h_g^Agg + h)), h_g = beta * h_g^Agg.
  Tensor subject_base = ops::IndexSelectRows(base_entities, subjects);
  Tensor beta = ops::Sigmoid(
      w_attention_.Forward(ops::Add(subject_encoded, subject_base)));
  return ops::MulColBroadcast(query_state, beta);
}

}  // namespace logcl
