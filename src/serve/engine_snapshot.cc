#include "serve/engine_snapshot.h"

#include <algorithm>
#include <tuple>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/stringpiece.h"

namespace logcl {

Status ValidateServeQuery(const TkgDataset& dataset, const ServeQuery& query) {
  if (query.subject < 0 || query.subject >= dataset.num_entities() ||
      query.relation < 0 ||
      query.relation >= dataset.num_relations_with_inverse()) {
    return Status::InvalidArgument(StrFormat(
        "query ids out of range: subject=%lld relation=%lld",
        static_cast<long long>(query.subject),
        static_cast<long long>(query.relation)));
  }
  return Status::Ok();
}

Status ValidateAdvanceFact(const TkgDataset& dataset, const Quadruple& fact) {
  if (fact.subject < 0 || fact.subject >= dataset.num_entities() ||
      fact.object < 0 || fact.object >= dataset.num_entities() ||
      fact.relation < 0 || fact.relation >= dataset.num_base_relations()) {
    return Status::InvalidArgument(StrFormat(
        "advance fact ids out of range: subject=%lld relation=%lld "
        "object=%lld",
        static_cast<long long>(fact.subject),
        static_cast<long long>(fact.relation),
        static_cast<long long>(fact.object)));
  }
  return Status::Ok();
}

namespace {

// Non-owning alias for graphs whose lifetime is managed elsewhere (the
// model's dataset caches).
std::shared_ptr<const SnapshotGraph> Unowned(const SnapshotGraph* graph) {
  return std::shared_ptr<const SnapshotGraph>(graph,
                                              [](const SnapshotGraph*) {});
}

// Per-row int8 quantisation of the frozen candidate matrix [E, d].
Int8Matrix QuantizeCandidates(const Tensor& entities) {
  LOGCL_CHECK(entities.defined());
  LOGCL_CHECK_EQ(entities.shape().rank(), 2);
  return QuantizeInt8PerRow(entities.data().data(), entities.shape().rows(),
                            entities.shape().cols());
}

}  // namespace

std::shared_ptr<const EngineSnapshot> EngineSnapshot::Build(
    const LogClModel* model, int64_t time, ScorePrecision precision) {
  LOGCL_CHECK(model != nullptr);
  LOGCL_CHECK_GE(time, 0);
  LOGCL_CHECK(model->eval_mode() || model->config().noise_stddev <= 0.0f)
      << "serving snapshots require deterministic eval inputs; call "
         "SetEvalMode(true) first";
  const TkgDataset& dataset = model->dataset();
  auto snapshot = std::shared_ptr<EngineSnapshot>(new EngineSnapshot());
  snapshot->model_ = model;
  snapshot->time_ = time;
  snapshot->history_ = std::make_shared<const HistoryIndex>(
      dataset, /*max_time_exclusive=*/time);

  int64_t history_length = model->config().local.history_length;
  int64_t start = std::max<int64_t>(0, time - history_length);
  std::vector<const SnapshotGraph*> graphs;
  std::vector<int64_t> times;
  for (int64_t s = start; s < time; ++s) {
    const SnapshotGraph& graph = dataset.SnapshotGraphAt(s);
    snapshot->window_.emplace_back(s, Unowned(&graph));
    graphs.push_back(&graph);
    times.push_back(s);
  }
  snapshot->evolution_ = model->PrecomputeEvolution(graphs, times, time);
  // Quantize the frozen candidate matrix. Only the local evolution yields a
  // query-independent candidate set; global-only models score against a
  // per-batch encode, so they fall back to fp32.
  if (precision == ScorePrecision::kInt8 && model->config().use_local) {
    snapshot->int8_ = QuantizeCandidates(snapshot->evolution_.local.entities);
  }
  return snapshot;
}

std::vector<Quadruple> EngineSnapshot::AtHorizon(
    const std::vector<ServeQuery>& queries) const {
  LOGCL_CHECK(!queries.empty());
  std::vector<Quadruple> quads;
  quads.reserve(queries.size());
  for (const ServeQuery& q : queries) {
    quads.push_back(Quadruple{q.subject, q.relation, /*object=*/0, time_});
  }
  return quads;
}

Tensor EngineSnapshot::ScoreBatch(
    const std::vector<ServeQuery>& queries) const {
  return model_->ScoreWithEvolution(AtHorizon(queries), evolution_,
                                    *history_);
}

Tensor EngineSnapshot::ScoreBatchQuantized(
    const std::vector<ServeQuery>& queries) const {
  LOGCL_CHECK(precision() == ScorePrecision::kInt8)
      << "ScoreBatchQuantized requires an int8 snapshot; use ScoreBatch";
  Tensor decoded =
      model_->DecodeWithEvolution(AtHorizon(queries), evolution_, *history_);
  const int64_t batch = decoded.shape().rows();
  const int64_t dim = decoded.shape().cols();
  const int64_t num_entities = int8_.rows;
  const float* dd = decoded.data().data();
  Tensor scores = Tensor::Uninitialized(Shape{batch, num_entities});
  float* out = scores.mutable_data().data();
  // Rows are independent; each worker writes its own rows.
  // Grain keeps small batches serial (the per-row work is num_entities
  // short dot products — far below a shard's worth at serving scale).
  int64_t grain = std::max<int64_t>(
      1, (int64_t{1} << 15) / std::max<int64_t>(1, num_entities * dim));
  ParallelFor(0, batch, grain, [&](int64_t b0, int64_t b1) {
    for (int64_t b = b0; b < b1; ++b) {
      ScoreQuantizedRow(int8_, dd + b * dim, dim, out + b * num_entities);
    }
  });
  return scores;
}

std::shared_ptr<const EngineSnapshot> EngineSnapshot::Advance(
    std::vector<Quadruple> new_facts) const {
  const TkgDataset& dataset = model_->dataset();
  for (const Quadruple& q : new_facts) {
    LOGCL_CHECK_EQ(q.time, time_) << "Advance expects the completed horizon "
                                     "snapshot (facts at time() exactly)";
    Status valid = ValidateAdvanceFact(dataset, q);
    LOGCL_CHECK(valid.ok()) << valid.ToString();
  }
  // Canonical (time, s, r, o) dataset order, so the extended index and the
  // horizon graph are bit-for-bit what a from-scratch dataset build yields.
  std::sort(new_facts.begin(), new_facts.end(),
            [](const Quadruple& a, const Quadruple& b) {
              return std::tie(a.subject, a.relation, a.object) <
                     std::tie(b.subject, b.relation, b.object);
            });

  auto next = std::shared_ptr<EngineSnapshot>(new EngineSnapshot());
  next->model_ = model_;
  next->time_ = time_ + 1;

  auto extended = std::make_shared<HistoryIndex>(*history_);
  extended->AddFacts(new_facts);
  next->history_ = std::move(extended);

  // Rotate the evolution window: drop timestamps that fall out of
  // [time_ + 1 - m, time_ + 1), append the completed horizon snapshot.
  int64_t history_length = model_->config().local.history_length;
  int64_t start = std::max<int64_t>(0, next->time_ - history_length);
  for (const auto& [s, graph] : window_) {
    if (s >= start) next->window_.emplace_back(s, graph);
  }
  next->window_.emplace_back(
      time_, std::make_shared<const SnapshotGraph>(
                 SnapshotGraph::FromFactsWithInverses(
                     new_facts, dataset.num_entities(),
                     dataset.num_base_relations())));

  std::vector<const SnapshotGraph*> graphs;
  std::vector<int64_t> times;
  graphs.reserve(next->window_.size());
  times.reserve(next->window_.size());
  for (const auto& [s, graph] : next->window_) {
    graphs.push_back(graph.get());
    times.push_back(s);
  }
  next->evolution_ = model_->PrecomputeEvolution(graphs, times, next->time_);
  // The candidate matrix changed with the window: requantize at the same
  // precision this snapshot serves.
  if (!int8_.empty()) {
    next->int8_ = QuantizeCandidates(next->evolution_.local.entities);
  }
  return next;
}

}  // namespace logcl
