#include "core/logcl_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/observability.h"
#include "eval/ranking.h"
#include "tensor/ops.h"

namespace logcl {

namespace {

// All queries in a batch must share one timestamp (the paper's batch is
// "the number of quadruples in each timestamp").
int64_t BatchTime(const std::vector<Quadruple>& queries) {
  LOGCL_CHECK(!queries.empty());
  int64_t t = queries.front().time;
  for (const Quadruple& q : queries) LOGCL_CHECK_EQ(q.time, t);
  return t;
}

}  // namespace

LogClModel::LogClModel(const TkgDataset* dataset, LogClConfig config)
    : TkgModel(dataset),
      config_(config),
      rng_(config.seed),
      history_(*dataset),
      local_encoder_(config.embedding_dim,
                     dataset->num_relations_with_inverse(), config.local,
                     &rng_),
      global_encoder_(config.embedding_dim, config.global, &rng_),
      contrast_(2 * config.embedding_dim, config.embedding_dim,
                config.contrast, &rng_),
      decoder_(config.embedding_dim, config.decoder, &rng_) {
  LOGCL_CHECK(config.use_local || config.use_global)
      << "at least one encoder must be enabled";
  base_entities_ = AddParameter(Tensor::XavierUniform(
      Shape{dataset->num_entities(), config.embedding_dim}, &rng_));
  base_relations_ = AddParameter(Tensor::XavierUniform(
      Shape{dataset->num_relations_with_inverse(), config.embedding_dim},
      &rng_));
  AddChild(&local_encoder_);
  AddChild(&global_encoder_);
  AddChild(&contrast_);
  AddChild(&decoder_);
}

Tensor LogClModel::BaseEntities(bool training) {
  if (config_.noise_stddev <= 0.0f) return base_entities_;
  // Eval mode pins the evaluation inputs: noise contamination only applies
  // to training forwards, so repeated identical eval calls are bitwise
  // equal (and never advance the RNG stream).
  if (eval_mode_ && !training) return base_entities_;
  Tensor noise = Tensor::RandomNormal(base_entities_.shape(),
                                      config_.noise_stddev, &rng_);
  return ops::Add(base_entities_, noise);
}

LogClModel::BatchOutput LogClModel::ForwardBatch(
    const std::vector<Quadruple>& queries, bool training) {
  int64_t t = BatchTime(queries);
  Tensor h0 = BaseEntities(training);
  LocalEncoderOutput local;
  if (config_.use_local) {
    local = local_encoder_.Encode(dataset(), t, h0, base_relations_, training,
                                  &rng_);
  }
  return ForwardPhase(queries, h0, local, training);
}

LogClModel::ScoreParts LogClModel::ScorePhase(
    const std::vector<Quadruple>& queries, const Tensor& h0,
    const LocalEncoderOutput& local, const HistoryIndex& history,
    bool training, Rng* rng, bool decode_only) const {
  BatchTime(queries);  // all queries must share one timestamp
  std::vector<int64_t> relation_ids;
  relation_ids.reserve(queries.size());
  for (const Quadruple& q : queries) relation_ids.push_back(q.relation);

  ScoreParts parts;

  // --- Local branch (Eq.9-11; evolution shared across phases). ---
  if (config_.use_local) {
    parts.local_query = local_encoder_.QueryRepresentations(
        local, queries, config_.use_entity_attention);
  }

  // --- Global branch (Eq.12-14). ---
  Tensor global_encoded;
  if (config_.use_global) {
    // LogCL-G scores candidates against the encoded matrix, so its node
    // set is every entity; otherwise only the subgraph's rows are encoded.
    QuerySubgraph subgraph = global_encoder_.BuildQuerySubgraph(
        history, queries, dataset().num_entities(),
        /*every_entity=*/!config_.use_local);
    global_encoded = global_encoder_.Encode(subgraph, h0, base_relations_,
                                            training, rng);
    parts.global_query = global_encoder_.QueryRepresentations(
        subgraph, global_encoded, h0, queries, config_.use_entity_attention);
  }

  // --- Fusion (Eq.19). The lambda trade-off applies to the *query* vector
  // fed into ConvTransE; candidates are scored against the local evolved
  // entity matrix (Eq.18's h_tq term carries no hat — it is the local-side
  // representation). ---
  Tensor fused_query;
  Tensor candidates;
  Tensor relation_matrix;
  if (config_.use_local && config_.use_global) {
    float lambda = config_.lambda;
    fused_query = ops::Add(ops::Scale(parts.local_query, lambda),
                           ops::Scale(parts.global_query, 1.0f - lambda));
    candidates = local.entities;
    relation_matrix = local.relations;
  } else if (config_.use_local) {
    fused_query = parts.local_query;
    candidates = local.entities;
    relation_matrix = local.relations;
  } else {
    fused_query = parts.global_query;
    candidates = global_encoded;
    relation_matrix = base_relations_;  // LogCL-G: static relation embedding
  }
  parts.query_relations = ops::IndexSelectRows(relation_matrix, relation_ids);

  // --- Decoding (Eq.18). ---
  if (decode_only) {
    // ConvTransE::Score is exactly Decode + candidate dot products, so the
    // decoded vectors here match the ones inside a full Score bitwise.
    parts.decoded =
        decoder_.Decode(fused_query, parts.query_relations, training, rng);
    return parts;
  }
  parts.scores = decoder_.Score(fused_query, parts.query_relations,
                                candidates, training, rng);
  return parts;
}

LogClModel::BatchOutput LogClModel::ForwardPhase(
    const std::vector<Quadruple>& queries, const Tensor& h0,
    const LocalEncoderOutput& local, bool training) {
  ScoreParts parts =
      ScorePhase(queries, h0, local, history_, training, &rng_);
  std::vector<int64_t> targets;
  targets.reserve(queries.size());
  for (const Quadruple& q : queries) targets.push_back(q.object);

  // --- Entity-prediction loss (Eq.20). ---
  BatchOutput out;
  out.scores = parts.scores;
  out.loss = ops::CrossEntropyWithLogits(out.scores, targets);
  if (training) out.task = out.loss.at(0);

  // --- Local-global query contrast (Eq.15-17, Eq.21). ---
  if (training && config_.use_contrast && config_.use_local &&
      config_.use_global) {
    std::vector<int64_t> relation_ids;
    relation_ids.reserve(queries.size());
    for (const Quadruple& q : queries) relation_ids.push_back(q.relation);
    Tensor local_features =
        ops::ConcatCols({parts.local_query, parts.query_relations});
    Tensor global_features = ops::ConcatCols(
        {parts.global_query,
         ops::IndexSelectRows(base_relations_, relation_ids)});
    Tensor z_local = contrast_.Project(local_features);
    Tensor z_global = contrast_.Project(global_features);
    ContrastTerms terms = contrast_.LossTerms(z_local, z_global, targets);
    out.loss = ops::Add(out.loss, terms.total);
    out.contrast = terms.total.at(0);
    if (terms.lg.defined()) out.lg = terms.lg.at(0);
    if (terms.gl.defined()) out.gl = terms.gl.at(0);
    if (terms.ll.defined()) out.ll = terms.ll.at(0);
    if (terms.gg.defined()) out.gg = terms.gg.at(0);
  }
  return out;
}

LogClModel::EvolutionState LogClModel::PrecomputeEvolution(int64_t t) const {
  LOGCL_CHECK(eval_mode_ || config_.noise_stddev <= 0.0f)
      << "evolution precompute requires deterministic eval inputs; call "
         "SetEvalMode(true) on models configured with noise injection";
  NoGradGuard no_grad;
  EvolutionState state;
  state.time = t;
  state.base_entities = base_entities_;
  if (config_.use_local) {
    state.local = local_encoder_.Encode(dataset(), t, base_entities_,
                                        base_relations_, /*training=*/false,
                                        /*rng=*/nullptr);
    state.candidates_t = ops::Transpose(state.local.entities);
  }
  return state;
}

LogClModel::EvolutionState LogClModel::PrecomputeEvolution(
    const std::vector<const SnapshotGraph*>& graphs,
    const std::vector<int64_t>& times, int64_t t) const {
  LOGCL_CHECK(eval_mode_ || config_.noise_stddev <= 0.0f)
      << "evolution precompute requires deterministic eval inputs; call "
         "SetEvalMode(true) on models configured with noise injection";
  NoGradGuard no_grad;
  EvolutionState state;
  state.time = t;
  state.base_entities = base_entities_;
  if (config_.use_local) {
    state.local = local_encoder_.EncodeSequence(
        graphs, times, t, base_entities_, base_relations_,
        /*training=*/false, /*rng=*/nullptr);
    state.candidates_t = ops::Transpose(state.local.entities);
  }
  return state;
}

Tensor LogClModel::ScoreWithEvolution(const std::vector<Quadruple>& queries,
                                      const EvolutionState& evolution,
                                      const HistoryIndex& history) const {
  NoGradGuard no_grad;
  if (evolution.candidates_t.defined()) {
    // ConvTransE::Score's MatMul(Decode, Transpose(E)) with the transpose
    // taken once per state: every row is bitwise the same.
    return ops::MatMul(DecodeWithEvolution(queries, evolution, history),
                       evolution.candidates_t);
  }
  ScoreParts parts =
      ScorePhase(queries, evolution.base_entities, evolution.local, history,
                 /*training=*/false, /*rng=*/nullptr);
  return parts.scores;
}

Tensor LogClModel::DecodeWithEvolution(const std::vector<Quadruple>& queries,
                                       const EvolutionState& evolution,
                                       const HistoryIndex& history) const {
  NoGradGuard no_grad;
  ScoreParts parts =
      ScorePhase(queries, evolution.base_entities, evolution.local, history,
                 /*training=*/false, /*rng=*/nullptr, /*decode_only=*/true);
  return parts.decoded;
}

std::vector<std::vector<float>> LogClModel::ScoreQueries(
    const std::vector<Quadruple>& queries) {
  NoGradGuard no_grad;
  BatchOutput out = ForwardBatch(queries, /*training=*/false);
  std::vector<std::vector<float>> scores;
  scores.reserve(queries.size());
  int64_t num_entities = dataset().num_entities();
  const std::vector<float>& data = out.scores.data();
  for (size_t i = 0; i < queries.size(); ++i) {
    auto begin = data.begin() + static_cast<int64_t>(i) * num_entities;
    scores.emplace_back(begin, begin + num_entities);
  }
  return scores;
}

EpochStats LogClModel::TrainEpoch(AdamOptimizer* optimizer) {
  LOGCL_TRACE_SCOPE("train_epoch");
  uint64_t epoch_start = MonotonicNowNs();
  EpochStats epoch;
  for (int64_t t : dataset().SplitTimestamps(Split::kTrain)) {
    if (t == 0) continue;  // no history yet
    epoch.AccumulateStep(TrainStep(t, optimizer));
  }
  epoch.FinalizeMeans();
  epoch.seconds_total =
      static_cast<double>(MonotonicNowNs() - epoch_start) * 1e-9;
  return epoch;
}

double LogClModel::TrainOnTimestamp(int64_t t, AdamOptimizer* optimizer) {
  return TrainStep(t, optimizer).loss;
}

EpochStats LogClModel::TrainStep(int64_t t, AdamOptimizer* optimizer) {
  LOGCL_TRACE_SCOPE("train_step");
  EpochStats step;
  step.steps = 1;  // every visited timestamp counts toward the epoch mean
  const std::vector<Quadruple>& facts = dataset().FactsAt(t);
  if (facts.empty()) return step;
  uint64_t step_start = MonotonicNowNs();
  optimizer->ZeroGrad();
  step = ForwardBackwardOnFacts(facts, t);
  {
    LOGCL_TRACE_SCOPE("optimizer");
    uint64_t optimizer_start = MonotonicNowNs();
    step.grad_norm = optimizer->ClipGradNorm(config_.grad_clip_norm);
    optimizer->Step();
    step.seconds_optimizer =
        static_cast<double>(MonotonicNowNs() - optimizer_start) * 1e-9;
  }
  step.seconds_total =
      static_cast<double>(MonotonicNowNs() - step_start) * 1e-9;
  return step;
}

EpochStats LogClModel::ForwardBackwardOnFacts(
    const std::vector<Quadruple>& facts, int64_t t) {
  EpochStats step;
  step.steps = 1;  // every visited timestamp counts toward the epoch mean
  if (facts.empty()) return step;

  Tensor h0 = BaseEntities(/*training=*/true);
  LocalEncoderOutput local;
  if (config_.use_local) {
    LOGCL_TRACE_SCOPE("local_evolution");
    uint64_t local_start = MonotonicNowNs();
    local = local_encoder_.Encode(dataset(), t, h0, base_relations_,
                                  /*training=*/true, &rng_);
    step.seconds_local =
        static_cast<double>(MonotonicNowNs() - local_start) * 1e-9;
  }
  return RunTrainingPhases(facts, h0, local, std::move(step));
}

EpochStats LogClModel::ForwardBackwardOnFacts(
    const std::vector<Quadruple>& facts,
    const std::vector<const SnapshotGraph*>& graphs,
    const std::vector<int64_t>& times, int64_t t) {
  EpochStats step;
  step.steps = 1;
  if (facts.empty()) return step;

  Tensor h0 = BaseEntities(/*training=*/true);
  LocalEncoderOutput local;
  if (config_.use_local) {
    LOGCL_TRACE_SCOPE("local_evolution");
    uint64_t local_start = MonotonicNowNs();
    local = local_encoder_.EncodeSequence(graphs, times, t, h0,
                                          base_relations_,
                                          /*training=*/true, &rng_);
    step.seconds_local =
        static_cast<double>(MonotonicNowNs() - local_start) * 1e-9;
  }
  return RunTrainingPhases(facts, h0, local, std::move(step));
}

EpochStats LogClModel::RunTrainingPhases(const std::vector<Quadruple>& facts,
                                         const Tensor& h0,
                                         const LocalEncoderOutput& local,
                                         EpochStats step) {
  // Two-phase propagation (Section III.F): the original query set and the
  // inverse query set are scored in separate forward phases, so the
  // entity-aware attention of one phase never observes the answer side of
  // the other. The query-independent snapshot evolution is shared between
  // the phases; both phase losses feed one optimization step.
  Tensor loss;
  int phases = 0;
  double task = 0.0, contrast = 0.0, lg = 0.0, gl = 0.0, ll = 0.0, gg = 0.0;
  uint64_t forward_start = MonotonicNowNs();
  if (config_.propagation != QueryDirection::kInverseOnly) {
    LOGCL_TRACE_SCOPE("forward_phase");
    BatchOutput out = ForwardPhase(facts, h0, local, /*training=*/true);
    loss = out.loss;
    task += out.task;
    contrast += out.contrast;
    lg += out.lg;
    gl += out.gl;
    ll += out.ll;
    gg += out.gg;
    ++phases;
  }
  if (config_.propagation != QueryDirection::kForwardOnly) {
    LOGCL_TRACE_SCOPE("forward_phase");
    std::vector<Quadruple> inverse;
    inverse.reserve(facts.size());
    for (const Quadruple& q : facts) {
      inverse.push_back(InverseOf(q, dataset().num_base_relations()));
    }
    BatchOutput out = ForwardPhase(inverse, h0, local, /*training=*/true);
    loss = loss.defined() ? ops::Add(loss, out.loss) : out.loss;
    task += out.task;
    contrast += out.contrast;
    lg += out.lg;
    gl += out.gl;
    ll += out.ll;
    gg += out.gg;
    ++phases;
  }
  if (phases == 0) return step;
  step.seconds_forward =
      static_cast<double>(MonotonicNowNs() - forward_start) * 1e-9;
  double inv_phases = 1.0 / static_cast<double>(phases);
  step.loss = loss.at(0) * inv_phases;
  step.loss_task = task * inv_phases;
  step.loss_contrast = contrast * inv_phases;
  step.loss_lg = lg * inv_phases;
  step.loss_gl = gl * inv_phases;
  step.loss_ll = ll * inv_phases;
  step.loss_gg = gg * inv_phases;
  {
    LOGCL_TRACE_SCOPE("backward");
    uint64_t backward_start = MonotonicNowNs();
    Backward(loss);
    step.seconds_backward =
        static_cast<double>(MonotonicNowNs() - backward_start) * 1e-9;
  }
  return step;
}

void LogClModel::ExtendHistory(const std::vector<Quadruple>& facts) {
  if (facts.empty()) return;
  history_.AddFacts(facts);
}

std::vector<std::pair<int64_t, float>> LogClModel::PredictTopK(
    const Quadruple& query, int64_t k) {
  std::vector<std::vector<float>> scores = ScoreQueries({query});
  // Partial selection over the logits; probabilities match a full softmax
  // bitwise for the selected k (see TopKSoftmax).
  const std::vector<float>& row = scores[0];
  return TopKSoftmax(row.data(), static_cast<int64_t>(row.size()), k);
}

}  // namespace logcl
