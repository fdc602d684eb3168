// LogCL (Chen et al., ICDE 2024): local-global history-aware contrastive
// learning for TKG extrapolation.
//
// Composition (Fig.3):
//   - base entity / relation embeddings H_0, R_0 (optionally perturbed by
//     Gaussian noise to study robustness, Fig.2/5),
//   - LocalEncoder  (Section III.C, Eq.2-11),
//   - GlobalEncoder (Section III.D, Eq.12-14),
//   - ContrastModule (Section III.E, Eq.15-17),
//   - ConvTransE decoder with the lambda-fusion of Eq.18-19,
//   - two-phase forward propagation (Section III.F) over original and
//     inverse query sets.
//
// Every ablation of Tables IV/V/VII and Figs.6-9 is a configuration switch.

#ifndef LOGCL_CORE_LOGCL_MODEL_H_
#define LOGCL_CORE_LOGCL_MODEL_H_

#include <cmath>  // perfbench/src/serve_paper.cc reaches <cmath> through here
#include <string>
#include <utility>
#include <vector>

#include "core/contrast.h"
#include "core/global_encoder.h"
#include "core/local_encoder.h"
#include "core/tkg_model.h"
#include "nn/convtranse.h"
#include "tkg/history_index.h"

namespace logcl {

struct LogClConfig {
  int64_t embedding_dim = 32;
  LocalEncoderOptions local;
  GlobalEncoderOptions global;
  ContrastOptions contrast;
  ConvTransEOptions decoder;

  /// Eq.19 trade-off. Following the paper's reading of Fig.8 ("a larger
  /// lambda indicates a higher proportion of the local encoder"), `lambda`
  /// weights the LOCAL representation; (1 - lambda) weights the global one.
  /// The paper's optimum is 0.9 on all datasets.
  float lambda = 0.9f;

  // Ablation switches (Table IV).
  bool use_local = true;              // off => "LogCL-G"
  bool use_global = true;             // off => "LogCL-L"
  bool use_entity_attention = true;   // off => "-w/o-eatt"
  bool use_contrast = true;           // off => "-w/o-cl"

  /// Two-phase propagation control (Table VII).
  QueryDirection propagation = QueryDirection::kBoth;

  /// Stddev of N(0, s^2) noise added to the base entity embeddings on every
  /// forward pass (train and eval), simulating contaminated inputs.
  float noise_stddev = 0.0f;

  float grad_clip_norm = 1.0f;
  uint64_t seed = 7;
};

class LogClModel : public TkgModel {
 public:
  /// `dataset` must outlive the model.
  LogClModel(const TkgDataset* dataset, LogClConfig config);

  std::string name() const override { return "LogCL"; }

  std::vector<std::vector<float>> ScoreQueries(
      const std::vector<Quadruple>& queries) override;

  EpochStats TrainEpoch(AdamOptimizer* optimizer) override;

  double TrainOnTimestamp(int64_t t, AdamOptimizer* optimizer) override;

  /// Top-k (entity, probability) predictions for one query (case study,
  /// Table VI). Probabilities equal softmax over all entities but are
  /// computed via partial selection (eval/ranking.h TopKSoftmax): the full
  /// softmax row is never materialised.
  std::vector<std::pair<int64_t, float>> PredictTopK(const Quadruple& query,
                                                     int64_t k);

  /// Eval-mode switch. When set, evaluation-path forwards (ScoreQueries and
  /// the serving entry points below) skip the configured noise injection so
  /// repeated identical calls are bitwise equal; training forwards still
  /// perturb. Off by default: the Fig.2/5 noise-robustness experiments rely
  /// on contaminated *evaluation* inputs. The serving engine always sets it.
  void SetEvalMode(bool eval_mode) { eval_mode_ = eval_mode; }
  bool eval_mode() const { return eval_mode_; }

  /// The query-independent half of a forward pass, frozen for serving: the
  /// base entity matrix plus the local evolution at time `time` (Eq.2-8 and
  /// the per-snapshot attention inputs of Eq.9-11). Const and deterministic;
  /// requires eval mode when noise injection is configured.
  struct EvolutionState {
    int64_t time = -1;
    Tensor base_entities;      // H_0 [E, d]
    LocalEncoderOutput local;  // empty when the local branch is disabled
    // local.entities transposed to [d, E]: the candidate matrix every query
    // is scored against, fixed for the life of the state, so it is laid
    // out once here instead of once per scored batch. Undefined when the
    // local branch is disabled (LogCL-G scores against a per-batch encode).
    Tensor candidates_t;
  };

  /// Runs the evolution over the dataset's snapshots preceding `t` (exactly
  /// what ScoreQueries does internally for a batch at `t`).
  EvolutionState PrecomputeEvolution(int64_t t) const;

  /// Same over an explicit snapshot window (`graphs[i]` at `times[i]`, all
  /// < t) — the serving engine's Advance path, whose newest snapshots are
  /// not part of the model's dataset.
  EvolutionState PrecomputeEvolution(
      const std::vector<const SnapshotGraph*>& graphs,
      const std::vector<int64_t>& times, int64_t t) const;

  /// Scores one batch of same-timestamp queries against every entity given a
  /// precomputed evolution and a history index; returns logits [B, E],
  /// bitwise identical to ScoreQueries on the same state. With the local
  /// branch enabled this is DecodeWithEvolution times the state's
  /// candidates_t (ConvTransE::Score's product, minus its per-call
  /// transpose); LogCL-G scores against its per-batch global encode. Const
  /// and safe to call from concurrent threads; `history` substitutes for
  /// the model's own index so serving can extend history online.
  Tensor ScoreWithEvolution(const std::vector<Quadruple>& queries,
                            const EvolutionState& evolution,
                            const HistoryIndex& history) const;

  /// The decode-only prefix of ScoreWithEvolution: the [B, d] decoded query
  /// representations that are dot-producted against the candidate entity
  /// matrix (ConvTransE::Decode output). Bitwise identical to the decode
  /// stage inside ScoreWithEvolution — eval-mode ConvTransE is
  /// deterministic — so fp32 serving multiplies these by candidates_t and
  /// int8 serving (serve/quant.h) scores them against quantized candidates.
  Tensor DecodeWithEvolution(const std::vector<Quadruple>& queries,
                             const EvolutionState& evolution,
                             const HistoryIndex& history) const;

  const LogClConfig& config() const { return config_; }

  /// The forward/backward portion of one training step on an explicit fact
  /// batch at timestamp `t` (two-phase propagation + Backward), WITHOUT the
  /// optimizer interaction: gradients accumulate into whatever the
  /// parameters' grads already hold, and no clip/step runs. This is the
  /// data-parallel entry point (src/dist/dist_trainer.h): each rank calls it
  /// on its shard after ZeroGrad, then the shards' gradients are summed by
  /// AllReduceSum before one shared clip+step. Returns the step's loss
  /// components (steps == 1; empty `facts` contributes nothing and runs no
  /// backward). Consumes the model RNG exactly as TrainEpoch would for the
  /// same batch — see rng_state()/set_rng_state for replaying shards.
  EpochStats ForwardBackwardOnFacts(const std::vector<Quadruple>& facts,
                                    int64_t t);

  /// Same, but with the local evolution computed over an explicit snapshot
  /// window (`graphs[i]` at `times[i]`, ascending, all < t) instead of the
  /// dataset's own snapshots — the streaming fine-tune entry, whose newest
  /// snapshots are not part of any TkgDataset. Bitwise-identical to the
  /// dataset overload when the window equals the dataset's trailing
  /// snapshots (LocalEncoder::Encode delegates to EncodeSequence).
  EpochStats ForwardBackwardOnFacts(
      const std::vector<Quadruple>& facts,
      const std::vector<const SnapshotGraph*>& graphs,
      const std::vector<int64_t>& times, int64_t t);

  /// Extends the model's own history index with `facts` plus inverses (all
  /// at or beyond the index's maximum time) — the continual-learning step
  /// of StreamSession::IngestSnapshot. Serving never reads this index (each
  /// EngineSnapshot owns its own), so it may run while snapshots score.
  void ExtendHistory(const std::vector<Quadruple>& facts);

  /// The training RNG stream, exposed so a single process can replay the
  /// per-rank streams of a distributed run (dropout consumption depends on
  /// batch size, so virtual ranks need independent streams). Rng is a small
  /// copyable value.
  Rng rng_state() const { return rng_; }
  void set_rng_state(const Rng& rng) { rng_ = rng; }

 private:
  struct BatchOutput {
    Tensor scores;  // [B, E] logits
    Tensor loss;    // scalar: L_tkg + L_cl
    // Component values of `loss` for EpochStats (read off the graph nodes;
    // filled only by training forwards).
    double task = 0.0;      // L_tkg (Eq.20)
    double contrast = 0.0;  // combined L_cl
    double lg = 0.0, gl = 0.0, ll = 0.0, gg = 0.0;  // raw Eq.17 terms
  };

  /// Everything ScorePhase produces: the logits plus the intermediate query
  /// representations the contrastive loss consumes during training.
  struct ScoreParts {
    Tensor scores;           // [B, E] logits (unset when decode_only)
    Tensor decoded;          // [B, d] decoder output (decode_only runs)
    Tensor local_query;      // [B, d] when use_local
    Tensor global_query;     // [B, d] when use_global
    Tensor query_relations;  // [B, d] rows of the fused relation matrix
  };

  /// The shared scoring pipeline (Eq.9-19) for one batch of same-timestamp
  /// queries: query representations, lambda-fusion, ConvTransE decode.
  /// Const — every mutable interaction is parameterised: `history` supplies
  /// the historical answer sets and `rng` is only consumed when training.
  /// `decode_only` stops after ConvTransE::Decode (fills `decoded`, leaves
  /// `scores` unset) — the reduced-precision serving path's entry.
  ScoreParts ScorePhase(const std::vector<Quadruple>& queries,
                        const Tensor& base_entities,
                        const LocalEncoderOutput& local,
                        const HistoryIndex& history, bool training, Rng* rng,
                        bool decode_only = false) const;

  /// One propagation phase for a batch of same-timestamp queries. The
  /// (query-independent) local evolution is computed by the caller and
  /// shared across phases; `local` may be empty when the local branch is
  /// disabled.
  BatchOutput ForwardPhase(const std::vector<Quadruple>& queries,
                           const Tensor& base_entities,
                           const LocalEncoderOutput& local, bool training);

  /// Full forward pass for one batch (base embeddings + evolution + one
  /// phase); used by scoring.
  BatchOutput ForwardBatch(const std::vector<Quadruple>& queries,
                           bool training);

  /// One optimizer step on the facts of timestamp `t`, with per-component
  /// losses, grad-norm and phase timings. `steps` is 1 even when the
  /// timestamp is empty (TrainEpoch's historical mean denominator counts
  /// every visited timestamp).
  EpochStats TrainStep(int64_t t, AdamOptimizer* optimizer);

  /// The two-phase forward + backward shared by both ForwardBackwardOnFacts
  /// overloads, given an already-computed local evolution. `step` carries
  /// the local-phase timing accumulated by the caller.
  EpochStats RunTrainingPhases(const std::vector<Quadruple>& facts,
                               const Tensor& base_entities,
                               const LocalEncoderOutput& local,
                               EpochStats step);

  /// Base entity matrix, noise-injected when configured (skipped for
  /// non-training forwards in eval mode).
  Tensor BaseEntities(bool training);

  LogClConfig config_;
  bool eval_mode_ = false;
  Rng rng_;
  HistoryIndex history_;
  Tensor base_entities_;   // H_0 [E, d]
  Tensor base_relations_;  // R_0 [2R, d]
  LocalEncoder local_encoder_;
  GlobalEncoder global_encoder_;
  ContrastModule contrast_;
  ConvTransE decoder_;
};

}  // namespace logcl

#endif  // LOGCL_CORE_LOGCL_MODEL_H_
