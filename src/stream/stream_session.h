// StreamSession: the unified streaming continual-learning API.
//
// A session owns the whole serve-while-learning loop around one LogCL model:
//
//   queries  ──► InferenceEngine (micro-batching + admission control)
//   facts(t) ──► IngestSnapshot:
//                  1. staleness eval — score the arrivals on the CURRENT
//                     snapshot (horizon t, which has not seen t's facts);
//                  2. ExtendHistory — the model's global history index
//                     absorbs the arrivals in place (serving reads each
//                     snapshot's own index, never this one);
//                  3. fine-tune — ZeroGrad, ForwardBackwardOnFacts over the
//                     engine's own evolution window, then Adam's Step
//                     under Pause()/Resume(), once per pass;
//                  4. writeback — every parameter is copied into the mmap
//                     checkpoint (when configured) and flushed;
//                  5. Advance — the engine publishes the copy-on-write
//                     successor snapshot at horizon t+1, rebuilt from the
//                     fine-tuned weights;
//                  6. freshness eval — the SAME arrivals re-score on the
//                     new snapshot; (stale, fresh) MRR feeds the rolling
//                     DriftTracker (eval/drift.h);
//                  7. TrimBufferPool — drops the whole pool on every
//                     thread, serving workers included, so the history-
//                     dependent sizes this ingest superseded do not pile
//                     up until the pool's byte cap; same-shape buffers
//                     are re-allocated on their next use.
//
// Weights must not be written while a snapshot scores; concurrent reads are
// allowed. So query traffic keeps flowing for the whole ingest except each
// fine-tune pass's optimizer step, during which submissions still enqueue
// (and still shed on queue depth) but do not score. Queries answered during
// forward and backward see the pre-ingest weights; those answered between
// the step and the Advance publish see the new weights over the previous
// horizon's evolution. The caller interleaves Score/TopK/Submit with
// IngestSnapshot from any threads; IngestSnapshot itself must be called
// from one thread at a time (one logical fact stream).

#ifndef LOGCL_STREAM_STREAM_SESSION_H_
#define LOGCL_STREAM_STREAM_SESSION_H_

#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/logcl_model.h"
#include "eval/drift.h"
#include "serve/inference_engine.h"
#include "tensor/checkpoint.h"
#include "tensor/optimizer.h"
#include "tkg/quadruple.h"

namespace logcl {

struct StreamSessionOptions {
  /// Serving front-end knobs (admission control lives here:
  /// max_queue_depth / admission_deadline_us).
  EngineOptions engine;

  /// Fine-tune optimizer hyperparameters (no gradient clipping runs on the
  /// streaming path).
  AdamOptions adam;

  /// Fine-tune passes over each arrived snapshot (each pass is one optimizer
  /// step).
  int64_t finetune_passes = 1;

  /// Cap on the arrivals used as drift-eval queries per ingest (the first N
  /// arrivals; 0 disables drift evaluation entirely).
  int64_t eval_queries = 128;

  /// Trailing advances covered by the DriftTracker's rolling means.
  int64_t drift_window = 8;

  /// When non-empty: the session saves a v2 checkpoint here at construction
  /// and writes the fine-tuned parameters back into it (mmap writeback +
  /// flush) after every ingest.
  std::string mmap_checkpoint_path;
};

/// What one IngestSnapshot did.
struct StreamIngestReport {
  int64_t time = 0;          // horizon the facts arrived at
  int64_t arrivals = 0;      // facts ingested
  double finetune_loss = 0;  // mean loss over finetune_passes
  DriftPoint drift;          // count == 0 when drift eval is disabled
  // Parameter rows persisted (dim 0; a rank-1 tensor's elements; 0 without
  // a checkpoint).
  int64_t rows_written = 0;
  double seconds = 0;        // wall time of the whole ingest
  // Wall-time split of `seconds` (drift evals / fine-tune incl. history
  // extension + writeback / snapshot advance) so regressions in one
  // phase are visible without a profiler.
  double seconds_eval = 0;
  double seconds_finetune = 0;
  double seconds_advance = 0;
  // Serving activity since the previous ingest (engine counter deltas).
  uint64_t served = 0;
  uint64_t shed = 0;

  std::string ToString() const;
};

class StreamSession {
 public:
  /// Builds the serving snapshot at `start_time` and starts the engine. The
  /// model must outlive the session and must not be trained or mutated
  /// elsewhere while the session lives — the session is the model's only
  /// writer. Weights must not be written while a snapshot scores;
  /// concurrent reads are allowed, so the session pauses the engine only
  /// for each optimizer step.
  StreamSession(LogClModel* model, int64_t start_time,
                StreamSessionOptions options = {});

  /// Admission-controlled query entry points (forwarders to the engine; see
  /// InferenceEngine for the rejection taxonomy).
  Result<std::vector<float>> Score(const ServeQuery& query) {
    return engine_.TryScore(query);
  }
  Result<std::vector<std::pair<int64_t, float>>> TopK(const ServeQuery& query,
                                                      int64_t k) {
    return engine_.TryTopK(query, k);
  }
  Result<std::future<InferenceEngine::EngineResponse>> Submit(
      const ServeQuery& query, int64_t k) {
    return engine_.Submit(query, k);
  }

  /// Ingests the completed horizon's facts (all at time()): staleness eval,
  /// fine-tune (engine paused only for each optimizer step), checkpoint
  /// writeback, snapshot advance, freshness eval. Serial with itself;
  /// concurrent with queries.
  StreamIngestReport IngestSnapshot(const std::vector<Quadruple>& facts);

  /// The horizon queries are currently answered at (facts for exactly this
  /// timestamp are what IngestSnapshot expects next).
  int64_t time() const { return engine_.time(); }

  InferenceEngine& engine() { return engine_; }
  const DriftTracker& drift() const { return drift_; }

 private:
  /// Scores `facts` as object-prediction queries on `snapshot`, returning
  /// one row per fact.
  static std::vector<std::vector<float>> ScoreFacts(
      const EngineSnapshot& snapshot, const std::vector<Quadruple>& facts);

  LogClModel* model_;
  StreamSessionOptions options_;
  AdamOptimizer optimizer_;
  InferenceEngine engine_;
  DriftTracker drift_;
  std::optional<checkpoint::MmapCheckpoint> ckpt_;
  EngineStats last_stats_;  // for per-ingest serving deltas
};

}  // namespace logcl

#endif  // LOGCL_STREAM_STREAM_SESSION_H_
