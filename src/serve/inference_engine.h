// InferenceEngine: a thread-safe serving front-end over EngineSnapshot.
//
// Concurrently submitted queries are coalesced by a micro-batcher: a
// dedicated dispatcher thread collects pending requests until either
// `max_batch_size` are waiting or the oldest request has waited
// `batch_deadline_us`, then scores the whole batch as ONE decoder pass on
// the shared compute thread pool (one query-subgraph encode and one
// ConvTransE decode amortised over the batch). Submitters block on a
// per-request future.
//
// Top-k requests never materialise the full softmax (eval/ranking.h
// TopKSoftmax); full-row requests copy the logits row out of the batch.
//
// Advance(new_facts) builds the successor snapshot copy-on-write and
// publishes it with an atomic shared_ptr swap: batches already scoring keep
// the snapshot they started with, later batches see the new horizon.
//
// Admission control (streaming tier): `max_queue_depth` bounds the pending
// queue — a full queue rejects the submission with a typed kUnavailable
// status instead of queueing — and `admission_deadline_us` sheds queued
// requests that aged past their deadline before scoring started (their
// response carries kUnavailable). Sheds surface as the `logcl.serve.shed`
// counter and EngineStats::shed. Submit's rejection taxonomy: kUnavailable
// = shed (retryable backpressure), kFailedPrecondition = engine shutting
// down, kInvalidArgument = ids out of range or k < 0 (caller bug, not
// load).
// Observability: per-engine counters are available via Snapshot(); the same
// activity feeds the process-wide metrics registry as `logcl.serve.*`
// counters, latency/batch-size histograms and a queue-depth gauge
// (common/observability.h, DESIGN.md §12).

#ifndef LOGCL_SERVE_INFERENCE_ENGINE_H_
#define LOGCL_SERVE_INFERENCE_ENGINE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/observability.h"
#include "common/status.h"
#include "nn/module.h"
#include "serve/engine_snapshot.h"

namespace logcl {

struct EngineOptions {
  /// Flush a batch as soon as this many requests are pending.
  int64_t max_batch_size = 32;
  /// How long the batcher holds an incomplete batch open for stragglers,
  /// measured from the oldest pending request's submission. 0 disables
  /// coalescing (every request is its own batch).
  int64_t batch_deadline_us = 200;
  /// Scoring precision for the engine's snapshots (defaults from
  /// LOGCL_QUANT; see serve/quant.h). kInt8 decodes in fp32, then scores
  /// against the candidate matrix quantized at snapshot build time. Falls
  /// back to fp32 when the model has no query-independent candidates
  /// (global-only configurations).
  ScorePrecision precision = ScorePrecisionFromEnv();
  /// Admission control: most requests allowed to wait in the queue; a full
  /// queue rejects new submissions with kUnavailable. 0 = unbounded (the
  /// pre-streaming behaviour).
  int64_t max_queue_depth = 0;
  /// Deadline-based shedding: a queued request older than this when its
  /// batch forms is answered kUnavailable instead of scored (its seat goes
  /// to a fresher request). 0 = never shed on age.
  int64_t admission_deadline_us = 0;
};

/// Snapshot of the engine's counters (monotonic since construction).
struct EngineStats {
  uint64_t requests = 0;        // queries submitted
  uint64_t batches = 0;         // decoder passes executed
  uint64_t advances = 0;        // snapshot swaps
  uint64_t max_batch = 0;       // largest coalesced batch
  uint64_t peak_queue_depth = 0;  // most requests pending at once
  uint64_t total_latency_us = 0;  // submit -> answer, summed
  uint64_t max_latency_us = 0;
  uint64_t shed = 0;              // rejected by admission control

  double MeanBatchSize() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(requests) /
                              static_cast<double>(batches);
  }
  double MeanLatencyUs() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(total_latency_us) /
                               static_cast<double>(requests);
  }

  /// One-line rendering for logs/benchmarks.
  std::string ToString() const;
};

class InferenceEngine {
 public:
  /// Builds the initial snapshot of `model` at horizon `time` and starts the
  /// dispatcher. Forces eval mode on the model so serving is deterministic.
  /// The model must outlive the engine. Weights must not be written while a
  /// snapshot scores; concurrent reads are allowed (a forward/backward pass
  /// on the model may run beside serving, its optimizer step may not —
  /// wrap that in Pause()/Resume()).
  InferenceEngine(LogClModel* model, int64_t time, EngineOptions options = {});

  /// Drains pending requests, then joins the dispatcher.
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// One answered request: `row` filled for full-row submissions (k == 0),
  /// `topk` for top-k ones. `status` is kUnavailable when the request was
  /// shed by the admission deadline after it had been queued.
  struct EngineResponse {
    Status status = Status::Ok();
    std::vector<float> row;                       // k == 0
    std::vector<std::pair<int64_t, float>> topk;  // k > 0
  };

  /// Typed submission: validates and enqueues the query, returning the
  /// future that will carry its answer (k == 0: the full row; k > 0: the
  /// top k). Rejections are immediate and typed: kInvalidArgument (ids out
  /// of range, k < 0), kFailedPrecondition (engine shutting down),
  /// kUnavailable (queue at max_queue_depth — shed). A deadline shed after
  /// queueing arrives through the future's EngineResponse::status instead.
  Result<std::future<EngineResponse>> Submit(const ServeQuery& query,
                                             int64_t k);

  /// Blocking: the full logits row over all entities for one query,
  /// answered by whichever snapshot is current when its batch executes.
  /// Crashes on rejection (use TryScore where shedding is configured).
  std::vector<float> Score(const ServeQuery& query);

  /// Blocking: top-k (entity, probability) without a full softmax.
  /// Crashes on rejection (use TryTopK where shedding is configured).
  std::vector<std::pair<int64_t, float>> TopK(const ServeQuery& query,
                                              int64_t k);

  /// Typed blocking variants: a shed (at submit or at batch formation)
  /// surfaces as kUnavailable instead of crashing, and TryTopK answers
  /// k < 1 with kInvalidArgument before submitting.
  Result<std::vector<float>> TryScore(const ServeQuery& query);
  Result<std::vector<std::pair<int64_t, float>>> TryTopK(
      const ServeQuery& query, int64_t k);

  /// Quiesces scoring: blocks until the in-flight batch (if any) finishes,
  /// then holds the dispatcher idle — queued requests wait, submissions
  /// still enqueue (and still shed on depth). Weights must not be written
  /// while a snapshot scores; concurrent reads are allowed, so the
  /// streaming session pauses the engine only while an optimizer step
  /// writes the weights its snapshots read. Resume() restarts dispatch.
  void Pause();
  void Resume();

  /// Folds the completed horizon snapshot into a successor (copy-on-write;
  /// see EngineSnapshot::Advance) and atomically publishes it. Safe to call
  /// concurrently with Submit; concurrent Advance calls serialise, each
  /// building on the previously published snapshot.
  void Advance(std::vector<Quadruple> new_facts);

  /// The currently published snapshot / its horizon.
  std::shared_ptr<const EngineSnapshot> snapshot() const;
  int64_t time() const { return snapshot()->time(); }

  /// Point-in-time view of this engine's counters (the registry Snapshot()
  /// convention; the same activity surfaces process-wide as `logcl.serve.*`
  /// counters/histograms in MetricsRegistry::Snapshot(), see DESIGN.md §12).
  EngineStats Snapshot() const;

 private:
  struct Request {
    ServeQuery query;
    int64_t k = 0;  // 0 = full row
    std::chrono::steady_clock::time_point enqueued;
    std::promise<EngineResponse> promise;
  };

  void DispatcherLoop();
  void ProcessBatch(std::vector<Request> batch,
                    const std::shared_ptr<const EngineSnapshot>& snapshot);

  LogClModel* model_;
  EngineOptions options_;

  mutable std::mutex mu_;  // guards queue_, snapshot_, stats_, stopping_,
                           // paused_, in_flight_
  std::condition_variable queue_cv_;
  std::condition_variable idle_cv_;  // signals in_flight_ -> false
  std::deque<Request> queue_;
  std::shared_ptr<const EngineSnapshot> snapshot_;
  EngineStats stats_;
  bool stopping_ = false;
  bool paused_ = false;
  bool in_flight_ = false;  // a batch is scoring outside the lock

  std::mutex advance_mu_;  // serialises copy-on-write snapshot builds
  std::thread dispatcher_;

  // Registry handles (shared across engine instances; interned once).
  Counter* requests_counter_;
  Counter* shed_counter_;
  Counter* batches_counter_;
  Counter* advances_counter_;
  Histogram* batch_size_hist_;
  Histogram* queue_wait_us_hist_;
  Histogram* score_us_hist_;
  Histogram* request_us_hist_;
  Gauge* queue_depth_gauge_;
};

/// Restores a model's parameters from a tensor/checkpoint.h checkpoint
/// (shapes must match the model's configuration) — the serving deploy path:
/// construct the model from config, load the trained weights, wrap in an
/// InferenceEngine. Reads format v1 and v2.
Status LoadModelCheckpoint(Module* model, const std::string& path);

/// Writes a model's parameters to a tensor/checkpoint.h checkpoint (format
/// v2) — the counterpart of LoadModelCheckpoint, used after (possibly
/// distributed) training to hand weights to a serving deploy. Round-trips
/// bitwise: Save then Load restores identical parameter bytes.
Status SaveModelCheckpoint(const Module& model, const std::string& path);

}  // namespace logcl

#endif  // LOGCL_SERVE_INFERENCE_ENGINE_H_
