#include "stream/stream_session.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"
#include "common/observability.h"
#include "tensor/buffer_pool.h"

namespace logcl {

std::string StreamIngestReport::ToString() const {
  std::ostringstream os;
  os << "ingest[t=" << time << "] arrivals=" << arrivals
     << " loss=" << finetune_loss;
  if (drift.count > 0) {
    os << " mrr_stale=" << drift.mrr_stale << " mrr_fresh=" << drift.mrr_fresh;
  }
  os << " rows_written=" << rows_written << " served=" << served
     << " shed=" << shed << " seconds=" << seconds;
  return os.str();
}

StreamSession::StreamSession(LogClModel* model, int64_t start_time,
                             StreamSessionOptions options)
    : model_(model),
      options_(std::move(options)),
      optimizer_(model->Parameters(), options_.adam),
      engine_(model, start_time, options_.engine),
      drift_(options_.drift_window) {
  LOGCL_CHECK_GT(options_.finetune_passes, 0);
  if (!options_.mmap_checkpoint_path.empty()) {
    Status saved =
        checkpoint::Save(model_->Parameters(), options_.mmap_checkpoint_path);
    LOGCL_CHECK(saved.ok()) << saved.ToString();
    Result<checkpoint::MmapCheckpoint> opened =
        checkpoint::Open(options_.mmap_checkpoint_path);
    LOGCL_CHECK(opened.ok()) << opened.status().ToString();
    ckpt_.emplace(std::move(opened).value());
  }
}

std::vector<std::vector<float>> StreamSession::ScoreFacts(
    const EngineSnapshot& snapshot, const std::vector<Quadruple>& facts) {
  std::vector<ServeQuery> queries;
  queries.reserve(facts.size());
  for (const Quadruple& q : facts) {
    queries.push_back(ServeQuery{q.subject, q.relation});
  }
  Tensor scores = snapshot.ScoreBatch(queries);
  int64_t cols = scores.shape().cols();
  std::vector<std::vector<float>> rows(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const float* begin = scores.data().data() + static_cast<int64_t>(i) * cols;
    rows[i].assign(begin, begin + cols);
  }
  return rows;
}

StreamIngestReport StreamSession::IngestSnapshot(
    const std::vector<Quadruple>& facts) {
  uint64_t start = MonotonicNowNs();
  StreamIngestReport report;
  report.time = time();
  report.arrivals = static_cast<int64_t>(facts.size());
  for (const Quadruple& q : facts) {
    LOGCL_CHECK_EQ(q.time, report.time)
        << "IngestSnapshot facts must all sit at the serving horizon";
  }

  // The drift-eval batch: the first eval_queries arrivals, scored against
  // the stale snapshot before anything learns about `time`.
  std::vector<Quadruple> eval_batch;
  if (options_.eval_queries > 0 && !facts.empty()) {
    size_t n = std::min<size_t>(facts.size(),
                                static_cast<size_t>(options_.eval_queries));
    eval_batch.assign(facts.begin(), facts.begin() + n);
  }
  std::shared_ptr<const EngineSnapshot> stale = engine_.snapshot();
  EvalResult stale_eval;
  if (!eval_batch.empty()) {
    uint64_t t0 = MonotonicNowNs();
    stale_eval = EvalScoredFacts(ScoreFacts(*stale, eval_batch), eval_batch);
    report.seconds_eval += static_cast<double>(MonotonicNowNs() - t0) * 1e-9;
  }

  // Fine-tune beside live serving. Forward and backward only read the
  // weights the live snapshot decodes with (gradients, the optimizer state
  // and the model's own history index are the session's alone), so the
  // engine keeps scoring through them; it holds scoring only while each
  // pass's Adam step writes the weights. Submissions keep enqueuing (and
  // shedding on depth) during that pause.
  uint64_t finetune_start = MonotonicNowNs();
  model_->ExtendHistory(facts);
  if (!facts.empty()) {
    std::vector<const SnapshotGraph*> graphs;
    std::vector<int64_t> times;
    graphs.reserve(stale->window().size());
    times.reserve(stale->window().size());
    for (const auto& [t, graph] : stale->window()) {
      times.push_back(t);
      graphs.push_back(graph.get());
    }
    double loss_sum = 0.0;
    for (int64_t pass = 0; pass < options_.finetune_passes; ++pass) {
      optimizer_.ZeroGrad();
      EpochStats step =
          model_->ForwardBackwardOnFacts(facts, graphs, times, report.time);
      engine_.Pause();
      optimizer_.Step();
      engine_.Resume();
      loss_sum = loss_sum + step.loss;
    }
    report.finetune_loss =
        loss_sum / static_cast<double>(options_.finetune_passes);
  }
  if (ckpt_.has_value()) {
    const std::vector<Tensor>& params = optimizer_.parameters();
    for (size_t i = 0; i < params.size(); ++i) {
      Status wrote = ckpt_->WritebackAll(i, params[i]);
      LOGCL_CHECK(wrote.ok()) << wrote.ToString();
      const Shape& shape = params[i].shape();
      report.rows_written += shape.rank() >= 1 ? shape.dim(0) : 1;
    }
    Status flushed = ckpt_->Flush();
    LOGCL_CHECK(flushed.ok()) << flushed.ToString();
  }
  report.seconds_finetune =
      static_cast<double>(MonotonicNowNs() - finetune_start) * 1e-9;

  // Publish the successor snapshot (horizon time+1, rebuilt from the
  // fine-tuned weights), then re-score the same batch on it.
  uint64_t advance_start = MonotonicNowNs();
  engine_.Advance(facts);
  report.seconds_advance =
      static_cast<double>(MonotonicNowNs() - advance_start) * 1e-9;
  if (!eval_batch.empty()) {
    uint64_t t0 = MonotonicNowNs();
    EvalResult fresh_eval = EvalScoredFacts(
        ScoreFacts(*engine_.snapshot(), eval_batch), eval_batch);
    report.seconds_eval += static_cast<double>(MonotonicNowNs() - t0) * 1e-9;
    report.drift = DriftPoint{report.time, stale_eval.mrr, fresh_eval.mrr,
                              static_cast<int64_t>(eval_batch.size())};
    drift_.Add(report.drift);
  }

  EngineStats now = engine_.Snapshot();
  report.served = now.requests - last_stats_.requests;
  report.shed = now.shed - last_stats_.shed;
  last_stats_ = now;
  // History-dependent tensor sizes grow with every ingest and drift into
  // new size classes, and the pool would keep each superseded class until
  // its byte cap. The trim drops the whole pool on every thread, serving
  // workers included, so same-shape buffers (entity x d, parameter-shaped)
  // that serving would have reused are re-allocated after it. The
  // superseded snapshot's tensors are released first so they are dropped
  // too.
  stale.reset();
  TrimBufferPool();
  report.seconds = static_cast<double>(MonotonicNowNs() - start) * 1e-9;
  return report;
}

}  // namespace logcl
