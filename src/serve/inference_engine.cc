#include "serve/inference_engine.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/logging.h"
#include "eval/ranking.h"
#include "tensor/checkpoint.h"

namespace logcl {

namespace {

uint64_t ElapsedUs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

std::string EngineStats::ToString() const {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "requests=%llu shed=%llu batches=%llu advances=%llu "
                "mean_batch=%.2f max_batch=%llu peak_queue=%llu "
                "mean_latency_us=%.1f max_latency_us=%llu",
                static_cast<unsigned long long>(requests),
                static_cast<unsigned long long>(shed),
                static_cast<unsigned long long>(batches),
                static_cast<unsigned long long>(advances), MeanBatchSize(),
                static_cast<unsigned long long>(max_batch),
                static_cast<unsigned long long>(peak_queue_depth),
                MeanLatencyUs(),
                static_cast<unsigned long long>(max_latency_us));
  return buffer;
}

InferenceEngine::InferenceEngine(LogClModel* model, int64_t time,
                                 EngineOptions options)
    : model_(model),
      options_(options),
      requests_counter_(Metrics().GetCounter("logcl.serve.requests")),
      shed_counter_(Metrics().GetCounter("logcl.serve.shed")),
      batches_counter_(Metrics().GetCounter("logcl.serve.batches")),
      advances_counter_(Metrics().GetCounter("logcl.serve.advances")),
      batch_size_hist_(Metrics().GetHistogram("logcl.serve.batch_size")),
      queue_wait_us_hist_(Metrics().GetHistogram("logcl.serve.queue_wait_us")),
      score_us_hist_(Metrics().GetHistogram("logcl.serve.score_us")),
      request_us_hist_(Metrics().GetHistogram("logcl.serve.request_us")),
      queue_depth_gauge_(Metrics().GetGauge("logcl.serve.queue_depth")) {
  LOGCL_CHECK(model != nullptr);
  LOGCL_CHECK_GE(options_.max_batch_size, 1);
  LOGCL_CHECK_GE(options_.batch_deadline_us, 0);
  model_->SetEvalMode(true);
  snapshot_ = EngineSnapshot::Build(model_, time, options_.precision);
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

InferenceEngine::~InferenceEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    queue_cv_.notify_all();
  }
  dispatcher_.join();
}

Result<std::future<InferenceEngine::EngineResponse>> InferenceEngine::Submit(
    const ServeQuery& query, int64_t k) {
  LOGCL_RETURN_IF_ERROR(ValidateServeQuery(model_->dataset(), query));
  if (k < 0) {
    return Status::InvalidArgument("k must be >= 0, got " + std::to_string(k));
  }
  Request request;
  request.query = query;
  request.k = k;
  request.enqueued = std::chrono::steady_clock::now();
  std::future<EngineResponse> future = request.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return Status::FailedPrecondition("Submit after engine shutdown");
    }
    if (options_.max_queue_depth > 0 &&
        static_cast<int64_t>(queue_.size()) >= options_.max_queue_depth) {
      ++stats_.shed;
      shed_counter_->Increment();
      return Status::Unavailable("queue full: admission control shed");
    }
    queue_.push_back(std::move(request));
    stats_.peak_queue_depth =
        std::max<uint64_t>(stats_.peak_queue_depth, queue_.size());
    queue_depth_gauge_->Set(static_cast<int64_t>(queue_.size()));
    queue_cv_.notify_all();
  }
  return future;
}

std::vector<float> InferenceEngine::Score(const ServeQuery& query) {
  Result<std::vector<float>> result = TryScore(query);
  LOGCL_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

std::vector<std::pair<int64_t, float>> InferenceEngine::TopK(
    const ServeQuery& query, int64_t k) {
  Result<std::vector<std::pair<int64_t, float>>> result = TryTopK(query, k);
  LOGCL_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

Result<std::vector<float>> InferenceEngine::TryScore(
    const ServeQuery& query) {
  Result<std::future<EngineResponse>> submitted = Submit(query, /*k=*/0);
  if (!submitted.ok()) return submitted.status();
  EngineResponse response = submitted.value().get();
  if (!response.status.ok()) return response.status;
  return std::move(response.row);
}

Result<std::vector<std::pair<int64_t, float>>> InferenceEngine::TryTopK(
    const ServeQuery& query, int64_t k) {
  if (k < 1) {
    return Status::InvalidArgument("top-k needs k >= 1, got " +
                                   std::to_string(k));
  }
  Result<std::future<EngineResponse>> submitted = Submit(query, k);
  if (!submitted.ok()) return submitted.status();
  EngineResponse response = submitted.value().get();
  if (!response.status.ok()) return response.status;
  return std::move(response.topk);
}

void InferenceEngine::Pause() {
  std::unique_lock<std::mutex> lock(mu_);
  paused_ = true;
  queue_cv_.notify_all();  // kick the dispatcher out of its coalescing wait
  idle_cv_.wait(lock, [&] { return !in_flight_; });
}

void InferenceEngine::Resume() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = false;
  queue_cv_.notify_all();
}

void InferenceEngine::Advance(std::vector<Quadruple> new_facts) {
  // Serialise builders so every Advance extends the latest published
  // snapshot; readers are never blocked by the (expensive) build.
  std::lock_guard<std::mutex> advance_lock(advance_mu_);
  std::shared_ptr<const EngineSnapshot> current = snapshot();
  std::shared_ptr<const EngineSnapshot> next =
      current->Advance(std::move(new_facts));
  std::lock_guard<std::mutex> lock(mu_);
  snapshot_ = std::move(next);  // in-flight batches hold the old shared_ptr
  ++stats_.advances;
  advances_counter_->Increment();
}

std::shared_ptr<const EngineSnapshot> InferenceEngine::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_;
}

EngineStats InferenceEngine::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void InferenceEngine::DispatcherLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    queue_cv_.wait(lock, [&] {
      return stopping_ || (!paused_ && !queue_.empty());
    });
    if (stopping_ && queue_.empty()) return;  // drained
    if (paused_ && !stopping_) continue;
    if (queue_.empty()) continue;
    // Deadline-bounded coalescing: hold the batch open for stragglers until
    // the oldest request ages out or the batch fills. Shutdown and Pause
    // flush immediately.
    size_t target = static_cast<size_t>(options_.max_batch_size);
    auto deadline = queue_.front().enqueued +
                    std::chrono::microseconds(options_.batch_deadline_us);
    while (!stopping_ && !paused_ && queue_.size() < target &&
           std::chrono::steady_clock::now() < deadline) {
      queue_cv_.wait_until(lock, deadline, [&] {
        return stopping_ || paused_ || queue_.size() >= target;
      });
    }
    if (paused_ && !stopping_) continue;  // leave requests queued
    // Age out requests past the admission deadline: their seats go to
    // fresher requests and they answer kUnavailable without being scored.
    std::vector<Request> shed;
    if (options_.admission_deadline_us > 0) {
      auto now = std::chrono::steady_clock::now();
      auto max_age = std::chrono::microseconds(options_.admission_deadline_us);
      while (!queue_.empty() && now - queue_.front().enqueued > max_age) {
        shed.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      stats_.shed += shed.size();
    }
    std::vector<Request> batch;
    size_t take = std::min(queue_.size(), target);
    batch.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    queue_depth_gauge_->Set(static_cast<int64_t>(queue_.size()));
    std::shared_ptr<const EngineSnapshot> snapshot = snapshot_;
    in_flight_ = !batch.empty();
    lock.unlock();
    if (!shed.empty()) {
      shed_counter_->Add(shed.size());
      for (Request& r : shed) {
        EngineResponse response;
        response.status =
            Status::Unavailable("request aged past admission deadline");
        r.promise.set_value(std::move(response));
      }
    }
    if (!batch.empty()) ProcessBatch(std::move(batch), snapshot);
    lock.lock();
    if (in_flight_) {
      in_flight_ = false;
      idle_cv_.notify_all();
    }
  }
}

void InferenceEngine::ProcessBatch(
    std::vector<Request> batch,
    const std::shared_ptr<const EngineSnapshot>& snapshot) {
  std::vector<ServeQuery> queries;
  queries.reserve(batch.size());
  for (const Request& r : batch) {
    // Time spent coalescing before scoring starts.
    queue_wait_us_hist_->Record(ElapsedUs(r.enqueued));
    queries.push_back(r.query);
  }
  batch_size_hist_->Record(batch.size());
  uint64_t score_start = MonotonicNowNs();
  Tensor scores = snapshot->precision() == ScorePrecision::kInt8
                      ? snapshot->ScoreBatchQuantized(queries)
                      : snapshot->ScoreBatch(queries);
  score_us_hist_->Record((MonotonicNowNs() - score_start) / 1000);
  const int64_t num_entities = scores.shape().cols();
  const float* data = scores.data().data();

  std::vector<EngineResponse> results(batch.size());
  uint64_t batch_latency_total = 0;
  uint64_t batch_latency_max = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const float* row = data + static_cast<int64_t>(i) * num_entities;
    if (batch[i].k > 0) {
      results[i].topk = TopKSoftmax(row, num_entities, batch[i].k);
    } else {
      results[i].row.assign(row, row + num_entities);
    }
    uint64_t latency = ElapsedUs(batch[i].enqueued);
    request_us_hist_->Record(latency);
    batch_latency_total += latency;
    batch_latency_max = std::max(batch_latency_max, latency);
  }
  requests_counter_->Add(batch.size());
  batches_counter_->Increment();

  // Account before fulfilling the promises so a requester that reads
  // Snapshot() right after its answer arrives always sees its own request
  // counted.
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.batches;
    stats_.requests += batch.size();
    stats_.max_batch = std::max<uint64_t>(stats_.max_batch, batch.size());
    stats_.total_latency_us += batch_latency_total;
    stats_.max_latency_us = std::max(stats_.max_latency_us, batch_latency_max);
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].promise.set_value(std::move(results[i]));
  }
}

Status LoadModelCheckpoint(Module* model, const std::string& path) {
  LOGCL_CHECK(model != nullptr);
  std::vector<Tensor> parameters = model->Parameters();
  return checkpoint::Load(path, &parameters);
}

Status SaveModelCheckpoint(const Module& model, const std::string& path) {
  return checkpoint::Save(model.Parameters(), path);
}

}  // namespace logcl
