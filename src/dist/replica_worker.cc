#include "dist/replica_worker.h"

#include <algorithm>
#include <utility>

#include "common/observability.h"
#include "dist/protocol.h"
#include "eval/ranking.h"
#include "tensor/buffer_pool.h"

namespace logcl {
namespace dist {
namespace {

/// Poll tick for accept/read so Stop() takes effect promptly.
constexpr int64_t kServeTickMs = 250;
/// Connections answered at once; a router holds two per worker. Further
/// connections are closed on accept until one ends.
constexpr size_t kMaxConnections = 8;

Counter* RequestsCounter() {
  static Counter* c = Metrics().GetCounter("logcl.dist.worker_requests");
  return c;
}
Histogram* RequestUsHist() {
  static Histogram* h = Metrics().GetHistogram("logcl.dist.worker_request_us");
  return h;
}
Counter* AdvancesCounter() {
  static Counter* c = Metrics().GetCounter("logcl.dist.worker_advances");
  return c;
}

std::vector<uint8_t> AckHeader(MsgType type) {
  WireWriter writer;
  writer.PutU32(static_cast<uint32_t>(type));
  return writer.TakeBuffer();
}

// Decodes a query batch; ids are held to the bounds of ValidateServeQuery.
Status ReadQueries(WireReader* reader, const TkgDataset& dataset,
                   std::vector<ServeQuery>* queries) {
  uint64_t batch = 0;
  LOGCL_RETURN_IF_ERROR(reader->GetU64(&batch));
  if (batch > (1u << 20)) {
    return Status::InvalidArgument("oversized score batch");
  }
  queries->resize(static_cast<size_t>(batch));
  for (ServeQuery& q : *queries) {
    LOGCL_RETURN_IF_ERROR(reader->GetI64(&q.subject));
    LOGCL_RETURN_IF_ERROR(reader->GetI64(&q.relation));
    LOGCL_RETURN_IF_ERROR(ValidateServeQuery(dataset, q));
  }
  return Status::Ok();
}


}  // namespace

ReplicaWorker::ReplicaWorker(const LogClModel* model,
                             ReplicaWorkerOptions options)
    : model_(model), options_(std::move(options)) {}

ReplicaWorker::~ReplicaWorker() { Stop(); }

Status ReplicaWorker::Start() {
  const int64_t num_entities = model_->dataset().num_entities();
  entity_begin_ = options_.entity_begin;
  entity_end_ =
      options_.entity_end < 0 ? num_entities : options_.entity_end;
  if (entity_begin_ < 0 || entity_begin_ >= entity_end_ ||
      entity_end_ > num_entities) {
    return Status::InvalidArgument(
        "entity range [" + std::to_string(entity_begin_) + ", " +
        std::to_string(entity_end_) + ") invalid for " +
        std::to_string(num_entities) + " entities");
  }
  // Workers score with fp32 ScoreBatch, so no int8 candidates are built.
  active_ = EngineSnapshot::Build(model_, options_.horizon,
                                  ScorePrecision::kFp32);
  Result<Listener> listener = Listener::Open(options_.listen_address);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener).value();
  address_ = listener_.bound_address();
  return Status::Ok();
}

Status ReplicaWorker::Serve() {
  Status status = Status::Ok();
  while (!stop_.load(std::memory_order_relaxed)) {
    JoinConnections(/*all=*/false);
    Result<Connection> accepted = listener_.Accept(kServeTickMs);
    if (!accepted.ok()) {
      if (IsTimeout(accepted.status())) continue;  // idle tick
      status = accepted.status();
      break;
    }
    if (connections_.size() >= kMaxConnections) continue;  // closes it
    ConnectionThread& slot = connections_.emplace_back();
    slot.thread = std::thread(
        [this, &slot, conn = std::move(accepted).value()]() mutable {
          // A dropped client ends only its own thread; that is not a
          // worker failure.
          HandleConnection(std::move(conn));
          slot.done.store(true, std::memory_order_release);
        });
  }
  stop_.store(true, std::memory_order_relaxed);
  JoinConnections(/*all=*/true);
  return status;
}

void ReplicaWorker::JoinConnections(bool all) {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (all || it->done.load(std::memory_order_acquire)) {
      it->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

std::shared_ptr<const EngineSnapshot> ReplicaWorker::Active() {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return active_;
}

Status ReplicaWorker::HandleConnection(Connection conn) {
  conn.set_io_timeout_ms(kServeTickMs);
  std::vector<uint8_t> request;
  while (!stop_.load(std::memory_order_relaxed)) {
    Status status = conn.RecvFrame(&request);
    if (!status.ok()) {
      if (IsTimeout(status)) continue;  // idle between requests
      return status;                    // peer closed or died
    }
    uint64_t start_ns = MonotonicNowNs();
    RequestsCounter()->Increment();
    WireReader peek(request);
    uint32_t raw_type = 0;
    if (!peek.GetU32(&raw_type).ok()) {
      LOGCL_RETURN_IF_ERROR(conn.SendFrame(
          EncodeError(Status::InvalidArgument("empty request frame"))));
      continue;
    }
    if (static_cast<MsgType>(raw_type) == MsgType::kShutdown) {
      stop_.store(true, std::memory_order_relaxed);
      return conn.SendFrame(AckHeader(MsgType::kShutdownAck));
    }
    std::vector<uint8_t> response = HandleRequest(request);
    LOGCL_RETURN_IF_ERROR(conn.SendFrame(response));
    RequestUsHist()->Record((MonotonicNowNs() - start_ns) / 1000);
  }
  return Status::Ok();
}

std::vector<uint8_t> ReplicaWorker::HandleRequest(
    const std::vector<uint8_t>& request) {
  WireReader reader(request);
  uint32_t raw_type = 0;
  Status status = reader.GetU32(&raw_type);
  if (!status.ok()) return EncodeError(status);
  switch (static_cast<MsgType>(raw_type)) {
    case MsgType::kHello: {
      WireWriter writer;
      writer.PutU32(static_cast<uint32_t>(MsgType::kHelloAck));
      writer.PutI64(entity_begin_);
      writer.PutI64(entity_end_);
      writer.PutI64(Active()->time());
      writer.PutI64(model_->dataset().num_entities());
      return writer.TakeBuffer();
    }
    case MsgType::kScoreBatch:
      return HandleScoreBatch(&reader);
    case MsgType::kTopK:
      return HandleTopK(&reader);
    case MsgType::kAdvancePrepare:
      return HandleAdvancePrepare(&reader);
    case MsgType::kAdvanceCommit:
      return HandleAdvanceCommit();
    default:
      return EncodeError(Status::InvalidArgument(
          "unknown request type " + std::to_string(raw_type)));
  }
}

std::vector<uint8_t> ReplicaWorker::HandleScoreBatch(WireReader* reader) {
  std::vector<ServeQuery> queries;
  Status status = ReadQueries(reader, model_->dataset(), &queries);
  if (!status.ok()) return EncodeError(status);
  // Full-row scoring, response sliced to this worker's entity range (the
  // slicing is what keeps sharded results bitwise equal to unsharded).
  const std::shared_ptr<const EngineSnapshot> snapshot = Active();
  Tensor scores = snapshot->ScoreBatch(queries);
  const std::vector<float>& data = scores.data();
  const int64_t num_entities = model_->dataset().num_entities();
  const int64_t width = entity_end_ - entity_begin_;
  std::vector<float> sliced(queries.size() * static_cast<size_t>(width));
  for (size_t i = 0; i < queries.size(); ++i) {
    const float* row =
        data.data() + static_cast<int64_t>(i) * num_entities + entity_begin_;
    std::copy(row, row + width,
              sliced.data() + static_cast<int64_t>(i) * width);
  }
  WireWriter writer;
  writer.PutU32(static_cast<uint32_t>(MsgType::kScoreBatchAck));
  writer.PutI64(snapshot->time());
  writer.PutI64(entity_begin_);
  writer.PutI64(entity_end_);
  writer.PutF32Array(sliced.data(), sliced.size());
  return writer.TakeBuffer();
}

std::vector<uint8_t> ReplicaWorker::HandleTopK(WireReader* reader) {
  uint64_t k = 0;
  Status status = reader->GetU64(&k);
  if (!status.ok()) return EncodeError(status);
  std::vector<ServeQuery> queries;
  status = ReadQueries(reader, model_->dataset(), &queries);
  if (!status.ok()) return EncodeError(status);
  const std::shared_ptr<const EngineSnapshot> snapshot = Active();
  Tensor scores = snapshot->ScoreBatch(queries);
  const std::vector<float>& data = scores.data();
  const int64_t num_entities = model_->dataset().num_entities();
  WireWriter writer;
  writer.PutU32(static_cast<uint32_t>(MsgType::kTopKAck));
  writer.PutI64(snapshot->time());
  writer.PutU64(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const float* row = data.data() + static_cast<int64_t>(i) * num_entities;
    std::vector<RankedEntity> top =
        TopKSoftmaxRange(row, num_entities, entity_begin_, entity_end_,
                         static_cast<int64_t>(k));
    writer.PutU64(top.size());
    for (const RankedEntity& e : top) {
      writer.PutI64(e.index);
      writer.PutF32(e.logit);
      writer.PutF32(e.prob);
    }
  }
  return writer.TakeBuffer();
}

std::vector<uint8_t> ReplicaWorker::HandleAdvancePrepare(WireReader* reader) {
  std::vector<Quadruple> facts;
  Status status = reader->GetQuadruples(&facts);
  if (!status.ok()) return EncodeError(status);
  const std::shared_ptr<const EngineSnapshot> base = Active();
  for (const Quadruple& q : facts) {
    if (q.time != base->time()) {
      return EncodeError(Status::InvalidArgument(
          "advance fact at t=" + std::to_string(q.time) +
          " does not match the active horizon t=" +
          std::to_string(base->time())));
    }
    status = ValidateAdvanceFact(model_->dataset(), q);
    if (!status.ok()) return EncodeError(status);
  }
  // Built without the lock: requests on other connections keep scoring on
  // `base` meanwhile.
  std::shared_ptr<const EngineSnapshot> successor =
      base->Advance(std::move(facts));
  const int64_t staged_time = successor->time();
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    staged_ = std::move(successor);
  }
  // This thread idles until the next Advance. Its buffers go where the
  // next build, on this or another worker's control thread, can pop them.
  SpillThreadBufferCache();
  WireWriter writer;
  writer.PutU32(static_cast<uint32_t>(MsgType::kAdvancePrepareAck));
  writer.PutI64(staged_time);
  return writer.TakeBuffer();
}

std::vector<uint8_t> ReplicaWorker::HandleAdvanceCommit() {
  int64_t time = 0;
  std::shared_ptr<const EngineSnapshot> retired;  // freed after the lock
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    if (staged_ == nullptr) {
      return EncodeError(
          Status::FailedPrecondition("commit without a prepared snapshot"));
    }
    if (staged_->time() != active_->time() + 1) {
      staged_.reset();
      return EncodeError(Status::FailedPrecondition(
          "prepared snapshot does not follow the active horizon"));
    }
    retired = std::move(active_);
    active_ = std::move(staged_);
    staged_.reset();
    time = active_->time();
  }
  AdvancesCounter()->Increment();
  WireWriter writer;
  writer.PutU32(static_cast<uint32_t>(MsgType::kAdvanceCommitAck));
  writer.PutI64(time);
  return writer.TakeBuffer();
}

Status ReplicaWorker::StartBackground() {
  LOGCL_RETURN_IF_ERROR(Start());
  serve_thread_ = std::thread([this] { serve_status_ = Serve(); });
  return Status::Ok();
}

Status ReplicaWorker::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (serve_thread_.joinable()) serve_thread_.join();
  listener_.Close();
  return serve_status_;
}

}  // namespace dist
}  // namespace logcl
