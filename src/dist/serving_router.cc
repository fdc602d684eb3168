#include "dist/serving_router.h"

#include <algorithm>

#include "common/observability.h"
#include "dist/protocol.h"
#include "dist/wire.h"

namespace logcl {
namespace dist {
namespace {

Counter* RouterRequestsCounter() {
  static Counter* c = Metrics().GetCounter("logcl.dist.router_requests");
  return c;
}
Histogram* RouterRequestUsHist() {
  static Histogram* h = Metrics().GetHistogram("logcl.dist.router_request_us");
  return h;
}
Counter* RouterAdvancesCounter() {
  static Counter* c = Metrics().GetCounter("logcl.dist.router_advances");
  return c;
}

std::vector<uint8_t> EncodeScoreBatch(const std::vector<ServeQuery>& queries) {
  WireWriter writer;
  writer.PutU32(static_cast<uint32_t>(MsgType::kScoreBatch));
  writer.PutU64(queries.size());
  for (const ServeQuery& q : queries) {
    writer.PutI64(q.subject);
    writer.PutI64(q.relation);
  }
  return writer.TakeBuffer();
}

std::vector<uint8_t> EncodeTopK(const ServeQuery& query, int64_t k) {
  WireWriter writer;
  writer.PutU32(static_cast<uint32_t>(MsgType::kTopK));
  writer.PutU64(static_cast<uint64_t>(k));
  writer.PutU64(1);
  writer.PutI64(query.subject);
  writer.PutI64(query.relation);
  return writer.TakeBuffer();
}

std::vector<uint8_t> EncodeEmpty(MsgType type) {
  WireWriter writer;
  writer.PutU32(static_cast<uint32_t>(type));
  return writer.TakeBuffer();
}

/// Parses one kTopKAck body (reader past the type word) into `entries`.
Status ParseTopKAck(WireReader* reader, int64_t* horizon,
                    std::vector<RankedEntity>* entries) {
  LOGCL_RETURN_IF_ERROR(reader->GetI64(horizon));
  uint64_t batch = 0;
  LOGCL_RETURN_IF_ERROR(reader->GetU64(&batch));
  if (batch != 1) {
    return Status::Internal("top-k ack batch " + std::to_string(batch) +
                            ", expected 1");
  }
  uint64_t count = 0;
  LOGCL_RETURN_IF_ERROR(reader->GetU64(&count));
  if (count > (1u << 24)) return Status::Internal("oversized top-k ack");
  for (uint64_t i = 0; i < count; ++i) {
    RankedEntity e;
    LOGCL_RETURN_IF_ERROR(reader->GetI64(&e.index));
    LOGCL_RETURN_IF_ERROR(reader->GetF32(&e.logit));
    LOGCL_RETURN_IF_ERROR(reader->GetF32(&e.prob));
    entries->push_back(e);
  }
  return Status::Ok();
}

// One request/response exchange on `conn`; kError responses come back as
// the decoded Status.
Status Exchange(Connection* conn, const std::string& address,
                const std::vector<uint8_t>& request, uint32_t expected_type,
                std::vector<uint8_t>* response) {
  LOGCL_RETURN_IF_ERROR(conn->SendFrame(request));
  LOGCL_RETURN_IF_ERROR(conn->RecvFrame(response));
  WireReader reader(*response);
  uint32_t type = 0;
  LOGCL_RETURN_IF_ERROR(reader.GetU32(&type));
  if (static_cast<MsgType>(type) == MsgType::kError) {
    Status decoded = DecodeError(&reader);
    return Status(decoded.code(),
                  "worker " + address + ": " + decoded.message());
  }
  if (type != expected_type) {
    return Status::Internal("worker " + address + " answered type " +
                            std::to_string(type) + ", expected " +
                            std::to_string(expected_type));
  }
  return Status::Ok();
}

}  // namespace

Result<std::unique_ptr<ServingRouter>> ServingRouter::Connect(
    const std::vector<std::string>& addresses, int64_t io_timeout_ms) {
  if (addresses.empty()) {
    return Status::InvalidArgument("router needs at least one worker");
  }
  std::unique_ptr<ServingRouter> router(new ServingRouter());
  int64_t horizon = 0;
  for (const std::string& address : addresses) {
    Result<Connection> connected =
        Connection::Connect(address, io_timeout_ms);
    if (!connected.ok()) return connected.status();
    auto worker = std::make_unique<Worker>();
    worker->conn = std::move(connected).value();
    worker->conn.set_io_timeout_ms(io_timeout_ms);
    worker->address = address;
    std::vector<uint8_t> response;
    LOGCL_RETURN_IF_ERROR(router->Call(
        worker.get(), EncodeEmpty(MsgType::kHello),
        static_cast<uint32_t>(MsgType::kHelloAck), &response));
    WireReader reader(response);
    uint32_t type = 0;
    int64_t worker_horizon = 0, worker_entities = 0;
    LOGCL_RETURN_IF_ERROR(reader.GetU32(&type));
    LOGCL_RETURN_IF_ERROR(reader.GetI64(&worker->entity_begin));
    LOGCL_RETURN_IF_ERROR(reader.GetI64(&worker->entity_end));
    LOGCL_RETURN_IF_ERROR(reader.GetI64(&worker_horizon));
    LOGCL_RETURN_IF_ERROR(reader.GetI64(&worker_entities));
    if (router->workers_.empty()) {
      horizon = worker_horizon;
      router->num_entities_ = worker_entities;
    } else if (worker_horizon != horizon) {
      return Status::FailedPrecondition(
          "worker " + address + " serves horizon " +
          std::to_string(worker_horizon) + ", fleet is at " +
          std::to_string(horizon));
    } else if (worker_entities != router->num_entities_) {
      return Status::FailedPrecondition("worker " + address +
                                        " disagrees on entity count");
    }
    Result<Connection> control = Connection::Connect(address, io_timeout_ms);
    if (!control.ok()) return control.status();
    worker->control = std::move(control).value();
    worker->control.set_io_timeout_ms(io_timeout_ms);
    router->workers_.push_back(std::move(worker));
  }
  router->horizon_.store(horizon, std::memory_order_relaxed);

  // Classify the fleet: all-full (replicated) or an exact partition
  // (entity-sharded). Fan-out iterates in entity order, so sort shards.
  bool all_full = true;
  for (const auto& w : router->workers_) {
    all_full = all_full &&
               (w->entity_begin == 0 && w->entity_end == router->num_entities_);
  }
  router->sharded_ = !all_full;
  if (router->sharded_) {
    std::sort(router->workers_.begin(), router->workers_.end(),
              [](const std::unique_ptr<Worker>& a,
                 const std::unique_ptr<Worker>& b) {
                return a->entity_begin < b->entity_begin;
              });
    int64_t expected = 0;
    for (const auto& w : router->workers_) {
      if (w->entity_begin != expected) {
        return Status::FailedPrecondition(
            "worker entity ranges do not partition the entity space: gap or "
            "overlap at id " +
            std::to_string(expected));
      }
      expected = w->entity_end;
    }
    if (expected != router->num_entities_) {
      return Status::FailedPrecondition(
          "worker entity ranges stop at " + std::to_string(expected) +
          " of " + std::to_string(router->num_entities_) + " entities");
    }
  }
  return router;
}

Status ServingRouter::Call(Worker* worker,
                           const std::vector<uint8_t>& request,
                           uint32_t expected_type,
                           std::vector<uint8_t>* response) {
  std::lock_guard<std::mutex> lock(worker->mu);
  return Exchange(&worker->conn, worker->address, request, expected_type,
                  response);
}

Status ServingRouter::ControlCall(Worker* worker,
                                  const std::vector<uint8_t>& request,
                                  uint32_t expected_type,
                                  std::vector<uint8_t>* response) {
  return Exchange(&worker->control, worker->address, request, expected_type,
                  response);
}

Result<std::vector<std::vector<float>>> ServingRouter::ScoreQueries(
    const std::vector<ServeQuery>& queries) {
  if (poisoned_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition(
        "fleet horizons may be mixed after a failed Advance");
  }
  std::vector<std::vector<float>> rows(
      queries.size(), std::vector<float>(static_cast<size_t>(num_entities_)));
  if (queries.empty()) return rows;
  uint64_t start_ns = MonotonicNowNs();
  RouterRequestsCounter()->Increment();
  std::vector<uint8_t> request = EncodeScoreBatch(queries);
  std::shared_lock<HorizonGate> gate(horizon_mu_);
  const int64_t fleet_horizon = horizon_.load(std::memory_order_relaxed);
  auto fetch = [&](Worker* worker) -> Status {
    std::vector<uint8_t> response;
    LOGCL_RETURN_IF_ERROR(
        Call(worker, request,
             static_cast<uint32_t>(MsgType::kScoreBatchAck), &response));
    WireReader reader(response);
    uint32_t type = 0;
    int64_t horizon = 0, begin = 0, end = 0;
    std::vector<float> slice;
    LOGCL_RETURN_IF_ERROR(reader.GetU32(&type));
    LOGCL_RETURN_IF_ERROR(reader.GetI64(&horizon));
    LOGCL_RETURN_IF_ERROR(reader.GetI64(&begin));
    LOGCL_RETURN_IF_ERROR(reader.GetI64(&end));
    LOGCL_RETURN_IF_ERROR(reader.GetF32Array(&slice));
    if (horizon != fleet_horizon) {
      return Status::Internal(
          "worker " + worker->address + " answered at horizon " +
          std::to_string(horizon) + " inside a fan-out at " +
          std::to_string(fleet_horizon) + " (mixed-horizon invariant broken)");
    }
    const int64_t width = end - begin;
    if (begin != worker->entity_begin || end != worker->entity_end ||
        slice.size() != queries.size() * static_cast<size_t>(width)) {
      return Status::Internal("worker " + worker->address +
                              " answered a malformed score slice");
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      std::copy(slice.data() + static_cast<int64_t>(i) * width,
                slice.data() + static_cast<int64_t>(i + 1) * width,
                rows[i].data() + begin);
    }
    return Status::Ok();
  };
  if (sharded_) {
    for (const auto& worker : workers_) {
      LOGCL_RETURN_IF_ERROR(fetch(worker.get()));
    }
  } else {
    size_t pick = round_robin_.fetch_add(1, std::memory_order_relaxed) %
                  workers_.size();
    LOGCL_RETURN_IF_ERROR(fetch(workers_[pick].get()));
  }
  RouterRequestUsHist()->Record((MonotonicNowNs() - start_ns) / 1000);
  return rows;
}

Result<std::vector<std::pair<int64_t, float>>> ServingRouter::PredictTopK(
    const ServeQuery& query, int64_t k) {
  if (poisoned_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition(
        "fleet horizons may be mixed after a failed Advance");
  }
  if (k < 1) {
    return Status::InvalidArgument("top-k needs k >= 1, got " +
                                   std::to_string(k));
  }
  uint64_t start_ns = MonotonicNowNs();
  RouterRequestsCounter()->Increment();
  std::vector<uint8_t> request = EncodeTopK(query, k);
  std::shared_lock<HorizonGate> gate(horizon_mu_);
  const int64_t fleet_horizon = horizon_.load(std::memory_order_relaxed);
  std::vector<RankedEntity> merged;
  auto fetch = [&](Worker* worker) -> Status {
    std::vector<uint8_t> response;
    LOGCL_RETURN_IF_ERROR(Call(worker, request,
                               static_cast<uint32_t>(MsgType::kTopKAck),
                               &response));
    WireReader reader(response);
    uint32_t type = 0;
    int64_t horizon = 0;
    LOGCL_RETURN_IF_ERROR(reader.GetU32(&type));
    LOGCL_RETURN_IF_ERROR(ParseTopKAck(&reader, &horizon, &merged));
    if (horizon != fleet_horizon) {
      return Status::Internal(
          "worker " + worker->address + " answered at horizon " +
          std::to_string(horizon) + " inside a fan-out at " +
          std::to_string(fleet_horizon) + " (mixed-horizon invariant broken)");
    }
    return Status::Ok();
  };
  if (sharded_) {
    for (const auto& worker : workers_) {
      LOGCL_RETURN_IF_ERROR(fetch(worker.get()));
    }
    // Merge shard candidates exactly as TopKPartial orders a full row:
    // logit descending, id ascending on ties.
    std::sort(merged.begin(), merged.end(),
              [](const RankedEntity& a, const RankedEntity& b) {
                if (a.logit != b.logit) return a.logit > b.logit;
                return a.index < b.index;
              });
  } else {
    size_t pick = round_robin_.fetch_add(1, std::memory_order_relaxed) %
                  workers_.size();
    LOGCL_RETURN_IF_ERROR(fetch(workers_[pick].get()));
  }
  if (static_cast<int64_t>(merged.size()) > k) {
    merged.resize(static_cast<size_t>(k));
  }
  std::vector<std::pair<int64_t, float>> result;
  result.reserve(merged.size());
  for (const RankedEntity& e : merged) result.emplace_back(e.index, e.prob);
  RouterRequestUsHist()->Record((MonotonicNowNs() - start_ns) / 1000);
  return result;
}

Status ServingRouter::Advance(std::vector<Quadruple> new_facts) {
  std::lock_guard<std::mutex> advance_lock(advance_mu_);
  if (poisoned_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition(
        "fleet horizons may be mixed after a failed Advance");
  }
  const int64_t fleet_horizon = horizon_.load(std::memory_order_relaxed);
  for (const Quadruple& q : new_facts) {
    if (q.time != fleet_horizon) {
      return Status::InvalidArgument(
          "advance fact at t=" + std::to_string(q.time) +
          " does not match the fleet horizon t=" +
          std::to_string(fleet_horizon));
    }
  }
  WireWriter writer;
  writer.PutU32(static_cast<uint32_t>(MsgType::kAdvancePrepare));
  writer.PutQuadruples(new_facts);
  std::vector<uint8_t> prepare = writer.TakeBuffer();

  // Phase 1 — prepare everywhere. Reads keep flowing at the old horizon;
  // no gate is held, so a slow snapshot build never blocks serving.
  for (const auto& worker : workers_) {
    std::vector<uint8_t> response;
    LOGCL_RETURN_IF_ERROR(
        ControlCall(worker.get(), prepare,
                    static_cast<uint32_t>(MsgType::kAdvancePrepareAck),
                    &response));
    WireReader reader(response);
    uint32_t type = 0;
    int64_t staged = 0;
    LOGCL_RETURN_IF_ERROR(reader.GetU32(&type));
    LOGCL_RETURN_IF_ERROR(reader.GetI64(&staged));
    if (staged != fleet_horizon + 1) {
      return Status::Internal("worker " + worker->address + " staged t=" +
                              std::to_string(staged) + ", expected t=" +
                              std::to_string(fleet_horizon + 1));
    }
  }

  // Phase 2 — commit everywhere under the exclusive gate: no request can
  // fan out between the first and last swap.
  std::unique_lock<HorizonGate> gate(horizon_mu_);
  std::vector<uint8_t> commit = EncodeEmpty(MsgType::kAdvanceCommit);
  for (size_t i = 0; i < workers_.size(); ++i) {
    std::vector<uint8_t> response;
    Status status =
        ControlCall(workers_[i].get(), commit,
                    static_cast<uint32_t>(MsgType::kAdvanceCommitAck),
                    &response);
    if (!status.ok()) {
      if (i > 0) poisoned_.store(true, std::memory_order_relaxed);
      return Status(status.code(),
                    "commit phase failed after " + std::to_string(i) + "/" +
                        std::to_string(workers_.size()) + " workers: " +
                        status.message());
    }
  }
  horizon_.store(fleet_horizon + 1, std::memory_order_relaxed);
  RouterAdvancesCounter()->Increment();
  return Status::Ok();
}

Status ServingRouter::Shutdown() {
  Status first_error = Status::Ok();
  std::vector<uint8_t> request = EncodeEmpty(MsgType::kShutdown);
  for (const auto& worker : workers_) {
    std::vector<uint8_t> response;
    Status status = Call(worker.get(), request,
                         static_cast<uint32_t>(MsgType::kShutdownAck),
                         &response);
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  return first_error;
}

}  // namespace dist
}  // namespace logcl
