// ServingRouter: the client-facing front of a ReplicaWorker fleet.
//
// Connect() performs a kHello handshake with every worker and classifies
// the fleet:
//   - replicated: every worker serves the full entity space. Requests are
//     load-balanced round-robin across workers (all replicas are
//     bitwise-identical snapshots, so placement never changes answers).
//   - entity-sharded: the workers' [entity_begin, entity_end) ranges
//     exactly partition [0, num_entities). Every request fans out to every
//     worker; score rows are stitched from the column slices and top-k
//     lists are merged by (logit desc, id asc) — precisely TopKPartial's
//     order, so the merged top-k equals a single-snapshot PredictTopK
//     oracle element-for-element (see eval/ranking.h TopKSoftmaxRange).
// Mixed fleets (some full, some partial) are rejected, as are horizon or
// entity-count disagreements.
//
// Coordinated Advance (the no-mixed-horizon invariant): Advance() first
// sends kAdvancePrepare to every worker — active snapshots keep serving the
// old horizon while successors build — then takes the horizon gate
// exclusively and commits every worker before releasing it. Requests hold
// the gate shared for their whole fan-out, so any concurrent request
// completes entirely before the first commit or starts entirely after the
// last one: a response never mixes horizons, and the per-ack horizon echo
// is asserted to prove it. Requests running during the PREPARE phase simply
// serve the old horizon — prepare never blocks reads: Advance's frames go
// over a second, control connection per worker, which the worker answers
// on its own thread, so a successor build never holds the connection that
// requests queue on.
//
// Thread-safety: all public methods are safe to call concurrently; each
// worker's request connection is serialised by its own mutex, so concurrent
// requests to a sharded fleet pipeline across workers rather than in
// parallel to the same worker. The control connections are used only under
// the Advance mutex.

#ifndef LOGCL_DIST_SERVING_ROUTER_H_
#define LOGCL_DIST_SERVING_ROUTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "dist/transport.h"
#include "eval/ranking.h"
#include "serve/engine_snapshot.h"
#include "tkg/quadruple.h"

namespace logcl {
namespace dist {

/// A writer-preferring reader/writer gate (std::shared_mutex on glibc maps
/// to a reader-preferring pthread rwlock, which starves Advance's commit
/// phase forever under a steady stream of request fan-outs). A waiting
/// writer blocks NEW readers, drains the in-flight ones, commits, then
/// releases everyone — exactly the no-mixed-horizon gate semantics. Usable
/// with std::shared_lock / std::unique_lock.
class HorizonGate {
 public:
  void lock_shared() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !writer_active_ && writers_waiting_ == 0; });
    ++readers_;
  }
  void unlock_shared() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--readers_ == 0) cv_.notify_all();
  }
  void lock() {
    std::unique_lock<std::mutex> lock(mu_);
    ++writers_waiting_;
    cv_.wait(lock, [&] { return readers_ == 0 && !writer_active_; });
    --writers_waiting_;
    writer_active_ = true;
  }
  void unlock() {
    std::lock_guard<std::mutex> lock(mu_);
    writer_active_ = false;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int readers_ = 0;
  int writers_waiting_ = 0;
  bool writer_active_ = false;
};

class ServingRouter {
 public:
  /// Handshakes with every worker address and validates fleet consistency
  /// (see file comment). `io_timeout_ms` bounds every per-request socket
  /// operation.
  static Result<std::unique_ptr<ServingRouter>> Connect(
      const std::vector<std::string>& addresses,
      int64_t io_timeout_ms = kDefaultIoTimeoutMs);

  /// Scores each query against every entity at the fleet horizon; row i is
  /// bitwise identical to EngineSnapshot::ScoreBatch row i on one replica
  /// (sharded fleets stitch the full row from the shard slices).
  Result<std::vector<std::vector<float>>> ScoreQueries(
      const std::vector<ServeQuery>& queries);

  /// Top-k (entity, softmax probability) for one query, element-for-element
  /// equal to TopKSoftmax over the full score row. k < 1 is InvalidArgument
  /// (as InferenceEngine::TryTopK) and sends nothing to the workers.
  Result<std::vector<std::pair<int64_t, float>>> PredictTopK(
      const ServeQuery& query, int64_t k);

  /// Two-phase coordinated horizon move: prepare all, then commit all under
  /// the exclusive horizon gate. `new_facts` must all carry the current
  /// horizon time. On success horizon() advances by one everywhere; a
  /// failure between commits leaves the fleet mixed — the Status says so
  /// and the router refuses further requests.
  Status Advance(std::vector<Quadruple> new_facts);

  /// Sends kShutdown to every worker (their serve loops exit).
  Status Shutdown();

  int num_workers() const { return static_cast<int>(workers_.size()); }
  bool sharded() const { return sharded_; }
  int64_t num_entities() const { return num_entities_; }
  int64_t horizon() const { return horizon_.load(std::memory_order_relaxed); }

 private:
  struct Worker {
    Connection conn;
    std::mutex mu;  // serialises frames on this connection
    Connection control;  // Advance's frames; guarded by advance_mu_
    std::string address;
    int64_t entity_begin = 0;
    int64_t entity_end = 0;
  };

  ServingRouter() = default;

  /// One locked request/response exchange on a worker's request
  /// connection; kError responses come back as the decoded Status. On
  /// success `response` holds the payload.
  Status Call(Worker* worker, const std::vector<uint8_t>& request,
              uint32_t expected_type, std::vector<uint8_t>* response);
  /// The same exchange on the worker's control connection; the caller
  /// holds advance_mu_.
  Status ControlCall(Worker* worker, const std::vector<uint8_t>& request,
                     uint32_t expected_type, std::vector<uint8_t>* response);

  std::vector<std::unique_ptr<Worker>> workers_;
  bool sharded_ = false;
  int64_t num_entities_ = 0;
  std::atomic<int64_t> horizon_{0};
  std::atomic<uint64_t> round_robin_{0};
  // The no-mixed-horizon gate: shared for request fan-outs, exclusive
  // across the commit phase of Advance.
  HorizonGate horizon_mu_;
  // Serialises whole Advance calls (prepare must not interleave) and the
  // control connections they use.
  std::mutex advance_mu_;
  // Set when a partial commit may have left workers on different horizons.
  std::atomic<bool> poisoned_{false};
};

}  // namespace dist
}  // namespace logcl

#endif  // LOGCL_DIST_SERVING_ROUTER_H_
