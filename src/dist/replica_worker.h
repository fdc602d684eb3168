// ReplicaWorker: hosts one EngineSnapshot behind the socket transport and
// answers the serving RPCs of dist/protocol.h.
//
// Each worker freezes the full model at the configured horizon (replicas
// are bitwise-identical by the snapshot determinism contract) and serves
// either the whole entity space or a configured id range [entity_begin,
// entity_end) — entity sharding slices the RESPONSE, not the computation:
// scores come from the full [B, E] batch row, so sharded probabilities and
// logits are bitwise identical to the unsharded ones and a router can merge
// shard top-ks exactly (eval/ranking.h TopKSoftmaxRange).
//
// Advance is two-phase so a fleet can move horizons atomically:
// kAdvancePrepare builds the successor snapshot off to the side (requests
// keep answering on the active one), kAdvanceCommit swaps it in. The
// ServingRouter drives prepare on every replica before committing any,
// holding its horizon gate exclusively across the commits — clients never
// observe a mixed-horizon fan-out (serving_router.h).
//
// Serve() accepts connections and answers each on its own thread, one frame
// at a time (the router serialises its frames per connection anyway), up to
// kMaxConnections at once. The router sends Advance frames on a second
// connection, so a prepare building its successor never holds up the
// requests queued behind it on the first. The active and staged snapshots
// are swapped under a mutex; a request scores on the snapshot that was
// active when it arrived. A frame handler failure answers kError and keeps
// serving; a dropped client ends its thread. Stop() (or a kShutdown frame)
// ends every thread within one ~250ms poll tick.

#ifndef LOGCL_DIST_REPLICA_WORKER_H_
#define LOGCL_DIST_REPLICA_WORKER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "dist/transport.h"
#include "dist/wire.h"
#include "serve/engine_snapshot.h"

namespace logcl {
namespace dist {

struct ReplicaWorkerOptions {
  /// "host:port" (port 0 auto-assigns; see address()) or "unix:<path>".
  std::string listen_address = "127.0.0.1:0";
  /// Serving horizon the snapshot freezes at.
  int64_t horizon = 0;
  /// Entity id range this worker answers for; entity_end == -1 means the
  /// whole entity space (pure replication).
  int64_t entity_begin = 0;
  int64_t entity_end = -1;
};

class ReplicaWorker {
 public:
  /// `model` must outlive the worker, be in eval mode when configured with
  /// noise injection, and not train while the worker serves.
  ReplicaWorker(const LogClModel* model, ReplicaWorkerOptions options);
  ~ReplicaWorker();

  /// Builds the snapshot and opens the listener (single-threaded; do all
  /// Start()s before concurrent serving begins — snapshot builds may touch
  /// lazy dataset caches).
  Status Start();

  /// The bound listen address (with the kernel-chosen port when port 0 was
  /// requested). Valid after Start().
  const std::string& address() const { return address_; }

  int64_t entity_begin() const { return entity_begin_; }
  int64_t entity_end() const { return entity_end_; }

  /// Serves until Stop() or a kShutdown frame. Returns Ok on a clean
  /// shutdown; transport failures on the LISTENER surface as the error
  /// (per-connection failures just recycle the connection).
  Status Serve();

  /// Start() + a background thread running Serve().
  Status StartBackground();
  /// Ends a background Serve() and joins it; returns its Status.
  Status Stop();

 private:
  Status HandleConnection(Connection conn);
  /// Dispatches one request; returns the response payload (kError payloads
  /// included — only transport failures propagate as Status).
  std::vector<uint8_t> HandleRequest(const std::vector<uint8_t>& request);
  std::vector<uint8_t> HandleScoreBatch(WireReader* reader);
  std::vector<uint8_t> HandleTopK(WireReader* reader);
  std::vector<uint8_t> HandleAdvancePrepare(WireReader* reader);
  std::vector<uint8_t> HandleAdvanceCommit();
  std::shared_ptr<const EngineSnapshot> Active();

  /// One accepted connection's thread; `done` is set as it returns.
  struct ConnectionThread {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  /// Joins the connection threads that finished (all of them when `all`).
  void JoinConnections(bool all);

  const LogClModel* model_;
  ReplicaWorkerOptions options_;
  int64_t entity_begin_ = 0;
  int64_t entity_end_ = 0;
  std::mutex snapshot_mu_;  // guards active_ and staged_
  std::shared_ptr<const EngineSnapshot> active_;
  std::shared_ptr<const EngineSnapshot> staged_;
  std::list<ConnectionThread> connections_;  // Serve()'s thread only
  Listener listener_;
  std::string address_;
  std::atomic<bool> stop_{false};
  std::thread serve_thread_;
  Status serve_status_;  // read after join only
};

}  // namespace dist
}  // namespace logcl

#endif  // LOGCL_DIST_REPLICA_WORKER_H_
