// Replicated-serving tests: router top-k over entity-sharded workers vs the
// single-snapshot oracle (exact, bitwise probabilities), score stitching,
// replicated load-balancing, the coordinated two-phase Advance, and the
// no-mixed-horizon invariant under concurrent requests (TSan-exercised in
// the *Dist* sanitizer CI job).

#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/observability.h"
#include "dist/protocol.h"
#include "dist/replica_worker.h"
#include "dist/serving_router.h"
#include "dist_test_util.h"
#include "eval/ranking.h"
#include "serve/engine_snapshot.h"

namespace logcl {
namespace dist {
namespace {

using dist_test::DistConfig;
using dist_test::DistData;

/// Everything a serving test needs, built once: model in eval mode, the
/// serving horizon, and oracle scores computed from a local snapshot BEFORE
/// any worker serves.
class ServingFixture {
 public:
  ServingFixture() : data_(DistData()), model_(&data_, DistConfig()) {
    model_.SetEvalMode(true);
    horizon_ = data_.num_timestamps() - 2;
    oracle_ = EngineSnapshot::Build(&model_, horizon_);
  }

  const TkgDataset& data() const { return data_; }
  const LogClModel* model() const { return &model_; }
  int64_t horizon() const { return horizon_; }
  const EngineSnapshot& oracle() const { return *oracle_; }

  std::vector<ServeQuery> Queries() const {
    return {{0, 0}, {3, 1}, {7, 2}, {11, 3}};
  }

  /// Oracle rows as nested vectors.
  std::vector<std::vector<float>> OracleRows(
      const EngineSnapshot& snapshot, const std::vector<ServeQuery>& queries) {
    Tensor scores = snapshot.ScoreBatch(queries);
    int64_t num_entities = scores.shape().cols();
    std::vector<std::vector<float>> rows;
    const std::vector<float>& flat = scores.data();
    for (size_t i = 0; i < queries.size(); ++i) {
      auto begin = flat.begin() + static_cast<int64_t>(i) * num_entities;
      rows.emplace_back(begin, begin + num_entities);
    }
    return rows;
  }

 private:
  TkgDataset data_;
  LogClModel model_;
  int64_t horizon_ = 0;
  std::shared_ptr<const EngineSnapshot> oracle_;
};

void ExpectRowsBitwiseEqual(const std::vector<std::vector<float>>& got,
                            const std::vector<std::vector<float>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size());
    for (size_t j = 0; j < got[i].size(); ++j) {
      uint32_t g, w;
      std::memcpy(&g, &got[i][j], 4);
      std::memcpy(&w, &want[i][j], 4);
      ASSERT_EQ(g, w) << "row " << i << " entity " << j;
    }
  }
}

TEST(TopKSoftmaxRangeTest, ShardsMergeToExactFullRowTopK) {
  // A row with a duplicate logit that straddles the shard boundary: the
  // merge's (logit desc, id asc) order must reproduce TopKPartial's
  // lower-index tie-break across shards.
  std::vector<float> logits = {0.1f, 2.5f, -1.0f, 2.5f, 0.7f,
                               2.5f, 0.2f, 1.9f,  2.5f, -3.0f};
  const int64_t n = static_cast<int64_t>(logits.size());
  const int64_t k = 6;
  std::vector<std::pair<int64_t, float>> oracle =
      TopKSoftmax(logits.data(), n, k);

  std::vector<RankedEntity> merged;
  for (int64_t begin : {int64_t{0}, int64_t{4}}) {
    int64_t end = begin == 0 ? 4 : n;
    std::vector<RankedEntity> part =
        TopKSoftmaxRange(logits.data(), n, begin, end, k);
    merged.insert(merged.end(), part.begin(), part.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const RankedEntity& a, const RankedEntity& b) {
              if (a.logit != b.logit) return a.logit > b.logit;
              return a.index < b.index;
            });
  merged.resize(static_cast<size_t>(k));
  ASSERT_EQ(merged.size(), oracle.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(merged[i].index, oracle[i].first) << "rank " << i;
    uint32_t g, w;
    std::memcpy(&g, &merged[i].prob, 4);
    std::memcpy(&w, &oracle[i].second, 4);
    EXPECT_EQ(g, w) << "probability at rank " << i;
  }
}

TEST(DistServingTest, ShardedRouterMatchesSingleSnapshotOracleExactly) {
  ServingFixture fixture;
  const int64_t num_entities = fixture.data().num_entities();
  const int64_t split = num_entities / 2;

  ReplicaWorkerOptions low;
  low.horizon = fixture.horizon();
  low.entity_begin = 0;
  low.entity_end = split;
  ReplicaWorkerOptions high;
  high.horizon = fixture.horizon();
  high.entity_begin = split;
  high.entity_end = num_entities;

  ReplicaWorker worker_low(fixture.model(), low);
  ReplicaWorker worker_high(fixture.model(), high);
  ASSERT_TRUE(worker_low.StartBackground().ok());
  ASSERT_TRUE(worker_high.StartBackground().ok());

  Result<std::unique_ptr<ServingRouter>> router = ServingRouter::Connect(
      {worker_low.address(), worker_high.address()});
  ASSERT_TRUE(router.ok()) << router.status().message();
  EXPECT_TRUE(router.value()->sharded());
  EXPECT_EQ(router.value()->num_workers(), 2);
  EXPECT_EQ(router.value()->horizon(), fixture.horizon());

  // Full score rows stitched from the shard slices are bitwise the oracle.
  std::vector<ServeQuery> queries = fixture.Queries();
  Result<std::vector<std::vector<float>>> rows =
      router.value()->ScoreQueries(queries);
  ASSERT_TRUE(rows.ok()) << rows.status().message();
  ExpectRowsBitwiseEqual(rows.value(),
                         fixture.OracleRows(fixture.oracle(), queries));

  // Merged top-k equals the full-row oracle element-for-element. The
  // oracle batch is the single query alone — the global encoder mixes the
  // batch subgraph, so the worker must be queried the same way.
  for (const ServeQuery& query : queries) {
    Tensor row_tensor = fixture.oracle().ScoreBatch({query});
    std::vector<std::pair<int64_t, float>> expected =
        TopKSoftmax(row_tensor.data().data(), num_entities, 5);
    Result<std::vector<std::pair<int64_t, float>>> got =
        router.value()->PredictTopK(query, 5);
    ASSERT_TRUE(got.ok()) << got.status().message();
    ASSERT_EQ(got.value().size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(got.value()[i].first, expected[i].first);
      uint32_t g, w;
      std::memcpy(&g, &got.value()[i].second, 4);
      std::memcpy(&w, &expected[i].second, 4);
      EXPECT_EQ(g, w) << "probability at rank " << i;
    }
  }

  ASSERT_TRUE(router.value()->Shutdown().ok());
  EXPECT_TRUE(worker_low.Stop().ok());
  EXPECT_TRUE(worker_high.Stop().ok());
}

TEST(DistServingTest, ReplicatedRouterLoadBalancesWithoutChangingAnswers) {
  ServingFixture fixture;
  ReplicaWorkerOptions options;
  options.horizon = fixture.horizon();
  ReplicaWorker replica_a(fixture.model(), options);
  ReplicaWorker replica_b(fixture.model(), options);
  ASSERT_TRUE(replica_a.StartBackground().ok());
  ASSERT_TRUE(replica_b.StartBackground().ok());

  Result<std::unique_ptr<ServingRouter>> router =
      ServingRouter::Connect({replica_a.address(), replica_b.address()});
  ASSERT_TRUE(router.ok()) << router.status().message();
  EXPECT_FALSE(router.value()->sharded());

  std::vector<ServeQuery> queries = fixture.Queries();
  std::vector<std::vector<float>> expected =
      fixture.OracleRows(fixture.oracle(), queries);
  // Round-robin sends consecutive requests to different replicas; replicas
  // are bitwise-identical snapshots, so answers never depend on placement.
  for (int round = 0; round < 4; ++round) {
    Result<std::vector<std::vector<float>>> rows =
        router.value()->ScoreQueries(queries);
    ASSERT_TRUE(rows.ok()) << rows.status().message();
    ExpectRowsBitwiseEqual(rows.value(), expected);
  }
  ASSERT_TRUE(router.value()->Shutdown().ok());
  EXPECT_TRUE(replica_a.Stop().ok());
  EXPECT_TRUE(replica_b.Stop().ok());
}

TEST(DistServingTest, CoordinatedAdvanceMovesTheWholeFleet) {
  ServingFixture fixture;
  const int64_t num_entities = fixture.data().num_entities();
  const int64_t split = num_entities / 2;
  ReplicaWorkerOptions low;
  low.horizon = fixture.horizon();
  low.entity_begin = 0;
  low.entity_end = split;
  ReplicaWorkerOptions high;
  high.horizon = fixture.horizon();
  high.entity_begin = split;
  high.entity_end = num_entities;
  ReplicaWorker worker_low(fixture.model(), low);
  ReplicaWorker worker_high(fixture.model(), high);
  ASSERT_TRUE(worker_low.StartBackground().ok());
  ASSERT_TRUE(worker_high.StartBackground().ok());
  Result<std::unique_ptr<ServingRouter>> router = ServingRouter::Connect(
      {worker_low.address(), worker_high.address()});
  ASSERT_TRUE(router.ok()) << router.status().message();

  // Facts completing the horizon; the post-advance oracle is the local
  // snapshot advanced with the same facts.
  std::vector<Quadruple> new_facts = fixture.data().FactsAt(fixture.horizon());
  ASSERT_FALSE(new_facts.empty());
  std::shared_ptr<const EngineSnapshot> advanced =
      fixture.oracle().Advance(new_facts);

  // Wrong-time facts are rejected before any worker is touched.
  std::vector<Quadruple> wrong = new_facts;
  wrong[0].time = fixture.horizon() + 3;
  EXPECT_EQ(router.value()->Advance(wrong).code(),
            StatusCode::kInvalidArgument);

  ASSERT_TRUE(router.value()->Advance(new_facts).ok());
  EXPECT_EQ(router.value()->horizon(), fixture.horizon() + 1);

  std::vector<ServeQuery> queries = fixture.Queries();
  Result<std::vector<std::vector<float>>> rows =
      router.value()->ScoreQueries(queries);
  ASSERT_TRUE(rows.ok()) << rows.status().message();
  ExpectRowsBitwiseEqual(rows.value(), fixture.OracleRows(*advanced, queries));

  ASSERT_TRUE(router.value()->Shutdown().ok());
  EXPECT_TRUE(worker_low.Stop().ok());
  EXPECT_TRUE(worker_high.Stop().ok());
}

TEST(DistServingTest, ConcurrentRequestsNeverObserveMixedHorizons) {
  ServingFixture fixture;
  const int64_t num_entities = fixture.data().num_entities();
  const int64_t split = num_entities / 2;
  ReplicaWorkerOptions low;
  low.horizon = fixture.horizon();
  low.entity_begin = 0;
  low.entity_end = split;
  ReplicaWorkerOptions high;
  high.horizon = fixture.horizon();
  high.entity_begin = split;
  high.entity_end = num_entities;
  ReplicaWorker worker_low(fixture.model(), low);
  ReplicaWorker worker_high(fixture.model(), high);
  ASSERT_TRUE(worker_low.StartBackground().ok());
  ASSERT_TRUE(worker_high.StartBackground().ok());
  Result<std::unique_ptr<ServingRouter>> router = ServingRouter::Connect(
      {worker_low.address(), worker_high.address()});
  ASSERT_TRUE(router.ok()) << router.status().message();

  // Pre- and post-advance oracle rows for one probe query, computed before
  // any concurrency starts.
  std::vector<ServeQuery> probe = {{2, 1}};
  std::vector<Quadruple> new_facts = fixture.data().FactsAt(fixture.horizon());
  std::shared_ptr<const EngineSnapshot> advanced =
      fixture.oracle().Advance(new_facts);
  std::vector<float> pre_row =
      fixture.OracleRows(fixture.oracle(), probe)[0];
  std::vector<float> post_row = fixture.OracleRows(*advanced, probe)[0];

  auto row_is = [](const std::vector<float>& got,
                   const std::vector<float>& want) {
    return std::memcmp(got.data(), want.data(),
                       got.size() * sizeof(float)) == 0;
  };

  std::atomic<bool> stop{false};
  std::atomic<int> mixed{0};
  std::atomic<int> pre_seen{0};
  std::atomic<int> post_seen{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&] {
      while (!stop.load()) {
        Result<std::vector<std::vector<float>>> rows =
            router.value()->ScoreQueries(probe);
        if (!rows.ok()) {
          mixed.fetch_add(1);  // a failed fan-out also fails the invariant
          return;
        }
        if (row_is(rows.value()[0], pre_row)) {
          pre_seen.fetch_add(1);
        } else if (row_is(rows.value()[0], post_row)) {
          post_seen.fetch_add(1);
        } else {
          mixed.fetch_add(1);  // a stitched row mixing horizons
        }
      }
    });
  }
  // Let requests flow at the old horizon, then advance mid-traffic.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(router.value()->Advance(new_facts).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(mixed.load(), 0) << "a response mixed horizons";
  EXPECT_GT(post_seen.load(), 0) << "no request observed the new horizon";
  // pre_seen > 0 almost always, but a slow scheduler could start clients
  // after the advance; only the invariant is asserted.

  ASSERT_TRUE(router.value()->Shutdown().ok());
  EXPECT_TRUE(worker_low.Stop().ok());
  EXPECT_TRUE(worker_high.Stop().ok());
}

TEST(DistServingTest, WorkerRejectsBadRequestsWithStatusNotCrash) {
  ServingFixture fixture;
  ReplicaWorkerOptions options;
  options.horizon = fixture.horizon();
  ReplicaWorker worker(fixture.model(), options);
  ASSERT_TRUE(worker.StartBackground().ok());
  Result<Connection> conn = Connection::Connect(worker.address());
  ASSERT_TRUE(conn.ok());

  // Commit without prepare.
  WireWriter commit;
  commit.PutU32(static_cast<uint32_t>(MsgType::kAdvanceCommit));
  ASSERT_TRUE(conn.value().SendFrame(commit.buffer()).ok());
  std::vector<uint8_t> response;
  ASSERT_TRUE(conn.value().RecvFrame(&response).ok());
  WireReader reader(response);
  uint32_t type = 0;
  ASSERT_TRUE(reader.GetU32(&type).ok());
  ASSERT_EQ(static_cast<MsgType>(type), MsgType::kError);
  EXPECT_EQ(DecodeError(&reader).code(), StatusCode::kFailedPrecondition);

  // Unknown message type.
  WireWriter unknown;
  unknown.PutU32(9999);
  ASSERT_TRUE(conn.value().SendFrame(unknown.buffer()).ok());
  ASSERT_TRUE(conn.value().RecvFrame(&response).ok());
  WireReader reader2(response);
  ASSERT_TRUE(reader2.GetU32(&type).ok());
  EXPECT_EQ(static_cast<MsgType>(type), MsgType::kError);

  // Truncated score request.
  WireWriter truncated;
  truncated.PutU32(static_cast<uint32_t>(MsgType::kScoreBatch));
  ASSERT_TRUE(conn.value().SendFrame(truncated.buffer()).ok());
  ASSERT_TRUE(conn.value().RecvFrame(&response).ok());
  WireReader reader3(response);
  ASSERT_TRUE(reader3.GetU32(&type).ok());
  EXPECT_EQ(static_cast<MsgType>(type), MsgType::kError);

  // Score request whose subject lies past the entity range.
  WireWriter bad_ids;
  bad_ids.PutU32(static_cast<uint32_t>(MsgType::kScoreBatch));
  bad_ids.PutU64(1);
  bad_ids.PutI64(fixture.data().num_entities());
  bad_ids.PutI64(0);
  ASSERT_TRUE(conn.value().SendFrame(bad_ids.buffer()).ok());
  ASSERT_TRUE(conn.value().RecvFrame(&response).ok());
  WireReader reader5(response);
  ASSERT_TRUE(reader5.GetU32(&type).ok());
  ASSERT_EQ(static_cast<MsgType>(type), MsgType::kError);
  EXPECT_EQ(DecodeError(&reader5).code(), StatusCode::kInvalidArgument);

  // Advance prepare at the right horizon with an out-of-range object and a
  // negative relation (each would otherwise reach EngineSnapshot::Advance's
  // checks and kill the replica).
  for (Quadruple fact :
       {Quadruple{0, 0, fixture.data().num_entities(), fixture.horizon()},
        Quadruple{0, -1, 1, fixture.horizon()}}) {
    WireWriter bad_advance;
    bad_advance.PutU32(static_cast<uint32_t>(MsgType::kAdvancePrepare));
    bad_advance.PutQuadruples({fact});
    ASSERT_TRUE(conn.value().SendFrame(bad_advance.buffer()).ok());
    ASSERT_TRUE(conn.value().RecvFrame(&response).ok());
    WireReader reader6(response);
    ASSERT_TRUE(reader6.GetU32(&type).ok());
    ASSERT_EQ(static_cast<MsgType>(type), MsgType::kError);
    EXPECT_EQ(DecodeError(&reader6).code(), StatusCode::kInvalidArgument);
  }

  // The worker is still healthy after all that abuse.
  WireWriter hello;
  hello.PutU32(static_cast<uint32_t>(MsgType::kHello));
  ASSERT_TRUE(conn.value().SendFrame(hello.buffer()).ok());
  ASSERT_TRUE(conn.value().RecvFrame(&response).ok());
  WireReader reader4(response);
  ASSERT_TRUE(reader4.GetU32(&type).ok());
  EXPECT_EQ(static_cast<MsgType>(type), MsgType::kHelloAck);

  EXPECT_TRUE(worker.Stop().ok());
}

// The horizon a worker reports in its kHelloAck.
int64_t HelloHorizon(Connection* conn) {
  WireWriter hello;
  hello.PutU32(static_cast<uint32_t>(MsgType::kHello));
  EXPECT_TRUE(conn->SendFrame(hello.buffer()).ok());
  std::vector<uint8_t> response;
  Status received = conn->RecvFrame(&response);
  EXPECT_TRUE(received.ok()) << received.message();
  if (!received.ok()) return -1;
  WireReader reader(response);
  uint32_t type = 0;
  int64_t begin = 0, end = 0, horizon = -1;
  EXPECT_TRUE(reader.GetU32(&type).ok());
  EXPECT_EQ(static_cast<MsgType>(type), MsgType::kHelloAck);
  EXPECT_TRUE(reader.GetI64(&begin).ok());
  EXPECT_TRUE(reader.GetI64(&end).ok());
  EXPECT_TRUE(reader.GetI64(&horizon).ok());
  return horizon;
}

// A prepare open on one connection must not hold up requests on another:
// the router sends Advance frames on a control connection of their own.
TEST(DistServingTest, WorkerAnswersOtherConnectionsWhileAPrepareIsOpen) {
  ServingFixture fixture;
  ReplicaWorkerOptions options;
  options.horizon = fixture.horizon();
  ReplicaWorker worker(fixture.model(), options);
  ASSERT_TRUE(worker.StartBackground().ok());
  Result<Connection> control = Connection::Connect(worker.address());
  Result<Connection> requests = Connection::Connect(worker.address());
  ASSERT_TRUE(control.ok());
  ASSERT_TRUE(requests.ok());
  requests.value().set_io_timeout_ms(10000);

  WireWriter prepare;
  prepare.PutU32(static_cast<uint32_t>(MsgType::kAdvancePrepare));
  prepare.PutQuadruples(fixture.data().FactsAt(fixture.horizon()));
  ASSERT_TRUE(control.value().SendFrame(prepare.buffer()).ok());
  // Answered while `control` stays open, at the still-active horizon.
  EXPECT_EQ(HelloHorizon(&requests.value()), fixture.horizon());

  std::vector<uint8_t> response;
  ASSERT_TRUE(control.value().RecvFrame(&response).ok());
  WireReader ack(response);
  uint32_t type = 0;
  int64_t staged = 0;
  ASSERT_TRUE(ack.GetU32(&type).ok());
  ASSERT_EQ(static_cast<MsgType>(type), MsgType::kAdvancePrepareAck);
  ASSERT_TRUE(ack.GetI64(&staged).ok());
  EXPECT_EQ(staged, fixture.horizon() + 1);
  EXPECT_EQ(HelloHorizon(&requests.value()), fixture.horizon());

  WireWriter commit;
  commit.PutU32(static_cast<uint32_t>(MsgType::kAdvanceCommit));
  ASSERT_TRUE(control.value().SendFrame(commit.buffer()).ok());
  ASSERT_TRUE(control.value().RecvFrame(&response).ok());
  WireReader commit_ack(response);
  ASSERT_TRUE(commit_ack.GetU32(&type).ok());
  ASSERT_EQ(static_cast<MsgType>(type), MsgType::kAdvanceCommitAck);
  EXPECT_EQ(HelloHorizon(&requests.value()), fixture.horizon() + 1);

  EXPECT_TRUE(worker.Stop().ok());
}

TEST(DistServingTest, NonPositiveTopKIsInvalidArgumentWithoutWireTraffic) {
  ServingFixture fixture;
  ReplicaWorkerOptions options;
  options.horizon = fixture.horizon();
  ReplicaWorker worker(fixture.model(), options);
  ASSERT_TRUE(worker.StartBackground().ok());
  Result<std::unique_ptr<ServingRouter>> router =
      ServingRouter::Connect({worker.address()});
  ASSERT_TRUE(router.ok()) << router.status().message();

  auto worker_requests = [] {
    return Metrics().Snapshot().CounterValue("logcl.dist.worker_requests");
  };
  const ServeQuery query{3, 1};
  const uint64_t before = worker_requests();
  for (int64_t k : {int64_t{0}, int64_t{-1}}) {
    Result<std::vector<std::pair<int64_t, float>>> got =
        router.value()->PredictTopK(query, k);
    ASSERT_FALSE(got.ok()) << "k=" << k;
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument) << "k=" << k;
  }
  EXPECT_EQ(worker_requests(), before);
  // The connection stays usable, and a valid request does reach the worker.
  Result<std::vector<std::pair<int64_t, float>>> valid =
      router.value()->PredictTopK(query, 3);
  ASSERT_TRUE(valid.ok()) << valid.status().message();
  EXPECT_EQ(valid.value().size(), 3u);
  EXPECT_GT(worker_requests(), before);

  ASSERT_TRUE(router.value()->Shutdown().ok());
  EXPECT_TRUE(worker.Stop().ok());
}

TEST(DistServingTest, RouterRejectsInconsistentFleets) {
  ServingFixture fixture;
  const int64_t num_entities = fixture.data().num_entities();
  // A gap: [0, 5) and [6, E) never partition the space.
  ReplicaWorkerOptions low;
  low.horizon = fixture.horizon();
  low.entity_begin = 0;
  low.entity_end = 5;
  ReplicaWorkerOptions high;
  high.horizon = fixture.horizon();
  high.entity_begin = 6;
  high.entity_end = num_entities;
  ReplicaWorker worker_low(fixture.model(), low);
  ReplicaWorker worker_high(fixture.model(), high);
  ASSERT_TRUE(worker_low.StartBackground().ok());
  ASSERT_TRUE(worker_high.StartBackground().ok());
  Result<std::unique_ptr<ServingRouter>> router = ServingRouter::Connect(
      {worker_low.address(), worker_high.address()});
  ASSERT_FALSE(router.ok());
  EXPECT_EQ(router.status().code(), StatusCode::kFailedPrecondition);
  worker_low.Stop();
  worker_high.Stop();
}

}  // namespace
}  // namespace dist
}  // namespace logcl
