// Tests for the pooled tensor memory subsystem: bucket reuse identity,
// allocation-stats accounting, cross-thread recycling (TSan-covered),
// poison-fill detection of read-before-write kernels, ASan poisoning of
// pooled buffers, thread-local grad mode, and epoch-level bitwise parity of
// training on a cold (trimmed) vs a warm (stale) pool.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "core/logcl_model.h"
#include "synth/generator.h"
#include "tensor/buffer_pool.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "tensor/tensor.h"

#if defined(__SANITIZE_ADDRESS__)
#define LOGCL_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LOGCL_TEST_ASAN 1
#endif
#endif
#ifdef LOGCL_TEST_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace logcl {
namespace {

// Restores the default thread count when a test exits, pass or fail.
struct ThreadCountGuard {
  ~ThreadCountGuard() { SetNumThreads(0); }
};

// Scoped poison mode.
struct PoisonModeGuard {
  explicit PoisonModeGuard(bool enabled) : previous_(PoisonUninitEnabled()) {
    SetPoisonUninitEnabled(enabled);
  }
  ~PoisonModeGuard() { SetPoisonUninitEnabled(previous_); }
  bool previous_;
};

// --- Bucket reuse -----------------------------------------------------------

TEST(BufferPoolTest, SameSizeRequestReturnsSameStorage) {
  PoisonModeGuard poison(false);  // asserts stale contents survive kUninit
  TrimBufferPool();
  constexpr size_t kSize = 12345;  // uncommon size: private bucket
  std::vector<float> buffer = AcquireBuffer(kSize, BufferFill::kZero);
  const float* storage = buffer.data();
  buffer[0] = 42.0f;
  ReleaseBuffer(std::move(buffer));
  // LIFO bucket: the same storage comes back on a same-size request, and a
  // kUninit acquire keeps the stale contents (the zero-init elision).
  std::vector<float> again = AcquireBuffer(kSize, BufferFill::kUninit);
  EXPECT_EQ(again.data(), storage);
  EXPECT_EQ(again[0], 42.0f);
  ReleaseBuffer(std::move(again));
  // A kZero acquire of the same recycled storage must be fully zeroed.
  std::vector<float> zeroed = AcquireBuffer(kSize, BufferFill::kZero);
  EXPECT_EQ(zeroed.data(), storage);
  for (float v : zeroed) ASSERT_EQ(v, 0.0f);
  ReleaseBuffer(std::move(zeroed));
}

// Buckets are size classes (four per octave), so a request a few elements
// away from a released buffer's size reuses its storage: shapes that drift
// from call to call (compact query subgraphs) stop stranding buffers.
TEST(BufferPoolTest, NearbySizesShareASizeClass) {
  PoisonModeGuard poison(false);  // asserts stale contents survive kUninit
  TrimBufferPool();
  std::vector<float> buffer = AcquireBuffer(1000, BufferFill::kUninit);
  const float* storage = buffer.data();
  EXPECT_EQ(buffer.size(), 1000u);
  EXPECT_GE(buffer.capacity(), 1010u);
  buffer[0] = 42.0f;
  ReleaseBuffer(std::move(buffer));
  BufferPoolStats before = PoolSnapshot();
  std::vector<float> larger = AcquireBuffer(1010, BufferFill::kUninit);
  EXPECT_EQ(larger.data(), storage);
  EXPECT_EQ(larger.size(), 1010u);
  EXPECT_EQ(larger[0], 42.0f);
  for (size_t i = 1000; i < 1010; ++i) EXPECT_EQ(larger[i], 0.0f);
  EXPECT_EQ(PoolSnapshot().hits - before.hits, 1u);
  ReleaseBuffer(std::move(larger));
  std::vector<float> zeroed = AcquireBuffer(900, BufferFill::kZero);
  EXPECT_EQ(zeroed.data(), storage);
  EXPECT_EQ(zeroed.size(), 900u);
  for (float v : zeroed) ASSERT_EQ(v, 0.0f);
  ReleaseBuffer(std::move(zeroed));
  // A size two classes away gets its own storage.
  std::vector<float> far = AcquireBuffer(1500, BufferFill::kUninit);
  EXPECT_NE(far.data(), storage);
  ReleaseBuffer(std::move(far));
}

TEST(BufferPoolTest, TensorStorageIsRecycledAcrossNodeLifetimes) {
  TrimBufferPool();
  const Shape shape{37, 11};
  const float* storage = nullptr;
  {
    Tensor t = Tensor::Full(shape, 3.5f);
    storage = t.data().data();
  }  // ~TensorNode returns the buffer to the pool
  Tensor reborn = Tensor::Zeros(shape);
  EXPECT_EQ(reborn.data().data(), storage);
  // Zeros must really be zeros even on dirty recycled storage.
  for (float v : reborn.data()) ASSERT_EQ(v, 0.0f);
}

// --- Allocation stats -------------------------------------------------------

TEST(BufferPoolTest, StatsAccountForHitsMissesAndLiveBytes) {
  TrimBufferPool();
  ResetPoolStats();
  constexpr size_t kSize = 54321;
  BufferPoolStats before = PoolSnapshot();

  std::vector<float> a = AcquireBuffer(kSize, BufferFill::kZero);
  BufferPoolStats live = PoolSnapshot();
  EXPECT_EQ(live.acquires - before.acquires, 1u);
  EXPECT_EQ(live.misses - before.misses, 1u);  // cold: fresh allocation
  EXPECT_EQ(live.live_bytes - before.live_bytes, kSize * sizeof(float));
  EXPECT_EQ(live.outstanding_buffers - before.outstanding_buffers, 1u);
  EXPECT_GE(live.peak_live_bytes, live.live_bytes);

  ReleaseBuffer(std::move(a));
  std::vector<float> b = AcquireBuffer(kSize, BufferFill::kUninit);
  BufferPoolStats after = PoolSnapshot();
  EXPECT_EQ(after.hits - before.hits, 1u);  // warm: served from the bucket
  EXPECT_EQ(after.releases - before.releases, 1u);
  EXPECT_EQ(after.bytes_requested - before.bytes_requested,
            2 * kSize * sizeof(float));
  ReleaseBuffer(std::move(b));
}

TEST(BufferPoolTest, AdoptedBuffersBalanceTheLiveCounters) {
  ResetPoolStats();
  BufferPoolStats before = PoolSnapshot();
  {
    // FromVector adopts caller storage; destruction releases it. The live
    // gauges must return exactly to their starting point.
    Tensor t = Tensor::FromVector(Shape{8, 4}, std::vector<float>(32, 1.0f));
    BufferPoolStats mid = PoolSnapshot();
    EXPECT_EQ(mid.adoptions - before.adoptions, 1u);
    EXPECT_EQ(mid.live_bytes - before.live_bytes, 32 * sizeof(float));
  }
  BufferPoolStats after = PoolSnapshot();
  EXPECT_EQ(after.live_bytes, before.live_bytes);
  EXPECT_EQ(after.outstanding_buffers, before.outstanding_buffers);
}

// --- Cross-thread recycling (run under TSan in CI) --------------------------

TEST(BufferPoolThreadsTest, BufferReleasedOnOneThreadIsReusedOnAnother) {
  PoisonModeGuard poison(false);  // asserts stale contents survive kUninit
  TrimBufferPool();
  constexpr size_t kSize = 7777;
  std::thread producer([] {
    std::vector<float> buffer = AcquireBuffer(kSize, BufferFill::kZero);
    for (float& v : buffer) v = 42.0f;
    ReleaseBuffer(std::move(buffer));
    // Thread exit flushes this thread's cache into the global pool.
  });
  producer.join();
  // The global pool's mutex provides the happens-before edge: the stale
  // contents written by the producer must be visible here, race-free.
  std::vector<float> buffer = AcquireBuffer(kSize, BufferFill::kUninit);
  for (float v : buffer) ASSERT_EQ(v, 42.0f);
  ReleaseBuffer(std::move(buffer));
}

TEST(BufferPoolThreadsTest, SpilledCacheIsReusedWhileItsThreadLives) {
  PoisonModeGuard poison(false);  // asserts stale contents survive kUninit
  TrimBufferPool();
  constexpr size_t kSize = 7168;  // a size class: pooled bytes == requested
  std::atomic<int> stage{0};
  std::thread producer([&] {
    std::vector<float> buffer = AcquireBuffer(kSize, BufferFill::kZero);
    const float* storage = buffer.data();
    for (float& v : buffer) v = 42.0f;
    ReleaseBuffer(std::move(buffer));
    SpillThreadBufferCache();
    // The cache is empty now: the same size comes back from the global
    // tier, then goes there again.
    std::vector<float> again = AcquireBuffer(kSize, BufferFill::kUninit);
    EXPECT_EQ(again.data(), storage);
    ReleaseBuffer(std::move(again));
    SpillThreadBufferCache();
    stage.store(1);
    while (stage.load() != 2) std::this_thread::yield();
  });
  while (stage.load() != 1) std::this_thread::yield();
  // The producer is still alive, so only the spill can have handed its
  // buffer over.
  std::vector<float> buffer = AcquireBuffer(kSize, BufferFill::kUninit);
  for (float v : buffer) ASSERT_EQ(v, 42.0f);
  ReleaseBuffer(std::move(buffer));
  stage.store(2);
  producer.join();
  EXPECT_EQ(PoolSnapshot().pooled_bytes, kSize * sizeof(float));
}

TEST(BufferPoolThreadsTest, ConcurrentAcquireReleaseIsRaceFree) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int round = 0; round < kRounds; ++round) {
        // Overlapping sizes across threads so buffers migrate between
        // thread caches via the global tier.
        size_t size = 128 + 64 * static_cast<size_t>((t + round) % kThreads);
        std::vector<float> buffer = AcquireBuffer(size, BufferFill::kUninit);
        buffer[0] = static_cast<float>(t);
        ReleaseBuffer(std::move(buffer));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  BufferPoolStats stats = PoolSnapshot();
  EXPECT_GE(stats.acquires, static_cast<uint64_t>(kThreads * kRounds));
}

// --- Poison mode ------------------------------------------------------------

TEST(BufferPoolPoisonTest, PoisonFillCatchesReadBeforeWrite) {
  PoisonModeGuard poison(true);
  // A "kernel" that wrongly reads its kUninit output before writing it must
  // see NaNs, both on a fresh buffer and on a recycled one.
  Tensor fresh = Tensor::Uninitialized(Shape{4, 4});
  for (float v : fresh.data()) EXPECT_TRUE(std::isnan(v));
  {
    Tensor dirty = Tensor::Full(Shape{6, 6}, 1.0f);
  }
  Tensor recycled = Tensor::Uninitialized(Shape{6, 6});
  for (float v : recycled.data()) EXPECT_TRUE(std::isnan(v));
}

TEST(BufferPoolPoisonTest, KernelsFullyOverwriteUninitOutputs) {
  // The zero-init-elision safety argument, executed: with poisoning on, a
  // training step's ops must produce NaN-free outputs, proving every
  // kUninit buffer is fully overwritten before it is read.
  PoisonModeGuard poison(true);
  Tensor a = Tensor::Full(Shape{5, 8}, 0.5f, /*requires_grad=*/true);
  Tensor b = Tensor::Full(Shape{8, 3}, -0.25f, /*requires_grad=*/true);
  Tensor h = ops::Relu(ops::MatMul(a, b));
  Tensor loss = ops::MeanAll(ops::Mul(h, h));
  Backward(loss);
  EXPECT_FALSE(std::isnan(loss.at(0)));
  for (float v : a.grad()) EXPECT_FALSE(std::isnan(v));
  for (float v : b.grad()) EXPECT_FALSE(std::isnan(v));
}

#ifdef LOGCL_TEST_ASAN
// --- ASan poisoning (compiled only under -fsanitize=address) ----------------

TEST(BufferPoolAsanTest, ReleasedBufferIsPoisonedUntilReacquired) {
  TrimBufferPool();
  constexpr size_t kSize = 4099;  // uncommon size: private bucket
  std::vector<float> buffer = AcquireBuffer(kSize, BufferFill::kZero);
  float* storage = buffer.data();
  EXPECT_FALSE(__asan_address_is_poisoned(storage));
  ReleaseBuffer(std::move(buffer));
  EXPECT_TRUE(__asan_address_is_poisoned(storage));
  EXPECT_TRUE(__asan_address_is_poisoned(storage + kSize / 2));
  // A read through the stale pointer is reported like a use-after-free.
  EXPECT_DEATH(
      {
        volatile float stale = storage[kSize / 2];
        (void)stale;
      },
      "use-after-poison");
  std::vector<float> again = AcquireBuffer(kSize, BufferFill::kUninit);
  ASSERT_EQ(again.data(), storage);
  EXPECT_EQ(__asan_region_is_poisoned(again.data(), kSize * sizeof(float)),
            nullptr);
  ReleaseBuffer(std::move(again));
}
#endif  // LOGCL_TEST_ASAN

// --- Thread-local grad mode (run under TSan in CI) --------------------------

TEST(GradModeThreadLocalTest, NoGradGuardDoesNotLeakAcrossThreads) {
  NoGradGuard guard;  // disables recording on THIS thread only
  ASSERT_FALSE(GradModeEnabled());
  bool other_thread_records = false;
  std::thread checker([&] {
    // A fresh thread starts with grad mode on; ops there still record.
    Tensor x = Tensor::Full(Shape{2, 2}, 1.0f, /*requires_grad=*/true);
    Tensor y = ops::Scale(x, 2.0f);
    other_thread_records = GradModeEnabled() && y.requires_grad();
  });
  checker.join();
  EXPECT_TRUE(other_thread_records);
  // And this thread is still in no-grad mode.
  Tensor x = Tensor::Full(Shape{2, 2}, 1.0f, /*requires_grad=*/true);
  EXPECT_FALSE(ops::Scale(x, 2.0f).requires_grad());
}

TEST(GradModeThreadLocalTest, ConcurrentGuardsDoNotRace) {
  // TSan regression: one thread toggling NoGradGuard in a loop while others
  // construct op outputs. With a global flag this is a data race; with the
  // thread_local flag it is race-free and each thread sees its own mode.
  std::atomic<bool> stop{false};
  std::thread toggler([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      NoGradGuard guard;
    }
  });
  for (int i = 0; i < 200; ++i) {
    Tensor x = Tensor::Full(Shape{3, 3}, 1.0f, /*requires_grad=*/true);
    ASSERT_TRUE(ops::Scale(x, 0.5f).requires_grad());
  }
  stop.store(true, std::memory_order_relaxed);
  toggler.join();
}

// --- End-to-end: cold vs warm pool parity + steady-state hit rate ----------

struct EpochResult {
  double loss = 0.0;
  std::vector<std::vector<float>> scores;
  std::vector<std::vector<float>> params;
  std::vector<std::vector<float>> grads;
};

TkgDataset SmallDataset() {
  SynthConfig config;
  config.seed = 88;
  config.num_entities = 16;
  config.num_relations = 3;
  config.num_timestamps = 15;
  return GenerateSyntheticTkg(config);
}

EpochResult RunEpoch(const TkgDataset& d, uint64_t seed) {
  LogClConfig config;
  config.embedding_dim = 8;
  config.local.history_length = 2;
  config.local.num_layers = 1;
  config.global.num_layers = 1;
  config.decoder.num_kernels = 4;
  config.seed = seed;
  LogClModel model(&d, config);
  AdamOptimizer optimizer(model.Parameters(), {});
  EpochResult r;
  r.loss = model.TrainEpoch(&optimizer).loss;
  r.scores = model.ScoreQueries({{0, 0, 1, 13}, {2, 1, 3, 13}});
  for (const Tensor& p : model.Parameters()) {
    r.params.push_back(p.data());
    r.grads.push_back(p.grad());
  }
  return r;
}

void ExpectBitwiseEqual(const EpochResult& a, const EpochResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.loss, b.loss) << what;
  EXPECT_EQ(a.scores, b.scores) << what;
  ASSERT_EQ(a.params.size(), b.params.size()) << what;
  for (size_t i = 0; i < a.params.size(); ++i) {
    EXPECT_EQ(a.params[i], b.params[i]) << what << ", parameter " << i;
    EXPECT_EQ(a.grads[i], b.grads[i]) << what << ", grad " << i;
  }
}

// Recycled (stale) buffers must not change a single bit of training or eval
// output, at 1 and 4 threads. The cold epoch starts on an empty pool, so
// every buffer it first touches is fresh and zeroed. The warm epochs start
// on a pool primed by a differently seeded model, whose buffers hold stale
// values of the same shapes; the second warm epoch also fills every
// recycled kUninit buffer with signalling NaNs.
TEST(PoolEpochParityTest, ColdAndWarmPoolBitwiseIdentical) {
  TkgDataset d = SmallDataset();
  constexpr uint64_t kSeed = 99;
  for (int num_threads : {1, 4}) {
    ThreadCountGuard guard;
    SetNumThreads(num_threads);
    const std::string threads = std::to_string(num_threads) + " threads";
    TrimBufferPool();
    EpochResult cold = RunEpoch(d, kSeed);
    RunEpoch(d, kSeed + 1);  // primes the pool with stale buffers
    ExpectBitwiseEqual(cold, RunEpoch(d, kSeed), "warm, " + threads);
    PoisonModeGuard poison(true);
    RunEpoch(d, kSeed + 1);
    ExpectBitwiseEqual(cold, RunEpoch(d, kSeed), "warm poisoned, " + threads);
  }
}

// Shapes repeat across steps, so after a warm epoch virtually every
// acquisition is served from a free list.
TEST(PoolEpochParityTest, SteadyStateHitRateIsAtLeast95Percent) {
  TkgDataset d = SmallDataset();
  RunEpoch(d, 99);  // warm the buckets
  ResetPoolStats();
  RunEpoch(d, 99);
  BufferPoolStats stats = PoolSnapshot();
  EXPECT_GT(stats.acquires, 1000u) << "epoch unexpectedly small";
  EXPECT_GE(stats.HitRate(), 0.95)
      << "hit rate " << stats.HitRate() << " — " << stats.ToString();
}

}  // namespace
}  // namespace logcl
