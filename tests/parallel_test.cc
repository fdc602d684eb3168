// Tests for the parallel runtime: ParallelFor/ParallelReduce semantics and
// the thread-count determinism contract on a full LogCL training step.

#include "common/parallel.h"

#include <atomic>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/observability.h"
#include "core/logcl_model.h"
#include "synth/generator.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"

namespace logcl {
namespace {

// Restores the default thread count when a test exits, pass or fail.
struct ThreadCountGuard {
  ~ThreadCountGuard() { SetNumThreads(0); }
};

TEST(ThreadCountTest, SetAndGetRoundTrip) {
  ThreadCountGuard guard;
  SetNumThreads(3);
  EXPECT_EQ(GetNumThreads(), 3);
  SetNumThreads(1);
  EXPECT_EQ(GetNumThreads(), 1);
  SetNumThreads(0);  // restore default
  EXPECT_GE(GetNumThreads(), 1);
}

TEST(ThreadCountTest, SetNumThreadsClampsToTheMaximum) {
  ThreadCountGuard guard;
  // No parallel region runs at this size, so no worker is ever started.
  SetNumThreads(1 << 30);
  EXPECT_EQ(GetNumThreads(), kMaxNumThreads);
  SetNumThreads(0);
  EXPECT_GE(GetNumThreads(), 1);
  EXPECT_LE(GetNumThreads(), kMaxNumThreads);
}

TEST(ParallelForTest, EmptyRangeNeverInvokesBody) {
  ThreadCountGuard guard;
  SetNumThreads(4);
  std::atomic<int> calls{0};
  ParallelFor(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
  ParallelFor(7, 3, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, GrainLargerThanRangeRunsInline) {
  ThreadCountGuard guard;
  SetNumThreads(4);
  std::vector<std::pair<int64_t, int64_t>> ranges;
  ParallelFor(2, 9, 100, [&](int64_t b, int64_t e) {
    ranges.emplace_back(b, e);  // single inline call: no race
  });
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].first, 2);
  EXPECT_EQ(ranges[0].second, 9);
}

TEST(ParallelForTest, SubRangesCoverEveryIndexExactlyOnce) {
  ThreadCountGuard guard;
  SetNumThreads(4);
  constexpr int64_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h = 0;
  ParallelFor(0, kN, 16, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) ++hits[static_cast<size_t>(i)];
  });
  for (int64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, NestedCallsRunInlineWithoutDeadlock) {
  ThreadCountGuard guard;
  SetNumThreads(4);
  constexpr int64_t kOuter = 12;
  constexpr int64_t kInner = 7;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  for (auto& h : hits) h = 0;
  ParallelFor(0, kOuter, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      ParallelFor(0, kInner, 1, [&](int64_t ib, int64_t ie) {
        for (int64_t j = ib; j < ie; ++j) {
          ++hits[static_cast<size_t>(i * kInner + j)];
        }
      });
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelReduceTest, EmptyRangeReturnsIdentity) {
  ThreadCountGuard guard;
  SetNumThreads(4);
  int64_t result = ParallelReduce<int64_t>(
      3, 3, 1, int64_t{42},
      [](int64_t, int64_t) { return int64_t{1}; },
      [](int64_t a, int64_t b) { return a + b; });
  EXPECT_EQ(result, 42);
}

TEST(ParallelReduceTest, SumsExactly) {
  ThreadCountGuard guard;
  SetNumThreads(4);
  constexpr int64_t kN = 12345;
  int64_t sum = ParallelReduce<int64_t>(
      0, kN, 97, int64_t{0},
      [](int64_t b, int64_t e) {
        int64_t s = 0;
        for (int64_t i = b; i < e; ++i) s += i;
        return s;
      },
      [](int64_t a, int64_t b) { return a + b; });
  EXPECT_EQ(sum, kN * (kN - 1) / 2);
}

TEST(ParallelReduceTest, FloatSumIsBitwiseIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  constexpr int64_t kN = 40000;
  std::vector<float> xs(static_cast<size_t>(kN));
  uint32_t state = 12345;
  for (float& x : xs) {
    state = state * 1664525u + 1013904223u;  // LCG: deterministic data
    x = static_cast<float>(state % 1000) / 7.0f - 70.0f;
  }
  auto sum = [&] {
    return ParallelReduce<float>(
        0, kN, 128, 0.0f,
        [&](int64_t b, int64_t e) {
          float s = 0.0f;
          for (int64_t i = b; i < e; ++i) s += xs[static_cast<size_t>(i)];
          return s;
        },
        [](float a, float b) { return a + b; });
  };
  SetNumThreads(1);
  float serial = sum();
  SetNumThreads(4);
  float threaded = sum();
  EXPECT_EQ(serial, threaded);  // bitwise, not near
}

// RRelu slopes and dropout masks are counter-based draws (Rng::UniformAt /
// BernoulliAt) taken in parallel. At 1 and 4 threads the outputs and input
// gradients must be bitwise equal to a serial sweep over rng->Uniform /
// Bernoulli, and the generator must end where n serial draws leave it.
constexpr int64_t kDrawRows = 300, kDrawCols = 101;  // > 3 shards of kGrain

std::vector<float> SignedValues(int64_t n, uint32_t seed) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) {
    seed = seed * 1664525u + 1013904223u;
    x = static_cast<float>(seed % 2001) / 97.0f - 10.0f;
  }
  return v;
}

struct DrawResult {
  std::vector<float> out, grad;
  uint64_t next;  // first draw after the op
};

template <typename Op>
DrawResult RunDrawOp(int threads, const Op& op) {
  SetNumThreads(threads);
  const int64_t n = kDrawRows * kDrawCols;
  Tensor x = Tensor::FromVector(Shape{kDrawRows, kDrawCols},
                                SignedValues(n, 7), /*requires_grad=*/true);
  Tensor g = Tensor::FromVector(Shape{kDrawRows, kDrawCols},
                                SignedValues(n, 8));
  Rng rng(2024);
  Tensor y = op(x, &rng);
  Backward(y, g);
  return {y.data(), x.grad(), rng.Next()};
}

void ExpectSameBits(const std::vector<float>& a, const std::vector<float>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(0, std::memcmp(&a[i], &b[i], sizeof(float)))
        << what << " differs at " << i;
  }
}

TEST(ThreadDeterminismTest, RReluDrawsMatchSerialStreamAtAnyThreadCount) {
  ThreadCountGuard guard;
  const int64_t n = kDrawRows * kDrawCols;
  std::vector<float> x = SignedValues(n, 7), g = SignedValues(n, 8);
  DrawResult ref{std::vector<float>(x.size()), std::vector<float>(x.size()),
                 0};
  Rng serial(2024);
  for (size_t i = 0; i < x.size(); ++i) {
    float s = static_cast<float>(serial.Uniform(1.0f / 8.0f, 1.0f / 3.0f));
    ref.out[i] = x[i] > 0.0f ? x[i] : s * x[i];
    ref.grad[i] = 0.0f + g[i] * (x[i] > 0.0f ? 1.0f : s);
  }
  ref.next = serial.Next();
  for (int threads : {1, 4}) {
    DrawResult got = RunDrawOp(threads, [](const Tensor& t, Rng* rng) {
      return ops::RRelu(t, /*training=*/true, rng);
    });
    ExpectSameBits(ref.out, got.out, "rrelu output");
    ExpectSameBits(ref.grad, got.grad, "rrelu input grad");
    EXPECT_EQ(ref.next, got.next) << "threads=" << threads;
  }
}

TEST(ThreadDeterminismTest, DropoutDrawsMatchSerialStreamAtAnyThreadCount) {
  ThreadCountGuard guard;
  const float p = 0.3f, scale = 1.0f / (1.0f - p);
  const int64_t n = kDrawRows * kDrawCols;
  std::vector<float> x = SignedValues(n, 7), g = SignedValues(n, 8);
  DrawResult ref{std::vector<float>(x.size()), std::vector<float>(x.size()),
                 0};
  Rng serial(2024);
  for (size_t i = 0; i < x.size(); ++i) {
    float m = serial.Bernoulli(p) ? 0.0f : scale;
    ref.out[i] = x[i] * m;
    ref.grad[i] = 0.0f + g[i] * m;
  }
  ref.next = serial.Next();
  for (int threads : {1, 4}) {
    DrawResult got = RunDrawOp(threads, [p](const Tensor& t, Rng* rng) {
      return ops::Dropout(t, p, /*training=*/true, rng);
    });
    ExpectSameBits(ref.out, got.out, "dropout output");
    ExpectSameBits(ref.grad, got.grad, "dropout input grad");
    EXPECT_EQ(ref.next, got.next) << "threads=" << threads;
  }
}

// Two threads share one 4-thread pool: a top-level region that finds the
// other thread's region running executes its chunks inline, and its result
// is bitwise the 1-thread result.
TEST(ParallelTest, BusyPoolRegionRunsInlineBitwise) {
  ThreadCountGuard guard;
  Rng rng(5);
  Tensor a = Tensor::RandomNormal(Shape({96, 64}), 1.0f, &rng);
  Tensor b = Tensor::RandomNormal(Shape({64, 80}), 1.0f, &rng);
  std::vector<float> xs(20000);
  for (float& x : xs) x = static_cast<float>(rng.Normal(0.0, 3.0));
  auto sum = [&] {
    return ParallelReduce<float>(
        0, static_cast<int64_t>(xs.size()), 256, 0.0f,
        [&](int64_t lo, int64_t hi) {
          float s = 0.0f;
          for (int64_t i = lo; i < hi; ++i) s += xs[static_cast<size_t>(i)];
          return s;
        },
        [](float x, float y) { return x + y; });
  };
  SetNumThreads(1);
  const std::vector<float> product = ops::MatMul(a, b).data();
  const float total = sum();

  SetNumThreads(4);
  auto inline_regions = [] {
    return Metrics().Snapshot().CounterValue("logcl.parallel.inline_regions");
  };
  const uint64_t inline_before = inline_regions();

  // Deterministic overlap first: one thread's region holds the pool until
  // the other thread's MatMul and sum have both finished, so every region
  // of the latter must run inline.
  std::atomic<bool> holding{false};
  std::atomic<bool> other_done{false};
  std::thread holder([&] {
    ParallelFor(0, 4, 1, [&](int64_t lo, int64_t) {
      if (lo != 0) return;
      holding.store(true, std::memory_order_release);
      while (!other_done.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
  });
  while (!holding.load(std::memory_order_acquire)) std::this_thread::yield();
  std::vector<float> held_product = ops::MatMul(a, b).data();
  float held_total = sum();
  other_done.store(true, std::memory_order_release);
  holder.join();
  EXPECT_EQ(held_product, product);
  EXPECT_EQ(held_total, total);
  EXPECT_GE(inline_regions(), inline_before + 2);  // the MatMul and the sum

  // Then free-running: both threads repeat both computations.
  constexpr int kReps = 20;
  auto repeat = [&](std::vector<std::vector<float>>* products,
                    std::vector<float>* totals) {
    for (int i = 0; i < kReps; ++i) {
      products->push_back(ops::MatMul(a, b).data());
      totals->push_back(sum());
    }
  };
  std::vector<std::vector<float>> products_a, products_b;
  std::vector<float> totals_a, totals_b;
  std::thread other([&] { repeat(&products_b, &totals_b); });
  repeat(&products_a, &totals_a);
  other.join();
  for (int i = 0; i < kReps; ++i) {
    EXPECT_EQ(products_a[i], product) << "rep " << i;
    EXPECT_EQ(products_b[i], product) << "rep " << i;
    EXPECT_EQ(totals_a[i], total) << "rep " << i;
    EXPECT_EQ(totals_b[i], total) << "rep " << i;
  }
}

// The ISSUE's acceptance test: one full LogCL training epoch plus scoring
// must produce identical forward scores and identical post-Adam-step
// parameters (hence identical gradients) at 1 vs 4 threads.
TEST(ThreadDeterminismTest, TrainingStepIdenticalAtOneVsFourThreads) {
  ThreadCountGuard guard;
  SynthConfig config;
  config.seed = 88;
  config.num_entities = 16;
  config.num_relations = 3;
  config.num_timestamps = 15;
  TkgDataset d = GenerateSyntheticTkg(config);
  LogClConfig model_config;
  model_config.embedding_dim = 8;
  model_config.local.history_length = 2;
  model_config.local.num_layers = 1;
  model_config.global.num_layers = 1;
  model_config.decoder.num_kernels = 4;
  model_config.seed = 99;

  struct RunResult {
    std::vector<std::vector<float>> scores;
    std::vector<std::vector<float>> params;
    std::vector<std::vector<float>> grads;
  };
  auto run = [&] {
    LogClModel model(&d, model_config);
    AdamOptimizer optimizer(model.Parameters(), {});
    model.TrainEpoch(&optimizer);
    RunResult r;
    r.scores = model.ScoreQueries({{0, 0, 1, 13}, {2, 1, 3, 13}});
    for (const Tensor& p : model.Parameters()) {
      r.params.push_back(p.data());
      r.grads.push_back(p.grad());
    }
    return r;
  };

  SetNumThreads(1);
  RunResult serial = run();
  SetNumThreads(4);
  RunResult threaded = run();

  EXPECT_EQ(serial.scores, threaded.scores);
  ASSERT_EQ(serial.params.size(), threaded.params.size());
  for (size_t i = 0; i < serial.params.size(); ++i) {
    EXPECT_EQ(serial.params[i], threaded.params[i]) << "parameter " << i;
    EXPECT_EQ(serial.grads[i], threaded.grads[i]) << "grad " << i;
  }
}

}  // namespace
}  // namespace logcl
