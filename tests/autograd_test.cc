// Tests for the autograd tape replay (tensor/backward.cc): bitwise-identical
// grads at 1, 4 and 8 threads on shared-operand graphs, the scalar-loss API
// contract and its explicit-seed escape hatch, the kUninit fresh-grad write
// path under poison mode (including the -0.0 normalisation the `0.0f + x`
// form exists for), and the logcl.autograd.* metrics.

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/observability.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "tensor/buffer_pool.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace logcl {
namespace {

// Restores the default thread count when a test exits, pass or fail.
struct ThreadCountGuard {
  ~ThreadCountGuard() { SetNumThreads(0); }
};

// Scoped poison mode (read-before-write detection on kUninit buffers).
struct PoisonModeGuard {
  explicit PoisonModeGuard(bool enabled) : previous_(PoisonUninitEnabled()) {
    SetPoisonUninitEnabled(enabled);
  }
  ~PoisonModeGuard() { SetPoisonUninitEnabled(previous_); }
  bool previous_;
};

// --- Diamond workload -------------------------------------------------------
//
// One shared input feeds `branches` independent MatMul + activation towers
// whose scalar summaries re-join into a single loss. The shared input has
// one distinct consumer per branch (>= 8 below), so its grad is a chain of
// in-place adds whose bits depend on the order the consumers run.

struct DiamondResult {
  float loss = 0.0f;
  std::vector<std::vector<float>> grads;  // shared input first, then weights
};

DiamondResult RunDiamond(int branches, int threads) {
  ThreadCountGuard thread_guard;
  SetNumThreads(threads);
  Rng rng(1234);
  Tensor x = Tensor::RandomNormal(Shape{12, 24}, 0.5f, &rng,
                                  /*requires_grad=*/true);
  std::vector<Tensor> weights;
  weights.reserve(branches);
  for (int b = 0; b < branches; ++b) {
    weights.push_back(Tensor::RandomNormal(Shape{24, 24}, 0.5f, &rng,
                                           /*requires_grad=*/true));
  }
  Tensor total;
  for (int b = 0; b < branches; ++b) {
    Tensor h = ops::MatMul(x, weights[b]);
    switch (b % 3) {  // vary activations so branches are not symmetric
      case 0:
        h = ops::Tanh(h);
        break;
      case 1:
        h = ops::Relu(h);
        break;
      default:
        h = ops::Sigmoid(h);
        break;
    }
    h = ops::Mul(h, h);  // h gets two consumer slots of one node
    Tensor term = ops::SumAll(h);
    total = total.defined() ? ops::Add(total, term) : term;
  }
  Tensor loss = ops::Scale(total, 1.0f / static_cast<float>(branches));
  Backward(loss);
  DiamondResult r;
  r.loss = loss.at(0);
  r.grads.push_back(x.grad());
  for (const Tensor& w : weights) r.grads.push_back(w.grad());
  return r;
}

TEST(AutogradParityTest, DiamondBitwiseIdenticalAcrossThreads) {
  const DiamondResult reference = RunDiamond(10, 1);
  ASSERT_EQ(reference.grads.size(), 11u);
  for (int threads : {1, 4, 8}) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      DiamondResult run = RunDiamond(10, threads);
      EXPECT_EQ(reference.loss, run.loss)
          << "threads=" << threads << " repeat=" << repeat;
      ASSERT_EQ(reference.grads.size(), run.grads.size());
      for (size_t i = 0; i < reference.grads.size(); ++i) {
        EXPECT_EQ(reference.grads[i], run.grads[i])
            << "grad " << i << " threads=" << threads << " repeat=" << repeat;
      }
    }
  }
}

// Randomised DAGs with heavy tensor sharing: every intermediate is eligible
// as an operand of later ops, so multi-consumer chains of varying length and
// interleaving appear. Grads must agree bitwise at every thread count.
TEST(AutogradParityTest, RandomSharedDagsBitwiseIdentical) {
  auto run = [](uint64_t seed, int threads) {
    ThreadCountGuard thread_guard;
    SetNumThreads(threads);
    Rng rng(seed);
    const Shape shape{6, 8};
    std::vector<Tensor> pool;
    pool.push_back(Tensor::RandomNormal(shape, 0.5f, &rng, true));
    pool.push_back(Tensor::RandomNormal(shape, 0.5f, &rng, true));
    for (int step = 0; step < 40; ++step) {
      const Tensor& a = pool[rng.UniformInt(pool.size())];
      const Tensor& b = pool[rng.UniformInt(pool.size())];
      Tensor out;
      switch (rng.UniformInt(6)) {
        case 0:
          out = ops::Add(a, b);
          break;
        case 1:
          out = ops::Sub(a, b);
          break;
        case 2:
          out = ops::Mul(a, b);
          break;
        case 3:
          out = ops::Tanh(a);
          break;
        case 4:
          out = ops::Relu(a);
          break;
        default:
          out = ops::Scale(a, 0.5f);
          break;
      }
      pool.push_back(out);
    }
    Tensor loss = ops::MeanAll(pool.back());
    for (size_t i = pool.size() - 4; i < pool.size() - 1; ++i) {
      loss = ops::Add(loss, ops::MeanAll(pool[i]));
    }
    Backward(loss);
    std::vector<std::vector<float>> grads;
    grads.push_back(pool[0].grad());
    grads.push_back(pool[1].grad());
    return grads;
  };
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto reference = run(seed, 1);
    for (int threads : {4, 8}) {
      auto parallel = run(seed, threads);
      ASSERT_EQ(reference.size(), parallel.size());
      for (size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(reference[i], parallel[i])
            << "seed=" << seed << " threads=" << threads << " leaf=" << i;
      }
    }
  }
}

// --- API contract -----------------------------------------------------------

TEST(AutogradApiDeathTest, BackwardRequiresScalarLoss) {
  Tensor x = Tensor::Full(Shape{2, 3}, 1.0f, /*requires_grad=*/true);
  Tensor y = ops::Scale(x, 2.0f);
  EXPECT_DEATH(Backward(y), "scalar loss");
}

TEST(AutogradApiDeathTest, SeedGradientMustMatchLossSize) {
  Tensor x = Tensor::Full(Shape{2, 3}, 1.0f, /*requires_grad=*/true);
  Tensor y = ops::Scale(x, 2.0f);
  Tensor seed = Tensor::Full(Shape{2, 2}, 1.0f);
  EXPECT_DEATH(Backward(y, seed), "seed");
}

// Backward(y, seed) is defined as d(sum(y * seed))/dx. With a seed whose
// values survive the product exactly (powers of two), the explicit-seed path
// must be bitwise-equal to the scalar-loss formulation.
TEST(AutogradApiTest, ExplicitSeedGradientMatchesScalarFormulation) {
  auto make_input = [] {
    Rng rng(77);
    return Tensor::RandomNormal(Shape{4, 5}, 1.0f, &rng,
                                /*requires_grad=*/true);
  };
  Tensor x1 = make_input();
  Tensor y1 = ops::Tanh(x1);
  Tensor seed = Tensor::Full(Shape{4, 5}, 0.5f);
  Backward(y1, seed);

  Tensor x2 = make_input();
  Tensor loss = ops::SumAll(ops::Mul(ops::Tanh(x2), seed));
  Backward(loss);

  EXPECT_EQ(x1.grad(), x2.grad());
}

// --- Fresh-grad (kUninit) path ---------------------------------------------

// With poison mode on, a read of an unwritten pooled buffer surfaces as NaN.
// The fresh-grad path acquires grads as kUninit and promises full coverage;
// if any kernel under-writes, the poison leaks into the leaf grads.
TEST(AutogradFreshGradTest, PoisonModeStaysCleanAtFourThreads) {
  PoisonModeGuard poison(true);
  DiamondResult r = RunDiamond(9, 4);
  EXPECT_TRUE(std::isfinite(r.loss));
  for (const auto& grad : r.grads) {
    for (float g : grad) ASSERT_TRUE(std::isfinite(g)) << "poisoned grad";
  }
}

// The fresh kernels write `0.0f + contribution`, not a plain store, so that
// a -0.0 contribution lands as +0.0 exactly like accumulating into a zeroed
// buffer. Mul backward with g = -1 against a zero operand produces -0.0
// contributions; the leaf grad must come out +0.0.
TEST(AutogradFreshGradTest, NegativeZeroContributionsNormalised) {
  Tensor x = Tensor::Full(Shape{3, 7}, 2.0f, /*requires_grad=*/true);
  Tensor zeros = Tensor::Zeros(Shape{3, 7});
  // d(loss)/dx = -1 * zeros = -0.0 per element before normalisation.
  Tensor loss = ops::Scale(ops::SumAll(ops::Mul(x, zeros)), -1.0f);
  Backward(loss);
  std::vector<float> grad = x.grad();
  ASSERT_EQ(grad.size(), 21u);
  for (float g : grad) {
    EXPECT_EQ(g, 0.0f);
    EXPECT_FALSE(std::signbit(g)) << "-0.0 leaked";
  }
}

// --- Metrics ----------------------------------------------------------------

TEST(AutogradMetricsTest, EngineCountersPublished) {
  MetricsSnapshot before = Metrics().Snapshot();
  RunDiamond(10, 4);
  MetricsSnapshot after = Metrics().Snapshot();
  EXPECT_EQ(after.CounterValue("logcl.autograd.backwards"),
            before.CounterValue("logcl.autograd.backwards") + 1);
  EXPECT_GT(after.CounterValue("logcl.autograd.nodes"),
            before.CounterValue("logcl.autograd.nodes"));
}

}  // namespace
}  // namespace logcl
