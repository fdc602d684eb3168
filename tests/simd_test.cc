// Tests pinning the SIMD layer's bitwise-parity contract (tensor/simd.h):
// every fp32 kernel returns bit-identical outputs whether the scalar or the
// vectorized variant runs, over shapes that exercise vector bodies, scalar
// tails, and the register-panel remainders. The end-to-end half trains a
// full epoch under both kernel tables (and at 1 and 4 threads) and demands
// bitwise-equal scores.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "core/logcl_model.h"
#include "synth/generator.h"
#include "tensor/optimizer.h"
#include "tensor/simd.h"
#include "tkg/dataset.h"

namespace logcl {
namespace {

// Deterministic fill with awkward float values (mixed signs, magnitudes,
// exact and inexact fractions) — enough entropy that a rounding-order
// difference between kernel variants cannot cancel out.
std::vector<float> Fill(int64_t n, uint64_t seed) {
  std::vector<float> out(static_cast<size_t>(n));
  uint64_t state = seed * 6364136223846793005ull + 1442695040888963407ull;
  for (int64_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    uint32_t r = static_cast<uint32_t>(state >> 33);
    float v = static_cast<float>(static_cast<int32_t>(r % 2001) - 1000) /
              147.0f;
    out[static_cast<size_t>(i)] = v;
  }
  return out;
}

void ExpectBitwiseEqual(const std::vector<float>& a,
                        const std::vector<float>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    uint32_t ba, bb;
    std::memcpy(&ba, &a[i], sizeof(ba));
    std::memcpy(&bb, &b[i], sizeof(bb));
    ASSERT_EQ(ba, bb) << what << " differs at " << i << ": " << a[i]
                      << " vs " << b[i];
  }
}

// Restores the kernel table on scope exit.
class SimdGuard {
 public:
  SimdGuard() : previous_(simd::SimdEnabled()) {}
  ~SimdGuard() { simd::SetSimdEnabled(previous_); }

 private:
  bool previous_;
};

class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int n) : previous_(GetNumThreads()) {
    SetNumThreads(n);
  }
  ~ThreadCountGuard() { SetNumThreads(previous_); }

 private:
  int previous_;
};

// Runs `op` (writing `out_size` floats into its argument) under both kernel
// tables and asserts bitwise-equal results.
template <typename Op>
void ExpectVariantParity(int64_t out_size, const char* what, Op op) {
  SimdGuard guard;
  std::vector<float> scalar_out(static_cast<size_t>(out_size));
  std::vector<float> simd_out(static_cast<size_t>(out_size));
  simd::SetSimdEnabled(false);
  op(scalar_out.data());
  simd::SetSimdEnabled(true);
  op(simd_out.data());
  ExpectBitwiseEqual(scalar_out, simd_out, what);
}

// Sizes hitting: empty, below one vector, exactly one vector, vector + tail,
// several vectors, and a large run.
const int64_t kSizes[] = {0, 1, 3, 7, 8, 9, 15, 16, 31, 64, 100, 1027};

TEST(SimdDispatchTest, ActiveIsaFollowsEnable) {
  SimdGuard guard;
  simd::SetSimdEnabled(false);
  EXPECT_EQ(simd::ActiveIsa(), simd::SimdIsa::kScalar);
  EXPECT_FALSE(simd::SimdEnabled());
  simd::SetSimdEnabled(true);
  EXPECT_EQ(simd::ActiveIsa(), simd::DetectedIsa());
  EXPECT_TRUE(simd::SimdEnabled());
  EXPECT_NE(simd::IsaName(simd::ActiveIsa()), nullptr);
}

TEST(SimdParityTest, ElementwiseBinary) {
  for (int64_t n : kSizes) {
    std::vector<float> a = Fill(n, 11), b = Fill(n, 22);
    ExpectVariantParity(n, "add", [&](float* out) {
      simd::Add(a.data(), b.data(), out, n);
    });
    ExpectVariantParity(n, "sub", [&](float* out) {
      simd::Sub(a.data(), b.data(), out, n);
    });
    ExpectVariantParity(n, "mul", [&](float* out) {
      simd::Mul(a.data(), b.data(), out, n);
    });
  }
}

TEST(SimdParityTest, AccumulatingKernels) {
  for (int64_t n : kSizes) {
    std::vector<float> a = Fill(n, 33), b = Fill(n, 44), init = Fill(n, 55);
    ExpectVariantParity(n, "accumulate", [&](float* out) {
      std::copy(init.begin(), init.end(), out);
      simd::Accumulate(a.data(), out, n);
    });
    ExpectVariantParity(n, "mul_accumulate", [&](float* out) {
      std::copy(init.begin(), init.end(), out);
      simd::MulAccumulate(a.data(), b.data(), out, n);
    });
    ExpectVariantParity(n, "axpy", [&](float* out) {
      std::copy(init.begin(), init.end(), out);
      simd::Axpy(-0.37f, a.data(), out, n);
    });
  }
}

TEST(SimdParityTest, ScaleAddScalarRelu) {
  for (int64_t n : kSizes) {
    std::vector<float> a = Fill(n, 66);
    if (n > 0) a[static_cast<size_t>(n / 2)] = -0.0f;  // relu(-0) corner
    ExpectVariantParity(n, "scale", [&](float* out) {
      simd::Scale(a.data(), 1.0f / 3.0f, out, n);
    });
    ExpectVariantParity(n, "add_scalar", [&](float* out) {
      simd::AddScalar(a.data(), -2.75f, out, n);
    });
    ExpectVariantParity(n, "relu", [&](float* out) {
      simd::Relu(a.data(), out, n);
    });
    std::vector<float> g = Fill(n, 77), init = Fill(n, 88);
    ExpectVariantParity(n, "relu_backward", [&](float* out) {
      std::copy(init.begin(), init.end(), out);
      simd::ReluBackward(a.data(), g.data(), out, n);
    });
  }
}

TEST(SimdParityTest, RowMax) {
  SimdGuard guard;
  for (int64_t n : kSizes) {
    if (n == 0) continue;
    std::vector<float> a = Fill(n, 99);
    simd::SetSimdEnabled(false);
    float scalar = simd::RowMax(a.data(), n);
    simd::SetSimdEnabled(true);
    float vectored = simd::RowMax(a.data(), n);
    EXPECT_EQ(scalar, vectored) << "n=" << n;
    // All-negative row: the max must not be polluted by a zero identity.
    for (float& v : a) v = -std::fabs(v) - 1.0f;
    simd::SetSimdEnabled(false);
    scalar = simd::RowMax(a.data(), n);
    simd::SetSimdEnabled(true);
    EXPECT_EQ(scalar, simd::RowMax(a.data(), n)) << "all-negative n=" << n;
  }
  EXPECT_EQ(simd::RowMax(nullptr, 0),
            -std::numeric_limits<float>::infinity());
}

// Shapes crossing every panel/vector boundary: rows hit the R=4 main loop
// plus 1/2/3-row remainders; columns hit full 24-wide register tiles, the
// 8-wide tiles after them (n = 47, 48, 49, 64, 200 leave 23, 0, 1, 16, 8
// columns) and the scalar tails. The wide shapes shard TN output rows into
// packed panels with 1-3-row remainders at 1 to 4 threads.
const struct {
  int64_t m, k, n;
} kMatShapes[] = {{1, 1, 1},     {3, 5, 7},       {4, 8, 8},
                  {5, 9, 17},    {7, 16, 24},     {13, 21, 33},
                  {8, 32, 9},    {2, 64, 70},     {6, 13, 47},
                  {9, 30, 48},   {11, 7, 49},     {17, 45, 64},
                  {37, 23, 200}, {203, 200, 200}};

TEST(SimdParityTest, MatMulDrivers) {
  for (const auto& s : kMatShapes) {
    std::vector<float> a = Fill(s.m * s.k, 1), b = Fill(s.k * s.n, 2);
    std::vector<float> c0 = Fill(s.m * s.n, 3);
    ExpectVariantParity(s.m * s.n, "matmul_nn", [&](float* out) {
      std::copy(c0.begin(), c0.end(), out);
      simd::MatMulAccumNN(a.data(), b.data(), out, s.m, s.k, s.n);
    });
    // NT: C(m x k) += A(m x n) * B(k x n)^T with A [m, n], B [k, n].
    std::vector<float> an = Fill(s.m * s.n, 4), bn = Fill(s.k * s.n, 5);
    std::vector<float> cnt = Fill(s.m * s.k, 6);
    ExpectVariantParity(s.m * s.k, "matmul_nt", [&](float* out) {
      std::copy(cnt.begin(), cnt.end(), out);
      simd::MatMulAccumNT(an.data(), bn.data(), out, s.m, s.n, s.k);
    });
    // TN: C(k x n) += A(m x k)^T * B(m x n).
    std::vector<float> bt = Fill(s.m * s.n, 7);
    std::vector<float> ctn = Fill(s.k * s.n, 8);
    ExpectVariantParity(s.k * s.n, "matmul_tn", [&](float* out) {
      std::copy(ctn.begin(), ctn.end(), out);
      simd::MatMulAccumTN(a.data(), bt.data(), out, s.m, s.k, s.n);
    });
  }
}

TEST(SimdParityTest, MatMulRowRangesComposeToWhole) {
  // Row-range kernels over disjoint ranges must equal one full-range call
  // (this is what ParallelFor sharding relies on for thread invariance).
  SimdGuard guard;
  simd::SetSimdEnabled(true);
  const int64_t m = 11, k = 13, n = 19;
  std::vector<float> a = Fill(m * k, 21), b = Fill(k * n, 22);
  std::vector<float> whole(static_cast<size_t>(m * n), 0.0f);
  std::vector<float> pieces(static_cast<size_t>(m * n), 0.0f);
  simd::MatMulRowsNN(a.data(), b.data(), whole.data(), m, k, n, 0, m);
  for (int64_t r0 = 0; r0 < m; r0 += 3) {
    simd::MatMulRowsNN(a.data(), b.data(), pieces.data(), m, k, n, r0,
                       std::min<int64_t>(m, r0 + 3));
  }
  ExpectBitwiseEqual(whole, pieces, "row-range composition");
}

TEST(SimdParityTest, MatMulRowsTNRangesComposeToWhole) {
  // TN packs the A columns of each row range into its own panel, so pieces
  // of every length (1-3-row remainders, packed multiples of four) must
  // equal one full-range call and the scalar kernel.
  SimdGuard guard;
  const int64_t m = 29, k = 23, n = 50;
  std::vector<float> a = Fill(m * k, 23), b = Fill(m * n, 24);
  std::vector<float> c0 = Fill(k * n, 25);
  simd::SetSimdEnabled(false);
  std::vector<float> scalar = c0;
  simd::MatMulRowsTN(a.data(), b.data(), scalar.data(), m, k, n, 0, k);
  simd::SetSimdEnabled(true);
  std::vector<float> whole = c0;
  simd::MatMulRowsTN(a.data(), b.data(), whole.data(), m, k, n, 0, k);
  ExpectBitwiseEqual(scalar, whole, "tn vs scalar");
  for (int64_t piece : {int64_t{1}, int64_t{3}, int64_t{5}, int64_t{9}}) {
    std::vector<float> pieces = c0;
    for (int64_t r0 = 0; r0 < k; r0 += piece) {
      simd::MatMulRowsTN(a.data(), b.data(), pieces.data(), m, k, n, r0,
                         std::min<int64_t>(k, r0 + piece));
    }
    ExpectBitwiseEqual(whole, pieces, "tn row-range composition");
  }
}

// The blocked, sharded transpose against the naive loop, for every store
// mode. Shapes are ragged (no dimension a multiple of the 32-wide tile
// except the 32 x 64 control) and the last two exceed one shard, so the
// 4-thread runs split partial tiles across workers. Inputs include -0.0,
// which the fresh mode must store as +0.0.
TEST(SimdExactTest, TransposeMatchesNaiveLoop) {
  const struct {
    int64_t rows, cols;
  } kShapes[] = {{0, 5}, {5, 0}, {1, 1}, {1, 33}, {33, 1}, {31, 33},
                 {32, 64}, {65, 97}, {300, 257}, {70, 2001}};
  const simd::TransposeWrite kModes[] = {simd::TransposeWrite::kCopy,
                                         simd::TransposeWrite::kFresh,
                                         simd::TransposeWrite::kAccumulate};
  for (const auto& s : kShapes) {
    std::vector<float> in = Fill(s.rows * s.cols, 31);
    for (size_t i = 0; i < in.size(); i += 7) in[i] = -0.0f;
    std::vector<float> out0 = Fill(s.rows * s.cols, 32);
    for (simd::TransposeWrite mode : kModes) {
      std::vector<float> naive = out0;
      for (int64_t i = 0; i < s.rows; ++i) {
        for (int64_t j = 0; j < s.cols; ++j) {
          float x = in[static_cast<size_t>(i * s.cols + j)];
          float& o = naive[static_cast<size_t>(j * s.rows + i)];
          if (mode == simd::TransposeWrite::kCopy) o = x;
          if (mode == simd::TransposeWrite::kFresh) o = 0.0f + x;
          if (mode == simd::TransposeWrite::kAccumulate) o += x;
        }
      }
      for (int threads : {1, 4}) {
        ThreadCountGuard guard(threads);
        std::vector<float> out = out0;
        simd::Transpose(in.data(), s.rows, s.cols, out.data(), mode);
        ExpectBitwiseEqual(naive, out, "transpose");
      }
    }
  }
}

TEST(SimdParityTest, MatMulTile) {
  // The fused message-passing inner tile: rows x cols <= kTileRows x
  // kTileCols with arbitrary leading strides.
  const int64_t lda = 17, ldb = 23;
  std::vector<float> a = Fill(simd::kTileRows * lda, 31);
  std::vector<float> b = Fill(64 * ldb, 32);
  for (int64_t rows : {int64_t{1}, int64_t{2}, int64_t{4}}) {
    for (int64_t cols : {int64_t{1}, int64_t{7}, int64_t{8}, int64_t{23},
                         simd::kTileCols}) {
      for (int64_t k : {int64_t{1}, int64_t{5}, int64_t{16}}) {
        ExpectVariantParity(rows * simd::kTileCols, "matmul_tile",
                            [&](float* out) {
                              simd::MatMulTile(a.data(), lda, b.data(), ldb,
                                               out, simd::kTileCols, rows, k,
                                               cols);
                            });
      }
    }
  }
}

// Scores `rows` int8 rows against `q` with unit scales under both kernel
// tables and checks each output against the exact integer dot. |dot| < 2^24
// keeps the float conversion exact, so equality is the contract.
void ExpectScoreRowsI8Exact(const std::vector<int8_t>& m,
                            const std::vector<int8_t>& q, int64_t rows) {
  const int64_t n = static_cast<int64_t>(q.size());
  std::vector<float> expect(static_cast<size_t>(rows));
  for (int64_t e = 0; e < rows; ++e) {
    int32_t dot = 0;
    for (int64_t i = 0; i < n; ++i) {
      dot += static_cast<int32_t>(m[static_cast<size_t>(e * n + i)]) *
             static_cast<int32_t>(q[static_cast<size_t>(i)]);
    }
    ASSERT_LT(std::abs(dot), 1 << 24) << "n=" << n;
    expect[static_cast<size_t>(e)] = static_cast<float>(dot);
  }
  const std::vector<float> scales(static_cast<size_t>(rows), 1.0f);
  SimdGuard guard;
  for (bool simd_on : {true, false}) {
    simd::SetSimdEnabled(simd_on);
    std::vector<float> out(static_cast<size_t>(rows), -1.0f);
    simd::ScoreRowsI8(m.data(), scales.data(), q.data(), 1.0f, rows, n,
                      out.data());
    EXPECT_EQ(out, expect) << (simd_on ? "simd" : "scalar") << " n=" << n;
  }
}

TEST(SimdExactTest, ScoreRowsI8MatchesIntegerReference) {
  const int64_t rows = 3;
  for (int64_t n : kSizes) {
    std::vector<int8_t> m(static_cast<size_t>(rows * n));
    std::vector<int8_t> q(static_cast<size_t>(n));
    uint64_t state = 7;
    for (int8_t& v : m) {
      state = state * 6364136223846793005ull + 1;
      v = static_cast<int8_t>(state >> 40);
    }
    for (int8_t& v : q) {
      state = state * 6364136223846793005ull + 1;
      v = static_cast<int8_t>(state >> 40);
    }
    ExpectScoreRowsI8Exact(m, q, rows);
  }
}

TEST(SimdExactTest, ScoreRowsI8SaturatedRange) {
  // +/-127 everywhere: the widening path must not overflow int16 pairwise
  // products (127 * 127 * 2 < 32768 holds; pin it).
  const int64_t n = 96;
  std::vector<int8_t> m(static_cast<size_t>(n), 127);
  std::vector<int8_t> q(static_cast<size_t>(n), -127);
  ExpectScoreRowsI8Exact(m, q, /*rows=*/1);
}

// --- end to end: a training epoch is bitwise invariant to the kernel table --

TkgDataset SimdData() {
  SynthConfig config;
  config.name = "simd-test";
  config.seed = 505;
  config.num_entities = 20;
  config.num_relations = 4;
  config.num_timestamps = 12;
  config.recurring_pool = 15;
  config.num_cyclic = 6;
  config.chains_per_timestamp = 1.5;
  return GenerateSyntheticTkg(config);
}

LogClConfig SimdModelConfig() {
  LogClConfig config;
  config.embedding_dim = 16;
  config.local.history_length = 3;
  config.local.num_layers = 1;
  config.local.time_dim = 4;
  config.global.num_layers = 1;
  config.decoder.num_kernels = 8;
  config.seed = 31;
  return config;
}

TEST(SimdEpochParityTest, TrainEpochBitwiseInvariantToKernelTable) {
  if (simd::DetectedIsa() == simd::SimdIsa::kScalar) {
    GTEST_SKIP() << "no vector ISA on this host; parity is trivial";
  }
  TkgDataset data = SimdData();
  auto train_and_score = [&](bool simd_on, int threads) {
    SimdGuard simd_guard;
    ThreadCountGuard thread_guard(threads);
    simd::SetSimdEnabled(simd_on);
    LogClModel model(&data, SimdModelConfig());
    AdamOptimizer optimizer(model.Parameters(), {});
    model.TrainEpoch(&optimizer);
    return model.ScoreQueries({{0, 0, 1, 10}, {3, 2, 5, 10}, {7, 1, 2, 10}});
  };
  std::vector<std::vector<float>> reference = train_and_score(false, 1);
  for (int threads : {1, 4}) {
    std::vector<std::vector<float>> scalar = train_and_score(false, threads);
    std::vector<std::vector<float>> vectored = train_and_score(true, threads);
    ASSERT_EQ(scalar.size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      ExpectBitwiseEqual(reference[i], scalar[i], "scalar epoch scores");
      ExpectBitwiseEqual(reference[i], vectored[i], "simd epoch scores");
    }
  }
}

}  // namespace
}  // namespace logcl
