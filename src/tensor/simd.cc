// Kernel variants + runtime dispatch for tensor/simd.h.
//
// Layout: one anonymous-namespace block per ISA (scalar always; avx2 behind
// __x86_64__ with per-function target attributes so the baseline build needs
// no -mavx2; neon behind __aarch64__ where it is baseline). A KernelTable of
// function pointers per ISA; dispatch picks a table once from CPUID + the
// LOGCL_SIMD env flag and caches it in an atomic (SetSimdEnabled swaps it).
//
// This translation unit is compiled with -ffp-contract=off (see
// src/CMakeLists.txt): the bitwise-parity contract in simd.h requires every
// multiply-accumulate to round twice (mul, then add), and the AVX2/NEON
// variants use separate mul/add intrinsics — never fused-multiply-add — so
// the compiler must not contract the scalar variants either.

#include "tensor/simd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/runtime_config.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define LOGCL_SIMD_X86 1
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#define LOGCL_SIMD_NEON 1
#endif

#include "common/parallel.h"
#include "tensor/buffer_pool.h"

namespace logcl {
namespace simd {
namespace {

#if defined(LOGCL_SIMD_X86)
#define LOGCL_TARGET_AVX2 __attribute__((target("avx2")))
#endif

// Every kernel with per-ISA variants, as one table of function pointers.
// `matmul_rows_nt` is null in SIMD tables: the driver then materialises B^T
// once and reuses `matmul_rows_nn`, which is bitwise-equal to the scalar
// dot-product kernel (same per-element product sequence, ascending reduction
// index, single zero-initialised accumulator).
struct KernelTable {
  void (*add)(const float*, const float*, float*, int64_t);
  void (*sub)(const float*, const float*, float*, int64_t);
  void (*mul)(const float*, const float*, float*, int64_t);
  void (*accumulate)(const float*, float*, int64_t);
  void (*mul_accumulate)(const float*, const float*, float*, int64_t);
  void (*axpy)(float, const float*, float*, int64_t);
  void (*scale)(const float*, float, float*, int64_t);
  void (*add_scalar)(const float*, float, float*, int64_t);
  void (*relu)(const float*, float*, int64_t);
  void (*relu_backward)(const float*, const float*, float*, int64_t);
  // Fresh-grad variants (see simd.h): dst[i] = 0.0f + contribution, the
  // bitwise equivalent of zero-fill + the accumulate kernel above.
  void (*accumulate_fresh)(const float*, float*, int64_t);
  void (*mul_accumulate_fresh)(const float*, const float*, float*, int64_t);
  void (*axpy_fresh)(float, const float*, float*, int64_t);
  void (*relu_backward_fresh)(const float*, const float*, float*, int64_t);
  float (*row_max)(const float*, int64_t);
  void (*matmul_rows_nn)(const float*, const float*, float*, int64_t, int64_t,
                         int64_t, int64_t, int64_t);
  void (*matmul_rows_nt)(const float*, const float*, float*, int64_t, int64_t,
                         int64_t, int64_t, int64_t);
  void (*matmul_rows_tn)(const float*, const float*, float*, int64_t, int64_t,
                         int64_t, int64_t, int64_t);
  void (*matmul_tile)(const float*, int64_t, const float*, int64_t, float*,
                      int64_t, int64_t, int64_t, int64_t);
  void (*score_rows_i8)(const int8_t*, const float*, const int8_t*, float,
                        int64_t, int64_t, float*);
};

// ---------------------------------------------------------------------------
// Scalar variants. These define the canonical per-element operation orders
// every SIMD variant must reproduce bit-for-bit (fp32) or exactly (integer).
// The matmul bodies are the blocked kernels that lived in tensor/ops.cc
// before this layer existed, restricted to an output-row range so the
// drivers below own the ParallelFor sharding.
// ---------------------------------------------------------------------------
namespace scalar {

void Add(const float* a, const float* b, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void Sub(const float* a, const float* b, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

void Mul(const float* a, const float* b, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void Accumulate(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += x[i];
}

void MulAccumulate(const float* a, const float* b, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += a[i] * b[i];
}

void Axpy(float s, const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += s * x[i];
}

void Scale(const float* x, float s, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = s * x[i];
}

void AddScalar(const float* x, float s, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = x[i] + s;
}

void Relu(const float* x, float* out, int64_t n) {
  // x > 0 ? x : +0, matching vmaxps/vmaxq lane semantics exactly (including
  // relu(-0) == +0).
  for (int64_t i = 0; i < n; ++i) out[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void ReluBackward(const float* x, const float* g, float* gx, int64_t n) {
  for (int64_t i = 0; i < n; ++i) gx[i] += x[i] > 0.0f ? g[i] : 0.0f;
}

// The explicit 0.0f + term in the fresh kernels is not dead code: it
// normalises -0.0 contributions to +0.0 exactly as accumulating into a
// zeroed buffer does (the compiler must keep it under IEEE semantics).
void AccumulateFresh(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = 0.0f + x[i];
}

void MulAccumulateFresh(const float* a, const float* b, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = 0.0f + a[i] * b[i];
}

void AxpyFresh(float s, const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = 0.0f + s * x[i];
}

void ReluBackwardFresh(const float* x, const float* g, float* gx, int64_t n) {
  for (int64_t i = 0; i < n; ++i) gx[i] = 0.0f + (x[i] > 0.0f ? g[i] : 0.0f);
}

float RowMax(const float* x, int64_t n) {
  float m = -std::numeric_limits<float>::infinity();
  for (int64_t i = 0; i < n; ++i) m = x[i] > m ? x[i] : m;
  return m;
}

void MatMulRowsNN(const float* a, const float* b, float* c, int64_t /*m*/,
                  int64_t k, int64_t n, int64_t r0, int64_t r1) {
  float acc[kTileRows][kTileCols];
  for (int64_t j0 = 0; j0 < n; j0 += kTileCols) {
    const int64_t jn = std::min(kTileCols, n - j0);
    for (int64_t i0 = r0; i0 < r1; i0 += kTileRows) {
      const int64_t im = std::min(kTileRows, r1 - i0);
      for (int64_t r = 0; r < im; ++r) {
        for (int64_t j = 0; j < jn; ++j) acc[r][j] = 0.0f;
      }
      for (int64_t l = 0; l < k; ++l) {
        const float* brow = b + l * n + j0;
        for (int64_t r = 0; r < im; ++r) {
          float av = a[(i0 + r) * k + l];
          float* arow = acc[r];
          for (int64_t j = 0; j < jn; ++j) arow[j] += av * brow[j];
        }
      }
      for (int64_t r = 0; r < im; ++r) {
        float* crow = c + (i0 + r) * n + j0;
        for (int64_t j = 0; j < jn; ++j) crow[j] += acc[r][j];
      }
    }
  }
}

// Square micro-tile for the direct dot-product NT kernel.
constexpr int64_t kDotTile = 4;

void MatMulRowsNT(const float* a, const float* b, float* c, int64_t /*m*/,
                  int64_t n, int64_t k, int64_t r0, int64_t r1) {
  float acc[kDotTile][kDotTile];
  for (int64_t i0 = r0; i0 < r1; i0 += kDotTile) {
    const int64_t im = std::min(kDotTile, r1 - i0);
    for (int64_t j0 = 0; j0 < k; j0 += kDotTile) {
      const int64_t jm = std::min(kDotTile, k - j0);
      for (int64_t r = 0; r < im; ++r) {
        for (int64_t s = 0; s < jm; ++s) acc[r][s] = 0.0f;
      }
      for (int64_t l = 0; l < n; ++l) {
        for (int64_t s = 0; s < jm; ++s) {
          float bv = b[(j0 + s) * n + l];
          for (int64_t r = 0; r < im; ++r) {
            acc[r][s] += a[(i0 + r) * n + l] * bv;
          }
        }
      }
      for (int64_t r = 0; r < im; ++r) {
        float* crow = c + (i0 + r) * k + j0;
        for (int64_t s = 0; s < jm; ++s) crow[s] += acc[r][s];
      }
    }
  }
}

void MatMulRowsTN(const float* a, const float* b, float* c, int64_t m,
                  int64_t k, int64_t n, int64_t r0, int64_t r1) {
  float acc[kTileRows][kTileCols];
  for (int64_t j0 = 0; j0 < n; j0 += kTileCols) {
    const int64_t jn = std::min(kTileCols, n - j0);
    for (int64_t i0 = r0; i0 < r1; i0 += kTileRows) {
      const int64_t im = std::min(kTileRows, r1 - i0);
      for (int64_t r = 0; r < im; ++r) {
        for (int64_t j = 0; j < jn; ++j) acc[r][j] = 0.0f;
      }
      for (int64_t l = 0; l < m; ++l) {
        const float* brow = b + l * n + j0;
        const float* acol = a + l * k + i0;
        for (int64_t r = 0; r < im; ++r) {
          float av = acol[r];
          float* arow = acc[r];
          for (int64_t j = 0; j < jn; ++j) arow[j] += av * brow[j];
        }
      }
      for (int64_t r = 0; r < im; ++r) {
        float* crow = c + (i0 + r) * n + j0;
        for (int64_t j = 0; j < jn; ++j) crow[j] += acc[r][j];
      }
    }
  }
}

void MatMulTile(const float* a, int64_t lda, const float* b, int64_t ldb,
                float* acc, int64_t acc_stride, int64_t rows, int64_t k,
                int64_t cols) {
  for (int64_t r = 0; r < rows; ++r) {
    float* arow = acc + r * acc_stride;
    for (int64_t j = 0; j < cols; ++j) arow[j] = 0.0f;
  }
  for (int64_t l = 0; l < k; ++l) {
    const float* brow = b + l * ldb;
    for (int64_t r = 0; r < rows; ++r) {
      float av = a[r * lda + l];
      float* arow = acc + r * acc_stride;
      for (int64_t j = 0; j < cols; ++j) arow[j] += av * brow[j];
    }
  }
}

int32_t DotI8(const int8_t* a, const int8_t* b, int64_t n) {
  int32_t sum = 0;
  for (int64_t i = 0; i < n; ++i) {
    sum += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return sum;
}

void ScoreRowsI8(const int8_t* m, const float* scales, const int8_t* q,
                 float qscale, int64_t rows, int64_t dim, float* out) {
  for (int64_t e = 0; e < rows; ++e) {
    out[e] = qscale * scales[e] *
             static_cast<float>(DotI8(m + e * dim, q, dim));
  }
}

constexpr KernelTable kTable = {
    Add,          Sub,           Mul,          Accumulate, MulAccumulate,
    Axpy,         Scale,         AddScalar,    Relu,       ReluBackward,
    AccumulateFresh, MulAccumulateFresh, AxpyFresh, ReluBackwardFresh,
    RowMax,       MatMulRowsNN,  MatMulRowsNT, MatMulRowsTN,
    MatMulTile,   ScoreRowsI8,
};

}  // namespace scalar

// ---------------------------------------------------------------------------
// AVX2 variants (8 fp32 lanes). Lanes carry independent output elements;
// arithmetic per element is mul then add (two roundings) exactly like the
// scalar loops. Tails run the scalar epilogue, which continues the same
// per-element chains (elementwise kernels have no cross-element state; the
// matmul kernels give each element its own accumulator either way).
// ---------------------------------------------------------------------------
#if defined(LOGCL_SIMD_X86)
namespace avx2 {

LOGCL_TARGET_AVX2 void Add(const float* a, const float* b, float* out,
                           int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

LOGCL_TARGET_AVX2 void Sub(const float* a, const float* b, float* out,
                           int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

LOGCL_TARGET_AVX2 void Mul(const float* a, const float* b, float* out,
                           int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

LOGCL_TARGET_AVX2 void Accumulate(const float* x, float* y, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

LOGCL_TARGET_AVX2 void MulAccumulate(const float* a, const float* b, float* y,
                                     int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 prod = _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
  }
  for (; i < n; ++i) y[i] += a[i] * b[i];
}

LOGCL_TARGET_AVX2 void Axpy(float s, const float* x, float* y, int64_t n) {
  const __m256 sv = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 prod = _mm256_mul_ps(sv, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
  }
  for (; i < n; ++i) y[i] += s * x[i];
}

LOGCL_TARGET_AVX2 void Scale(const float* x, float s, float* out, int64_t n) {
  const __m256 sv = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_mul_ps(sv, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) out[i] = s * x[i];
}

LOGCL_TARGET_AVX2 void AddScalar(const float* x, float s, float* out,
                                 int64_t n) {
  const __m256 sv = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(x + i), sv));
  }
  for (; i < n; ++i) out[i] = x[i] + s;
}

LOGCL_TARGET_AVX2 void Relu(const float* x, float* out, int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // vmaxps(x, 0): x > 0 ? x : 0 per lane — the scalar definition.
    _mm256_storeu_ps(out + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  for (; i < n; ++i) out[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

LOGCL_TARGET_AVX2 void ReluBackward(const float* x, const float* g, float* gx,
                                    int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 mask = _mm256_cmp_ps(_mm256_loadu_ps(x + i), zero, _CMP_GT_OQ);
    __m256 gated = _mm256_and_ps(mask, _mm256_loadu_ps(g + i));
    // Masked-off lanes add +0.0f, same as the scalar branch.
    _mm256_storeu_ps(gx + i,
                     _mm256_add_ps(_mm256_loadu_ps(gx + i), gated));
  }
  for (; i < n; ++i) gx[i] += x[i] > 0.0f ? g[i] : 0.0f;
}

LOGCL_TARGET_AVX2 void AccumulateFresh(const float* x, float* y, int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_add_ps(zero, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] = 0.0f + x[i];
}

LOGCL_TARGET_AVX2 void MulAccumulateFresh(const float* a, const float* b,
                                          float* y, int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 prod = _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(zero, prod));
  }
  for (; i < n; ++i) y[i] = 0.0f + a[i] * b[i];
}

LOGCL_TARGET_AVX2 void AxpyFresh(float s, const float* x, float* y,
                                 int64_t n) {
  const __m256 sv = _mm256_set1_ps(s);
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 prod = _mm256_mul_ps(sv, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(zero, prod));
  }
  for (; i < n; ++i) y[i] = 0.0f + s * x[i];
}

LOGCL_TARGET_AVX2 void ReluBackwardFresh(const float* x, const float* g,
                                         float* gx, int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 mask = _mm256_cmp_ps(_mm256_loadu_ps(x + i), zero, _CMP_GT_OQ);
    __m256 gated = _mm256_and_ps(mask, _mm256_loadu_ps(g + i));
    _mm256_storeu_ps(gx + i, _mm256_add_ps(zero, gated));
  }
  for (; i < n; ++i) gx[i] = 0.0f + (x[i] > 0.0f ? g[i] : 0.0f);
}

LOGCL_TARGET_AVX2 inline float HorizontalMax(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 m = _mm_max_ps(lo, hi);
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
  return _mm_cvtss_f32(m);
}

LOGCL_TARGET_AVX2 float RowMax(const float* x, int64_t n) {
  // max over finite floats is exact under any lane/association order, so the
  // reduction tree here returns the same bits as the scalar sweep.
  float m = -std::numeric_limits<float>::infinity();
  int64_t i = 0;
  if (n >= 8) {
    __m256 mv = _mm256_loadu_ps(x);
    for (i = 8; i + 8 <= n; i += 8) {
      mv = _mm256_max_ps(mv, _mm256_loadu_ps(x + i));
    }
    m = HorizontalMax(mv);
  }
  for (; i < n; ++i) m = x[i] > m ? x[i] : m;
  return m;
}

// Register tile: R output rows x W 8-wide column vectors, accumulators held
// in ymm registers across the full reduction sweep. The 4 x 3 tile uses 12
// accumulators, 3 B loads and 4 broadcasts per l — all 16 ymm registers.
// Each accumulator is one output element's chain: zero init, ascending l,
// mul-then-add, one final add into C — identical to the scalar kernel's
// acc[r][j].
template <int R, int W>
LOGCL_TARGET_AVX2 inline void TileNN(const float* a, int64_t lda,
                                     const float* b, int64_t ldb, float* c,
                                     int64_t ldc, int64_t k) {
  __m256 acc[R][W];
  for (int r = 0; r < R; ++r) {
    for (int w = 0; w < W; ++w) acc[r][w] = _mm256_setzero_ps();
  }
  for (int64_t l = 0; l < k; ++l) {
    __m256 bv[W];
    for (int w = 0; w < W; ++w) bv[w] = _mm256_loadu_ps(b + l * ldb + 8 * w);
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_set1_ps(a[r * lda + l]);
      for (int w = 0; w < W; ++w) {
        acc[r][w] = _mm256_add_ps(acc[r][w], _mm256_mul_ps(av, bv[w]));
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int w = 0; w < W; ++w) {
      float* cp = c + r * ldc + 8 * w;
      _mm256_storeu_ps(cp, _mm256_add_ps(_mm256_loadu_ps(cp), acc[r][w]));
    }
  }
}

// One column block (8*W wide) down `rows` rows: 4-row tiles, then the
// 1-3-row remainder.
template <int W>
LOGCL_TARGET_AVX2 inline void ColumnBlockNN(const float* a, int64_t lda,
                                            const float* b, int64_t ldb,
                                            float* c, int64_t ldc, int64_t k,
                                            int64_t rows) {
  int64_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    TileNN<4, W>(a + i * lda, lda, b, ldb, c + i * ldc, ldc, k);
  }
  const float* ai = a + i * lda;
  float* ci = c + i * ldc;
  switch (rows - i) {
    case 3: TileNN<3, W>(ai, lda, b, ldb, ci, ldc, k); break;
    case 2: TileNN<2, W>(ai, lda, b, ldb, ci, ldc, k); break;
    case 1: TileNN<1, W>(ai, lda, b, ldb, ci, ldc, k); break;
    default: break;
  }
}

// C(rows x n) += A(rows x k, leading dimension lda) * B(k x n). Column
// blocks run outside the row panels, so one 24-wide strip of B stays in L1
// while every row of A streams past it. Columns left over after the 24-wide
// blocks take 8-wide tiles, then the scalar chain.
LOGCL_TARGET_AVX2 void PanelsNN(const float* a, int64_t lda, const float* b,
                                float* c, int64_t k, int64_t n, int64_t rows) {
  int64_t j = 0;
  for (; j + 24 <= n; j += 24) {
    ColumnBlockNN<3>(a, lda, b + j, n, c + j, n, k, rows);
  }
  for (; j + 8 <= n; j += 8) {
    ColumnBlockNN<1>(a, lda, b + j, n, c + j, n, k, rows);
  }
  for (; j < n; ++j) {
    for (int64_t r = 0; r < rows; ++r) {
      float acc = 0.0f;
      for (int64_t l = 0; l < k; ++l) acc += a[r * lda + l] * b[l * n + j];
      c[r * n + j] += acc;
    }
  }
}

LOGCL_TARGET_AVX2 void MatMulRowsNN(const float* a, const float* b, float* c,
                                    int64_t /*m*/, int64_t k, int64_t n,
                                    int64_t r0, int64_t r1) {
  PanelsNN(a + r0 * k, k, b, c + r0 * n, k, n, r1 - r0);
}

// TN is NN with A read column-wise: the A operand of output row i is the
// stride-k column a[. * k + i]. The shard's columns [r0, r1) are packed into
// a contiguous A^T panel (a pure copy) and the NN tiles run over it with the
// reduction length m, so each output element keeps the scalar chain.
LOGCL_TARGET_AVX2 void MatMulRowsTN(const float* a, const float* b, float* c,
                                    int64_t m, int64_t k, int64_t n,
                                    int64_t r0, int64_t r1) {
  const int64_t rows = r1 - r0;
  if (rows <= 0) return;
  PooledBuffer at(static_cast<size_t>(rows) * static_cast<size_t>(m),
                  BufferFill::kUninit);
  float* ap = at.data();
  // 16 reduction steps per block: each panel row receives one cache line
  // while the 16 source rows stay in L1.
  for (int64_t l0 = 0; l0 < m; l0 += 16) {
    const int64_t l1 = std::min(m, l0 + 16);
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t l = l0; l < l1; ++l) ap[r * m + l] = a[l * k + r0 + r];
    }
  }
  PanelsNN(ap, m, b, c + r0 * n, m, n, rows);
}

LOGCL_TARGET_AVX2 void MatMulTile(const float* a, int64_t lda, const float* b,
                                  int64_t ldb, float* acc, int64_t acc_stride,
                                  int64_t rows, int64_t k, int64_t cols) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* ar = a + r * lda;
    float* accr = acc + r * acc_stride;
    int64_t j = 0;
    for (; j + 8 <= cols; j += 8) {
      __m256 v = _mm256_setzero_ps();
      for (int64_t l = 0; l < k; ++l) {
        v = _mm256_add_ps(
            v, _mm256_mul_ps(_mm256_set1_ps(ar[l]), _mm256_loadu_ps(b + l * ldb + j)));
      }
      _mm256_storeu_ps(accr + j, v);
    }
    for (; j < cols; ++j) {
      float s = 0.0f;
      for (int64_t l = 0; l < k; ++l) s += ar[l] * b[l * ldb + j];
      accr[j] = s;
    }
  }
}

LOGCL_TARGET_AVX2 inline int32_t HorizontalSumI32(__m256i v) {
  __m128i lo = _mm256_castsi256_si128(v);
  __m128i hi = _mm256_extracti128_si256(v, 1);
  __m128i s = _mm_add_epi32(lo, hi);
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

LOGCL_TARGET_AVX2 int32_t DotI8(const int8_t* a, const int8_t* b, int64_t n) {
  // Widen to i16, pairwise multiply-add to i32 (vpmaddwd), accumulate in
  // i32 — exact, so any summation order matches the scalar loop. i16
  // products of two int8 values cannot overflow vpmaddwd's pairwise i32 sum.
  __m256i acc = _mm256_setzero_si256();
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m256i av = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
    __m256i bv = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(av, bv));
  }
  int32_t sum = HorizontalSumI32(acc);
  for (; i < n; ++i) {
    sum += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return sum;
}

// Batched row scoring: one dispatch for the whole candidate matrix. At
// serving dims (d = 16..64) each dot is only a few vector ops, so a
// per-entity indirect call would cost more than the arithmetic.
LOGCL_TARGET_AVX2 void ScoreRowsI8(const int8_t* m, const float* scales,
                                   const int8_t* q, float qscale,
                                   int64_t rows, int64_t dim, float* out) {
  for (int64_t e = 0; e < rows; ++e) {
    out[e] = qscale * scales[e] *
             static_cast<float>(DotI8(m + e * dim, q, dim));
  }
}

constexpr KernelTable kTable = {
    Add,          Sub,          Mul,     Accumulate, MulAccumulate,
    Axpy,         Scale,        AddScalar, Relu,     ReluBackward,
    AccumulateFresh, MulAccumulateFresh, AxpyFresh, ReluBackwardFresh,
    RowMax,       MatMulRowsNN, nullptr, MatMulRowsTN,
    MatMulTile,   ScoreRowsI8,
};

}  // namespace avx2
#endif  // LOGCL_SIMD_X86

// ---------------------------------------------------------------------------
// NEON variants (4 fp32 lanes; baseline on aarch64). Same lane-independence
// argument as AVX2; vmulq/vaddq are used instead of vmlaq, which the
// compiler may lower to a fused fma.
// ---------------------------------------------------------------------------
#if defined(LOGCL_SIMD_NEON)
namespace neon {

void Add(const float* a, const float* b, float* out, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vaddq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

void Sub(const float* a, const float* b, float* out, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

void Mul(const float* a, const float* b, float* out, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vmulq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

void Accumulate(const float* x, float* y, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, vaddq_f32(vld1q_f32(y + i), vld1q_f32(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void MulAccumulate(const float* a, const float* b, float* y, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    float32x4_t prod = vmulq_f32(vld1q_f32(a + i), vld1q_f32(b + i));
    vst1q_f32(y + i, vaddq_f32(vld1q_f32(y + i), prod));
  }
  for (; i < n; ++i) y[i] += a[i] * b[i];
}

void Axpy(float s, const float* x, float* y, int64_t n) {
  const float32x4_t sv = vdupq_n_f32(s);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    float32x4_t prod = vmulq_f32(sv, vld1q_f32(x + i));
    vst1q_f32(y + i, vaddq_f32(vld1q_f32(y + i), prod));
  }
  for (; i < n; ++i) y[i] += s * x[i];
}

void Scale(const float* x, float s, float* out, int64_t n) {
  const float32x4_t sv = vdupq_n_f32(s);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vmulq_f32(sv, vld1q_f32(x + i)));
  }
  for (; i < n; ++i) out[i] = s * x[i];
}

void AddScalar(const float* x, float s, float* out, int64_t n) {
  const float32x4_t sv = vdupq_n_f32(s);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vaddq_f32(vld1q_f32(x + i), sv));
  }
  for (; i < n; ++i) out[i] = x[i] + s;
}

void Relu(const float* x, float* out, int64_t n) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vmaxq_f32(vld1q_f32(x + i), zero));
  }
  for (; i < n; ++i) out[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void ReluBackward(const float* x, const float* g, float* gx, int64_t n) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    uint32x4_t mask = vcgtq_f32(vld1q_f32(x + i), zero);
    float32x4_t gated = vreinterpretq_f32_u32(
        vandq_u32(mask, vreinterpretq_u32_f32(vld1q_f32(g + i))));
    vst1q_f32(gx + i, vaddq_f32(vld1q_f32(gx + i), gated));
  }
  for (; i < n; ++i) gx[i] += x[i] > 0.0f ? g[i] : 0.0f;
}

void AccumulateFresh(const float* x, float* y, int64_t n) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, vaddq_f32(zero, vld1q_f32(x + i)));
  }
  for (; i < n; ++i) y[i] = 0.0f + x[i];
}

void MulAccumulateFresh(const float* a, const float* b, float* y, int64_t n) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    float32x4_t prod = vmulq_f32(vld1q_f32(a + i), vld1q_f32(b + i));
    vst1q_f32(y + i, vaddq_f32(zero, prod));
  }
  for (; i < n; ++i) y[i] = 0.0f + a[i] * b[i];
}

void AxpyFresh(float s, const float* x, float* y, int64_t n) {
  const float32x4_t sv = vdupq_n_f32(s);
  const float32x4_t zero = vdupq_n_f32(0.0f);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    float32x4_t prod = vmulq_f32(sv, vld1q_f32(x + i));
    vst1q_f32(y + i, vaddq_f32(zero, prod));
  }
  for (; i < n; ++i) y[i] = 0.0f + s * x[i];
}

void ReluBackwardFresh(const float* x, const float* g, float* gx, int64_t n) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    uint32x4_t mask = vcgtq_f32(vld1q_f32(x + i), zero);
    float32x4_t gated = vreinterpretq_f32_u32(
        vandq_u32(mask, vreinterpretq_u32_f32(vld1q_f32(g + i))));
    vst1q_f32(gx + i, vaddq_f32(zero, gated));
  }
  for (; i < n; ++i) gx[i] = 0.0f + (x[i] > 0.0f ? g[i] : 0.0f);
}

float RowMax(const float* x, int64_t n) {
  float m = -std::numeric_limits<float>::infinity();
  int64_t i = 0;
  if (n >= 4) {
    float32x4_t mv = vld1q_f32(x);
    for (i = 4; i + 4 <= n; i += 4) mv = vmaxq_f32(mv, vld1q_f32(x + i));
    m = vmaxvq_f32(mv);
  }
  for (; i < n; ++i) m = x[i] > m ? x[i] : m;
  return m;
}

template <int R>
inline void PanelNN(const float* a, int64_t lda, const float* b, float* c,
                    int64_t k, int64_t n) {
  int64_t j = 0;
  for (; j + 4 <= n; j += 4) {
    float32x4_t acc[R];
    for (int r = 0; r < R; ++r) acc[r] = vdupq_n_f32(0.0f);
    for (int64_t l = 0; l < k; ++l) {
      const float32x4_t bv = vld1q_f32(b + l * n + j);
      for (int r = 0; r < R; ++r) {
        acc[r] = vaddq_f32(acc[r], vmulq_f32(vdupq_n_f32(a[r * lda + l]), bv));
      }
    }
    for (int r = 0; r < R; ++r) {
      float* cp = c + r * n + j;
      vst1q_f32(cp, vaddq_f32(vld1q_f32(cp), acc[r]));
    }
  }
  for (; j < n; ++j) {
    for (int r = 0; r < R; ++r) {
      float acc = 0.0f;
      for (int64_t l = 0; l < k; ++l) acc += a[r * lda + l] * b[l * n + j];
      c[r * n + j] += acc;
    }
  }
}

void MatMulRowsNN(const float* a, const float* b, float* c, int64_t /*m*/,
                  int64_t k, int64_t n, int64_t r0, int64_t r1) {
  int64_t i = r0;
  for (; i + 4 <= r1; i += 4) PanelNN<4>(a + i * k, k, b, c + i * n, k, n);
  switch (r1 - i) {
    case 3: PanelNN<3>(a + i * k, k, b, c + i * n, k, n); break;
    case 2: PanelNN<2>(a + i * k, k, b, c + i * n, k, n); break;
    case 1: PanelNN<1>(a + i * k, k, b, c + i * n, k, n); break;
    default: break;
  }
}

template <int R>
inline void PanelTN(const float* a, int64_t k, int64_t i0, const float* b,
                    float* c, int64_t m, int64_t n) {
  int64_t j = 0;
  for (; j + 4 <= n; j += 4) {
    float32x4_t acc[R];
    for (int r = 0; r < R; ++r) acc[r] = vdupq_n_f32(0.0f);
    for (int64_t l = 0; l < m; ++l) {
      const float32x4_t bv = vld1q_f32(b + l * n + j);
      const float* acol = a + l * k + i0;
      for (int r = 0; r < R; ++r) {
        acc[r] = vaddq_f32(acc[r], vmulq_f32(vdupq_n_f32(acol[r]), bv));
      }
    }
    for (int r = 0; r < R; ++r) {
      float* cp = c + r * n + j;
      vst1q_f32(cp, vaddq_f32(vld1q_f32(cp), acc[r]));
    }
  }
  for (; j < n; ++j) {
    for (int r = 0; r < R; ++r) {
      float acc = 0.0f;
      for (int64_t l = 0; l < m; ++l) acc += a[l * k + i0 + r] * b[l * n + j];
      c[r * n + j] += acc;
    }
  }
}

void MatMulRowsTN(const float* a, const float* b, float* c, int64_t m,
                  int64_t k, int64_t n, int64_t r0, int64_t r1) {
  int64_t i = r0;
  for (; i + 4 <= r1; i += 4) PanelTN<4>(a, k, i, b, c + i * n, m, n);
  switch (r1 - i) {
    case 3: PanelTN<3>(a, k, i, b, c + i * n, m, n); break;
    case 2: PanelTN<2>(a, k, i, b, c + i * n, m, n); break;
    case 1: PanelTN<1>(a, k, i, b, c + i * n, m, n); break;
    default: break;
  }
}

void MatMulTile(const float* a, int64_t lda, const float* b, int64_t ldb,
                float* acc, int64_t acc_stride, int64_t rows, int64_t k,
                int64_t cols) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* ar = a + r * lda;
    float* accr = acc + r * acc_stride;
    int64_t j = 0;
    for (; j + 4 <= cols; j += 4) {
      float32x4_t v = vdupq_n_f32(0.0f);
      for (int64_t l = 0; l < k; ++l) {
        v = vaddq_f32(v, vmulq_f32(vdupq_n_f32(ar[l]), vld1q_f32(b + l * ldb + j)));
      }
      vst1q_f32(accr + j, v);
    }
    for (; j < cols; ++j) {
      float s = 0.0f;
      for (int64_t l = 0; l < k; ++l) s += ar[l] * b[l * ldb + j];
      accr[j] = s;
    }
  }
}

int32_t DotI8(const int8_t* a, const int8_t* b, int64_t n) {
  int32x4_t acc = vdupq_n_s32(0);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    int16x8_t av = vmovl_s8(vld1_s8(a + i));
    int16x8_t bv = vmovl_s8(vld1_s8(b + i));
    acc = vaddq_s32(acc, vmull_s16(vget_low_s16(av), vget_low_s16(bv)));
    acc = vaddq_s32(acc, vmull_s16(vget_high_s16(av), vget_high_s16(bv)));
  }
  int32_t sum = vaddvq_s32(acc);
  for (; i < n; ++i) {
    sum += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return sum;
}

// Batched row scoring (one dispatch per candidate matrix; see the AVX2
// comment).
void ScoreRowsI8(const int8_t* m, const float* scales, const int8_t* q,
                 float qscale, int64_t rows, int64_t dim, float* out) {
  for (int64_t e = 0; e < rows; ++e) {
    out[e] = qscale * scales[e] *
             static_cast<float>(DotI8(m + e * dim, q, dim));
  }
}

constexpr KernelTable kTable = {
    Add,          Sub,          Mul,     Accumulate, MulAccumulate,
    Axpy,         Scale,        AddScalar, Relu,     ReluBackward,
    AccumulateFresh, MulAccumulateFresh, AxpyFresh, ReluBackwardFresh,
    RowMax,       MatMulRowsNN, nullptr, MatMulRowsTN,
    MatMulTile,   ScoreRowsI8,
};

}  // namespace neon
#endif  // LOGCL_SIMD_NEON

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

bool SimdEnvEnabled() { return RuntimeConfig::Get().simd; }

SimdIsa DetectIsa() {
#if defined(LOGCL_SIMD_X86)
  if (__builtin_cpu_supports("avx2")) return SimdIsa::kAvx2;
#endif
#if defined(LOGCL_SIMD_NEON)
  return SimdIsa::kNeon;
#endif
  return SimdIsa::kScalar;
}

const KernelTable* TableFor(SimdIsa isa) {
  switch (isa) {
#if defined(LOGCL_SIMD_X86)
    case SimdIsa::kAvx2:
      return &avx2::kTable;
#endif
#if defined(LOGCL_SIMD_NEON)
    case SimdIsa::kNeon:
      return &neon::kTable;
#endif
    default:
      return &scalar::kTable;
  }
}

struct Dispatch {
  SimdIsa detected = DetectIsa();
  const KernelTable* best = TableFor(detected);
  std::atomic<bool> enabled{SimdEnvEnabled()};
  std::atomic<const KernelTable*> active{enabled.load() ? best
                                                        : &scalar::kTable};
};

Dispatch& GetDispatch() {
  static Dispatch d;
  return d;
}

inline const KernelTable* Active() {
  return GetDispatch().active.load(std::memory_order_relaxed);
}

// Edge of the square tiles Transpose moves at a time.
constexpr int64_t kTransposeTile = 32;
// Do not split a transpose into shards below this many tiles (64K floats;
// a d x d weight at d=200 stays on one thread).
constexpr int64_t kTransposeShardTiles = 64;

// Transposes the 32x32 tiles [t0, t1) of in(rows x cols), numbered
// row-major, into out(cols x rows), storing each element through `write`.
// Within a tile both the 32 source rows and the 32 destination rows stay in
// L1, so neither side is walked at a full-matrix stride; each destination
// row segment is written contiguously.
template <typename Write>
void TransposeTiles(const float* in, int64_t rows, int64_t cols, float* out,
                    int64_t t0, int64_t t1, Write write) {
  const int64_t col_tiles = (cols + kTransposeTile - 1) / kTransposeTile;
  for (int64_t t = t0; t < t1; ++t) {
    const int64_t i0 = (t / col_tiles) * kTransposeTile;
    const int64_t j0 = (t % col_tiles) * kTransposeTile;
    const int64_t i1 = std::min(rows, i0 + kTransposeTile);
    const int64_t j1 = std::min(cols, j0 + kTransposeTile);
    for (int64_t j = j0; j < j1; ++j) {
      float* out_row = out + j * rows;
      for (int64_t i = i0; i < i1; ++i) write(out_row[i], in[i * cols + j]);
    }
  }
}

template <typename Write>
void TransposeSharded(const float* in, int64_t rows, int64_t cols, float* out,
                      Write write) {
  const int64_t tiles = ((rows + kTransposeTile - 1) / kTransposeTile) *
                        ((cols + kTransposeTile - 1) / kTransposeTile);
  // Each output element belongs to exactly one tile, so shards write
  // disjoint elements and the result is the same at any thread count.
  ParallelFor(0, tiles, kTransposeShardTiles, [&](int64_t t0, int64_t t1) {
    TransposeTiles(in, rows, cols, out, t0, t1, write);
  });
}

}  // namespace

SimdIsa DetectedIsa() { return GetDispatch().detected; }

SimdIsa ActiveIsa() {
  Dispatch& d = GetDispatch();
  return d.enabled.load(std::memory_order_relaxed) ? d.detected
                                                   : SimdIsa::kScalar;
}

const char* IsaName(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kAvx2:
      return "avx2";
    case SimdIsa::kNeon:
      return "neon";
    default:
      return "scalar";
  }
}

bool SimdEnabled() {
  return GetDispatch().enabled.load(std::memory_order_relaxed);
}

void SetSimdEnabled(bool enabled) {
  Dispatch& d = GetDispatch();
  d.enabled.store(enabled, std::memory_order_relaxed);
  d.active.store(enabled ? d.best : &scalar::kTable,
                 std::memory_order_relaxed);
}

void Add(const float* a, const float* b, float* out, int64_t n) {
  Active()->add(a, b, out, n);
}
void Sub(const float* a, const float* b, float* out, int64_t n) {
  Active()->sub(a, b, out, n);
}
void Mul(const float* a, const float* b, float* out, int64_t n) {
  Active()->mul(a, b, out, n);
}
void Accumulate(const float* x, float* y, int64_t n) {
  Active()->accumulate(x, y, n);
}
void MulAccumulate(const float* a, const float* b, float* y, int64_t n) {
  Active()->mul_accumulate(a, b, y, n);
}
void Axpy(float s, const float* x, float* y, int64_t n) {
  Active()->axpy(s, x, y, n);
}
void Scale(const float* x, float s, float* out, int64_t n) {
  Active()->scale(x, s, out, n);
}
void AddScalar(const float* x, float s, float* out, int64_t n) {
  Active()->add_scalar(x, s, out, n);
}
void Relu(const float* x, float* out, int64_t n) { Active()->relu(x, out, n); }
void ReluBackward(const float* x, const float* g, float* gx, int64_t n) {
  Active()->relu_backward(x, g, gx, n);
}
void AccumulateFresh(const float* x, float* y, int64_t n) {
  Active()->accumulate_fresh(x, y, n);
}
void MulAccumulateFresh(const float* a, const float* b, float* y, int64_t n) {
  Active()->mul_accumulate_fresh(a, b, y, n);
}
void AxpyFresh(float s, const float* x, float* y, int64_t n) {
  Active()->axpy_fresh(s, x, y, n);
}
void ReluBackwardFresh(const float* x, const float* g, float* gx, int64_t n) {
  Active()->relu_backward_fresh(x, g, gx, n);
}
float RowMax(const float* x, int64_t n) { return Active()->row_max(x, n); }

int64_t MatMulRowGrain(int64_t flops_per_row) {
  return std::max<int64_t>(
      kTileRows, kMatMulShardFlops / std::max<int64_t>(1, flops_per_row));
}

void MatMulRowsNN(const float* a, const float* b, float* c, int64_t m,
                  int64_t k, int64_t n, int64_t r0, int64_t r1) {
  Active()->matmul_rows_nn(a, b, c, m, k, n, r0, r1);
}

void MatMulRowsTN(const float* a, const float* b, float* c, int64_t m,
                  int64_t k, int64_t n, int64_t r0, int64_t r1) {
  Active()->matmul_rows_tn(a, b, c, m, k, n, r0, r1);
}

void Transpose(const float* in, int64_t rows, int64_t cols, float* out,
               TransposeWrite write) {
  switch (write) {
    case TransposeWrite::kCopy:
      TransposeSharded(in, rows, cols, out, [](float& o, float x) { o = x; });
      return;
    case TransposeWrite::kFresh:
      TransposeSharded(in, rows, cols, out,
                       [](float& o, float x) { o = 0.0f + x; });
      return;
    case TransposeWrite::kAccumulate:
      TransposeSharded(in, rows, cols, out,
                       [](float& o, float x) { o += x; });
      return;
  }
}

void MatMulAccumNN(const float* a, const float* b, float* c, int64_t m,
                   int64_t k, int64_t n) {
  const KernelTable* t = Active();
  ParallelFor(0, m, MatMulRowGrain(k * n), [&](int64_t r0, int64_t r1) {
    t->matmul_rows_nn(a, b, c, m, k, n, r0, r1);
  });
}

void MatMulAccumNT(const float* a, const float* b, float* c, int64_t m,
                   int64_t n, int64_t k) {
  const KernelTable* t = Active();
  // Skinny outputs can't amortise materialising B^T (O(n*k) copy against
  // O(m*n*k) compute), so they keep the direct dot-tile kernel. The choice
  // is free: both lowerings accumulate the identical rounded products in
  // the identical ascending order, so outputs are bitwise-equal either way.
  if (t->matmul_rows_nt != nullptr || m < 2 * kTileRows) {
    const KernelTable* nt =
        t->matmul_rows_nt != nullptr ? t : &scalar::kTable;
    ParallelFor(0, m, MatMulRowGrain(n * k), [&](int64_t r0, int64_t r1) {
      nt->matmul_rows_nt(a, b, c, m, n, k, r0, r1);
    });
    return;
  }
  // Wide path: materialise B^T(n x k) once, then run the NN kernel. Per
  // output element this accumulates the identical rounded products in the
  // identical ascending order as the scalar dot-product kernel, so the two
  // paths stay bitwise-equal.
  PooledBuffer bt(static_cast<size_t>(n) * static_cast<size_t>(k),
                  BufferFill::kUninit);
  Transpose(b, k, n, bt.data());
  const float* btp = bt.data();
  ParallelFor(0, m, MatMulRowGrain(n * k), [&](int64_t r0, int64_t r1) {
    t->matmul_rows_nn(a, btp, c, m, n, k, r0, r1);
  });
}

void MatMulAccumTN(const float* a, const float* b, float* c, int64_t m,
                   int64_t k, int64_t n) {
  const KernelTable* t = Active();
  ParallelFor(0, k, MatMulRowGrain(m * n), [&](int64_t r0, int64_t r1) {
    t->matmul_rows_tn(a, b, c, m, k, n, r0, r1);
  });
}

void MatMulTile(const float* a, int64_t lda, const float* b, int64_t ldb,
                float* acc, int64_t acc_stride, int64_t rows, int64_t k,
                int64_t cols) {
  Active()->matmul_tile(a, lda, b, ldb, acc, acc_stride, rows, k, cols);
}

void ScoreRowsI8(const int8_t* m, const float* scales, const int8_t* q,
                 float qscale, int64_t rows, int64_t dim, float* out) {
  Active()->score_rows_i8(m, scales, q, qscale, rows, dim, out);
}

}  // namespace simd
}  // namespace logcl
