// Explicitly vectorized CPU kernels behind one-time runtime dispatch.
//
// Every fp32 entry point here is implemented twice (or three times): a
// portable scalar variant and an AVX2 variant on x86-64 (NEON on aarch64).
// The active variant is chosen once per process from CPUID (and the
// LOGCL_SIMD env toggle) and cached in a kernel table; callers pay one
// indirect call per kernel invocation, which the row/tile granularity of the
// call sites amortises away.
//
// Bitwise-parity contract (fp32): for identical inputs, the SIMD and scalar
// variants of every fp32 kernel return bit-identical outputs. This is the
// property the LOGCL_SIMD=0 escape hatch and the Simd*Parity tests pin. It
// holds because vector lanes only ever carry *independent* output elements:
//  - elementwise kernels round exactly like the scalar loop (one IEEE op per
//    element, no FMA — simd.cc is compiled with -ffp-contract=off),
//  - the matmul kernels keep one accumulator per output element sweeping the
//    reduction dimension in ascending order (lanes span output columns, so
//    each element's accumulation chain is the scalar chain),
//  - the NT (A * B^T) kernel transposes B into scratch and runs the NN
//    kernel: per output element that is the identical product sequence in
//    the identical order (the trick ops.cc's fused backward already relies
//    on, now vectorised),
//  - reductions that are not exact under reordering (e.g. float dot
//    products) are simply not offered as fp32 SIMD kernels.
// The int8 scoring kernel sums integers, which is exact under any order,
// so it vectorises freely.
//
// Threading: kernels here are serial. Callers shard work with ParallelFor
// and invoke kernels per shard, so the existing thread-count-invariance
// contracts are untouched.

#ifndef LOGCL_TENSOR_SIMD_H_
#define LOGCL_TENSOR_SIMD_H_

#include <cstdint>

namespace logcl {
namespace simd {

/// Instruction set the dispatcher selected at process start.
enum class SimdIsa { kScalar, kAvx2, kNeon };

/// The ISA the kernel table would use when SIMD is enabled (CPUID probe;
/// never affected by LOGCL_SIMD).
SimdIsa DetectedIsa();

/// The ISA actually in use: DetectedIsa() when enabled, kScalar otherwise.
SimdIsa ActiveIsa();

const char* IsaName(SimdIsa isa);

/// True unless LOGCL_SIMD=0/false/off (or SetSimdEnabled(false)).
bool SimdEnabled();
/// Test/bench override of the env default. Swaps the whole kernel table, so
/// do not call concurrently with running kernels.
void SetSimdEnabled(bool enabled);

// --- fp32 elementwise kernels (bitwise-equal across variants) --------------

/// out[i] = a[i] + b[i]
void Add(const float* a, const float* b, float* out, int64_t n);
/// out[i] = a[i] - b[i]
void Sub(const float* a, const float* b, float* out, int64_t n);
/// out[i] = a[i] * b[i]
void Mul(const float* a, const float* b, float* out, int64_t n);
/// y[i] += x[i]
void Accumulate(const float* x, float* y, int64_t n);
/// y[i] += a[i] * b[i]  (product rounded, then accumulated — two IEEE ops,
/// exactly like the scalar backward loops; never fused)
void MulAccumulate(const float* a, const float* b, float* y, int64_t n);
/// y[i] += s * x[i]  (same two-op rounding contract)
void Axpy(float s, const float* x, float* y, int64_t n);
/// out[i] = s * x[i]
void Scale(const float* x, float s, float* out, int64_t n);
/// out[i] = x[i] + s
void AddScalar(const float* x, float s, float* out, int64_t n);
/// out[i] = max(x[i], 0)
void Relu(const float* x, float* out, int64_t n);
/// gx[i] += x[i] > 0 ? g[i] : +0.0f
void ReluBackward(const float* x, const float* g, float* gx, int64_t n);

// Fresh-grad variants: same arithmetic as their accumulate counterparts
// against an implicit zeroed destination. Each element is WRITTEN as
// `0.0f + contribution`, which is bitwise-equal to zero-fill followed by
// the accumulate kernel (including the -0.0 -> +0.0 normalisation that
// adding into a zeroed buffer performs) without reading the destination.
// Used for the first, full-coverage contribution into a kUninit grad
// buffer (TensorNode::GradForFullWrite).
/// y[i] = 0 + x[i]
void AccumulateFresh(const float* x, float* y, int64_t n);
/// y[i] = 0 + a[i] * b[i]
void MulAccumulateFresh(const float* a, const float* b, float* y, int64_t n);
/// y[i] = 0 + s * x[i]
void AxpyFresh(float s, const float* x, float* y, int64_t n);
/// gx[i] = 0 + (x[i] > 0 ? g[i] : +0.0f)
void ReluBackwardFresh(const float* x, const float* g, float* gx, int64_t n);
/// max over x[0..n); -inf for n == 0. Exact under lane reordering for the
/// finite inputs the softmax path feeds it.
float RowMax(const float* x, int64_t n);

// --- fp32 matmul kernels (accumulate into C) -------------------------------
//
// Tile geometry of the scalar kernels and ops.cc's fused message-passing
// tiles: kTileRows x kTileCols accumulator tiles swept by an axpy over the
// reduction dimension. The AVX2 NN and TN kernels hold kTileRows x 24
// register tiles instead (12 ymm accumulators), with 8-wide and scalar
// column tails; TN first packs each shard's A columns into a contiguous
// A^T panel. Every variant keeps one zero-initialised accumulator per
// output element over ascending reduction index, so the geometry never
// changes a bit of the result.
inline constexpr int64_t kTileRows = 4;
inline constexpr int64_t kTileCols = 64;
/// Do not split a matmul into shards below this many multiply-accumulates.
inline constexpr int64_t kMatMulShardFlops = int64_t{1} << 15;
/// Row grain so one shard performs at least kMatMulShardFlops MACs, where
/// each output row costs `flops_per_row` MACs.
int64_t MatMulRowGrain(int64_t flops_per_row);

/// C(m x n) += A(m x k) * B(k x n), output rows [r0, r1) only.
void MatMulRowsNN(const float* a, const float* b, float* c, int64_t m,
                  int64_t k, int64_t n, int64_t r0, int64_t r1);
/// C(k x n) += A(m x k)^T * B(m x n), output rows [r0, r1) only.
void MatMulRowsTN(const float* a, const float* b, float* c, int64_t m,
                  int64_t k, int64_t n, int64_t r0, int64_t r1);

/// C(m x n) += A(m x k) * B(k x n), sharded internally with ParallelFor.
void MatMulAccumNN(const float* a, const float* b, float* c, int64_t m,
                   int64_t k, int64_t n);
/// C(m x k) += A(m x n) * B(k x n)^T. The SIMD path transposes B into pooled
/// scratch once and runs the NN kernel (bitwise-equal per element); the
/// scalar path keeps the direct dot-product tile. Sharded internally.
void MatMulAccumNT(const float* a, const float* b, float* c, int64_t m,
                   int64_t n, int64_t k);
/// C(k x n) += A(m x k)^T * B(m x n). Sharded internally.
void MatMulAccumTN(const float* a, const float* b, float* c, int64_t m,
                   int64_t k, int64_t n);

/// Small-tile matmul into caller-owned accumulators:
///   acc[r * acc_stride + j] = sum_l a[r * lda + l] * b[l * ldb + j]
/// for r in [0, rows), j in [0, cols), l ascending with one accumulator per
/// element (zero-initialised here). `cols` must be <= kTileCols. This is the
/// inner tile of the fused message-passing kernels.
void MatMulTile(const float* a, int64_t lda, const float* b, int64_t ldb,
                float* acc, int64_t acc_stride, int64_t rows, int64_t k,
                int64_t cols);

// --- transpose (a pure copy: no rounding, so it never affects parity) ------

/// How Transpose stores each element into the destination.
enum class TransposeWrite {
  kCopy,        // out = x
  kFresh,       // out = 0 + x (the fresh-grad form; -0.0 becomes +0.0)
  kAccumulate,  // out += x
};

/// out(cols x rows) = in(rows x cols)^T, each element stored per `write`.
/// Moves 32x32 tiles, sharded internally with ParallelFor over the
/// row-major tile sequence; every element is written by exactly one shard,
/// so the result is independent of the thread count.
void Transpose(const float* in, int64_t rows, int64_t cols, float* out,
               TransposeWrite write = TransposeWrite::kCopy);

// --- int8 scoring kernel (serving; exact integer dot) ----------------------

/// Batched int8 scoring: out[e] = qscale * scales[e] * dot(m row e, q) for
/// e in [0, rows), rows of length `dim`. The dot is an exact int32 sum of
/// int8 products (integer addition is associative, so every variant returns
/// the same value while |dot| < 2^31) and the float scaling is two IEEE
/// multiplies per row in every variant. One dispatch for the whole candidate
/// matrix: at serving dims each dot is a handful of vector ops, so a per-row
/// indirect call would dominate.
void ScoreRowsI8(const int8_t* m, const float* scales, const int8_t* q,
                 float qscale, int64_t rows, int64_t dim, float* out);

}  // namespace simd
}  // namespace logcl

#endif  // LOGCL_TENSOR_SIMD_H_
