// Differentiable operations on Tensor. Every op computes its forward result
// eagerly and, when grad mode is enabled and an input requires grad, records
// a backward closure on the output (see tensor/backward.cc).
//
// Shape conventions: 2-D tensors are row-major [rows, cols]; a "column"
// tensor means shape [n, 1]; a "row" tensor means [1, d] (rank-1 [d] is also
// accepted where noted). Scalars have rank 0.

#ifndef LOGCL_TENSOR_OPS_H_
#define LOGCL_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "tensor/edge_csr.h"
#include "tensor/tensor.h"

namespace logcl {
namespace ops {

// ---------------------------------------------------------------------------
// Elementwise arithmetic. Add/Sub/Mul accept:
//   * identical shapes,
//   * scalar `b` (rank 0),
//   * row-broadcast: `a` is [n, d] and `b` is [1, d] or rank-1 [d].
// ---------------------------------------------------------------------------
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);

/// x is [n, d]; col is [n, 1] (or rank-1 [n]). Multiplies row i of x by
/// col[i] (column-broadcast); used for attention-weighted sums.
Tensor MulColBroadcast(const Tensor& x, const Tensor& col);

Tensor Neg(const Tensor& a);
Tensor Scale(const Tensor& a, float s);
Tensor AddScalar(const Tensor& a, float s);

// ---------------------------------------------------------------------------
// Linear algebra.
// ---------------------------------------------------------------------------
/// [m, k] x [k, n] -> [m, n].
Tensor MatMul(const Tensor& a, const Tensor& b);
/// 2-D transpose.
Tensor Transpose(const Tensor& a);
/// Same element count; data is copied (dense layout).
Tensor Reshape(const Tensor& a, const Shape& shape);

// ---------------------------------------------------------------------------
// Concatenation / slicing (2-D).
// ---------------------------------------------------------------------------
Tensor ConcatCols(const std::vector<Tensor>& parts);
Tensor ConcatRows(const std::vector<Tensor>& parts);
Tensor SliceCols(const Tensor& a, int64_t start, int64_t count);
Tensor SliceRows(const Tensor& a, int64_t start, int64_t count);

// ---------------------------------------------------------------------------
// Gather / scatter (message passing primitives).
// ---------------------------------------------------------------------------
/// out[i, :] = x[indices[i], :]. Differentiable w.r.t. x (scatter-add).
Tensor IndexSelectRows(const Tensor& x, const std::vector<int64_t>& indices);
/// out has `num_rows` rows; out[indices[i], :] += values[i, :].
Tensor ScatterAddRows(const Tensor& values, const std::vector<int64_t>& indices,
                      int64_t num_rows);
/// Like ScatterAddRows but divides each output row by its receive count
/// (rows receiving nothing stay zero) — the 1/c_o normalisation of Eq.4.
Tensor ScatterMeanRows(const Tensor& values,
                       const std::vector<int64_t>& indices, int64_t num_rows);
/// logits is [n, 1] or rank-1 [n]; softmax within groups of equal
/// segment_ids[i] (ids in [0, num_segments)). Returns [n, 1]. Used by KBGAT
/// edge attention.
Tensor SegmentSoftmax(const Tensor& logits,
                      const std::vector<int64_t>& segment_ids,
                      int64_t num_segments);

// ---------------------------------------------------------------------------
// CSR-layout scatter variants. Bitwise identical to the index-vector
// overloads above (the CSR keeps each destination's edges in ascending edge
// id, matching the serial accumulation order), but each destination row
// visits only its own edges and ScatterMeanRows reads the cached in-degrees
// instead of recounting per call.
// ---------------------------------------------------------------------------
Tensor ScatterAddRows(const Tensor& values, const EdgeCsrPtr& csr);
Tensor ScatterMeanRows(const Tensor& values, const EdgeCsrPtr& csr);
/// CSR rows are softmax segments here (csr->num_edges == logits elements).
Tensor SegmentSoftmax(const Tensor& logits, const EdgeCsrPtr& csr);

// ---------------------------------------------------------------------------
// Fused relational message passing.
// ---------------------------------------------------------------------------
/// Per-edge composition of source-node and relation features (CompGCN's
/// phi): kAdd is h_s + h_r, kSubtract h_s - h_r, kMultiply h_s * h_r.
enum class EdgeCompose { kAdd, kSubtract, kMultiply };

/// messages[e, :] = compose(nodes[src[e], :], relations[rel[e], :]) * weight.
/// One op replacing IndexSelectRows x2 -> compose -> MatMul for layers that
/// must materialize per-edge messages (KBGAT attention); custom backward
/// avoids putting the two gathered [E, d] tensors on the tape.
Tensor EdgeMessages(const Tensor& nodes, const Tensor& relations,
                    const Tensor& weight, const std::vector<int64_t>& src,
                    const std::vector<int64_t>& rel, EdgeCompose compose);

/// out[v, :] = mean over in-edges e of v of
///   compose(nodes[src[e], :], relations[rel[e], :]) * weight.
/// The full IndexSelectRows x2 -> compose -> MatMul -> ScatterMeanRows chain
/// as ONE autograd op: per-edge messages stream through register tiles and
/// never hit the tape. `dst` and `dst_csr` must describe the same edge list
/// (dst_csr = EdgeCsr::Build(dst, num_nodes), normally the graph's cached
/// layout). Bitwise identical to the composed chain at any thread count.
Tensor FusedRelMessagePassing(const Tensor& nodes, const Tensor& relations,
                              const Tensor& weight,
                              const std::vector<int64_t>& src,
                              const std::vector<int64_t>& rel,
                              const std::vector<int64_t>& dst,
                              const EdgeCsrPtr& dst_csr, EdgeCompose compose);

// ---------------------------------------------------------------------------
// Nonlinearities / normalisations.
// ---------------------------------------------------------------------------
/// Row-wise softmax of a [n, d] tensor (or over all elements for rank-1).
Tensor Softmax(const Tensor& x);
Tensor LogSoftmax(const Tensor& x);
Tensor Sigmoid(const Tensor& x);
Tensor Tanh(const Tensor& x);
Tensor Relu(const Tensor& x);
Tensor LeakyRelu(const Tensor& x, float slope);
/// Where a compact tensor's rows sit in a larger table: row i of the tensor
/// is row ids[i] of a [table_rows, cols] table (ids ascending). RRelu and
/// Dropout then draw element (i, c) as table element (ids[i], c) and move
/// the stream past the whole table, so every row they return equals the
/// same row of the call on the full table. Null `ids`: x is the table.
struct TableRows {
  const std::vector<int64_t>* ids = nullptr;
  int64_t table_rows = 0;
};

/// Randomised leaky ReLU (Eq.4's sigma_1). Training samples slopes uniformly
/// in [1/8, 1/3] (torch defaults); eval uses the fixed mean slope.
Tensor RRelu(const Tensor& x, bool training, Rng* rng, TableRows rows = {});
Tensor Cos(const Tensor& x);
Tensor Exp(const Tensor& x);
/// Natural log; inputs are clamped to >= eps for stability.
Tensor Log(const Tensor& x, float eps = 1e-12f);
/// Inverted dropout; identity when !training or p == 0. `rows` as in RRelu.
Tensor Dropout(const Tensor& x, float p, bool training, Rng* rng,
               TableRows rows = {});
/// Divides each row by max(||row||_2, eps).
Tensor RowL2Normalize(const Tensor& x, float eps = 1e-8f);

// ---------------------------------------------------------------------------
// Reductions.
// ---------------------------------------------------------------------------
Tensor SumAll(const Tensor& x);
Tensor MeanAll(const Tensor& x);
/// [n, d] -> [1, d] column means. Returns zeros for n == 0.
Tensor MeanRows(const Tensor& x);
/// [n, d] -> [n, 1] row sums.
Tensor RowSum(const Tensor& x);

// ---------------------------------------------------------------------------
// Losses.
// ---------------------------------------------------------------------------
/// Mean softmax cross-entropy of [B, C] logits against integer targets.
/// Fused forward/backward (grad = (softmax - onehot)/B).
Tensor CrossEntropyWithLogits(const Tensor& logits,
                              const std::vector<int64_t>& targets);

// ---------------------------------------------------------------------------
// Convolutions (decoders).
// ---------------------------------------------------------------------------
/// The ConvTransE feature extractor: h and r are [B, d]; treats (h, r) as a
/// 2-channel length-d signal, applies K kernels of size 2x3 with zero pad 1,
/// and returns the [B, K*d] feature map. `kernels` is [K, 6] laid out as
/// (channel-major: h[-1], h[0], h[+1], r[-1], r[0], r[+1]); `bias` is
/// rank-1 [K] added per kernel.
Tensor Conv2x3(const Tensor& h, const Tensor& r, const Tensor& kernels,
               const Tensor& bias);

/// Minimal NCHW 2-D convolution for the ConvE baseline. `input` is
/// [B, C*H*W] viewed as C x H x W per row; `kernels` is [K, C*kh*kw]; zero
/// padding `pad` on both spatial axes, stride 1. Returns [B, K*H*W].
Tensor Conv2d(const Tensor& input, int64_t channels, int64_t height,
              int64_t width, const Tensor& kernels, int64_t kernel_h,
              int64_t kernel_w, int64_t pad, const Tensor& bias);

}  // namespace ops
}  // namespace logcl

#endif  // LOGCL_TENSOR_OPS_H_
