#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/observability.h"
#include "common/parallel.h"
#include "tensor/buffer_pool.h"
#include "tensor/elementwise_kernels.h"
#include "tensor/simd.h"

namespace logcl {
namespace ops {
namespace {

using Node = internal_tensor::TensorNode;

// Pool-backed op-output storage. UninitOut elides the zero-fill and is only
// used by kernels that overwrite every output element before any read
// (LOGCL_POISON_UNINIT=1 verifies this); ZeroOut is for kernels that
// accumulate into their output. Scratch that lives inside a closure and is
// heap-freed by the closure's destructor stays a plain vector — only buffers
// whose release we control route through the pool.
inline std::vector<float> UninitOut(int64_t n) {
  return AcquireBuffer(static_cast<size_t>(n), BufferFill::kUninit);
}
inline std::vector<float> ZeroOut(int64_t n) {
  return AcquireBuffer(static_cast<size_t>(n), BufferFill::kZero);
}
inline std::vector<float> ScalarOut(float value) {
  std::vector<float> out = AcquireBuffer(1, BufferFill::kUninit);
  out[0] = value;
  return out;
}

// Fixed eval slope for RRelu: mean of the torch default [1/8, 1/3] range.
constexpr float kRReluLower = 1.0f / 8.0f;
constexpr float kRReluUpper = 1.0f / 3.0f;
constexpr float kRReluEvalSlope = (kRReluLower + kRReluUpper) / 2.0f;

// Minimum elements per shard before a loop is split across the pool. For
// ParallelReduce calls the grain also fixes chunk boundaries, so it must
// depend only on problem shape (never on the thread count) to keep results
// identical at 1 vs N threads.
constexpr int64_t kGrain = 8192;

// Rows per shard so one shard covers at least kGrain elements.
inline int64_t RowGrain(int64_t cols) {
  return std::max<int64_t>(1, kGrain / std::max<int64_t>(1, cols));
}

// Broadcast modes supported by the elementwise binary ops.
enum class BroadcastMode { kSame, kScalarB, kRowB };

BroadcastMode ResolveBroadcast(const Shape& a, const Shape& b) {
  if (a == b) return BroadcastMode::kSame;
  if (b.rank() == 0) return BroadcastMode::kScalarB;
  if (a.rank() == 2) {
    if (b.rank() == 1 && b.dim(0) == a.cols()) return BroadcastMode::kRowB;
    if (b.rank() == 2 && b.rows() == 1 && b.cols() == a.cols()) {
      return BroadcastMode::kRowB;
    }
  }
  LOGCL_CHECK(false) << "incompatible broadcast: " << a.ToString() << " vs "
                     << b.ToString();
  return BroadcastMode::kSame;
}

// Index of the b element feeding a's flat index i.
inline int64_t BroadcastIndex(BroadcastMode mode, int64_t i, int64_t cols) {
  switch (mode) {
    case BroadcastMode::kSame:
      return i;
    case BroadcastMode::kScalarB:
      return 0;
    case BroadcastMode::kRowB:
      return i % cols;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Blocked accumulate-matmul kernels (C += op(A) * op(B)) live in
// tensor/simd.{h,cc} behind runtime ISA dispatch; the scalar variants there
// are the tiled kernels that used to live here, so the per-element
// accumulation orders (and thread-count invariance) are unchanged. Aliases
// keep the call sites below reading as before.
// ---------------------------------------------------------------------------

using simd::kTileCols;
using simd::MatMulAccumNN;
using simd::MatMulAccumNT;
using simd::MatMulAccumTN;
using simd::MatMulRowGrain;

// Which arithmetic op an ElementwiseBinary call is, when it is one the SIMD
// layer has a dedicated kernel for. The same-shape fast paths dispatch on
// this instead of the lambdas; the SIMD kernels are bitwise-equal to the
// per-element loops (see tensor/simd.h).
using BinOpKind = ewise::BinaryKind;

// Shared implementation for Add/Sub/Mul.
template <typename ForwardFn, typename BackwardFn>
Tensor ElementwiseBinary(const Tensor& a, const Tensor& b, ForwardFn fwd,
                         BackwardFn bwd,
                         BinOpKind kind = BinOpKind::kGeneric) {
  LOGCL_CHECK(a.defined());
  LOGCL_CHECK(b.defined());
  BroadcastMode mode = ResolveBroadcast(a.shape(), b.shape());
  int64_t n = a.num_elements();
  int64_t cols = a.shape().rank() == 2 ? a.shape().cols() : n;
  const float* av = a.data().data();
  const float* bv = b.data().data();
  std::vector<float> out = UninitOut(n);
  float* od = out.data();
  if (mode == BroadcastMode::kSame) {
    // Dedicated same-shape path: the dominant case on the autograd hot path.
    // Known arithmetic kinds go through the dispatched SIMD kernels; both
    // are per-element identical to the general loop below.
    ParallelFor(0, n, kGrain, [&](int64_t i0, int64_t i1) {
      switch (kind) {
        case BinOpKind::kAdd:
          simd::Add(av + i0, bv + i0, od + i0, i1 - i0);
          break;
        case BinOpKind::kSub:
          simd::Sub(av + i0, bv + i0, od + i0, i1 - i0);
          break;
        case BinOpKind::kMul:
          simd::Mul(av + i0, bv + i0, od + i0, i1 - i0);
          break;
        case BinOpKind::kGeneric:
          for (int64_t i = i0; i < i1; ++i) od[i] = fwd(av[i], bv[i]);
          break;
      }
    });
  } else {
    ParallelFor(0, n, kGrain, [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) {
        od[i] = fwd(av[i], bv[BroadcastIndex(mode, i, cols)]);
      }
    });
  }
  return Tensor::MakeOpOutput(
      a.shape(), std::move(out), {a, b},
      [mode, n, cols, bwd, kind](Node& node) {
        const auto& pa = node.parents[0];
        const auto& pb = node.parents[1];
        const float* g = node.grad.data();
        const float* ad = pa->data.data();
        const float* bd = pb->data.data();
        // Every path below fully covers the live grad buffers, so first
        // contributions take the kUninit fresh path (store 0 + term,
        // bitwise-equal to zero-fill + accumulate). Aliased parents
        // (Add(a, a)) get fresh on the first call only: the second
        // GradForFullWrite sees a sized buffer and accumulates.
        float* ga = nullptr;
        float* gb = nullptr;
        bool fresh_a = false;
        bool fresh_b = false;
        if (pa->requires_grad) ga = pa->GradForFullWrite(&fresh_a);
        if (pb->requires_grad) gb = pb->GradForFullWrite(&fresh_b);
        if (mode == BroadcastMode::kSame) {
          if (kind != BinOpKind::kGeneric) {
            // SIMD grad accumulation. Each kernel call is per-element
            // identical to the generic loop: Add/Sub propagate g (Sub's b
            // side as the exact negation (-1)*g), Mul cross-multiplies by
            // the co-factor with mul-then-add rounding, same as `da = g*y;
            // ga[i] += da`.
            ParallelFor(0, n, kGrain, [&](int64_t i0, int64_t i1) {
              const int64_t len = i1 - i0;
              switch (kind) {
                case BinOpKind::kAdd:
                  if (ga != nullptr) {
                    (fresh_a ? simd::AccumulateFresh
                             : simd::Accumulate)(g + i0, ga + i0, len);
                  }
                  if (gb != nullptr) {
                    (fresh_b ? simd::AccumulateFresh
                             : simd::Accumulate)(g + i0, gb + i0, len);
                  }
                  break;
                case BinOpKind::kSub:
                  if (ga != nullptr) {
                    (fresh_a ? simd::AccumulateFresh
                             : simd::Accumulate)(g + i0, ga + i0, len);
                  }
                  if (gb != nullptr) {
                    (fresh_b ? simd::AxpyFresh : simd::Axpy)(-1.0f, g + i0,
                                                             gb + i0, len);
                  }
                  break;
                case BinOpKind::kMul:
                  if (ga != nullptr) {
                    (fresh_a ? simd::MulAccumulateFresh
                             : simd::MulAccumulate)(g + i0, bd + i0, ga + i0,
                                                    len);
                  }
                  if (gb != nullptr) {
                    (fresh_b ? simd::MulAccumulateFresh
                             : simd::MulAccumulate)(g + i0, ad + i0, gb + i0,
                                                    len);
                  }
                  break;
                case BinOpKind::kGeneric:
                  break;
              }
            });
            return;
          }
          // No accumulation aliasing: one pass handles both sides, with
          // the null checks hoisted so each live variant stays branch-free
          // per element.
          ewise::SameShapeBinaryBackward(g, ad, bd, ga, gb, n, kGrain, bwd,
                                         fresh_a, fresh_b);
          return;
        }
        if (ga != nullptr) {
          ParallelFor(0, n, kGrain, [&](int64_t i0, int64_t i1) {
            if (fresh_a) {
              for (int64_t i = i0; i < i1; ++i) {
                float da = 0.0f, db = 0.0f;
                bwd(g[i], ad[i], bd[BroadcastIndex(mode, i, cols)], &da, &db);
                ga[i] = 0.0f + da;
              }
            } else {
              for (int64_t i = i0; i < i1; ++i) {
                float da = 0.0f, db = 0.0f;
                bwd(g[i], ad[i], bd[BroadcastIndex(mode, i, cols)], &da, &db);
                ga[i] += da;
              }
            }
          });
        }
        if (gb != nullptr && mode == BroadcastMode::kRowB) {
          // gb[j] accumulates over rows; shard by output column so every
          // column keeps the serial (row-order) accumulation order.
          int64_t rows = n / cols;
          ParallelFor(0, cols, RowGrain(rows), [&](int64_t j0, int64_t j1) {
            for (int64_t j = j0; j < j1; ++j) {
              float sum = fresh_b ? 0.0f : gb[j];
              for (int64_t i = j; i < n; i += cols) {
                float da = 0.0f, db = 0.0f;
                bwd(g[i], ad[i], bd[j], &da, &db);
                sum += db;
              }
              gb[j] = sum;
            }
          });
        } else if (gb != nullptr) {  // kScalarB
          float sum = ParallelReduce<float>(
              0, n, kGrain, 0.0f,
              [&](int64_t i0, int64_t i1) {
                float partial = 0.0f;
                for (int64_t i = i0; i < i1; ++i) {
                  float da = 0.0f, db = 0.0f;
                  bwd(g[i], ad[i], bd[0], &da, &db);
                  partial += db;
                }
                return partial;
              },
              [](float acc, float partial) { return acc + partial; });
          if (fresh_b) {
            gb[0] = 0.0f + sum;
          } else {
            gb[0] += sum;
          }
        }
      });
}

// Shared implementation for elementwise unary ops. The forward formula and
// local derivative both come from the ewise table; `param` feeds the
// parameterised kinds.
Tensor ElementwiseUnary(const Tensor& x, ewise::UnaryKind kind,
                        float param = 0.0f) {
  LOGCL_CHECK(x.defined());
  int64_t n = x.num_elements();
  const float* xv = x.data().data();
  std::vector<float> out = UninitOut(n);
  float* od = out.data();
  ParallelFor(0, n, kGrain, [&](int64_t i0, int64_t i1) {
    ewise::UnaryForwardKernel(kind, xv + i0, od + i0, i1 - i0, param);
  });
  return Tensor::MakeOpOutput(
      x.shape(), std::move(out), {x}, [n, kind, param](Node& node) {
        const auto& px = node.parents[0];
        if (!px->requires_grad) return;
        bool fresh = false;
        float* gx = px->GradForFullWrite(&fresh);
        const float* g = node.grad.data();
        const float* xd = px->data.data();
        const float* yd = node.data.data();
        ParallelFor(0, n, kGrain, [&](int64_t i0, int64_t i1) {
          ewise::UnaryBackwardKernel(kind, g + i0, xd + i0, yd + i0, gx + i0,
                                     i1 - i0, param, fresh);
        });
      });
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(
      a, b, [](float x, float y) { return x + y; },
      [](float g, float, float, float* da, float* db) {
        *da = g;
        *db = g;
      },
      BinOpKind::kAdd);
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(
      a, b, [](float x, float y) { return x - y; },
      [](float g, float, float, float* da, float* db) {
        *da = g;
        *db = -g;
      },
      BinOpKind::kSub);
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(
      a, b, [](float x, float y) { return x * y; },
      [](float g, float x, float y, float* da, float* db) {
        *da = g * y;
        *db = g * x;
      },
      BinOpKind::kMul);
}

Tensor MulColBroadcast(const Tensor& x, const Tensor& col) {
  LOGCL_CHECK(x.defined());
  LOGCL_CHECK(col.defined());
  LOGCL_CHECK_EQ(x.shape().rank(), 2);
  int64_t rows = x.shape().rows();
  int64_t cols = x.shape().cols();
  LOGCL_CHECK_EQ(col.num_elements(), rows);
  const float* xd = x.data().data();
  const float* cd = col.data().data();
  std::vector<float> out = UninitOut(rows * cols);
  float* od = out.data();
  ParallelFor(0, rows, RowGrain(cols), [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      float c = cd[i];
      for (int64_t j = 0; j < cols; ++j) od[i * cols + j] = xd[i * cols + j] * c;
    }
  });
  return Tensor::MakeOpOutput(
      x.shape(), std::move(out), {x, col}, [rows, cols](Node& node) {
        const auto& px = node.parents[0];
        const auto& pc = node.parents[1];
        const float* g = node.grad.data();
        const float* xd = px->data.data();
        const float* cd = pc->data.data();
        float* gx = nullptr;
        float* gc = nullptr;
        if (px->requires_grad) {
          px->EnsureGrad();
          gx = px->grad.data();
        }
        if (pc->requires_grad) {
          pc->EnsureGrad();
          gc = pc->grad.data();
        }
        ParallelFor(0, rows, RowGrain(cols), [&](int64_t r0, int64_t r1) {
          for (int64_t i = r0; i < r1; ++i) {
            if (gx != nullptr) {
              float c = cd[i];
              for (int64_t j = 0; j < cols; ++j) {
                gx[i * cols + j] += g[i * cols + j] * c;
              }
            }
            if (gc != nullptr) {
              float sum = 0.0f;
              for (int64_t j = 0; j < cols; ++j) {
                sum += g[i * cols + j] * xd[i * cols + j];
              }
              gc[i] += sum;
            }
          }
        });
      });
}

Tensor Neg(const Tensor& a) {
  return ElementwiseUnary(a, ewise::UnaryKind::kNeg);
}

Tensor Scale(const Tensor& a, float s) {
  LOGCL_CHECK(a.defined());
  int64_t n = a.num_elements();
  const float* av = a.data().data();
  std::vector<float> out = UninitOut(n);
  float* od = out.data();
  ParallelFor(0, n, kGrain, [&](int64_t i0, int64_t i1) {
    simd::Scale(av + i0, s, od + i0, i1 - i0);
  });
  return Tensor::MakeOpOutput(
      a.shape(), std::move(out), {a}, [n, s](Node& node) {
        const auto& pa = node.parents[0];
        if (!pa->requires_grad) return;
        bool fresh = false;
        float* ga = pa->GradForFullWrite(&fresh);
        const float* g = node.grad.data();
        ParallelFor(0, n, kGrain, [&](int64_t i0, int64_t i1) {
          (fresh ? simd::AxpyFresh : simd::Axpy)(s, g + i0, ga + i0, i1 - i0);
        });
      });
}

Tensor AddScalar(const Tensor& a, float s) {
  LOGCL_CHECK(a.defined());
  int64_t n = a.num_elements();
  const float* av = a.data().data();
  std::vector<float> out = UninitOut(n);
  float* od = out.data();
  ParallelFor(0, n, kGrain, [&](int64_t i0, int64_t i1) {
    simd::AddScalar(av + i0, s, od + i0, i1 - i0);
  });
  return Tensor::MakeOpOutput(
      a.shape(), std::move(out), {a}, [n](Node& node) {
        const auto& pa = node.parents[0];
        if (!pa->requires_grad) return;
        bool fresh = false;
        float* ga = pa->GradForFullWrite(&fresh);
        const float* g = node.grad.data();
        ParallelFor(0, n, kGrain, [&](int64_t i0, int64_t i1) {
          (fresh ? simd::AccumulateFresh : simd::Accumulate)(g + i0, ga + i0,
                                                             i1 - i0);
        });
      });
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  LOGCL_TRACE_SCOPE("matmul");
  LOGCL_CHECK(a.defined());
  LOGCL_CHECK(b.defined());
  LOGCL_CHECK_EQ(a.shape().rank(), 2);
  LOGCL_CHECK_EQ(b.shape().rank(), 2);
  int64_t m = a.shape().rows();
  int64_t k = a.shape().cols();
  int64_t n = b.shape().cols();
  LOGCL_CHECK_EQ(k, b.shape().rows())
      << "MatMul shape mismatch: " << a.shape().ToString() << " x "
      << b.shape().ToString();
  std::vector<float> out = ZeroOut(m * n);
  MatMulAccumNN(a.data().data(), b.data().data(), out.data(), m, k, n);
  return Tensor::MakeOpOutput(
      Shape{m, n}, std::move(out), {a, b}, [m, k, n](Node& node) {
        const auto& pa = node.parents[0];
        const auto& pb = node.parents[1];
        const float* g = node.grad.data();
        if (pa->requires_grad) {
          pa->EnsureGrad();
          // gA(m x k) += G(m x n) * B(k x n)^T
          MatMulAccumNT(g, pb->data.data(), pa->grad.data(), m, n, k);
        }
        if (pb->requires_grad) {
          pb->EnsureGrad();
          // gB(k x n) += A(m x k)^T * G(m x n)
          MatMulAccumTN(pa->data.data(), g, pb->grad.data(), m, k, n);
        }
      });
}

Tensor Transpose(const Tensor& a) {
  LOGCL_CHECK(a.defined());
  LOGCL_CHECK_EQ(a.shape().rank(), 2);
  int64_t rows = a.shape().rows();
  int64_t cols = a.shape().cols();
  std::vector<float> out = UninitOut(rows * cols);
  simd::Transpose(a.data().data(), rows, cols, out.data());
  return Tensor::MakeOpOutput(
      Shape{cols, rows}, std::move(out), {a}, [rows, cols](Node& node) {
        const auto& pa = node.parents[0];
        if (!pa->requires_grad) return;
        bool fresh = false;
        float* ga = pa->GradForFullWrite(&fresh);
        // gA(rows x cols) = / += G(cols x rows)^T.
        simd::Transpose(node.grad.data(), cols, rows, ga,
                        fresh ? simd::TransposeWrite::kFresh
                              : simd::TransposeWrite::kAccumulate);
      });
}

Tensor Reshape(const Tensor& a, const Shape& shape) {
  LOGCL_CHECK(a.defined());
  LOGCL_CHECK_EQ(a.num_elements(), shape.num_elements());
  int64_t n = a.num_elements();
  std::vector<float> out = UninitOut(n);
  std::copy(a.data().begin(), a.data().end(), out.begin());
  return Tensor::MakeOpOutput(shape, std::move(out), {a}, [n](Node& node) {
    const auto& pa = node.parents[0];
    if (!pa->requires_grad) return;
    bool fresh = false;
    float* ga = pa->GradForFullWrite(&fresh);
    const float* g = node.grad.data();
    ParallelFor(0, n, kGrain, [&](int64_t i0, int64_t i1) {
      (fresh ? simd::AccumulateFresh : simd::Accumulate)(g + i0, ga + i0,
                                                         i1 - i0);
    });
  });
}

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  LOGCL_CHECK(!parts.empty());
  int64_t rows = parts[0].shape().rows();
  int64_t total_cols = 0;
  for (const Tensor& p : parts) {
    LOGCL_CHECK_EQ(p.shape().rank(), 2);
    LOGCL_CHECK_EQ(p.shape().rows(), rows);
    total_cols += p.shape().cols();
  }
  std::vector<int64_t> offsets;
  offsets.reserve(parts.size());
  {
    int64_t offset = 0;
    for (const Tensor& p : parts) {
      offsets.push_back(offset);
      offset += p.shape().cols();
    }
  }
  std::vector<float> out = UninitOut(rows * total_cols);
  float* od = out.data();
  ParallelFor(0, rows, RowGrain(total_cols), [&](int64_t r0, int64_t r1) {
    for (size_t p = 0; p < parts.size(); ++p) {
      int64_t pc = parts[p].shape().cols();
      const float* pd = parts[p].data().data();
      for (int64_t i = r0; i < r1; ++i) {
        std::copy(pd + i * pc, pd + (i + 1) * pc,
                  od + i * total_cols + offsets[p]);
      }
    }
  });
  return Tensor::MakeOpOutput(
      Shape{rows, total_cols}, std::move(out), parts,
      [rows, total_cols, offsets](Node& node) {
        const float* g = node.grad.data();
        for (size_t p = 0; p < node.parents.size(); ++p) {
          const auto& parent = node.parents[p];
          if (!parent->requires_grad) continue;
          // A parent repeated in `parts` is fresh on its first slice only.
          bool fresh = false;
          float* gp = parent->GradForFullWrite(&fresh);
          int64_t pc = parent->shape.cols();
          int64_t off = offsets[p];
          ParallelFor(0, rows, RowGrain(pc), [&](int64_t r0, int64_t r1) {
            for (int64_t i = r0; i < r1; ++i) {
              const float* grow = g + i * total_cols + off;
              float* prow = gp + i * pc;
              if (fresh) {
                for (int64_t j = 0; j < pc; ++j) prow[j] = 0.0f + grow[j];
              } else {
                for (int64_t j = 0; j < pc; ++j) prow[j] += grow[j];
              }
            }
          });
        }
      });
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  LOGCL_CHECK(!parts.empty());
  int64_t cols = parts[0].shape().cols();
  int64_t total_rows = 0;
  for (const Tensor& p : parts) {
    LOGCL_CHECK_EQ(p.shape().rank(), 2);
    LOGCL_CHECK_EQ(p.shape().cols(), cols);
    total_rows += p.shape().rows();
  }
  std::vector<float> out = UninitOut(total_rows * cols);
  std::vector<int64_t> row_offsets;
  row_offsets.reserve(parts.size());
  int64_t offset = 0;
  for (const Tensor& p : parts) {
    row_offsets.push_back(offset);
    std::copy(p.data().begin(), p.data().end(),
              out.begin() + static_cast<size_t>(offset * cols));
    offset += p.shape().rows();
  }
  return Tensor::MakeOpOutput(
      Shape{total_rows, cols}, std::move(out), parts,
      [cols, row_offsets](Node& node) {
        const float* g = node.grad.data();
        for (size_t p = 0; p < node.parents.size(); ++p) {
          const auto& parent = node.parents[p];
          if (!parent->requires_grad) continue;
          // A parent repeated in `parts` is fresh on its first slice only.
          bool fresh = false;
          float* gp = parent->GradForFullWrite(&fresh);
          int64_t pr = parent->shape.rows();
          const float* gstart = g + row_offsets[p] * cols;
          ParallelFor(0, pr * cols, kGrain, [&](int64_t i0, int64_t i1) {
            (fresh ? simd::AccumulateFresh : simd::Accumulate)(
                gstart + i0, gp + i0, i1 - i0);
          });
        }
      });
}

Tensor SliceCols(const Tensor& a, int64_t start, int64_t count) {
  LOGCL_CHECK(a.defined());
  LOGCL_CHECK_EQ(a.shape().rank(), 2);
  int64_t rows = a.shape().rows();
  int64_t cols = a.shape().cols();
  LOGCL_CHECK_GE(start, 0);
  LOGCL_CHECK_GE(count, 0);
  LOGCL_CHECK_LE(start + count, cols);
  const float* ad = a.data().data();
  std::vector<float> out = UninitOut(rows * count);
  float* od = out.data();
  ParallelFor(0, rows, RowGrain(count), [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      std::copy(ad + i * cols + start, ad + i * cols + start + count,
                od + i * count);
    }
  });
  return Tensor::MakeOpOutput(
      Shape{rows, count}, std::move(out), {a},
      [rows, cols, start, count](Node& node) {
        const auto& pa = node.parents[0];
        if (!pa->requires_grad) return;
        pa->EnsureGrad();
        const float* g = node.grad.data();
        float* ga = pa->grad.data();
        ParallelFor(0, rows, RowGrain(count), [&](int64_t r0, int64_t r1) {
          for (int64_t i = r0; i < r1; ++i) {
            for (int64_t j = 0; j < count; ++j) {
              ga[i * cols + start + j] += g[i * count + j];
            }
          }
        });
      });
}

Tensor SliceRows(const Tensor& a, int64_t start, int64_t count) {
  LOGCL_CHECK(a.defined());
  LOGCL_CHECK_EQ(a.shape().rank(), 2);
  int64_t rows = a.shape().rows();
  int64_t cols = a.shape().cols();
  LOGCL_CHECK_GE(start, 0);
  LOGCL_CHECK_GE(count, 0);
  LOGCL_CHECK_LE(start + count, rows);
  const float* ad = a.data().data();
  std::vector<float> out = UninitOut(count * cols);
  std::copy(ad + start * cols, ad + (start + count) * cols, out.begin());
  return Tensor::MakeOpOutput(
      Shape{count, cols}, std::move(out), {a},
      [cols, start, count](Node& node) {
        const auto& pa = node.parents[0];
        if (!pa->requires_grad) return;
        pa->EnsureGrad();
        const float* g = node.grad.data();
        float* ga = pa->grad.data() + start * cols;
        ParallelFor(0, count * cols, kGrain, [&](int64_t i0, int64_t i1) {
          for (int64_t i = i0; i < i1; ++i) ga[i] += g[i];
        });
      });
}

Tensor IndexSelectRows(const Tensor& x, const std::vector<int64_t>& indices) {
  LOGCL_CHECK(x.defined());
  LOGCL_CHECK_EQ(x.shape().rank(), 2);
  int64_t rows = x.shape().rows();
  int64_t cols = x.shape().cols();
  int64_t n = static_cast<int64_t>(indices.size());
  const float* xd = x.data().data();
  for (int64_t i = 0; i < n; ++i) {
    LOGCL_CHECK_GE(indices[static_cast<size_t>(i)], 0);
    LOGCL_CHECK_LT(indices[static_cast<size_t>(i)], rows);
  }
  std::vector<float> out = UninitOut(n * cols);
  float* od = out.data();
  ParallelFor(0, n, RowGrain(cols), [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      int64_t src = indices[static_cast<size_t>(i)];
      std::copy(xd + src * cols, xd + (src + 1) * cols, od + i * cols);
    }
  });
  return Tensor::MakeOpOutput(
      Shape{n, cols}, std::move(out), {x},
      [rows, cols, n, indices](Node& node) {
        const auto& px = node.parents[0];
        if (!px->requires_grad) return;
        px->EnsureGrad();
        const float* g = node.grad.data();
        float* gx = px->grad.data();
        // Destination-sharded: each shard owns a contiguous range of gx
        // rows and scans every index, so repeated indices accumulate in
        // the same (serial) order at any thread count.
        ParallelFor(0, rows, RowGrain(cols), [&](int64_t r0, int64_t r1) {
          for (int64_t i = 0; i < n; ++i) {
            int64_t dst = indices[static_cast<size_t>(i)];
            if (dst < r0 || dst >= r1) continue;
            const float* grow = g + i * cols;
            float* xrow = gx + dst * cols;
            for (int64_t j = 0; j < cols; ++j) xrow[j] += grow[j];
          }
        });
      });
}

Tensor ScatterAddRows(const Tensor& values, const std::vector<int64_t>& indices,
                      int64_t num_rows) {
  LOGCL_CHECK(values.defined());
  LOGCL_CHECK_EQ(values.shape().rank(), 2);
  int64_t n = values.shape().rows();
  int64_t cols = values.shape().cols();
  LOGCL_CHECK_EQ(n, static_cast<int64_t>(indices.size()));
  for (int64_t i = 0; i < n; ++i) {
    LOGCL_CHECK_GE(indices[static_cast<size_t>(i)], 0);
    LOGCL_CHECK_LT(indices[static_cast<size_t>(i)], num_rows);
  }
  const float* vd = values.data().data();
  std::vector<float> out = ZeroOut(num_rows * cols);
  float* od = out.data();
  // Destination-sharded accumulation (see IndexSelectRows backward).
  ParallelFor(0, num_rows, RowGrain(cols), [&](int64_t r0, int64_t r1) {
    for (int64_t i = 0; i < n; ++i) {
      int64_t dst = indices[static_cast<size_t>(i)];
      if (dst < r0 || dst >= r1) continue;
      const float* vrow = vd + i * cols;
      float* orow = od + dst * cols;
      for (int64_t j = 0; j < cols; ++j) orow[j] += vrow[j];
    }
  });
  return Tensor::MakeOpOutput(
      Shape{num_rows, cols}, std::move(out), {values},
      [cols, n, indices](Node& node) {
        const auto& pv = node.parents[0];
        if (!pv->requires_grad) return;
        pv->EnsureGrad();
        const float* g = node.grad.data();
        float* gv = pv->grad.data();
        // Edge-parallel: every value row has a distinct gradient row.
        ParallelFor(0, n, RowGrain(cols), [&](int64_t r0, int64_t r1) {
          for (int64_t i = r0; i < r1; ++i) {
            int64_t src = indices[static_cast<size_t>(i)];
            const float* grow = g + src * cols;
            float* vrow = gv + i * cols;
            for (int64_t j = 0; j < cols; ++j) vrow[j] += grow[j];
          }
        });
      });
}

Tensor ScatterMeanRows(const Tensor& values,
                       const std::vector<int64_t>& indices, int64_t num_rows) {
  LOGCL_CHECK(values.defined());
  LOGCL_CHECK_EQ(values.shape().rank(), 2);
  int64_t n = values.shape().rows();
  int64_t cols = values.shape().cols();
  LOGCL_CHECK_EQ(n, static_cast<int64_t>(indices.size()));
  std::vector<float> inv_count(static_cast<size_t>(num_rows), 0.0f);
  for (int64_t i = 0; i < n; ++i) {
    int64_t dst = indices[static_cast<size_t>(i)];
    LOGCL_CHECK_GE(dst, 0);
    LOGCL_CHECK_LT(dst, num_rows);
    inv_count[static_cast<size_t>(dst)] += 1.0f;
  }
  for (float& c : inv_count) c = c > 0.0f ? 1.0f / c : 0.0f;
  const float* vd = values.data().data();
  std::vector<float> out = ZeroOut(num_rows * cols);
  float* od = out.data();
  ParallelFor(0, num_rows, RowGrain(cols), [&](int64_t r0, int64_t r1) {
    for (int64_t i = 0; i < n; ++i) {
      int64_t dst = indices[static_cast<size_t>(i)];
      if (dst < r0 || dst >= r1) continue;
      float w = inv_count[static_cast<size_t>(dst)];
      const float* vrow = vd + i * cols;
      float* orow = od + dst * cols;
      for (int64_t j = 0; j < cols; ++j) orow[j] += w * vrow[j];
    }
  });
  return Tensor::MakeOpOutput(
      Shape{num_rows, cols}, std::move(out), {values},
      [cols, n, indices, inv_count](Node& node) {
        const auto& pv = node.parents[0];
        if (!pv->requires_grad) return;
        pv->EnsureGrad();
        const float* g = node.grad.data();
        float* gv = pv->grad.data();
        ParallelFor(0, n, RowGrain(cols), [&](int64_t r0, int64_t r1) {
          for (int64_t i = r0; i < r1; ++i) {
            int64_t src = indices[static_cast<size_t>(i)];
            float w = inv_count[static_cast<size_t>(src)];
            const float* grow = g + src * cols;
            float* vrow = gv + i * cols;
            for (int64_t j = 0; j < cols; ++j) vrow[j] += w * grow[j];
          }
        });
      });
}

namespace {

// Grain for loops sharded over softmax segments: aim for ~2048 edges of
// work per shard, assuming edges are evenly spread over segments.
int64_t SegmentGrain(int64_t num_segments, int64_t num_edges) {
  return std::max<int64_t>(
      1, num_segments * 2048 / std::max<int64_t>(1, num_edges));
}

}  // namespace

Tensor SegmentSoftmax(const Tensor& logits,
                      const std::vector<int64_t>& segment_ids,
                      int64_t num_segments) {
  LOGCL_CHECK(logits.defined());
  int64_t n = logits.num_elements();
  LOGCL_CHECK_EQ(n, static_cast<int64_t>(segment_ids.size()));
  const float* ld = logits.data().data();
  for (int64_t i = 0; i < n; ++i) {
    LOGCL_CHECK_GE(segment_ids[static_cast<size_t>(i)], 0);
    LOGCL_CHECK_LT(segment_ids[static_cast<size_t>(i)], num_segments);
  }
  // Numerically stable per-segment softmax: subtract segment max. The
  // max/sum passes are segment-sharded (each shard owns a contiguous
  // segment range and scans all edges), the normalisation is edge-parallel.
  std::vector<float> seg_max(static_cast<size_t>(num_segments),
                             -std::numeric_limits<float>::infinity());
  std::vector<float> out = UninitOut(n);
  std::vector<float> seg_sum(static_cast<size_t>(num_segments), 0.0f);
  int64_t seg_grain = SegmentGrain(num_segments, n);
  ParallelFor(0, num_segments, seg_grain, [&](int64_t s0, int64_t s1) {
    for (int64_t i = 0; i < n; ++i) {
      int64_t s = segment_ids[static_cast<size_t>(i)];
      if (s < s0 || s >= s1) continue;
      seg_max[static_cast<size_t>(s)] =
          std::max(seg_max[static_cast<size_t>(s)], ld[i]);
    }
  });
  float* od = out.data();
  ParallelFor(0, num_segments, seg_grain, [&](int64_t s0, int64_t s1) {
    for (int64_t i = 0; i < n; ++i) {
      int64_t s = segment_ids[static_cast<size_t>(i)];
      if (s < s0 || s >= s1) continue;
      float e = std::exp(ld[i] - seg_max[static_cast<size_t>(s)]);
      od[i] = e;
      seg_sum[static_cast<size_t>(s)] += e;
    }
  });
  ParallelFor(0, n, kGrain, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      od[i] /= seg_sum[static_cast<size_t>(segment_ids[static_cast<size_t>(i)])];
    }
  });
  return Tensor::MakeOpOutput(
      Shape{n, 1}, std::move(out), {logits},
      [n, segment_ids, num_segments](Node& node) {
        const auto& pl = node.parents[0];
        if (!pl->requires_grad) return;
        pl->EnsureGrad();
        const float* g = node.grad.data();
        const float* y = node.data.data();
        float* gl = pl->grad.data();
        // gx_i = y_i * (g_i - sum_{j in seg} y_j g_j)
        std::vector<float> seg_dot(static_cast<size_t>(num_segments), 0.0f);
        ParallelFor(0, num_segments, SegmentGrain(num_segments, n),
                    [&](int64_t s0, int64_t s1) {
                      for (int64_t i = 0; i < n; ++i) {
                        int64_t s = segment_ids[static_cast<size_t>(i)];
                        if (s < s0 || s >= s1) continue;
                        seg_dot[static_cast<size_t>(s)] += y[i] * g[i];
                      }
                    });
        ParallelFor(0, n, kGrain, [&](int64_t i0, int64_t i1) {
          for (int64_t i = i0; i < i1; ++i) {
            float dot = seg_dot[static_cast<size_t>(
                segment_ids[static_cast<size_t>(i)])];
            gl[i] += y[i] * (g[i] - dot);
          }
        });
      });
}

// ---------------------------------------------------------------------------
// CSR scatter variants + fused relational message passing.
//
// Parity contract: every kernel below reproduces the composed reference ops
// bit for bit. Per destination row, the CSR lists edges in ascending edge id
// (counting sort), so row-local accumulation in CSR order equals the
// composed ops' serial edge scan; per-edge matmuls sweep the reduction
// dimension ascending with a single accumulator per output element, exactly
// like the blocked MatMulAccum kernels. Parallelism is over destination-row
// (or edge-tile) shards only, so results are thread-count invariant.
// ---------------------------------------------------------------------------

namespace {

// Edges per register tile in the fused kernels: 8 message rows stream
// through one read of each weight column block.
constexpr int64_t kEdgeTile = 8;

inline float ComposeValue(EdgeCompose compose, float a, float b) {
  switch (compose) {
    case EdgeCompose::kAdd:
      return a + b;
    case EdgeCompose::kSubtract:
      return a - b;
    case EdgeCompose::kMultiply:
      return a * b;
  }
  return 0.0f;
}

// Fills out[e - e0, :] = compose(nodes[src[e], :], rels[rel[e], :]) for
// e in [e0, e1). Matches the composed gather + elementwise ops bitwise
// (one arithmetic op per element).
// Row-sized SIMD compose (one arithmetic op per element, same rounding as
// ComposeValue).
inline void ComposeRow(EdgeCompose compose, const float* nrow,
                       const float* rrow, float* orow, int64_t d_in) {
  switch (compose) {
    case EdgeCompose::kAdd:
      simd::Add(nrow, rrow, orow, d_in);
      break;
    case EdgeCompose::kSubtract:
      simd::Sub(nrow, rrow, orow, d_in);
      break;
    case EdgeCompose::kMultiply:
      simd::Mul(nrow, rrow, orow, d_in);
      break;
  }
}

void ComposeRows(const float* nodes, const float* rels,
                 const std::vector<int64_t>& src,
                 const std::vector<int64_t>& rel, EdgeCompose compose,
                 int64_t d_in, int64_t e0, int64_t e1, float* out) {
  for (int64_t e = e0; e < e1; ++e) {
    const float* nrow = nodes + src[static_cast<size_t>(e)] * d_in;
    const float* rrow = rels + rel[static_cast<size_t>(e)] * d_in;
    ComposeRow(compose, nrow, rrow, out + (e - e0) * d_in, d_in);
  }
}

void CheckEdgeIndices(const std::vector<int64_t>& indices, int64_t limit) {
  for (int64_t i : indices) {
    LOGCL_CHECK_GE(i, 0);
    LOGCL_CHECK_LT(i, limit);
  }
}

// gW(d_in x d_out) += compose(A)^T * G without materializing the [E, d_in]
// composed-input matrix: edge blocks are re-composed into an L1 strip and
// rank-updated into a per-shard scratch that sweeps all edges before
// touching gW once. Per output element this is the same single
// ascending-edge accumulation chain as MatMulAccumTN on the materialized
// matrix (zero-initialized accumulator, one final += into the grad), so the
// result is bitwise identical while reading far less memory per block.
// Shards split the d_in rows; every shard streams all edges, so the per-
// element order is thread-count invariant.
void AccumulateWeightGrad(const float* nodes, const float* rels,
                          const std::vector<int64_t>& src,
                          const std::vector<int64_t>& rel,
                          EdgeCompose compose, const float* g,
                          int64_t num_edges, int64_t d_in, int64_t d_out,
                          float* gw) {
  ParallelFor(0, d_in, 1, [&](int64_t l0, int64_t l1) {
    // Pooled scratch: worker threads recycle these through their own
    // thread-local cache, so the per-shard allocations vanish in steady
    // state. ablock rows past `en` are never read, hence kUninit.
    PooledBuffer scratch(static_cast<size_t>((l1 - l0) * d_out),
                         BufferFill::kZero);
    PooledBuffer ablock(static_cast<size_t>(kEdgeTile * d_in),
                        BufferFill::kUninit);
    for (int64_t e0 = 0; e0 < num_edges; e0 += kEdgeTile) {
      const int64_t en = std::min<int64_t>(kEdgeTile, num_edges - e0);
      ComposeRows(nodes, rels, src, rel, compose, d_in, e0, e0 + en,
                  ablock.data());
      for (int64_t l = l0; l < l1; ++l) {
        float* srow = scratch.data() + (l - l0) * d_out;
        for (int64_t r = 0; r < en; ++r) {
          float av = ablock[static_cast<size_t>(r * d_in + l)];
          simd::Axpy(av, g + (e0 + r) * d_out, srow, d_out);
        }
      }
    }
    for (int64_t l = l0; l < l1; ++l) {
      simd::Accumulate(scratch.data() + (l - l0) * d_out, gw + l * d_out,
                       d_out);
    }
  });
}

// Scatters gA (the gradient w.r.t. the composed [E, d_in] input rows) into
// the node/relation gradients, destination-sharded like the composed
// IndexSelectRows backward. `other` is the co-factor matrix for kMultiply
// (relations when accumulating node grads and vice versa), indexed by
// `other_index`.
void ScatterComposeGrad(const float* ga, const std::vector<int64_t>& index,
                        const std::vector<int64_t>& other_index,
                        const float* other, bool negate, EdgeCompose compose,
                        int64_t d_in, int64_t num_rows, float* grad) {
  int64_t num_edges = static_cast<int64_t>(index.size());
  ParallelFor(0, num_rows, RowGrain(d_in), [&](int64_t r0, int64_t r1) {
    for (int64_t e = 0; e < num_edges; ++e) {
      int64_t dst = index[static_cast<size_t>(e)];
      if (dst < r0 || dst >= r1) continue;
      const float* garow = ga + e * d_in;
      float* grow = grad + dst * d_in;
      if (compose == EdgeCompose::kMultiply) {
        const float* orow =
            other + other_index[static_cast<size_t>(e)] * d_in;
        for (int64_t l = 0; l < d_in; ++l) {
          // Two statements, matching the composed Mul backward's rounding
          // (product first, then accumulate).
          float da = garow[l] * orow[l];
          grow[l] += da;
        }
      } else if (negate) {
        for (int64_t l = 0; l < d_in; ++l) grow[l] += -garow[l];
      } else {
        for (int64_t l = 0; l < d_in; ++l) grow[l] += garow[l];
      }
    }
  });
}

}  // namespace

Tensor ScatterAddRows(const Tensor& values, const EdgeCsrPtr& csr) {
  LOGCL_CHECK(values.defined());
  LOGCL_CHECK(csr != nullptr);
  LOGCL_CHECK_EQ(values.shape().rank(), 2);
  int64_t cols = values.shape().cols();
  LOGCL_CHECK_EQ(values.shape().rows(), csr->num_edges);
  int64_t num_rows = csr->num_rows;
  const float* vd = values.data().data();
  std::vector<float> out = ZeroOut(num_rows * cols);
  float* od = out.data();
  ParallelFor(0, num_rows, RowGrain(cols), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      float* orow = od + r * cols;
      for (int64_t p = csr->offsets[static_cast<size_t>(r)];
           p < csr->offsets[static_cast<size_t>(r) + 1]; ++p) {
        const float* vrow =
            vd + csr->edge_order[static_cast<size_t>(p)] * cols;
        for (int64_t j = 0; j < cols; ++j) orow[j] += vrow[j];
      }
    }
  });
  return Tensor::MakeOpOutput(
      Shape{num_rows, cols}, std::move(out), {values},
      [cols, csr](Node& node) {
        const auto& pv = node.parents[0];
        if (!pv->requires_grad) return;
        pv->EnsureGrad();
        const float* g = node.grad.data();
        float* gv = pv->grad.data();
        // Each edge appears in exactly one CSR row: edge-parallel in effect.
        ParallelFor(0, csr->num_rows, RowGrain(cols),
                    [&](int64_t r0, int64_t r1) {
                      for (int64_t r = r0; r < r1; ++r) {
                        const float* grow = g + r * cols;
                        for (int64_t p = csr->offsets[static_cast<size_t>(r)];
                             p < csr->offsets[static_cast<size_t>(r) + 1];
                             ++p) {
                          float* vrow =
                              gv +
                              csr->edge_order[static_cast<size_t>(p)] * cols;
                          for (int64_t j = 0; j < cols; ++j) {
                            vrow[j] += grow[j];
                          }
                        }
                      }
                    });
      });
}

Tensor ScatterMeanRows(const Tensor& values, const EdgeCsrPtr& csr) {
  LOGCL_CHECK(values.defined());
  LOGCL_CHECK(csr != nullptr);
  LOGCL_CHECK_EQ(values.shape().rank(), 2);
  int64_t cols = values.shape().cols();
  LOGCL_CHECK_EQ(values.shape().rows(), csr->num_edges);
  int64_t num_rows = csr->num_rows;
  const float* vd = values.data().data();
  std::vector<float> out = ZeroOut(num_rows * cols);
  float* od = out.data();
  ParallelFor(0, num_rows, RowGrain(cols), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      float w = csr->inv_in_degree[static_cast<size_t>(r)];
      float* orow = od + r * cols;
      for (int64_t p = csr->offsets[static_cast<size_t>(r)];
           p < csr->offsets[static_cast<size_t>(r) + 1]; ++p) {
        const float* vrow =
            vd + csr->edge_order[static_cast<size_t>(p)] * cols;
        for (int64_t j = 0; j < cols; ++j) orow[j] += w * vrow[j];
      }
    }
  });
  return Tensor::MakeOpOutput(
      Shape{num_rows, cols}, std::move(out), {values},
      [cols, csr](Node& node) {
        const auto& pv = node.parents[0];
        if (!pv->requires_grad) return;
        pv->EnsureGrad();
        const float* g = node.grad.data();
        float* gv = pv->grad.data();
        ParallelFor(0, csr->num_rows, RowGrain(cols),
                    [&](int64_t r0, int64_t r1) {
                      for (int64_t r = r0; r < r1; ++r) {
                        float w =
                            csr->inv_in_degree[static_cast<size_t>(r)];
                        const float* grow = g + r * cols;
                        for (int64_t p = csr->offsets[static_cast<size_t>(r)];
                             p < csr->offsets[static_cast<size_t>(r) + 1];
                             ++p) {
                          float* vrow =
                              gv +
                              csr->edge_order[static_cast<size_t>(p)] * cols;
                          for (int64_t j = 0; j < cols; ++j) {
                            vrow[j] += w * grow[j];
                          }
                        }
                      }
                    });
      });
}

Tensor SegmentSoftmax(const Tensor& logits, const EdgeCsrPtr& csr) {
  LOGCL_CHECK(logits.defined());
  LOGCL_CHECK(csr != nullptr);
  int64_t n = logits.num_elements();
  LOGCL_CHECK_EQ(n, csr->num_edges);
  int64_t num_segments = csr->num_rows;
  const float* ld = logits.data().data();
  // Same max/exp-sum/normalize structure as the index-vector overload, but
  // each segment walks only its own edges (ascending edge id: identical
  // accumulation order to the full-edge scan).
  std::vector<float> out = UninitOut(n);
  float* od = out.data();
  int64_t seg_grain = SegmentGrain(num_segments, n);
  ParallelFor(0, num_segments, seg_grain, [&](int64_t s0, int64_t s1) {
    for (int64_t s = s0; s < s1; ++s) {
      float seg_max = -std::numeric_limits<float>::infinity();
      for (int64_t p = csr->offsets[static_cast<size_t>(s)];
           p < csr->offsets[static_cast<size_t>(s) + 1]; ++p) {
        seg_max =
            std::max(seg_max, ld[csr->edge_order[static_cast<size_t>(p)]]);
      }
      float seg_sum = 0.0f;
      for (int64_t p = csr->offsets[static_cast<size_t>(s)];
           p < csr->offsets[static_cast<size_t>(s) + 1]; ++p) {
        int64_t e = csr->edge_order[static_cast<size_t>(p)];
        float ev = std::exp(ld[e] - seg_max);
        od[e] = ev;
        seg_sum += ev;
      }
      for (int64_t p = csr->offsets[static_cast<size_t>(s)];
           p < csr->offsets[static_cast<size_t>(s) + 1]; ++p) {
        od[csr->edge_order[static_cast<size_t>(p)]] /= seg_sum;
      }
    }
  });
  return Tensor::MakeOpOutput(
      Shape{n, 1}, std::move(out), {logits}, [n, csr](Node& node) {
        const auto& pl = node.parents[0];
        if (!pl->requires_grad) return;
        pl->EnsureGrad();
        const float* g = node.grad.data();
        const float* y = node.data.data();
        float* gl = pl->grad.data();
        // gx_i = y_i * (g_i - sum_{j in seg} y_j g_j)
        ParallelFor(0, csr->num_rows, SegmentGrain(csr->num_rows, n),
                    [&](int64_t s0, int64_t s1) {
                      for (int64_t s = s0; s < s1; ++s) {
                        float dot = 0.0f;
                        for (int64_t p =
                                 csr->offsets[static_cast<size_t>(s)];
                             p < csr->offsets[static_cast<size_t>(s) + 1];
                             ++p) {
                          int64_t e =
                              csr->edge_order[static_cast<size_t>(p)];
                          dot += y[e] * g[e];
                        }
                        for (int64_t p =
                                 csr->offsets[static_cast<size_t>(s)];
                             p < csr->offsets[static_cast<size_t>(s) + 1];
                             ++p) {
                          int64_t e =
                              csr->edge_order[static_cast<size_t>(p)];
                          gl[e] += y[e] * (g[e] - dot);
                        }
                      }
                    });
      });
}

Tensor EdgeMessages(const Tensor& nodes, const Tensor& relations,
                    const Tensor& weight, const std::vector<int64_t>& src,
                    const std::vector<int64_t>& rel, EdgeCompose compose) {
  LOGCL_CHECK(nodes.defined());
  LOGCL_CHECK(relations.defined());
  LOGCL_CHECK(weight.defined());
  LOGCL_CHECK_EQ(nodes.shape().rank(), 2);
  LOGCL_CHECK_EQ(relations.shape().rank(), 2);
  LOGCL_CHECK_EQ(weight.shape().rank(), 2);
  int64_t d_in = nodes.shape().cols();
  LOGCL_CHECK_EQ(relations.shape().cols(), d_in);
  LOGCL_CHECK_EQ(weight.shape().rows(), d_in);
  int64_t d_out = weight.shape().cols();
  int64_t num_edges = static_cast<int64_t>(src.size());
  LOGCL_CHECK_EQ(num_edges, static_cast<int64_t>(rel.size()));
  CheckEdgeIndices(src, nodes.shape().rows());
  CheckEdgeIndices(rel, relations.shape().rows());
  int64_t num_nodes = nodes.shape().rows();
  int64_t num_rels = relations.shape().rows();

  const float* nd = nodes.data().data();
  const float* rd = relations.data().data();
  const float* wd = weight.data().data();
  std::vector<float> out = UninitOut(num_edges * d_out);
  float* od = out.data();
  // Edge-tile streaming: compose kEdgeTile input rows into a scratch strip,
  // multiply against one weight column block at a time with a register tile
  // (single accumulator per element sweeping d_in ascending, as in
  // MatMulAccumNN), and write the finished message rows.
  int64_t edge_grain = MatMulRowGrain(d_in * d_out);
  ParallelFor(0, num_edges, edge_grain, [&](int64_t e0, int64_t e1) {
    PooledBuffer a(static_cast<size_t>(kEdgeTile * d_in),
                   BufferFill::kUninit);
    float acc[kEdgeTile][kTileCols];
    for (int64_t t0 = e0; t0 < e1; t0 += kEdgeTile) {
      const int64_t tn = std::min<int64_t>(kEdgeTile, e1 - t0);
      ComposeRows(nd, rd, src, rel, compose, d_in, t0, t0 + tn, a.data());
      for (int64_t j0 = 0; j0 < d_out; j0 += kTileCols) {
        const int64_t jn = std::min(kTileCols, d_out - j0);
        simd::MatMulTile(a.data(), d_in, wd + j0, d_out, &acc[0][0],
                         kTileCols, tn, d_in, jn);
        for (int64_t r = 0; r < tn; ++r) {
          float* orow = od + (t0 + r) * d_out + j0;
          for (int64_t j = 0; j < jn; ++j) orow[j] = acc[r][j];
        }
      }
    }
  });
  return Tensor::MakeOpOutput(
      Shape{num_edges, d_out}, std::move(out), {nodes, relations, weight},
      [d_in, d_out, num_edges, num_nodes, num_rels, src, rel,
       compose](Node& node) {
        const auto& pn = node.parents[0];
        const auto& pr = node.parents[1];
        const auto& pw = node.parents[2];
        const float* g = node.grad.data();
        const float* nd = pn->data.data();
        const float* rd = pr->data.data();
        bool need_input_grads = pn->requires_grad || pr->requires_grad;
        // gA = G * W^T, computed as G * transpose(W) through the NN kernel
        // (bitwise equal to the composed MatMul backward's NT product).
        PooledBuffer ga;
        if (need_input_grads) {
          ga = PooledBuffer(static_cast<size_t>(num_edges * d_in),
                            BufferFill::kZero);
          PooledBuffer wt(static_cast<size_t>(d_in * d_out),
                          BufferFill::kUninit);
          simd::Transpose(pw->data.data(), d_in, d_out, wt.data());
          MatMulAccumNN(g, wt.data(), ga.data(), num_edges, d_out, d_in);
        }
        if (pw->requires_grad) {
          pw->EnsureGrad();
          // Recomposes edge blocks on the fly instead of keeping an [E, d]
          // tensor alive on the tape (bitwise equal to the forward values).
          AccumulateWeightGrad(nd, rd, src, rel, compose, g, num_edges, d_in,
                               d_out, pw->grad.data());
        }
        if (pn->requires_grad) {
          pn->EnsureGrad();
          ScatterComposeGrad(ga.data(), src, rel, rd, /*negate=*/false,
                             compose, d_in, num_nodes, pn->grad.data());
        }
        if (pr->requires_grad) {
          pr->EnsureGrad();
          ScatterComposeGrad(ga.data(), rel, src, nd,
                             /*negate=*/compose == EdgeCompose::kSubtract,
                             compose, d_in, num_rels, pr->grad.data());
        }
      });
}

Tensor FusedRelMessagePassing(const Tensor& nodes, const Tensor& relations,
                              const Tensor& weight,
                              const std::vector<int64_t>& src,
                              const std::vector<int64_t>& rel,
                              const std::vector<int64_t>& dst,
                              const EdgeCsrPtr& dst_csr,
                              EdgeCompose compose) {
  LOGCL_TRACE_SCOPE("fused_mp");
  LOGCL_CHECK(nodes.defined());
  LOGCL_CHECK(relations.defined());
  LOGCL_CHECK(weight.defined());
  LOGCL_CHECK(dst_csr != nullptr);
  LOGCL_CHECK_EQ(nodes.shape().rank(), 2);
  LOGCL_CHECK_EQ(relations.shape().rank(), 2);
  LOGCL_CHECK_EQ(weight.shape().rank(), 2);
  int64_t d_in = nodes.shape().cols();
  LOGCL_CHECK_EQ(relations.shape().cols(), d_in);
  LOGCL_CHECK_EQ(weight.shape().rows(), d_in);
  int64_t d_out = weight.shape().cols();
  int64_t num_edges = static_cast<int64_t>(src.size());
  LOGCL_CHECK_EQ(num_edges, static_cast<int64_t>(rel.size()));
  LOGCL_CHECK_EQ(num_edges, static_cast<int64_t>(dst.size()));
  LOGCL_CHECK_EQ(num_edges, dst_csr->num_edges);
  int64_t num_rows = dst_csr->num_rows;
  CheckEdgeIndices(src, nodes.shape().rows());
  CheckEdgeIndices(rel, relations.shape().rows());
  int64_t num_nodes = nodes.shape().rows();
  int64_t num_rels = relations.shape().rows();

  const float* nd = nodes.data().data();
  const float* rd = relations.data().data();
  const float* wd = weight.data().data();
  const EdgeCsr& csr = *dst_csr;
  std::vector<float> out = ZeroOut(num_rows * d_out);
  float* od = out.data();
  // Shards own contiguous destination rows; a row's CSR edges are contiguous
  // and ascending, so streaming tiles of CSR positions keeps each output
  // element's accumulation order identical to the composed serial scan.
  ParallelFor(0, num_rows, RowGrain(d_out), [&](int64_t r0, int64_t r1) {
    const int64_t p_begin = csr.offsets[static_cast<size_t>(r0)];
    const int64_t p_end = csr.offsets[static_cast<size_t>(r1)];
    if (p_begin == p_end) return;
    PooledBuffer a(static_cast<size_t>(kEdgeTile * d_in),
                   BufferFill::kUninit);
    float acc[kEdgeTile][kTileCols];
    for (int64_t t0 = p_begin; t0 < p_end; t0 += kEdgeTile) {
      const int64_t tn = std::min<int64_t>(kEdgeTile, p_end - t0);
      // Compose the tile's input rows (CSR position order).
      for (int64_t r = 0; r < tn; ++r) {
        int64_t e = csr.edge_order[static_cast<size_t>(t0 + r)];
        const float* nrow = nd + src[static_cast<size_t>(e)] * d_in;
        const float* rrow = rd + rel[static_cast<size_t>(e)] * d_in;
        ComposeRow(compose, nrow, rrow, a.data() + r * d_in, d_in);
      }
      for (int64_t j0 = 0; j0 < d_out; j0 += kTileCols) {
        const int64_t jn = std::min(kTileCols, d_out - j0);
        simd::MatMulTile(a.data(), d_in, wd + j0, d_out, &acc[0][0],
                         kTileCols, tn, d_in, jn);
        // Mean-scatter the finished message tile, still in CSR order.
        for (int64_t r = 0; r < tn; ++r) {
          int64_t e = csr.edge_order[static_cast<size_t>(t0 + r)];
          int64_t drow = dst[static_cast<size_t>(e)];
          float w = csr.inv_in_degree[static_cast<size_t>(drow)];
          simd::Axpy(w, acc[r], od + drow * d_out + j0, jn);
        }
      }
    }
  });
  return Tensor::MakeOpOutput(
      Shape{num_rows, d_out}, std::move(out), {nodes, relations, weight},
      [d_in, d_out, num_edges, num_nodes, num_rels, src, rel, dst_csr,
       compose](Node& node) {
        const auto& pn = node.parents[0];
        const auto& pr = node.parents[1];
        const auto& pw = node.parents[2];
        const float* g = node.grad.data();
        const float* nd = pn->data.data();
        const float* rd = pr->data.data();
        const EdgeCsr& csr = *dst_csr;
        // gM[e] = inv_deg[dst[e]] * G[dst[e]] (ScatterMeanRows backward);
        // each edge is written once via its CSR row, so this is racefree
        // (and every edge IS written: kUninit is safe).
        PooledBuffer gm(static_cast<size_t>(num_edges * d_out),
                        BufferFill::kUninit);
        ParallelFor(0, csr.num_rows, RowGrain(d_out),
                    [&](int64_t r0, int64_t r1) {
                      for (int64_t r = r0; r < r1; ++r) {
                        float w = csr.inv_in_degree[static_cast<size_t>(r)];
                        const float* grow = g + r * d_out;
                        for (int64_t p = csr.offsets[static_cast<size_t>(r)];
                             p < csr.offsets[static_cast<size_t>(r) + 1];
                             ++p) {
                          simd::Scale(
                              grow, w,
                              gm.data() +
                                  csr.edge_order[static_cast<size_t>(p)] *
                                      d_out,
                              d_out);
                        }
                      }
                    });
        bool need_input_grads = pn->requires_grad || pr->requires_grad;
        // gA = gM * W^T via the NN kernel on a transposed W, and
        // gW += compose(A)^T * gM via the block-recomposing rank-update
        // kernel — both bitwise equal to the composed NT/TN products.
        PooledBuffer ga;
        if (need_input_grads) {
          ga = PooledBuffer(static_cast<size_t>(num_edges * d_in),
                            BufferFill::kZero);
          PooledBuffer wt(static_cast<size_t>(d_in * d_out),
                          BufferFill::kUninit);
          simd::Transpose(pw->data.data(), d_in, d_out, wt.data());
          MatMulAccumNN(gm.data(), wt.data(), ga.data(), num_edges, d_out,
                        d_in);
        }
        if (pw->requires_grad) {
          pw->EnsureGrad();
          AccumulateWeightGrad(nd, rd, src, rel, compose, gm.data(),
                               num_edges, d_in, d_out, pw->grad.data());
        }
        if (pn->requires_grad) {
          pn->EnsureGrad();
          ScatterComposeGrad(ga.data(), src, rel, rd, /*negate=*/false,
                             compose, d_in, num_nodes, pn->grad.data());
        }
        if (pr->requires_grad) {
          pr->EnsureGrad();
          ScatterComposeGrad(ga.data(), rel, src, nd,
                             /*negate=*/compose == EdgeCompose::kSubtract,
                             compose, d_in, num_rels, pr->grad.data());
        }
      });
}

namespace {
Tensor RowwiseSoftmaxImpl(const Tensor& x, bool log_space) {
  LOGCL_CHECK(x.defined());
  int64_t rows, cols;
  if (x.shape().rank() == 2) {
    rows = x.shape().rows();
    cols = x.shape().cols();
  } else {
    rows = 1;
    cols = x.num_elements();
  }
  const float* xd = x.data().data();
  std::vector<float> out = UninitOut(rows * cols);
  float* od = out.data();
  ParallelFor(0, rows, RowGrain(cols), [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      const float* row = xd + i * cols;
      // Max and normalise passes are SIMD; the exp/sum sweep stays a serial
      // scalar chain (a float sum is not exact under lane reordering, and
      // the bitwise contract pins today's accumulation order).
      float m = simd::RowMax(row, cols);
      float sum = 0.0f;
      for (int64_t j = 0; j < cols; ++j) sum += std::exp(row[j] - m);
      float lse = m + std::log(sum);
      float* orow = od + i * cols;
      // The probability path divides by `sum` explicitly rather than using
      // exp(x - lse): when the row max has huge magnitude (e.g. -1e9 masks),
      // lse = m + log(sum) absorbs the log(sum) term in float32 and exp(x-lse)
      // collapses to 1 instead of 1/cols.
      float inv_sum = 1.0f / sum;
      if (log_space) {
        // row[j] + (-lse) is IEEE-identical to row[j] - lse.
        simd::AddScalar(row, -lse, orow, cols);
      } else {
        // Store the rounded exp first, then scale in place: exp(x-m) and
        // exp(x-m)*inv_sum round through the same two operations as the
        // fused expression (multiplication commutes bitwise).
        for (int64_t j = 0; j < cols; ++j) orow[j] = std::exp(row[j] - m);
        simd::Scale(orow, inv_sum, orow, cols);
      }
    }
  });
  return Tensor::MakeOpOutput(
      x.shape(), std::move(out), {x}, [rows, cols, log_space](Node& node) {
        const auto& px = node.parents[0];
        if (!px->requires_grad) return;
        px->EnsureGrad();
        const float* g = node.grad.data();
        const float* y = node.data.data();
        float* gx = px->grad.data();
        ParallelFor(0, rows, RowGrain(cols), [&](int64_t r0, int64_t r1) {
          for (int64_t i = r0; i < r1; ++i) {
            const float* grow = g + i * cols;
            const float* yrow = y + i * cols;
            float* gxrow = gx + i * cols;
            if (log_space) {
              // y = x - lse; gx = g - softmax * sum(g)
              float gsum = 0.0f;
              for (int64_t j = 0; j < cols; ++j) gsum += grow[j];
              for (int64_t j = 0; j < cols; ++j) {
                gxrow[j] += grow[j] - std::exp(yrow[j]) * gsum;
              }
            } else {
              float dot = 0.0f;
              for (int64_t j = 0; j < cols; ++j) dot += grow[j] * yrow[j];
              for (int64_t j = 0; j < cols; ++j) {
                gxrow[j] += yrow[j] * (grow[j] - dot);
              }
            }
          }
        });
      });
}
}  // namespace

Tensor Softmax(const Tensor& x) { return RowwiseSoftmaxImpl(x, false); }
Tensor LogSoftmax(const Tensor& x) { return RowwiseSoftmaxImpl(x, true); }

Tensor Sigmoid(const Tensor& x) {
  return ElementwiseUnary(x, ewise::UnaryKind::kSigmoid);
}

Tensor Tanh(const Tensor& x) {
  return ElementwiseUnary(x, ewise::UnaryKind::kTanh);
}

Tensor Relu(const Tensor& x) {
  LOGCL_CHECK(x.defined());
  int64_t n = x.num_elements();
  const float* xv = x.data().data();
  std::vector<float> out = UninitOut(n);
  float* od = out.data();
  ParallelFor(0, n, kGrain, [&](int64_t i0, int64_t i1) {
    simd::Relu(xv + i0, od + i0, i1 - i0);
  });
  return Tensor::MakeOpOutput(
      x.shape(), std::move(out), {x}, [n](Node& node) {
        const auto& px = node.parents[0];
        if (!px->requires_grad) return;
        bool fresh = false;
        float* gx = px->GradForFullWrite(&fresh);
        const float* g = node.grad.data();
        const float* xd = px->data.data();
        ParallelFor(0, n, kGrain, [&](int64_t i0, int64_t i1) {
          (fresh ? simd::ReluBackwardFresh : simd::ReluBackward)(
              xd + i0, g + i0, gx + i0, i1 - i0);
        });
      });
}

Tensor LeakyRelu(const Tensor& x, float slope) {
  return ElementwiseUnary(x, ewise::UnaryKind::kLeakyRelu, slope);
}

namespace {

// The stream positions a stochastic op draws (see TableRows). Element
// (r, c) of the op's [rows, cols] view draws position RowStart(r) + c, and
// the stream then advances by `length`, as a serial sweep over the table
// would. Without table ids the view has one element per row, so element i
// draws position i. The ids are copied: backward outlives the caller's
// vector.
struct DrawLayout {
  std::vector<int64_t> ids;
  int64_t rows = 0;
  int64_t cols = 1;
  int64_t grain = kGrain;
  uint64_t length = 0;

  uint64_t RowStart(int64_t r) const {
    int64_t row = ids.empty() ? r : ids[static_cast<size_t>(r)];
    return static_cast<uint64_t>(row * cols);
  }
};

DrawLayout MakeDrawLayout(const Tensor& x, TableRows table) {
  DrawLayout layout;
  if (table.ids == nullptr) {
    layout.rows = x.num_elements();
    layout.length = static_cast<uint64_t>(layout.rows);
    return layout;
  }
  LOGCL_CHECK_EQ(x.shape().rank(), 2);
  layout.ids = *table.ids;
  layout.rows = x.shape().rows();
  layout.cols = x.shape().cols();
  layout.grain = RowGrain(layout.cols);
  LOGCL_CHECK_EQ(static_cast<int64_t>(layout.ids.size()), layout.rows);
  for (int64_t r = 0; r < layout.rows; ++r) {
    int64_t row = layout.ids[static_cast<size_t>(r)];
    LOGCL_CHECK_GE(row, 0);
    LOGCL_CHECK_LT(row, table.table_rows);
  }
  layout.length = static_cast<uint64_t>(table.table_rows * layout.cols);
  return layout;
}

// Calls fn(i, position) for every element i of the view, sharded by rows.
template <typename Fn>
void ForEachDraw(const DrawLayout& layout, Fn fn) {
  ParallelFor(0, layout.rows, layout.grain, [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      uint64_t start = layout.RowStart(r);
      for (int64_t c = 0; c < layout.cols; ++c) {
        fn(r * layout.cols + c, start + static_cast<uint64_t>(c));
      }
    }
  });
}

}  // namespace

Tensor RRelu(const Tensor& x, bool training, Rng* rng, TableRows rows) {
  if (!training) return LeakyRelu(x, kRReluEvalSlope);
  LOGCL_CHECK(rng != nullptr);
  int64_t n = x.num_elements();
  const float* xd = x.data().data();
  std::vector<float> out = UninitOut(n);
  float* od = out.data();
  // Counter-based draws: an element's slope is its position's draw of the
  // stream (Rng::UniformAt), whichever shard computes it, so outputs are the
  // same at any thread count. The stream then advances as a serial sweep
  // would, and backward recomputes the slopes from `draws`.
  const Rng draws = *rng;
  DrawLayout layout = MakeDrawLayout(x, rows);
  rng->Skip(layout.length);
  auto slope = [](const Rng& r, uint64_t position) {
    return static_cast<float>(r.UniformAt(position, kRReluLower, kRReluUpper));
  };
  ForEachDraw(layout, [&](int64_t i, uint64_t position) {
    od[i] = xd[i] > 0.0f ? xd[i] : slope(draws, position) * xd[i];
  });
  return Tensor::MakeOpOutput(
      x.shape(), std::move(out), {x},
      [layout = std::move(layout), draws, slope](Node& node) {
        const auto& px = node.parents[0];
        if (!px->requires_grad) return;
        px->EnsureGrad();
        const float* g = node.grad.data();
        const float* xd = px->data.data();
        float* gx = px->grad.data();
        ForEachDraw(layout, [&](int64_t i, uint64_t position) {
          gx[i] += g[i] * (xd[i] > 0.0f ? 1.0f : slope(draws, position));
        });
      });
}

Tensor Cos(const Tensor& x) {
  return ElementwiseUnary(x, ewise::UnaryKind::kCos);
}

Tensor Exp(const Tensor& x) {
  return ElementwiseUnary(x, ewise::UnaryKind::kExp);
}

Tensor Log(const Tensor& x, float eps) {
  return ElementwiseUnary(x, ewise::UnaryKind::kLog, eps);
}

Tensor Dropout(const Tensor& x, float p, bool training, Rng* rng,
               TableRows rows) {
  LOGCL_CHECK(x.defined());
  LOGCL_CHECK_GE(p, 0.0f);
  LOGCL_CHECK_LT(p, 1.0f);
  if (!training || p == 0.0f) return x;
  LOGCL_CHECK(rng != nullptr);
  int64_t n = x.num_elements();
  float scale = 1.0f / (1.0f - p);
  const float* xd = x.data().data();
  std::vector<float> out = UninitOut(n);
  float* od = out.data();
  // Counter-based mask draws (Rng::BernoulliAt; see RRelu): thread-count
  // invariant, the stream advances as a serial sweep would, and backward
  // recomputes the mask from `draws`.
  const Rng draws = *rng;
  DrawLayout layout = MakeDrawLayout(x, rows);
  rng->Skip(layout.length);
  auto mask = [p, scale](const Rng& r, uint64_t position) {
    return r.BernoulliAt(position, p) ? 0.0f : scale;
  };
  ForEachDraw(layout, [&](int64_t i, uint64_t position) {
    od[i] = xd[i] * mask(draws, position);
  });
  return Tensor::MakeOpOutput(
      x.shape(), std::move(out), {x},
      [layout = std::move(layout), draws, mask](Node& node) {
        const auto& px = node.parents[0];
        if (!px->requires_grad) return;
        px->EnsureGrad();
        const float* g = node.grad.data();
        float* gx = px->grad.data();
        ForEachDraw(layout, [&](int64_t i, uint64_t position) {
          gx[i] += g[i] * mask(draws, position);
        });
      });
}

Tensor RowL2Normalize(const Tensor& x, float eps) {
  LOGCL_CHECK(x.defined());
  LOGCL_CHECK_EQ(x.shape().rank(), 2);
  int64_t rows = x.shape().rows();
  int64_t cols = x.shape().cols();
  const float* xd = x.data().data();
  std::vector<float> norms(static_cast<size_t>(rows));
  std::vector<float> out = UninitOut(rows * cols);
  float* od = out.data();
  float* nd = norms.data();
  ParallelFor(0, rows, RowGrain(cols), [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      const float* row = xd + i * cols;
      float sq = 0.0f;
      for (int64_t j = 0; j < cols; ++j) sq += row[j] * row[j];
      float norm = std::max(std::sqrt(sq), eps);
      nd[i] = norm;
      float inv = 1.0f / norm;
      for (int64_t j = 0; j < cols; ++j) od[i * cols + j] = row[j] * inv;
    }
  });
  return Tensor::MakeOpOutput(
      x.shape(), std::move(out), {x}, [rows, cols, norms, eps](Node& node) {
        const auto& px = node.parents[0];
        if (!px->requires_grad) return;
        px->EnsureGrad();
        const float* g = node.grad.data();
        const float* xd = px->data.data();
        float* gx = px->grad.data();
        ParallelFor(0, rows, RowGrain(cols), [&](int64_t r0, int64_t r1) {
          for (int64_t i = r0; i < r1; ++i) {
            float norm = norms[static_cast<size_t>(i)];
            const float* grow = g + i * cols;
            const float* xrow = xd + i * cols;
            float* gxrow = gx + i * cols;
            if (norm <= eps) {
              // Clamped: y = x / eps, constant scale.
              for (int64_t j = 0; j < cols; ++j) gxrow[j] += grow[j] / eps;
              continue;
            }
            float dot = 0.0f;
            for (int64_t j = 0; j < cols; ++j) dot += grow[j] * xrow[j];
            float inv = 1.0f / norm;
            float inv3 = inv * inv * inv;
            for (int64_t j = 0; j < cols; ++j) {
              gxrow[j] += grow[j] * inv - xrow[j] * dot * inv3;
            }
          }
        });
      });
}

namespace {

// Chunk-ordered double sum over [0, n); bitwise identical at any thread
// count (chunk boundaries depend only on n and kGrain).
double ChunkedSum(const float* xd, int64_t n) {
  return ParallelReduce<double>(
      0, n, kGrain, 0.0,
      [xd](int64_t i0, int64_t i1) {
        double sum = 0.0;
        for (int64_t i = i0; i < i1; ++i) sum += xd[i];
        return sum;
      },
      [](double acc, double partial) { return acc + partial; });
}

}  // namespace

Tensor SumAll(const Tensor& x) {
  LOGCL_CHECK(x.defined());
  int64_t n = x.num_elements();
  double sum = ChunkedSum(x.data().data(), n);
  return Tensor::MakeOpOutput(
      Shape{}, ScalarOut(static_cast<float>(sum)), {x}, [n](Node& node) {
        const auto& px = node.parents[0];
        if (!px->requires_grad) return;
        bool fresh = false;
        float* gx = px->GradForFullWrite(&fresh);
        float g = node.grad[0];
        ParallelFor(0, n, kGrain, [&](int64_t i0, int64_t i1) {
          if (fresh) {
            for (int64_t i = i0; i < i1; ++i) gx[i] = 0.0f + g;
          } else {
            for (int64_t i = i0; i < i1; ++i) gx[i] += g;
          }
        });
      });
}

Tensor MeanAll(const Tensor& x) {
  LOGCL_CHECK(x.defined());
  int64_t n = x.num_elements();
  LOGCL_CHECK_GT(n, 0);
  double sum = ChunkedSum(x.data().data(), n);
  float inv = 1.0f / static_cast<float>(n);
  return Tensor::MakeOpOutput(
      Shape{}, ScalarOut(static_cast<float>(sum) * inv), {x},
      [n, inv](Node& node) {
        const auto& px = node.parents[0];
        if (!px->requires_grad) return;
        bool fresh = false;
        float* gx = px->GradForFullWrite(&fresh);
        float g = node.grad[0] * inv;
        ParallelFor(0, n, kGrain, [&](int64_t i0, int64_t i1) {
          if (fresh) {
            for (int64_t i = i0; i < i1; ++i) gx[i] = 0.0f + g;
          } else {
            for (int64_t i = i0; i < i1; ++i) gx[i] += g;
          }
        });
      });
}

Tensor MeanRows(const Tensor& x) {
  LOGCL_CHECK(x.defined());
  LOGCL_CHECK_EQ(x.shape().rank(), 2);
  int64_t rows = x.shape().rows();
  int64_t cols = x.shape().cols();
  if (rows == 0) {
    return Tensor::Zeros(Shape{1, cols});
  }
  const float* xd = x.data().data();
  // Chunk-ordered column sums: per-chunk row partials are combined in
  // ascending chunk order, thread-count invariant. The reduction works on
  // plain vectors; the scaled result is then written into pooled storage.
  std::vector<float> sums = ParallelReduce<std::vector<float>>(
      0, rows, RowGrain(cols), std::vector<float>(static_cast<size_t>(cols), 0.0f),
      [xd, cols](int64_t r0, int64_t r1) {
        std::vector<float> partial(static_cast<size_t>(cols), 0.0f);
        for (int64_t i = r0; i < r1; ++i) {
          for (int64_t j = 0; j < cols; ++j) {
            partial[static_cast<size_t>(j)] += xd[i * cols + j];
          }
        }
        return partial;
      },
      [](std::vector<float> acc, std::vector<float> partial) {
        for (size_t j = 0; j < acc.size(); ++j) acc[j] += partial[j];
        return acc;
      });
  float inv = 1.0f / static_cast<float>(rows);
  std::vector<float> out = UninitOut(cols);
  for (int64_t j = 0; j < cols; ++j) {
    out[static_cast<size_t>(j)] = sums[static_cast<size_t>(j)] * inv;
  }
  return Tensor::MakeOpOutput(
      Shape{1, cols}, std::move(out), {x}, [rows, cols, inv](Node& node) {
        const auto& px = node.parents[0];
        if (!px->requires_grad) return;
        px->EnsureGrad();
        const float* g = node.grad.data();
        float* gx = px->grad.data();
        ParallelFor(0, rows, RowGrain(cols), [&](int64_t r0, int64_t r1) {
          for (int64_t i = r0; i < r1; ++i) {
            for (int64_t j = 0; j < cols; ++j) gx[i * cols + j] += g[j] * inv;
          }
        });
      });
}

Tensor RowSum(const Tensor& x) {
  LOGCL_CHECK(x.defined());
  LOGCL_CHECK_EQ(x.shape().rank(), 2);
  int64_t rows = x.shape().rows();
  int64_t cols = x.shape().cols();
  const float* xd = x.data().data();
  std::vector<float> out = UninitOut(rows);
  float* od = out.data();
  ParallelFor(0, rows, RowGrain(cols), [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      float sum = 0.0f;
      for (int64_t j = 0; j < cols; ++j) sum += xd[i * cols + j];
      od[i] = sum;
    }
  });
  return Tensor::MakeOpOutput(
      Shape{rows, 1}, std::move(out), {x}, [rows, cols](Node& node) {
        const auto& px = node.parents[0];
        if (!px->requires_grad) return;
        px->EnsureGrad();
        const float* g = node.grad.data();
        float* gx = px->grad.data();
        ParallelFor(0, rows, RowGrain(cols), [&](int64_t r0, int64_t r1) {
          for (int64_t i = r0; i < r1; ++i) {
            for (int64_t j = 0; j < cols; ++j) gx[i * cols + j] += g[i];
          }
        });
      });
}

Tensor CrossEntropyWithLogits(const Tensor& logits,
                              const std::vector<int64_t>& targets) {
  LOGCL_CHECK(logits.defined());
  LOGCL_CHECK_EQ(logits.shape().rank(), 2);
  int64_t rows = logits.shape().rows();
  int64_t cols = logits.shape().cols();
  LOGCL_CHECK_EQ(rows, static_cast<int64_t>(targets.size()));
  LOGCL_CHECK_GT(rows, 0);
  const float* xd = logits.data().data();
  // Cache softmax probabilities for the fused backward. Per-row work is
  // parallel; the loss is a chunk-ordered reduction so the total is
  // identical at any thread count.
  std::vector<float> probs(static_cast<size_t>(rows * cols));
  float* pd = probs.data();
  double loss = ParallelReduce<double>(
      0, rows, RowGrain(cols), 0.0,
      [&](int64_t r0, int64_t r1) {
        double partial = 0.0;
        for (int64_t i = r0; i < r1; ++i) {
          const float* row = xd + i * cols;
          int64_t target = targets[static_cast<size_t>(i)];
          LOGCL_CHECK_GE(target, 0);
          LOGCL_CHECK_LT(target, cols);
          float m = -std::numeric_limits<float>::infinity();
          for (int64_t j = 0; j < cols; ++j) m = std::max(m, row[j]);
          float sum = 0.0f;
          for (int64_t j = 0; j < cols; ++j) sum += std::exp(row[j] - m);
          float lse = m + std::log(sum);
          partial += lse - row[target];
          float* prow = pd + i * cols;
          for (int64_t j = 0; j < cols; ++j) prow[j] = std::exp(row[j] - lse);
        }
        return partial;
      },
      [](double acc, double partial) { return acc + partial; });
  float mean_loss = static_cast<float>(loss / static_cast<double>(rows));
  return Tensor::MakeOpOutput(
      Shape{}, ScalarOut(mean_loss), {logits},
      [rows, cols, targets, probs = std::move(probs)](Node& node) {
        const auto& px = node.parents[0];
        if (!px->requires_grad) return;
        px->EnsureGrad();
        float g = node.grad[0] / static_cast<float>(rows);
        float* gx = px->grad.data();
        ParallelFor(0, rows, RowGrain(cols), [&](int64_t r0, int64_t r1) {
          for (int64_t i = r0; i < r1; ++i) {
            const float* prow = probs.data() + i * cols;
            float* gxrow = gx + i * cols;
            int64_t target = targets[static_cast<size_t>(i)];
            for (int64_t j = 0; j < cols; ++j) gxrow[j] += g * prow[j];
            gxrow[target] -= g;
          }
        });
      });
}

Tensor Conv2x3(const Tensor& h, const Tensor& r, const Tensor& kernels,
               const Tensor& bias) {
  LOGCL_CHECK(h.defined());
  LOGCL_CHECK(r.defined());
  LOGCL_CHECK(kernels.defined());
  LOGCL_CHECK(bias.defined());
  LOGCL_CHECK_EQ(h.shape().rank(), 2);
  LOGCL_CHECK(h.shape() == r.shape());
  int64_t batch = h.shape().rows();
  int64_t d = h.shape().cols();
  LOGCL_CHECK_EQ(kernels.shape().rank(), 2);
  int64_t num_kernels = kernels.shape().rows();
  LOGCL_CHECK_EQ(kernels.shape().cols(), 6);
  LOGCL_CHECK_EQ(bias.num_elements(), num_kernels);

  const float* hd = h.data().data();
  const float* rd = r.data().data();
  const float* kd = kernels.data().data();
  const float* bd = bias.data().data();
  std::vector<float> out = UninitOut(batch * num_kernels * d);
  float* od = out.data();
  int64_t batch_grain = RowGrain(num_kernels * d);
  ParallelFor(0, batch, batch_grain, [&](int64_t b0, int64_t b1) {
    for (int64_t b = b0; b < b1; ++b) {
      const float* hrow = hd + b * d;
      const float* rrow = rd + b * d;
      for (int64_t k = 0; k < num_kernels; ++k) {
        const float* kr = kd + k * 6;
        float* orow = od + (b * num_kernels + k) * d;
        for (int64_t j = 0; j < d; ++j) {
          float acc = bd[k];
          for (int64_t w = 0; w < 3; ++w) {
            int64_t src = j + w - 1;
            if (src < 0 || src >= d) continue;
            acc += kr[w] * hrow[src] + kr[3 + w] * rrow[src];
          }
          orow[j] = acc;
        }
      }
    }
  });
  return Tensor::MakeOpOutput(
      Shape{batch, num_kernels * d}, std::move(out), {h, r, kernels, bias},
      [batch, d, num_kernels, batch_grain](Node& node) {
        const auto& ph = node.parents[0];
        const auto& pr = node.parents[1];
        const auto& pk = node.parents[2];
        const auto& pb = node.parents[3];
        const float* g = node.grad.data();
        const float* hd = ph->data.data();
        const float* rd = pr->data.data();
        const float* kd = pk->data.data();
        float* gh = nullptr;
        float* gr = nullptr;
        float* gk = nullptr;
        float* gb = nullptr;
        if (ph->requires_grad) { ph->EnsureGrad(); gh = ph->grad.data(); }
        if (pr->requires_grad) { pr->EnsureGrad(); gr = pr->grad.data(); }
        if (pk->requires_grad) { pk->EnsureGrad(); gk = pk->grad.data(); }
        if (pb->requires_grad) { pb->EnsureGrad(); gb = pb->grad.data(); }
        // gh/gr rows are per-batch (disjoint across shards); gk/gb
        // accumulate across the whole batch, so they go through per-chunk
        // partials combined in chunk order (thread-count invariant).
        int64_t kb_size = num_kernels * 7;  // 6 kernel taps + 1 bias
        std::vector<float> kb = ParallelReduce<std::vector<float>>(
            0, batch, batch_grain,
            std::vector<float>(
                static_cast<size_t>(gk != nullptr || gb != nullptr ? kb_size
                                                                   : 0),
                0.0f),
            [&](int64_t b0, int64_t b1) {
              std::vector<float> local(
                  static_cast<size_t>(gk != nullptr || gb != nullptr ? kb_size
                                                                     : 0),
                  0.0f);
              float* lk = local.empty() ? nullptr : local.data();
              float* lb = local.empty() ? nullptr : local.data() + num_kernels * 6;
              for (int64_t b = b0; b < b1; ++b) {
                const float* hrow = hd + b * d;
                const float* rrow = rd + b * d;
                for (int64_t k = 0; k < num_kernels; ++k) {
                  const float* kr = kd + k * 6;
                  const float* grow = g + (b * num_kernels + k) * d;
                  for (int64_t j = 0; j < d; ++j) {
                    float gv = grow[j];
                    if (gv == 0.0f) continue;
                    if (lb != nullptr) lb[k] += gv;
                    for (int64_t w = 0; w < 3; ++w) {
                      int64_t src = j + w - 1;
                      if (src < 0 || src >= d) continue;
                      if (gh != nullptr) gh[b * d + src] += gv * kr[w];
                      if (gr != nullptr) gr[b * d + src] += gv * kr[3 + w];
                      if (lk != nullptr) {
                        lk[k * 6 + w] += gv * hrow[src];
                        lk[k * 6 + 3 + w] += gv * rrow[src];
                      }
                    }
                  }
                }
              }
              return local;
            },
            [](std::vector<float> acc, std::vector<float> partial) {
              for (size_t i = 0; i < acc.size(); ++i) acc[i] += partial[i];
              return acc;
            });
        if (gk != nullptr) {
          for (int64_t i = 0; i < num_kernels * 6; ++i) gk[i] += kb[i];
        }
        if (gb != nullptr) {
          for (int64_t k = 0; k < num_kernels; ++k) {
            gb[k] += kb[num_kernels * 6 + k];
          }
        }
      });
}

Tensor Conv2d(const Tensor& input, int64_t channels, int64_t height,
              int64_t width, const Tensor& kernels, int64_t kernel_h,
              int64_t kernel_w, int64_t pad, const Tensor& bias) {
  LOGCL_CHECK(input.defined());
  LOGCL_CHECK(kernels.defined());
  LOGCL_CHECK(bias.defined());
  LOGCL_CHECK_EQ(input.shape().rank(), 2);
  int64_t batch = input.shape().rows();
  LOGCL_CHECK_EQ(input.shape().cols(), channels * height * width);
  LOGCL_CHECK_EQ(kernels.shape().rank(), 2);
  int64_t num_kernels = kernels.shape().rows();
  LOGCL_CHECK_EQ(kernels.shape().cols(), channels * kernel_h * kernel_w);
  LOGCL_CHECK_EQ(bias.num_elements(), num_kernels);

  const float* in = input.data().data();
  const float* kd = kernels.data().data();
  const float* bd = bias.data().data();
  int64_t plane = height * width;
  std::vector<float> out = UninitOut(batch * num_kernels * plane);
  float* od = out.data();
  int64_t batch_grain =
      RowGrain(num_kernels * plane * channels * kernel_h * kernel_w);
  ParallelFor(0, batch, batch_grain, [&](int64_t b0, int64_t b1) {
    for (int64_t b = b0; b < b1; ++b) {
      const float* img = in + b * channels * plane;
      for (int64_t k = 0; k < num_kernels; ++k) {
        const float* kern = kd + k * channels * kernel_h * kernel_w;
        float* oplane = od + (b * num_kernels + k) * plane;
        for (int64_t y = 0; y < height; ++y) {
          for (int64_t x = 0; x < width; ++x) {
            float acc = bd[k];
            for (int64_t c = 0; c < channels; ++c) {
              for (int64_t i = 0; i < kernel_h; ++i) {
                int64_t sy = y + i - pad;
                if (sy < 0 || sy >= height) continue;
                for (int64_t j = 0; j < kernel_w; ++j) {
                  int64_t sx = x + j - pad;
                  if (sx < 0 || sx >= width) continue;
                  acc += kern[(c * kernel_h + i) * kernel_w + j] *
                         img[c * plane + sy * width + sx];
                }
              }
            }
            oplane[y * width + x] = acc;
          }
        }
      }
    }
  });
  return Tensor::MakeOpOutput(
      Shape{batch, num_kernels * plane}, std::move(out), {input, kernels, bias},
      [batch, channels, height, width, num_kernels, kernel_h, kernel_w, pad,
       batch_grain](Node& node) {
        const auto& pin = node.parents[0];
        const auto& pk = node.parents[1];
        const auto& pb = node.parents[2];
        const float* g = node.grad.data();
        const float* in = pin->data.data();
        const float* kd = pk->data.data();
        float* gin = nullptr;
        float* gk = nullptr;
        float* gb = nullptr;
        if (pin->requires_grad) { pin->EnsureGrad(); gin = pin->grad.data(); }
        if (pk->requires_grad) { pk->EnsureGrad(); gk = pk->grad.data(); }
        if (pb->requires_grad) { pb->EnsureGrad(); gb = pb->grad.data(); }
        int64_t plane = height * width;
        int64_t kern_size = channels * kernel_h * kernel_w;
        // Same decomposition as Conv2x3's backward: gin is batch-sharded,
        // gk/gb go through chunk-ordered partials.
        int64_t kb_size = num_kernels * (kern_size + 1);
        std::vector<float> kb = ParallelReduce<std::vector<float>>(
            0, batch, batch_grain,
            std::vector<float>(
                static_cast<size_t>(gk != nullptr || gb != nullptr ? kb_size
                                                                   : 0),
                0.0f),
            [&](int64_t b0, int64_t b1) {
              std::vector<float> local(
                  static_cast<size_t>(gk != nullptr || gb != nullptr ? kb_size
                                                                     : 0),
                  0.0f);
              float* lk = local.empty() ? nullptr : local.data();
              float* lb = local.empty()
                              ? nullptr
                              : local.data() + num_kernels * kern_size;
              for (int64_t b = b0; b < b1; ++b) {
                const float* img = in + b * channels * plane;
                for (int64_t k = 0; k < num_kernels; ++k) {
                  const float* kern = kd + k * kern_size;
                  const float* gplane = g + (b * num_kernels + k) * plane;
                  for (int64_t y = 0; y < height; ++y) {
                    for (int64_t x = 0; x < width; ++x) {
                      float gv = gplane[y * width + x];
                      if (gv == 0.0f) continue;
                      if (lb != nullptr) lb[k] += gv;
                      for (int64_t c = 0; c < channels; ++c) {
                        for (int64_t i = 0; i < kernel_h; ++i) {
                          int64_t sy = y + i - pad;
                          if (sy < 0 || sy >= height) continue;
                          for (int64_t j = 0; j < kernel_w; ++j) {
                            int64_t sx = x + j - pad;
                            if (sx < 0 || sx >= width) continue;
                            int64_t kidx = (c * kernel_h + i) * kernel_w + j;
                            int64_t iidx = c * plane + sy * width + sx;
                            if (gin != nullptr) {
                              gin[b * channels * plane + iidx] +=
                                  gv * kern[kidx];
                            }
                            if (lk != nullptr) {
                              lk[k * kern_size + kidx] += gv * img[iidx];
                            }
                          }
                        }
                      }
                    }
                  }
                }
              }
              return local;
            },
            [](std::vector<float> acc, std::vector<float> partial) {
              for (size_t i = 0; i < acc.size(); ++i) acc[i] += partial[i];
              return acc;
            });
        if (gk != nullptr) {
          for (int64_t i = 0; i < num_kernels * kern_size; ++i) gk[i] += kb[i];
        }
        if (gb != nullptr) {
          for (int64_t k = 0; k < num_kernels; ++k) {
            gb[k] += kb[num_kernels * kern_size + k];
          }
        }
      });
}

}  // namespace ops
}  // namespace logcl
