// Tensor: a shared handle to a dense float32 array participating in a
// define-by-run reverse-mode autograd tape.
//
// Design notes:
//  - Value semantics on the handle, shared ownership of the underlying node.
//    Copying a Tensor aliases the same storage (as in PyTorch).
//  - Ops (tensor/ops.h) record a backward closure on the output node; calling
//    Backward(loss) runs the tape in reverse topological order.
//  - A thread-local grad-mode flag (NoGradGuard) disables tape recording
//    during evaluation so inference never retains graph memory. Thread-local
//    because a NoGradGuard on one thread must not leak into concurrent tensor
//    construction on another (ops always run on the thread that called them;
//    pool workers only execute raw float kernels).
//  - data/grad storage is recycled through the size-bucketed buffer pool
//    (tensor/buffer_pool.h): factories acquire from it and ~TensorNode
//    returns both buffers, so steady-state training stops hitting the
//    general-purpose allocator.

#ifndef LOGCL_TENSOR_TENSOR_H_
#define LOGCL_TENSOR_TENSOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tensor/shape.h"

namespace logcl {

class Tensor;

namespace internal_tensor {

/// Heap node holding storage, gradient and tape linkage for one tensor.
struct TensorNode {
  Shape shape;
  std::vector<float> data;
  std::vector<float> grad;  // allocated lazily, same size as data
  bool requires_grad = false;
  // Inputs of the op that produced this node (kept alive for backward).
  std::vector<std::shared_ptr<TensorNode>> parents;
  // Accumulates this node's grad into its parents' grads.
  std::function<void(TensorNode&)> backward_fn;
  // Monotonic creation index; used for reverse-topological replay.
  uint64_t sequence = 0;
  // Scratch owned by Backward() (tensor/backward.cc): the node is part of
  // the current traversal iff visit_epoch matches the pass's epoch (this
  // replaces a per-call hash set).
  uint64_t visit_epoch = 0;

  /// Returns data and grad storage to the buffer pool.
  ~TensorNode();

  /// Allocates grad (zeroed, same size as data) from the pool on demand.
  void EnsureGrad();

  /// Grad storage for a backward kernel whose FIRST contribution overwrites
  /// every element. When grad is not yet allocated this returns a kUninit
  /// pool buffer and sets *fresh = true: the caller must then write ALL
  /// elements, computing each as `0.0f + contribution`, which is bitwise
  /// identical to zero-fill + accumulate (including the -0.0 -> +0.0
  /// normalisation an accumulate into a zeroed buffer performs). A partial
  /// write is a bug that LOGCL_POISON_UNINIT=1 surfaces as an sNaN read.
  /// When grad already exists (another consumer contributed first) it sets
  /// *fresh = false and the caller must accumulate as usual.
  float* GradForFullWrite(bool* fresh);
};

}  // namespace internal_tensor

/// True while gradients are being recorded on this thread (default). See
/// NoGradGuard.
bool GradModeEnabled();

/// RAII scope that disables autograd recording on the current thread (e.g.
/// during evaluation). Other threads' grad mode is unaffected.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

/// Shared handle to a dense float tensor (see file comment).
class Tensor {
 public:
  /// An empty (null) handle; most APIs require a non-null tensor.
  Tensor() = default;

  /// Factories. `requires_grad` marks the tensor as a trainable leaf.
  static Tensor Zeros(const Shape& shape, bool requires_grad = false);
  /// Pool-recycled storage with UNSPECIFIED contents — for op outputs whose
  /// kernel fully overwrites every element before any read. Reading an
  /// element that was never written is a bug (LOGCL_POISON_UNINIT=1 makes it
  /// fail loudly by poisoning with signalling NaNs).
  static Tensor Uninitialized(const Shape& shape, bool requires_grad = false);
  static Tensor Full(const Shape& shape, float value, bool requires_grad = false);
  static Tensor FromVector(const Shape& shape, std::vector<float> values,
                           bool requires_grad = false);
  static Tensor Scalar(float value, bool requires_grad = false);
  /// Xavier/Glorot uniform init for a [fan_in, fan_out]-ish weight.
  static Tensor XavierUniform(const Shape& shape, Rng* rng,
                              bool requires_grad = true);
  /// i.i.d. N(0, stddev^2) entries.
  static Tensor RandomNormal(const Shape& shape, float stddev, Rng* rng,
                             bool requires_grad = false);

  bool defined() const { return node_ != nullptr; }

  const Shape& shape() const;
  int64_t num_elements() const { return shape().num_elements(); }

  const std::vector<float>& data() const;
  /// Mutable access to raw storage. Mutating data of a non-leaf tensor that
  /// is still on a live tape invalidates gradients; only do so for leaves or
  /// under NoGradGuard-produced tensors.
  std::vector<float>& mutable_data();

  bool requires_grad() const;
  void set_requires_grad(bool value);

  /// Gradient storage (allocated on demand). Only meaningful on leaves after
  /// Backward() unless retained explicitly.
  const std::vector<float>& grad() const;
  std::vector<float>& mutable_grad();
  void ZeroGrad();

  /// Flat element access (row-major).
  float at(int64_t index) const;
  /// 2-D element access.
  float at(int64_t row, int64_t col) const;

  /// Detached deep copy (no tape linkage, requires_grad=false).
  Tensor Clone() const;

  /// True if both handles alias the same storage.
  bool IsSameObject(const Tensor& other) const { return node_ == other.node_; }

  /// Debug rendering (shape + up to `max_values` entries).
  std::string ToString(int max_values = 16) const;

  // --- internal (used by ops.cc / backward.cc) -------------------------
  using NodePtr = std::shared_ptr<internal_tensor::TensorNode>;
  explicit Tensor(NodePtr node) : node_(std::move(node)) {}
  const NodePtr& node() const { return node_; }

  /// Creates a fresh node for an op output; wires parents/backward only when
  /// grad mode is on and some parent requires grad.
  static Tensor MakeOpOutput(
      const Shape& shape, std::vector<float> data,
      std::vector<Tensor> parents,
      std::function<void(internal_tensor::TensorNode&)> backward_fn);

 private:
  NodePtr node_;
};

/// Runs reverse-mode accumulation from `loss`, which must be a scalar (one
/// element; seed grad = 1). For a non-scalar root pass an explicit seed
/// gradient via the two-argument overload. Backward closures replay in
/// descending creation order; the kernels inside them use the shared thread
/// pool, and the grads are bitwise identical at any thread count (DESIGN.md
/// §15).
void Backward(const Tensor& loss);

/// As above with an explicit seed gradient d(objective)/d(loss); seed_grad
/// must have the same element count as loss.
void Backward(const Tensor& loss, const Tensor& seed_grad);

}  // namespace logcl

#endif  // LOGCL_TENSOR_TENSOR_H_
