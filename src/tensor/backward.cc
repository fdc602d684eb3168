// Reverse-mode autograd executor: a serial tape replay. Backward collects
// the requires-grad graph reachable from the loss and runs its backward
// closures in descending creation order. Parallelism lives inside the
// kernels each closure calls (ParallelFor / ParallelReduce with fixed
// chunking), not between closures.
//
// Determinism. Accumulating a multi-consumer node's grad is a chain of
// in-place floating-point adds, so the result bits depend on the order the
// consumers run. The replay fixes that order to descending creation order
// on every call, and every kernel it calls is bitwise thread-count
// invariant, so the grads are identical at any LOGCL_NUM_THREADS.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/observability.h"
#include "tensor/buffer_pool.h"
#include "tensor/tensor.h"

namespace logcl {
namespace {

using Node = internal_tensor::TensorNode;

// Epoch source for the visited marks stamped on TensorNode: a node is part
// of the current traversal iff its visit_epoch equals the pass's epoch, so
// collection needs no per-call hash set and no clearing pass.
std::atomic<uint64_t> g_visit_epoch{0};

struct AutogradCounters {
  Counter* backwards;
  Counter* nodes;
};

AutogradCounters& Am() {
  static AutogradCounters m{
      Metrics().GetCounter("logcl.autograd.backwards"),
      Metrics().GetCounter("logcl.autograd.nodes"),
  };
  return m;
}

// Collects the reachable requires-grad graph from `root` (iterative DFS;
// long snapshot histories make graphs deep, so no recursion). Stamps
// visit_epoch on every node.
void CollectGraph(Node* root, uint64_t epoch, std::vector<Node*>* nodes) {
  root->visit_epoch = epoch;
  nodes->push_back(root);
  std::vector<Node*> stack = {root};
  while (!stack.empty()) {
    Node* node = stack.back();
    stack.pop_back();
    for (const auto& parent : node->parents) {
      Node* p = parent.get();
      if (!p->requires_grad || p->visit_epoch == epoch) continue;
      p->visit_epoch = epoch;
      nodes->push_back(p);
      stack.push_back(p);
    }
  }
}

// Executable nodes (backward_fn set) in descending creation order — the
// serial replay order. Creation indices of one tape are nearly dense, so
// dropping each node into slot (sequence - min_seq) and scanning the slots
// backwards orders them with no comparison sort. Only executable nodes are
// placed: leaf parameters were created at model-construction time and would
// stretch the slot range by the whole program history (they never execute,
// so they need no position). A comparison sort remains as fallback for
// pathological ranges (a tape interleaved with heavy non-recorded tensor
// creation).
std::vector<Node*> ExecutionOrder(const std::vector<Node*>& nodes) {
  std::vector<Node*> exec;
  exec.reserve(nodes.size());
  uint64_t min_seq = ~uint64_t{0};
  uint64_t max_seq = 0;
  for (Node* n : nodes) {
    if (!n->backward_fn) continue;
    exec.push_back(n);
    min_seq = std::min(min_seq, n->sequence);
    max_seq = std::max(max_seq, n->sequence);
  }
  if (exec.size() <= 1) return exec;
  const uint64_t range = max_seq - min_seq + 1;
  if (range <= 4 * exec.size() + 1024) {
    std::vector<Node*> slots(static_cast<size_t>(range), nullptr);
    for (Node* n : exec) slots[n->sequence - min_seq] = n;
    std::vector<Node*> order;
    order.reserve(exec.size());
    for (uint64_t i = range; i-- > 0;) {
      if (slots[i] != nullptr) order.push_back(slots[i]);
    }
    return order;
  }
  std::sort(exec.begin(), exec.end(), [](const Node* a, const Node* b) {
    return a->sequence > b->sequence;
  });
  return exec;
}

void RunSerial(const std::vector<Node*>& order) {
  for (Node* node : order) {
    node->EnsureGrad();
    node->backward_fn(*node);
    // Lazy grad recycling: descending sequence order means every consumer
    // of this node's grad already executed, so the buffer is dead and can
    // be pooled now instead of at tape teardown. Leaves keep their grads
    // for the optimizer.
    ReleaseBuffer(std::move(node->grad));
  }
}

void BackwardImpl(const Tensor& loss, const float* seed, size_t seed_size) {
  LOGCL_TRACE_SCOPE("autograd");
  Node* root = loss.node().get();
  // Seed d(objective)/d(loss). The write fully overwrites, so the buffer
  // skips its zero-fill; plain stores match the previous std::fill exactly.
  bool fresh = false;
  float* g = root->GradForFullWrite(&fresh);
  (void)fresh;
  for (size_t i = 0; i < seed_size; ++i) g[i] = seed[i];

  const uint64_t epoch =
      g_visit_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
  std::vector<Node*> nodes;
  std::vector<Node*> order;
  {
    LOGCL_TRACE_SCOPE("autograd_schedule");
    CollectGraph(root, epoch, &nodes);
    order = ExecutionOrder(nodes);
  }
  Am().backwards->Increment();
  Am().nodes->Add(order.size());
  RunSerial(order);
}

}  // namespace

void Backward(const Tensor& loss) {
  LOGCL_CHECK(loss.defined());
  LOGCL_CHECK(loss.requires_grad())
      << "Backward() on a tensor that does not require grad";
  LOGCL_CHECK_EQ(loss.num_elements(), 1)
      << "Backward() requires a scalar loss (got shape "
      << loss.shape().ToString()
      << "); reduce first (ops::SumAll / ops::MeanAll) or pass an explicit "
         "seed gradient via Backward(loss, seed_grad)";
  const float one = 1.0f;
  BackwardImpl(loss, &one, 1);
}

void Backward(const Tensor& loss, const Tensor& seed_grad) {
  LOGCL_CHECK(loss.defined());
  LOGCL_CHECK(loss.requires_grad())
      << "Backward() on a tensor that does not require grad";
  LOGCL_CHECK(seed_grad.defined()) << "Backward() with an undefined seed";
  LOGCL_CHECK_EQ(seed_grad.num_elements(), loss.num_elements())
      << "seed gradient shape " << seed_grad.shape().ToString()
      << " does not match loss shape " << loss.shape().ToString();
  BackwardImpl(loss, seed_grad.data().data(), seed_grad.data().size());
}

}  // namespace logcl
