// Micro-benchmarks for the parallel runtime: ParallelFor dispatch overhead,
// the blocked matmul kernel against the original (seed) serial kernel, the
// backward tape replay on a branchy graph, and the autograd graph
// collection data structures (epoch marks + counting order vs. the hash-set
// + sort approach they replaced).

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace logcl {
namespace {

// Dispatch cost of one parallel region over a trivially small body: the
// difference between threads=1 (inline) and threads=N is pure pool overhead.
void BM_ParallelForDispatch(benchmark::State& state) {
  int threads = static_cast<int>(state.range(0));
  SetNumThreads(threads);
  std::vector<float> xs(1024, 1.0f);
  for (auto _ : state) {
    ParallelFor(0, static_cast<int64_t>(xs.size()), 1, [&](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) {
        xs[static_cast<size_t>(i)] += 1.0f;
      }
    });
    benchmark::DoNotOptimize(xs.data());
  }
  SetNumThreads(0);
}
BENCHMARK(BM_ParallelForDispatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// The seed's un-blocked serial matmul kernel, kept verbatim as the baseline
// for the blocked/threaded implementation behind ops::MatMul.
void NaiveMatMulAccum(const float* a, const float* b, float* c, int64_t m,
                      int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t l = 0; l < k; ++l) {
      float av = a[i * k + l];
      if (av == 0.0f) continue;
      const float* brow = b + l * n;
      float* crow = c + i * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void BM_MatMulNaiveSerial(benchmark::State& state) {
  int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::RandomNormal(Shape{n, n}, 1.0f, &rng);
  Tensor b = Tensor::RandomNormal(Shape{n, n}, 1.0f, &rng);
  std::vector<float> c(static_cast<size_t>(n * n));
  for (auto _ : state) {
    std::fill(c.begin(), c.end(), 0.0f);
    NaiveMatMulAccum(a.data().data(), b.data().data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMulNaiveSerial)->Arg(64)->Arg(128)->Arg(256);

// Blocked kernel at a fixed thread count; Args are {size, threads}. The
// {*, 1} rows isolate the cache-blocking gain over BM_MatMulNaiveSerial;
// higher thread counts add the pool on top.
void BM_MatMulBlocked(benchmark::State& state) {
  int64_t n = state.range(0);
  int threads = static_cast<int>(state.range(1));
  SetNumThreads(threads);
  Rng rng(1);
  Tensor a = Tensor::RandomNormal(Shape{n, n}, 1.0f, &rng);
  Tensor b = Tensor::RandomNormal(Shape{n, n}, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  SetNumThreads(0);
}
BENCHMARK(BM_MatMulBlocked)
    ->Args({64, 1})
    ->Args({128, 1})
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Args({256, 8});

// Backward over a diamond graph: one shared input feeding `branches`
// independent MatMul + Tanh towers re-joined into a scalar loss. The graph
// is built once; each iteration replays the tape. Args are
// {branches, threads}; threads only reach the kernels inside each backward
// closure.
void BM_BackwardDiamond(benchmark::State& state) {
  const int branches = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  SetNumThreads(threads);
  Rng rng(42);
  Tensor x = Tensor::RandomNormal(Shape{32, 64}, 0.5f, &rng,
                                  /*requires_grad=*/true);
  std::vector<Tensor> weights;
  for (int b = 0; b < branches; ++b) {
    weights.push_back(Tensor::RandomNormal(Shape{64, 64}, 0.5f, &rng,
                                           /*requires_grad=*/true));
  }
  Tensor total;
  for (int b = 0; b < branches; ++b) {
    Tensor term = ops::SumAll(ops::Tanh(ops::MatMul(x, weights[b])));
    total = total.defined() ? ops::Add(total, term) : term;
  }
  Tensor loss = ops::Scale(total, 1.0f / static_cast<float>(branches));
  for (auto _ : state) {
    Backward(loss);
    benchmark::DoNotOptimize(x.grad().data());
  }
  state.SetItemsProcessed(state.iterations() * branches);
  SetNumThreads(0);
}
BENCHMARK(BM_BackwardDiamond)
    ->Args({8, 1})
    ->Args({8, 4})
    ->Args({16, 4})
    ->Args({16, 8});

// Graph-collection bookkeeping in isolation, on plain structs mirroring the
// tape: the old unordered_set visited filter + std::sort by sequence vs. the
// epoch-stamped marks + counting placement backward.cc now uses.
struct FakeNode {
  std::vector<FakeNode*> parents;
  uint64_t sequence = 0;
  uint64_t visit_epoch = 0;
};

std::vector<FakeNode> MakeFakeTape(int64_t n) {
  Rng rng(7);
  std::vector<FakeNode> tape(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    tape[static_cast<size_t>(i)].sequence = static_cast<uint64_t>(i + 1);
    for (int64_t p = 0; p < 2 && i > 0; ++p) {
      int64_t j = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(i)));
      tape[static_cast<size_t>(i)].parents.push_back(
          &tape[static_cast<size_t>(j)]);
    }
  }
  return tape;
}

void BM_CollectHashSetSort(benchmark::State& state) {
  std::vector<FakeNode> tape = MakeFakeTape(state.range(0));
  for (auto _ : state) {
    std::unordered_set<FakeNode*> visited;
    std::vector<FakeNode*> stack{&tape.back()}, order;
    visited.insert(&tape.back());
    while (!stack.empty()) {
      FakeNode* n = stack.back();
      stack.pop_back();
      order.push_back(n);
      for (FakeNode* p : n->parents) {
        if (visited.insert(p).second) stack.push_back(p);
      }
    }
    std::sort(order.begin(), order.end(), [](FakeNode* a, FakeNode* b) {
      return a->sequence > b->sequence;
    });
    benchmark::DoNotOptimize(order.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CollectHashSetSort)->Arg(256)->Arg(1024)->Arg(4096);

void BM_CollectEpochCounting(benchmark::State& state) {
  std::vector<FakeNode> tape = MakeFakeTape(state.range(0));
  uint64_t epoch = 0;
  for (auto _ : state) {
    ++epoch;
    std::vector<FakeNode*> stack{&tape.back()}, nodes;
    tape.back().visit_epoch = epoch;
    uint64_t min_seq = ~uint64_t{0}, max_seq = 0;
    while (!stack.empty()) {
      FakeNode* n = stack.back();
      stack.pop_back();
      nodes.push_back(n);
      min_seq = std::min(min_seq, n->sequence);
      max_seq = std::max(max_seq, n->sequence);
      for (FakeNode* p : n->parents) {
        if (p->visit_epoch != epoch) {
          p->visit_epoch = epoch;
          stack.push_back(p);
        }
      }
    }
    std::vector<FakeNode*> slots(max_seq - min_seq + 1, nullptr);
    for (FakeNode* n : nodes) slots[n->sequence - min_seq] = n;
    std::vector<FakeNode*> order;
    order.reserve(nodes.size());
    for (auto it = slots.rbegin(); it != slots.rend(); ++it) {
      if (*it != nullptr) order.push_back(*it);
    }
    benchmark::DoNotOptimize(order.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CollectEpochCounting)->Arg(256)->Arg(1024)->Arg(4096);

}  // namespace
}  // namespace logcl

BENCHMARK_MAIN();
