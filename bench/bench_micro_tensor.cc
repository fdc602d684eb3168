// Micro-benchmarks (google-benchmark) for the tensor substrate: the kernels
// that dominate LogCL training time.
//
// Benches taking a {size, simd} argument pair run under both kernel tables
// (0 = scalar, 1 = dispatched SIMD; see tensor/simd.h) and feed a
// scalar-vs-SIMD ratio table printed at exit. The same numbers land in the
// metrics registry as `logcl.bench.simd.*` histograms, so
// LOGCL_METRICS_DUMP picks them up through the shared reporting path.

#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "common/observability.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "serve/quant.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"

namespace logcl {
namespace {

// Last-seen ns/iter per kernel and table mode; the atexit hook renders the
// speedup column once both modes have run.
std::map<std::string, std::array<double, 2>>& SimdTimes() {
  static auto* table = new std::map<std::string, std::array<double, 2>>();
  return *table;
}

void ReportSimdTime(const std::string& kernel, bool simd_on,
                    double ns_per_iter) {
  static bool registered = false;
  if (!registered) {
    registered = true;
    std::atexit([] {
      std::printf("\n%-28s %14s %14s %9s\n", "kernel (scalar vs simd)",
                  "scalar ns/it", "simd ns/it", "speedup");
      for (const auto& [name, ns] : SimdTimes()) {
        if (ns[0] <= 0.0 || ns[1] <= 0.0) continue;
        std::printf("%-28s %14.0f %14.0f %8.2fx\n", name.c_str(), ns[0],
                    ns[1], ns[0] / ns[1]);
      }
    });
  }
  SimdTimes()[kernel][simd_on ? 1 : 0] = ns_per_iter;
  Metrics()
      .GetHistogram("logcl.bench.simd." + kernel +
                    (simd_on ? "_simd_ns" : "_scalar_ns"))
      ->Record(static_cast<int64_t>(ns_per_iter));
}

// Scoped kernel-table override for the {size, simd} benches.
class SimdModeGuard {
 public:
  explicit SimdModeGuard(bool enabled) : previous_(simd::SimdEnabled()) {
    simd::SetSimdEnabled(enabled);
  }
  ~SimdModeGuard() { simd::SetSimdEnabled(previous_); }

 private:
  bool previous_;
};

double NsPerIter(const benchmark::State& state, uint64_t elapsed_ns) {
  return state.iterations() == 0
             ? 0.0
             : static_cast<double>(elapsed_ns) /
                   static_cast<double>(state.iterations());
}

void BM_MatMul(benchmark::State& state) {
  int64_t n = state.range(0);
  SimdModeGuard simd_guard(state.range(1) != 0);
  Rng rng(1);
  Tensor a = Tensor::RandomNormal(Shape{n, n}, 1.0f, &rng);
  Tensor b = Tensor::RandomNormal(Shape{n, n}, 1.0f, &rng);
  uint64_t start_ns = MonotonicNowNs();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::MatMul(a, b));
  }
  ReportSimdTime("matmul_" + std::to_string(n), state.range(1) != 0,
                 NsPerIter(state, MonotonicNowNs() - start_ns));
  state.SetItemsProcessed(state.iterations() * n * n * n);
  state.SetLabel(simd::IsaName(simd::ActiveIsa()));
}
BENCHMARK(BM_MatMul)
    ->Args({32, 0})
    ->Args({32, 1})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({128, 0})
    ->Args({128, 1})
    ->Args({256, 0})
    ->Args({256, 1});

// Thread-count sweep over the 256^3 matmul: Args are {size, threads}.
// Speedups over the threads=1 row are only meaningful on machines with
// that many physical cores.
void BM_MatMulThreads(benchmark::State& state) {
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
BENCHMARK(BM_MatMulThreads)
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Args({256, 8});

void BM_MatMulBackward(benchmark::State& state) {
  int64_t n = state.range(0);
  Rng rng(2);
  Tensor a = Tensor::RandomNormal(Shape{n, n}, 1.0f, &rng, true);
  Tensor b = Tensor::RandomNormal(Shape{n, n}, 1.0f, &rng, true);
  for (auto _ : state) {
    a.ZeroGrad();
    b.ZeroGrad();
    Backward(ops::SumAll(ops::MatMul(a, b)));
  }
}
BENCHMARK(BM_MatMulBackward)->Arg(32)->Arg(64);

void BM_Softmax(benchmark::State& state) {
  int64_t rows = state.range(0);
  SimdModeGuard simd_guard(state.range(1) != 0);
  Rng rng(3);
  Tensor x = Tensor::RandomNormal(Shape{rows, 128}, 1.0f, &rng);
  uint64_t start_ns = MonotonicNowNs();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::Softmax(x));
  }
  ReportSimdTime("softmax_" + std::to_string(rows), state.range(1) != 0,
                 NsPerIter(state, MonotonicNowNs() - start_ns));
  state.SetItemsProcessed(state.iterations() * rows * 128);
  state.SetLabel(simd::IsaName(simd::ActiveIsa()));
}
BENCHMARK(BM_Softmax)->Args({16, 0})->Args({16, 1})->Args({128, 0})->Args(
    {128, 1});

// The elementwise kSame fast path (tensor/ops.cc ElementwiseBinary): equal
// shapes, no broadcasting, forward routed straight through the simd::Add /
// simd::Mul / simd::Relu kernels. One iteration = gate-and-activate over a
// [rows, 256] block, the shape the encoder layers hit per snapshot.
void BM_ElementwiseSame(benchmark::State& state) {
  int64_t rows = state.range(0);
  SimdModeGuard simd_guard(state.range(1) != 0);
  Rng rng(9);
  Tensor x = Tensor::RandomNormal(Shape{rows, 256}, 1.0f, &rng);
  Tensor gate = Tensor::RandomNormal(Shape{rows, 256}, 1.0f, &rng);
  Tensor bias = Tensor::RandomNormal(Shape{rows, 256}, 1.0f, &rng);
  uint64_t start_ns = MonotonicNowNs();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::Relu(ops::Add(ops::Mul(x, gate), bias)));
  }
  ReportSimdTime("elementwise_same_" + std::to_string(rows),
                 state.range(1) != 0,
                 NsPerIter(state, MonotonicNowNs() - start_ns));
  state.SetItemsProcessed(state.iterations() * rows * 256 * 3);
  state.SetLabel(simd::IsaName(simd::ActiveIsa()));
}
BENCHMARK(BM_ElementwiseSame)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({1024, 0})
    ->Args({1024, 1});

// Same fast path through the backward pass: kSame gradients are the
// simd::Accumulate / simd::MulAccumulate kernels.
// The serving score kernel at realistic candidate counts (the presets'
// entity counts are tiny, so bench_serve's end-to-end sweep is decode-bound;
// this isolates the scoring half that quantization accelerates). One
// iteration scores one decoded query row against E candidate rows:
// precision 0 = fp32 (the MatMulAccumNT the fused path lowers to),
// 1 = int8 (serve/quant.h).
void BM_QuantScore(benchmark::State& state) {
  const bool int8 = state.range(0) != 0;
  SimdModeGuard simd_guard(state.range(1) != 0);
  constexpr int64_t kEntities = 4096;
  constexpr int64_t kDim = 32;
  Rng rng(11);
  Tensor entities =
      Tensor::RandomNormal(Shape{kEntities, kDim}, 1.0f, &rng);
  Tensor query = Tensor::RandomNormal(Shape{1, kDim}, 1.0f, &rng);
  Int8Matrix candidates =
      QuantizeInt8PerRow(entities.data().data(), kEntities, kDim);
  std::vector<float> out(static_cast<size_t>(kEntities));
  const std::string name = int8 ? "int8" : "fp32";
  uint64_t start_ns = MonotonicNowNs();
  for (auto _ : state) {
    if (int8) {
      ScoreQuantizedRow(candidates, query.data().data(), kDim, out.data());
    } else {
      std::fill(out.begin(), out.end(), 0.0f);
      simd::MatMulAccumNT(query.data().data(), entities.data().data(),
                          out.data(), 1, kDim, kEntities);
    }
    benchmark::DoNotOptimize(out.data());
  }
  ReportSimdTime("score_" + name, state.range(1) != 0,
                 NsPerIter(state, MonotonicNowNs() - start_ns));
  state.SetItemsProcessed(state.iterations() * kEntities * kDim);
  state.SetLabel(name + "/" + simd::IsaName(simd::ActiveIsa()));
}
BENCHMARK(BM_QuantScore)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

void BM_ElementwiseSameBackward(benchmark::State& state) {
  int64_t rows = state.range(0);
  SimdModeGuard simd_guard(state.range(1) != 0);
  Rng rng(10);
  Tensor x = Tensor::RandomNormal(Shape{rows, 256}, 1.0f, &rng, true);
  Tensor gate = Tensor::RandomNormal(Shape{rows, 256}, 1.0f, &rng, true);
  uint64_t start_ns = MonotonicNowNs();
  for (auto _ : state) {
    x.ZeroGrad();
    gate.ZeroGrad();
    Backward(ops::SumAll(ops::Relu(ops::Mul(x, gate))));
  }
  ReportSimdTime("elementwise_backward_" + std::to_string(rows),
                 state.range(1) != 0,
                 NsPerIter(state, MonotonicNowNs() - start_ns));
  state.SetItemsProcessed(state.iterations() * rows * 256);
  state.SetLabel(simd::IsaName(simd::ActiveIsa()));
}
BENCHMARK(BM_ElementwiseSameBackward)->Args({256, 0})->Args({256, 1});

void BM_IndexSelectScatter(benchmark::State& state) {
  int64_t edges = state.range(0);
  Rng rng(4);
  Tensor x = Tensor::RandomNormal(Shape{256, 32}, 1.0f, &rng);
  std::vector<int64_t> src(static_cast<size_t>(edges));
  std::vector<int64_t> dst(static_cast<size_t>(edges));
  for (auto& v : src) v = static_cast<int64_t>(rng.UniformInt(256));
  for (auto& v : dst) v = static_cast<int64_t>(rng.UniformInt(256));
  for (auto _ : state) {
    Tensor selected = ops::IndexSelectRows(x, src);
    benchmark::DoNotOptimize(ops::ScatterMeanRows(selected, dst, 256));
  }
  state.SetItemsProcessed(state.iterations() * edges);
}
BENCHMARK(BM_IndexSelectScatter)->Arg(512)->Arg(4096);

void BM_Conv2x3(benchmark::State& state) {
  Rng rng(5);
  Tensor h = Tensor::RandomNormal(Shape{state.range(0), 32}, 1.0f, &rng);
  Tensor r = Tensor::RandomNormal(Shape{state.range(0), 32}, 1.0f, &rng);
  Tensor kernels = Tensor::RandomNormal(Shape{50, 6}, 1.0f, &rng);
  Tensor bias = Tensor::Zeros(Shape{50});
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::Conv2x3(h, r, kernels, bias));
  }
}
BENCHMARK(BM_Conv2x3)->Arg(32)->Arg(128);

// Chain of small ops in the decoder-input shape (the allocation-bound
// regime the buffer pool targets): gather entity/relation rows, concat,
// gate elementwise, slice halves back apart. The data-movement ops do O(n)
// copying per O(n) of fresh storage, so without the pool a large share of
// the runtime would be allocation + zero-init — the part the pool elides on
// kUninit hits. Shapes repeat every iteration, so the run is all hits after
// the first pass.
void BM_SmallOpChain(benchmark::State& state) {
  constexpr int64_t kBatch = 64;
  constexpr int64_t kDim = 64;
  constexpr int64_t kEntities = 256;
  constexpr int kRounds = 2;
  Rng rng(8);
  Tensor entities =
      Tensor::RandomNormal(Shape{kEntities, kDim}, 0.1f, &rng);
  Tensor relations = Tensor::RandomNormal(Shape{kEntities, kDim}, 0.1f, &rng);
  Tensor gate = Tensor::RandomNormal(Shape{kBatch, 2 * kDim}, 0.1f, &rng);
  Tensor bias = Tensor::RandomNormal(Shape{kBatch, 2 * kDim}, 0.1f, &rng);
  std::vector<int64_t> eidx(static_cast<size_t>(kBatch));
  std::vector<int64_t> ridx(static_cast<size_t>(kBatch));
  for (auto& v : eidx) v = static_cast<int64_t>(rng.UniformInt(kEntities));
  for (auto& v : ridx) v = static_cast<int64_t>(rng.UniformInt(kEntities));
  for (auto _ : state) {
    Tensor h;
    for (int i = 0; i < kRounds; ++i) {
      Tensor e = ops::IndexSelectRows(entities, eidx);
      Tensor r = ops::IndexSelectRows(relations, ridx);
      Tensor fused = ops::ConcatCols({e, r});
      fused = ops::Relu(ops::Add(ops::Mul(fused, gate), bias));
      h = ops::Add(ops::SliceCols(fused, 0, kDim),
                   ops::SliceCols(fused, kDim, kDim));
    }
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(state.iterations() * kRounds * kBatch * kDim);
}
BENCHMARK(BM_SmallOpChain);

// Full training-step variant: same gated-residual shape plus backward and
// grad zeroing. kZero grad buffers must be cleared even when pooled, and the
// elementwise kernels are memory-bandwidth-bound, so this row is the
// end-to-end-step number next to the allocation-bound chain above.
void BM_SmallOpChainTrainStep(benchmark::State& state) {
  constexpr int64_t kBatch = 256;
  constexpr int64_t kDim = 128;
  constexpr int64_t kEntities = 512;
  constexpr int kLayers = 12;
  Rng rng(7);
  Tensor embeddings =
      Tensor::RandomNormal(Shape{kEntities, kDim}, 0.1f, &rng, true);
  std::vector<Tensor> gates, biases;
  for (int l = 0; l < kLayers; ++l) {
    gates.push_back(
        Tensor::RandomNormal(Shape{kBatch, kDim}, 0.1f, &rng, true));
    biases.push_back(
        Tensor::RandomNormal(Shape{kBatch, kDim}, 0.1f, &rng, true));
  }
  std::vector<int64_t> batch(static_cast<size_t>(kBatch));
  for (auto& v : batch) v = static_cast<int64_t>(rng.UniformInt(kEntities));
  for (auto _ : state) {
    embeddings.ZeroGrad();
    for (int l = 0; l < kLayers; ++l) {
      gates[l].ZeroGrad();
      biases[l].ZeroGrad();
    }
    Tensor h = ops::IndexSelectRows(embeddings, batch);
    for (int l = 0; l < kLayers; ++l) {
      h = ops::Add(h, ops::Relu(ops::Add(ops::Mul(h, gates[l]), biases[l])));
    }
    Backward(ops::SumAll(ops::Mul(h, h)));
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_SmallOpChainTrainStep);

void BM_CrossEntropy(benchmark::State& state) {
  int64_t batch = state.range(0);
  Rng rng(6);
  Tensor logits = Tensor::RandomNormal(Shape{batch, 256}, 1.0f, &rng, true);
  std::vector<int64_t> targets(static_cast<size_t>(batch));
  for (auto& t : targets) t = static_cast<int64_t>(rng.UniformInt(256));
  for (auto _ : state) {
    logits.ZeroGrad();
    Backward(ops::CrossEntropyWithLogits(logits, targets));
  }
}
BENCHMARK(BM_CrossEntropy)->Arg(16)->Arg(128);

}  // namespace
}  // namespace logcl

BENCHMARK_MAIN();
