#include "serve/quant.h"

#include <cmath>

#include "common/logging.h"
#include "common/runtime_config.h"
#include "tensor/simd.h"

namespace logcl {

ScorePrecision ScorePrecisionFromEnv() {
  return RuntimeConfig::Get().quant == "int8" ? ScorePrecision::kInt8
                                              : ScorePrecision::kFp32;
}

const char* PrecisionName(ScorePrecision p) {
  return p == ScorePrecision::kInt8 ? "int8" : "fp32";
}

float QuantizeRowInt8(const float* row, int64_t n, int8_t* out) {
  float maxabs = 0.0f;
  for (int64_t j = 0; j < n; ++j) {
    float a = std::fabs(row[j]);
    if (a > maxabs) maxabs = a;
  }
  if (maxabs == 0.0f) {
    for (int64_t j = 0; j < n; ++j) out[j] = 0;
    return 0.0f;
  }
  float scale = maxabs / 127.0f;
  float inv = 127.0f / maxabs;
  for (int64_t j = 0; j < n; ++j) {
    float q = std::nearbyint(row[j] * inv);
    if (q > 127.0f) q = 127.0f;
    if (q < -127.0f) q = -127.0f;
    out[j] = static_cast<int8_t>(q);
  }
  return scale;
}

Int8Matrix QuantizeInt8PerRow(const float* m, int64_t rows, int64_t cols) {
  Int8Matrix out;
  out.rows = rows;
  out.cols = cols;
  out.data.resize(static_cast<size_t>(rows * cols));
  out.scales.resize(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) {
    out.scales[static_cast<size_t>(i)] = QuantizeRowInt8(
        m + i * cols, cols, out.data.data() + i * cols);
  }
  return out;
}

void ScoreQuantizedRow(const Int8Matrix& candidates, const float* decoded,
                       int64_t dim, float* out) {
  LOGCL_CHECK(!candidates.empty());
  LOGCL_CHECK_EQ(dim, candidates.cols);
  // One symmetric quantisation of the query row per call; 256 covers every
  // configured embedding_dim, and larger dims spill to the heap.
  constexpr int64_t kStackDim = 256;
  int8_t stack_q[kStackDim];
  std::vector<int8_t> heap_q;
  int8_t* q = stack_q;
  if (dim > kStackDim) {
    heap_q.resize(static_cast<size_t>(dim));
    q = heap_q.data();
  }
  float qscale = QuantizeRowInt8(decoded, dim, q);
  simd::ScoreRowsI8(candidates.data.data(), candidates.scales.data(), q,
                    qscale, candidates.rows, dim, out);
}

}  // namespace logcl
