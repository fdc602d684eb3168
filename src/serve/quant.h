// int8 candidate scoring for frozen EngineSnapshots.
//
// The serving hot path is B decoded queries [B, d] dotted against the frozen
// candidate entity matrix [E, d] — E dominates, and ranking (not logits) is
// what the caller consumes. The candidate matrix is query-independent once a
// snapshot is built, so it is quantized exactly once per Build()/Advance():
// symmetric per-row int8, scale_i = maxabs(row_i) / 127. Scoring quantises
// the decoded query row once per request (its own symmetric scale), runs
// exact int32 dot products (simd::ScoreRowsI8), and rescales:
// logit ~= q_scale * row_scale * dot.
//
// int8 is not bitwise-gated against fp32; the contract is statistical —
// Spearman rank correlation >= 0.99 per score row and |delta MRR| <= 0.005
// on the synthetic eval set (quant_test.cc enforces both). LOGCL_QUANT
// selects the default precision (fp32 | int8); snapshots silently fall back
// to fp32 when the model's candidate matrix is query-conditioned
// (global-only configurations) and there is nothing to freeze.

#ifndef LOGCL_SERVE_QUANT_H_
#define LOGCL_SERVE_QUANT_H_

#include <cstdint>
#include <vector>

namespace logcl {

/// Candidate-scoring precision for a frozen snapshot.
enum class ScorePrecision { kFp32, kInt8 };

/// Default precision from LOGCL_QUANT (fp32 | int8; unset => fp32).
ScorePrecision ScorePrecisionFromEnv();

const char* PrecisionName(ScorePrecision p);

/// Row-major int8 matrix with symmetric per-row scales:
/// value[i][j] ~= data[i][j] * scales[i].
struct Int8Matrix {
  int64_t rows = 0;
  int64_t cols = 0;
  std::vector<int8_t> data;
  std::vector<float> scales;
  bool empty() const { return data.empty(); }
};

Int8Matrix QuantizeInt8PerRow(const float* m, int64_t rows, int64_t cols);

/// Symmetric int8 quantisation of one fp32 row (the decoded query);
/// returns the scale (0 for an all-zero row, with all codes 0).
float QuantizeRowInt8(const float* row, int64_t n, int8_t* out);

/// Approximate logits of one decoded query row [dim] against every
/// candidate: out[e] ~= dot(decoded, entities[e]). `dim` must equal
/// `candidates.cols` and `out` must hold `candidates.rows` floats. Serial
/// per row — batch callers shard rows across threads.
void ScoreQuantizedRow(const Int8Matrix& candidates, const float* decoded,
                       int64_t dim, float* out);

}  // namespace logcl

#endif  // LOGCL_SERVE_QUANT_H_
