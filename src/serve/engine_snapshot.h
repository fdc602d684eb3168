// EngineSnapshot: an immutable, shareable freeze of a trained LogCL model at
// one serving horizon.
//
// LogCL's forward pass splits naturally into a query-independent half (the
// local evolution of Eq.2-8 over the m snapshots preceding t, plus the
// per-snapshot attention inputs of Eq.9-11) and a query-conditioned half
// (entity-aware attention, global subgraph encode, ConvTransE decode).
// ScoreQueries recomputes both halves per call; a snapshot runs the first
// half exactly once at build time and freezes it, so answering (s, r, ?, t)
// costs only the second half. Answers are bitwise identical to
// LogClModel::ScoreQueries on the same weights and batch.
//
// Snapshots are immutable after construction and safe to share across
// threads; Advance() is the copy-on-write step that folds a newly completed
// snapshot of facts into a successor (extended history index, rotated
// evolution window, horizon + 1) while readers keep using this one.

#ifndef LOGCL_SERVE_ENGINE_SNAPSHOT_H_
#define LOGCL_SERVE_ENGINE_SNAPSHOT_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/logcl_model.h"
#include "graph/snapshot_graph.h"
#include "serve/quant.h"
#include "tkg/history_index.h"
#include "tkg/quadruple.h"

namespace logcl {

/// One serving request: predict the object of (subject, relation, ?) at the
/// snapshot's horizon time.
struct ServeQuery {
  int64_t subject = 0;
  int64_t relation = 0;
};

/// InvalidArgument unless `query.subject` is an entity of `dataset` and
/// `query.relation` a base or inverse relation — the bounds every serving
/// entry point applies to ids from callers or the wire.
Status ValidateServeQuery(const TkgDataset& dataset, const ServeQuery& query);

/// InvalidArgument unless `fact`'s subject and object are entities of
/// `dataset` and its relation a base relation — what EngineSnapshot::Advance
/// requires of every new fact.
Status ValidateAdvanceFact(const TkgDataset& dataset, const Quadruple& fact);

class EngineSnapshot {
 public:
  /// Freezes `model` at horizon `time`: runs the local evolution over the
  /// dataset snapshots in [time - m, time) once and indexes all dataset
  /// facts strictly before `time` (a serving process never observes the
  /// horizon, unlike the offline protocol's all-splits index — queries at
  /// `time` answer identically either way). The model must outlive the
  /// snapshot and be in eval mode when configured with noise injection.
  /// Its weights must not be written while a snapshot built from it scores;
  /// concurrent reads (a training forward/backward) are allowed, because
  /// scoring reads the weights and this snapshot's own history index and
  /// writes no model state. Single-threaded: call before concurrent
  /// serving starts (it may lazily build dataset structure caches).
  ///
  /// `precision` kInt8 quantizes the candidate matrix at freeze time
  /// (default from LOGCL_QUANT). int8 requires a query-independent
  /// candidate matrix — the local evolution's entity embeddings — so
  /// global-only configurations silently fall back to fp32 (precision()
  /// reports the effective value).
  static std::shared_ptr<const EngineSnapshot> Build(
      const LogClModel* model, int64_t time,
      ScorePrecision precision = ScorePrecisionFromEnv());

  /// Scores each query against every entity at the snapshot horizon;
  /// returns logits [B, E], bitwise identical to model->ScoreQueries on the
  /// same batch. The decoded batch is multiplied by the candidate matrix
  /// the build transposed once (EvolutionState::candidates_t), so no call
  /// re-lays the [E, d] entity table. Const and safe from concurrent
  /// threads. Note the global encoder message-passes over the batch *union*
  /// subgraph (see core/global_encoder.h), so scores — like ScoreQueries' —
  /// depend on the batch composition.
  Tensor ScoreBatch(const std::vector<ServeQuery>& queries) const;

  /// int8 scoring: decodes the batch in fp32 (bitwise the decode stage of
  /// ScoreBatch), then dot-products each decoded row against the int8
  /// candidate matrix (serve/quant.h). Returns approximate logits [B, E].
  /// Requires precision() == kInt8. Const and safe from concurrent threads.
  Tensor ScoreBatchQuantized(const std::vector<ServeQuery>& queries) const;

  /// Effective scoring precision (kFp32 when quantization was not
  /// requested or not applicable to this model configuration).
  ScorePrecision precision() const {
    return int8_.empty() ? ScorePrecision::kFp32 : ScorePrecision::kInt8;
  }
  const Int8Matrix& int8_candidates() const { return int8_; }

  /// Copy-on-write successor: `new_facts` (all at this snapshot's horizon)
  /// complete the horizon snapshot, so the result serves horizon time()+1
  /// with an extended history index and the evolution window advanced one
  /// step. Facts are canonicalised to the dataset's (s, r, o) sort order,
  /// making the successor bitwise equivalent to a snapshot built from a
  /// model whose dataset contains the new facts. This snapshot is untouched;
  /// in-flight readers finish on it.
  std::shared_ptr<const EngineSnapshot> Advance(
      std::vector<Quadruple> new_facts) const;

  int64_t time() const { return time_; }
  const LogClModel& model() const { return *model_; }
  const HistoryIndex& history() const { return *history_; }

  /// The trailing evolution window feeding the next Advance: (timestamp,
  /// snapshot graph) pairs, ascending, all strictly before time(). The
  /// streaming session fine-tunes over exactly this window so training and
  /// serving condition on the same local context.
  const std::vector<std::pair<int64_t, std::shared_ptr<const SnapshotGraph>>>&
  window() const {
    return window_;
  }

 private:
  EngineSnapshot() = default;

  /// The batch as (subject, relation, ?, time()) quadruples — the one
  /// decode input of both scoring precisions. Checks `queries` is non-empty.
  std::vector<Quadruple> AtHorizon(
      const std::vector<ServeQuery>& queries) const;

  const LogClModel* model_ = nullptr;
  int64_t time_ = 0;
  // Extended copy-on-write across Advance steps; shared_ptr so successors
  // could alias in the no-new-facts case without lifetime puzzles.
  std::shared_ptr<const HistoryIndex> history_;
  LogClModel::EvolutionState evolution_;
  // Trailing window of (timestamp, snapshot graph) feeding the next
  // Advance's evolution. Graphs owned by the model's dataset are held
  // non-owning (the dataset outlives the model outlives the snapshot);
  // graphs created by Advance are owned here.
  std::vector<std::pair<int64_t, std::shared_ptr<const SnapshotGraph>>>
      window_;
  // int8 candidate matrix, rebuilt by every Advance (the candidate matrix
  // changes with the evolution window). Empty when serving fp32.
  Int8Matrix int8_;
};

}  // namespace logcl

#endif  // LOGCL_SERVE_ENGINE_SNAPSHOT_H_
