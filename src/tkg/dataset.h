// TkgDataset: a temporal knowledge graph with train/valid/test splits,
// snapshot access and inverse-relation bookkeeping.
//
// Conventions (matching RE-GCN / LogCL preprocessing):
//  - Relations 0..num_base_relations-1 are the dataset's relations; ids
//    num_base_relations..2*num_base_relations-1 are their inverses.
//  - Stored facts only use base relations; inverse quadruples are derived on
//    demand (WithInverses) so splits stay canonical.
//  - Timestamps are dense 0..num_timestamps-1 across all splits, with the
//    splits ordered in time (train < valid < test), as produced by the
//    standard 80/10/10 chronological split.

#ifndef LOGCL_TKG_DATASET_H_
#define LOGCL_TKG_DATASET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/snapshot_graph.h"
#include "tkg/quadruple.h"
#include "tkg/vocabulary.h"

namespace logcl {

/// Which split a fact belongs to.
enum class Split { kTrain, kValid, kTest };

/// Summary statistics (Table II of the paper).
struct DatasetStats {
  std::string name;
  int64_t num_entities = 0;
  int64_t num_relations = 0;  // base relations (without inverses)
  int64_t num_train = 0;
  int64_t num_valid = 0;
  int64_t num_test = 0;
  int64_t num_timestamps = 0;

  std::string ToString() const;
};

/// Immutable TKG container. Construct via FromQuadruples (synthetic /
/// programmatic data) or LoadTsv (ICEWS-style id files).
class TkgDataset {
 public:
  /// Takes ownership of the split fact lists. All ids must be in range;
  /// facts are sorted by (time, subject, relation, object).
  static TkgDataset FromQuadruples(std::string name, int64_t num_entities,
                                   int64_t num_base_relations,
                                   std::vector<Quadruple> train,
                                   std::vector<Quadruple> valid,
                                   std::vector<Quadruple> test);

  /// Largest timestamp LoadTsv accepts (2^24). The per-timestamp indexes
  /// hold one slot for every timestamp up to the largest one, so a bigger
  /// value in a split file is rejected instead of sizing an allocation.
  static constexpr int64_t kMaxTimestamp = int64_t{1} << 24;

  /// Largest entity and relation ids LoadTsv accepts (2^24 each). LoadTsv
  /// sizes the entity and relation spaces as the largest id + 1, so a bigger
  /// id is rejected instead of sizing the embedding tables. Both stay far
  /// below the 40-bit fields of the packed (s, r, o) edge keys, inverse
  /// relations included.
  static constexpr int64_t kMaxEntityId = int64_t{1} << 24;
  static constexpr int64_t kMaxRelationId = int64_t{1} << 24;

  /// Loads `<dir>/train.txt`, `valid.txt`, `test.txt` with whitespace-
  /// separated "s r o t" integer rows (the standard benchmark format). A
  /// malformed row, a negative id, an id above kMaxEntityId /
  /// kMaxRelationId or a timestamp above kMaxTimestamp is InvalidArgument
  /// naming `path:line`.
  static Result<TkgDataset> LoadTsv(const std::string& dir, std::string name);

  /// Writes the three split files into `dir` (created by the caller).
  Status SaveTsv(const std::string& dir) const;

  const std::string& name() const { return name_; }
  int64_t num_entities() const { return num_entities_; }
  int64_t num_base_relations() const { return num_base_relations_; }
  /// Base + inverse relations; the id space models operate in.
  int64_t num_relations_with_inverse() const { return 2 * num_base_relations_; }
  int64_t num_timestamps() const { return num_timestamps_; }

  const std::vector<Quadruple>& train() const { return train_; }
  const std::vector<Quadruple>& valid() const { return valid_; }
  const std::vector<Quadruple>& test() const { return test_; }
  const std::vector<Quadruple>& split(Split s) const;

  /// All facts of all splits at timestamp `t` (base relations only). Models
  /// use this as the ground-truth snapshot sequence; during offline testing
  /// the snapshots before the query time are known history, as in RE-GCN.
  const std::vector<Quadruple>& FactsAt(int64_t t) const;

  /// Facts of one split grouped by timestamp (timestamps with no facts in
  /// that split yield empty vectors).
  std::vector<Quadruple> SplitFactsAt(Split s, int64_t t) const;

  /// Sorted distinct timestamps that have at least one fact in `s`.
  const std::vector<int64_t>& SplitTimestamps(Split s) const;

  /// `facts` plus their inverse quadruples (order: originals then inverses).
  std::vector<Quadruple> WithInverses(const std::vector<Quadruple>& facts) const;

  /// The inverse-augmented snapshot graph of FactsAt(t) over all entities —
  /// equivalent to SnapshotGraph::FromFacts(WithInverses(FactsAt(t)),
  /// num_entities()). Built lazily on first access and cached for the
  /// dataset's lifetime (the facts are immutable), so trainer, eval and
  /// benches share one structure per timestamp across epochs. Copies of the
  /// dataset share the cached graphs. Out-of-range t yields the edgeless
  /// graph. Lazy builds are not thread-safe (single training thread).
  const SnapshotGraph& SnapshotGraphAt(int64_t t) const;

  DatasetStats Stats() const;

 private:
  TkgDataset() = default;
  void BuildIndexes();

  std::string name_;
  int64_t num_entities_ = 0;
  int64_t num_base_relations_ = 0;
  int64_t num_timestamps_ = 0;
  std::vector<Quadruple> train_;
  std::vector<Quadruple> valid_;
  std::vector<Quadruple> test_;
  // facts_by_time_[t] = union of all splits' facts at t.
  std::vector<std::vector<Quadruple>> facts_by_time_;
  // Per-timestamp inverse-augmented graphs (see SnapshotGraphAt); index
  // num_timestamps_ holds the shared edgeless graph for out-of-range t.
  mutable std::vector<std::shared_ptr<SnapshotGraph>> snapshot_graphs_;
  std::vector<int64_t> train_times_;
  std::vector<int64_t> valid_times_;
  std::vector<int64_t> test_times_;
};

}  // namespace logcl

#endif  // LOGCL_TKG_DATASET_H_
