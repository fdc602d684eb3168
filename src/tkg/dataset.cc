#include "tkg/dataset.h"

#include <algorithm>
#include <fstream>
#include <set>

#include "common/logging.h"
#include "common/stringpiece.h"

namespace logcl {

namespace {

void SortFacts(std::vector<Quadruple>* facts) {
  std::sort(facts->begin(), facts->end(),
            [](const Quadruple& a, const Quadruple& b) {
              return std::tie(a.time, a.subject, a.relation, a.object) <
                     std::tie(b.time, b.subject, b.relation, b.object);
            });
}

void ValidateFacts(const std::vector<Quadruple>& facts, int64_t num_entities,
                   int64_t num_base_relations) {
  for (const Quadruple& q : facts) {
    LOGCL_CHECK_GE(q.subject, 0);
    LOGCL_CHECK_LT(q.subject, num_entities);
    LOGCL_CHECK_GE(q.object, 0);
    LOGCL_CHECK_LT(q.object, num_entities);
    LOGCL_CHECK_GE(q.relation, 0);
    LOGCL_CHECK_LT(q.relation, num_base_relations)
        << "split files must contain base relations only";
    LOGCL_CHECK_GE(q.time, 0);
  }
}

Result<std::vector<Quadruple>> ReadSplitFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::vector<Quadruple> facts;
  std::string line;
  int64_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    std::string trimmed = StrTrim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    std::vector<std::string> fields = SplitWhitespace(trimmed);
    if (fields.size() < 4) {
      return Status::InvalidArgument(
          StrFormat("%s:%lld: expected >=4 fields", path.c_str(),
                    static_cast<long long>(line_number)));
    }
    Quadruple q;
    int64_t* slots[4] = {&q.subject, &q.relation, &q.object, &q.time};
    const char* names[4] = {"entity id", "relation id", "entity id",
                            "timestamp"};
    const int64_t limits[4] = {TkgDataset::kMaxEntityId,
                               TkgDataset::kMaxRelationId,
                               TkgDataset::kMaxEntityId,
                               TkgDataset::kMaxTimestamp};
    for (int i = 0; i < 4; ++i) {
      Result<int64_t> value = ParseInt64(fields[static_cast<size_t>(i)]);
      if (!value.ok()) return value.status();
      if (value.value() < 0) {
        return Status::InvalidArgument(
            StrFormat("%s:%lld: negative id %lld", path.c_str(),
                      static_cast<long long>(line_number),
                      static_cast<long long>(value.value())));
      }
      if (value.value() > limits[i]) {
        return Status::InvalidArgument(
            StrFormat("%s:%lld: %s %lld exceeds the limit %lld",
                      path.c_str(), static_cast<long long>(line_number),
                      names[i], static_cast<long long>(value.value()),
                      static_cast<long long>(limits[i])));
      }
      *slots[i] = value.value();
    }
    facts.push_back(q);
  }
  return facts;
}

}  // namespace

std::string DatasetStats::ToString() const {
  return StrFormat(
      "%s: |E|=%lld |R|=%lld train=%lld valid=%lld test=%lld snapshots=%lld",
      name.c_str(), static_cast<long long>(num_entities),
      static_cast<long long>(num_relations),
      static_cast<long long>(num_train), static_cast<long long>(num_valid),
      static_cast<long long>(num_test),
      static_cast<long long>(num_timestamps));
}

TkgDataset TkgDataset::FromQuadruples(std::string name, int64_t num_entities,
                                      int64_t num_base_relations,
                                      std::vector<Quadruple> train,
                                      std::vector<Quadruple> valid,
                                      std::vector<Quadruple> test) {
  LOGCL_CHECK_GT(num_entities, 0);
  LOGCL_CHECK_GT(num_base_relations, 0);
  ValidateFacts(train, num_entities, num_base_relations);
  ValidateFacts(valid, num_entities, num_base_relations);
  ValidateFacts(test, num_entities, num_base_relations);
  TkgDataset dataset;
  dataset.name_ = std::move(name);
  dataset.num_entities_ = num_entities;
  dataset.num_base_relations_ = num_base_relations;
  dataset.train_ = std::move(train);
  dataset.valid_ = std::move(valid);
  dataset.test_ = std::move(test);
  SortFacts(&dataset.train_);
  SortFacts(&dataset.valid_);
  SortFacts(&dataset.test_);
  dataset.BuildIndexes();
  return dataset;
}

void TkgDataset::BuildIndexes() {
  int64_t max_time = -1;
  for (const auto* split : {&train_, &valid_, &test_}) {
    for (const Quadruple& q : *split) max_time = std::max(max_time, q.time);
  }
  num_timestamps_ = max_time + 1;
  facts_by_time_.assign(static_cast<size_t>(num_timestamps_), {});
  for (const auto* split : {&train_, &valid_, &test_}) {
    for (const Quadruple& q : *split) {
      facts_by_time_[static_cast<size_t>(q.time)].push_back(q);
    }
  }
  auto collect_times = [](const std::vector<Quadruple>& facts) {
    std::vector<int64_t> times;
    for (const Quadruple& q : facts) {
      if (times.empty() || times.back() != q.time) times.push_back(q.time);
    }
    return times;  // facts are time-sorted, so times are sorted & distinct
  };
  train_times_ = collect_times(train_);
  valid_times_ = collect_times(valid_);
  test_times_ = collect_times(test_);
  snapshot_graphs_.assign(static_cast<size_t>(num_timestamps_) + 1, nullptr);
}

const SnapshotGraph& TkgDataset::SnapshotGraphAt(int64_t t) const {
  size_t slot = (t < 0 || t >= num_timestamps_)
                    ? static_cast<size_t>(num_timestamps_)  // edgeless
                    : static_cast<size_t>(t);
  std::shared_ptr<SnapshotGraph>& entry = snapshot_graphs_[slot];
  if (entry == nullptr) {
    entry = std::make_shared<SnapshotGraph>(SnapshotGraph::FromFactsWithInverses(
        FactsAt(slot == static_cast<size_t>(num_timestamps_)
                    ? int64_t{-1}
                    : t),
        num_entities_, num_base_relations_));
  }
  return *entry;
}

Result<TkgDataset> TkgDataset::LoadTsv(const std::string& dir,
                                       std::string name) {
  Result<std::vector<Quadruple>> train = ReadSplitFile(dir + "/train.txt");
  if (!train.ok()) return train.status();
  Result<std::vector<Quadruple>> valid = ReadSplitFile(dir + "/valid.txt");
  if (!valid.ok()) return valid.status();
  Result<std::vector<Quadruple>> test = ReadSplitFile(dir + "/test.txt");
  if (!test.ok()) return test.status();
  int64_t num_entities = 0;
  int64_t num_relations = 0;
  for (const auto* split : {&train.value(), &valid.value(), &test.value()}) {
    for (const Quadruple& q : *split) {
      num_entities = std::max({num_entities, q.subject + 1, q.object + 1});
      num_relations = std::max(num_relations, q.relation + 1);
    }
  }
  if (num_entities == 0) {
    return Status::InvalidArgument("dataset in " + dir + " is empty");
  }
  return FromQuadruples(std::move(name), num_entities, num_relations,
                        std::move(train).value(), std::move(valid).value(),
                        std::move(test).value());
}

Status TkgDataset::SaveTsv(const std::string& dir) const {
  struct Entry {
    const char* file;
    const std::vector<Quadruple>* facts;
  };
  for (const Entry& entry : {Entry{"train.txt", &train_},
                             Entry{"valid.txt", &valid_},
                             Entry{"test.txt", &test_}}) {
    std::string path = dir + "/" + entry.file;
    std::ofstream out(path);
    if (!out) return Status::IoError("cannot write " + path);
    for (const Quadruple& q : *entry.facts) {
      out << q.subject << '\t' << q.relation << '\t' << q.object << '\t'
          << q.time << '\n';
    }
    if (!out) return Status::IoError("write failed for " + path);
  }
  return Status::Ok();
}

const std::vector<Quadruple>& TkgDataset::split(Split s) const {
  switch (s) {
    case Split::kTrain:
      return train_;
    case Split::kValid:
      return valid_;
    case Split::kTest:
      return test_;
  }
  LOGCL_CHECK(false) << "bad split";
  return train_;
}

const std::vector<Quadruple>& TkgDataset::FactsAt(int64_t t) const {
  static const std::vector<Quadruple> kEmpty;
  if (t < 0 || t >= num_timestamps_) return kEmpty;
  return facts_by_time_[static_cast<size_t>(t)];
}

std::vector<Quadruple> TkgDataset::SplitFactsAt(Split s, int64_t t) const {
  std::vector<Quadruple> out;
  for (const Quadruple& q : split(s)) {
    if (q.time == t) out.push_back(q);
  }
  return out;
}

const std::vector<int64_t>& TkgDataset::SplitTimestamps(Split s) const {
  switch (s) {
    case Split::kTrain:
      return train_times_;
    case Split::kValid:
      return valid_times_;
    case Split::kTest:
      return test_times_;
  }
  LOGCL_CHECK(false) << "bad split";
  return train_times_;
}

std::vector<Quadruple> TkgDataset::WithInverses(
    const std::vector<Quadruple>& facts) const {
  std::vector<Quadruple> out;
  out.reserve(facts.size() * 2);
  out.insert(out.end(), facts.begin(), facts.end());
  for (const Quadruple& q : facts) {
    out.push_back(InverseOf(q, num_base_relations_));
  }
  return out;
}

DatasetStats TkgDataset::Stats() const {
  DatasetStats stats;
  stats.name = name_;
  stats.num_entities = num_entities_;
  stats.num_relations = num_base_relations_;
  stats.num_train = static_cast<int64_t>(train_.size());
  stats.num_valid = static_cast<int64_t>(valid_.size());
  stats.num_test = static_cast<int64_t>(test_.size());
  stats.num_timestamps = num_timestamps_;
  return stats;
}

}  // namespace logcl
