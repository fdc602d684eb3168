// Tests for the TKG data layer: quadruples, vocabulary, dataset container,
// time-aware filter and history index.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "tkg/dataset.h"
#include "tkg/filters.h"
#include "tkg/history_index.h"
#include "tkg/quadruple.h"
#include "tkg/vocabulary.h"

namespace logcl {
namespace {

TEST(QuadrupleTest, InverseRelationRoundTrip) {
  EXPECT_EQ(InverseRelation(0, 5), 5);
  EXPECT_EQ(InverseRelation(5, 5), 0);
  EXPECT_EQ(InverseRelation(3, 5), 8);
  EXPECT_EQ(InverseRelation(InverseRelation(3, 5), 5), 3);
}

TEST(QuadrupleTest, InverseOfSwapsSubjectObject) {
  Quadruple q{1, 2, 3, 7};
  Quadruple inv = InverseOf(q, 4);
  EXPECT_EQ(inv.subject, 3);
  EXPECT_EQ(inv.relation, 6);
  EXPECT_EQ(inv.object, 1);
  EXPECT_EQ(inv.time, 7);
  EXPECT_EQ(InverseOf(inv, 4), q);
}

TEST(QuadrupleTest, HashDistinguishesFields) {
  QuadrupleHash hash;
  EXPECT_NE(hash(Quadruple{1, 2, 3, 4}), hash(Quadruple{1, 2, 4, 3}));
  EXPECT_EQ(hash(Quadruple{1, 2, 3, 4}), hash(Quadruple{1, 2, 3, 4}));
}

TEST(VocabularyTest, GetOrAddAssignsDenseIds) {
  Vocabulary vocab;
  EXPECT_EQ(vocab.GetOrAdd("china"), 0);
  EXPECT_EQ(vocab.GetOrAdd("iran"), 1);
  EXPECT_EQ(vocab.GetOrAdd("china"), 0);
  EXPECT_EQ(vocab.size(), 2);
  EXPECT_EQ(vocab.Name(1), "iran");
}

TEST(VocabularyTest, GetMissingIsNotFound) {
  Vocabulary vocab;
  Result<int64_t> r = vocab.Get("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(vocab.Contains("nope"));
}

TkgDataset TinyDataset() {
  // 4 entities, 2 relations, timestamps 0..4 (train 0-2, valid 3, test 4).
  std::vector<Quadruple> train = {
      {0, 0, 1, 0}, {1, 1, 2, 0}, {0, 0, 1, 1}, {2, 0, 3, 1}, {0, 0, 2, 2},
  };
  std::vector<Quadruple> valid = {{0, 0, 1, 3}, {1, 1, 3, 3}};
  std::vector<Quadruple> test = {{0, 0, 1, 4}, {0, 0, 3, 4}, {2, 1, 0, 4}};
  return TkgDataset::FromQuadruples("tiny", 4, 2, train, valid, test);
}

TEST(TkgDatasetTest, BasicCounts) {
  TkgDataset d = TinyDataset();
  EXPECT_EQ(d.num_entities(), 4);
  EXPECT_EQ(d.num_base_relations(), 2);
  EXPECT_EQ(d.num_relations_with_inverse(), 4);
  EXPECT_EQ(d.num_timestamps(), 5);
  EXPECT_EQ(d.train().size(), 5u);
  EXPECT_EQ(d.valid().size(), 2u);
  EXPECT_EQ(d.test().size(), 3u);
}

TEST(TkgDatasetTest, FactsAtMergesSplits) {
  TkgDataset d = TinyDataset();
  EXPECT_EQ(d.FactsAt(0).size(), 2u);
  EXPECT_EQ(d.FactsAt(3).size(), 2u);  // valid facts
  EXPECT_EQ(d.FactsAt(4).size(), 3u);  // test facts
  EXPECT_TRUE(d.FactsAt(99).empty());
  EXPECT_TRUE(d.FactsAt(-1).empty());
}

TEST(TkgDatasetTest, SplitTimestampsAreSortedDistinct) {
  TkgDataset d = TinyDataset();
  EXPECT_EQ(d.SplitTimestamps(Split::kTrain), (std::vector<int64_t>{0, 1, 2}));
  EXPECT_EQ(d.SplitTimestamps(Split::kValid), (std::vector<int64_t>{3}));
  EXPECT_EQ(d.SplitTimestamps(Split::kTest), (std::vector<int64_t>{4}));
}

TEST(TkgDatasetTest, WithInversesDoublesAndInverts) {
  TkgDataset d = TinyDataset();
  std::vector<Quadruple> facts = {{0, 0, 1, 0}};
  std::vector<Quadruple> augmented = d.WithInverses(facts);
  ASSERT_EQ(augmented.size(), 2u);
  EXPECT_EQ(augmented[1].subject, 1);
  EXPECT_EQ(augmented[1].relation, 2);  // 0 + num_base_relations
  EXPECT_EQ(augmented[1].object, 0);
}

TEST(TkgDatasetTest, SplitFactsAtFiltersByTime) {
  TkgDataset d = TinyDataset();
  EXPECT_EQ(d.SplitFactsAt(Split::kTrain, 1).size(), 2u);
  EXPECT_TRUE(d.SplitFactsAt(Split::kTrain, 4).empty());
}

TEST(TkgDatasetTest, StatsMatch) {
  DatasetStats stats = TinyDataset().Stats();
  EXPECT_EQ(stats.num_entities, 4);
  EXPECT_EQ(stats.num_relations, 2);
  EXPECT_EQ(stats.num_train, 5);
  EXPECT_EQ(stats.num_timestamps, 5);
  EXPECT_NE(stats.ToString().find("tiny"), std::string::npos);
}

TEST(TkgDatasetTest, TsvRoundTrip) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "logcl_tsv_test";
  fs::create_directories(dir);
  TkgDataset original = TinyDataset();
  ASSERT_TRUE(original.SaveTsv(dir.string()).ok());
  Result<TkgDataset> loaded = TkgDataset::LoadTsv(dir.string(), "tiny");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().train(), original.train());
  EXPECT_EQ(loaded.value().valid(), original.valid());
  EXPECT_EQ(loaded.value().test(), original.test());
  EXPECT_EQ(loaded.value().num_entities(), original.num_entities());
  fs::remove_all(dir);
}

TEST(TkgDatasetTest, LoadTsvNegativeIdIsInvalidArgument) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "logcl_tsv_negative_id_test";
  fs::create_directories(dir);
  {
    std::ofstream train(dir / "train.txt");
    train << "0\t0\t1\t0\n"
          << "2\t-1\t1\t0\n";
  }
  for (const char* split : {"valid.txt", "test.txt"}) {
    std::ofstream(dir / split) << "0\t0\t1\t1\n";
  }
  Result<TkgDataset> r = TkgDataset::LoadTsv(dir.string(), "negative");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::string where = (dir / "train.txt").string() + ":2";
  EXPECT_NE(r.status().ToString().find(where), std::string::npos)
      << r.status().ToString();
  fs::remove_all(dir);
}

// Writes a train.txt whose third row carries `bad_row` after two rows at
// the accepted limits, loads the directory and expects InvalidArgument
// naming train.txt:3.
void ExpectThirdTrainRowRejected(const std::string& test_name,
                                 const std::string& limit_row,
                                 const std::string& bad_row) {
  SCOPED_TRACE(test_name);
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / test_name;
  fs::create_directories(dir);
  std::ofstream(dir / "train.txt") << "0\t0\t1\t0\n"
                                   << limit_row << "\n"
                                   << bad_row << "\n";
  for (const char* split : {"valid.txt", "test.txt"}) {
    std::ofstream(dir / split) << "0\t0\t1\t1\n";
  }
  Result<TkgDataset> r = TkgDataset::LoadTsv(dir.string(), test_name);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::string where = (dir / "train.txt").string() + ":3";
  EXPECT_NE(r.status().ToString().find(where), std::string::npos)
      << r.status().ToString();
  fs::remove_all(dir);
}

TEST(TkgDatasetTest, LoadTsvHugeTimestampIsInvalidArgument) {
  ExpectThirdTrainRowRejected(
      "logcl_tsv_huge_time_test",
      "1\t0\t2\t" + std::to_string(TkgDataset::kMaxTimestamp),
      "2\t0\t1\t4000000000000");
}

TEST(TkgDatasetTest, LoadTsvHugeEntityIdIsInvalidArgument) {
  const std::string max = std::to_string(TkgDataset::kMaxEntityId);
  ExpectThirdTrainRowRejected("logcl_tsv_huge_entity_test",
                              "0\t0\t" + max + "\t1",
                              "4000000000000\t0\t1\t1");
  ExpectThirdTrainRowRejected("logcl_tsv_huge_object_test",
                              max + "\t0\t1\t1",
                              "0\t0\t" + std::to_string(
                                  TkgDataset::kMaxEntityId + 1) + "\t1");
}

TEST(TkgDatasetTest, LoadTsvHugeRelationIdIsInvalidArgument) {
  const std::string max = std::to_string(TkgDataset::kMaxRelationId);
  ExpectThirdTrainRowRejected("logcl_tsv_huge_relation_test",
                              "0\t" + max + "\t1\t1",
                              "0\t4000000000000\t1\t1");
}

TEST(TkgDatasetTest, LoadTsvMissingDirFails) {
  Result<TkgDataset> r = TkgDataset::LoadTsv("/nonexistent/dir", "x");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(TimeAwareFilterTest, AnswersOnlySameTimestamp) {
  TkgDataset d = TinyDataset();
  TimeAwareFilter filter(d);
  // (0, 0, ?, 4) has answers {1, 3} at t=4 only.
  EXPECT_EQ(filter.Answers(0, 0, 4), (std::vector<int64_t>{1, 3}));
  // At t=0 the answer set is {1}; t=2 it is {2}.
  EXPECT_EQ(filter.Answers(0, 0, 0), (std::vector<int64_t>{1}));
  EXPECT_EQ(filter.Answers(0, 0, 2), (std::vector<int64_t>{2}));
  EXPECT_TRUE(filter.Answers(3, 1, 0).empty());
}

TEST(TimeAwareFilterTest, CoversInverseQueries) {
  TkgDataset d = TinyDataset();
  TimeAwareFilter filter(d);
  // Inverse of (0, 0, 1, 0): (1, 0+2, 0, 0).
  EXPECT_EQ(filter.Answers(1, 2, 0), (std::vector<int64_t>{0}));
}

TEST(HistoryIndexTest, ObjectsBeforeIsStrictAndDeduped) {
  TkgDataset d = TinyDataset();
  HistoryIndex history(d);
  // (0, 0, *) occurs at t=0 (o=1), t=1 (o=1), t=2 (o=2), t=3 (o=1), t=4.
  EXPECT_TRUE(history.ObjectsBefore(0, 0, 0).empty());
  EXPECT_EQ(history.ObjectsBefore(0, 0, 1), (std::vector<int64_t>{1}));
  EXPECT_EQ(history.ObjectsBefore(0, 0, 3), (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(history.ObjectsBefore(0, 0, 5), (std::vector<int64_t>{1, 2, 3}));
}

TEST(HistoryIndexTest, SeenBeforeAndCount) {
  TkgDataset d = TinyDataset();
  HistoryIndex history(d);
  EXPECT_FALSE(history.SeenBefore(0, 0, 1, 0));
  EXPECT_TRUE(history.SeenBefore(0, 0, 1, 1));
  EXPECT_EQ(history.CountBefore(0, 0, 1, 5), 4);  // t=0,1,3,4
  EXPECT_EQ(history.CountBefore(0, 0, 1, 2), 2);  // t=0 and t=1
}

TEST(HistoryIndexTest, FactsTouchingIncludesInverseSide) {
  TkgDataset d = TinyDataset();
  HistoryIndex history(d);
  // Entity 1 appears as object of (0,0,1) and subject of (1,1,2) at t=0.
  std::vector<HistoryEdge> edges = history.FactsTouchingBefore(1, 1);
  ASSERT_EQ(edges.size(), 2u);
  bool has_inverse = false;
  for (const HistoryEdge& e : edges) {
    if (e.relation == 2 && e.neighbor == 0) has_inverse = true;
  }
  EXPECT_TRUE(has_inverse);
}

TEST(HistoryIndexTest, MaxEdgesKeepsMostRecent) {
  TkgDataset d = TinyDataset();
  HistoryIndex history(d);
  std::vector<HistoryEdge> capped = history.FactsTouchingBefore(0, 5, 2);
  ASSERT_EQ(capped.size(), 2u);
  // The most recent edges for entity 0 are at t=3 (valid) and t=4 (test x2,
  // capped to the last two of the time-sorted list).
  EXPECT_GE(capped.front().time, 3);
}

}  // namespace
}  // namespace logcl
