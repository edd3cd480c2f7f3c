#include "ranking/model.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace sqlcheck {
namespace {

TEST(RankingModelTest, Figure6FormulaeExactValues) {
  // Reproduces Example 6 / Figure 7 of the paper.
  ApMetrics index_underuse;
  index_underuse.read_speedup = 1.5;
  ApMetrics enum_types;
  enum_types.write_speedup = 10.0;
  enum_types.maintainability = 2.0;
  enum_types.data_amplification = 1.0;

  RankingModel c1(RankingWeights::C1());
  EXPECT_NEAR(c1.Score(index_underuse), 0.21, 1e-9);   // 0.7 * min(1, 1.5/5)
  EXPECT_NEAR(c1.Score(enum_types), 0.175, 1e-9);      // 0.15 + 0.02 + 0.005

  RankingModel c2(RankingWeights::C2());
  EXPECT_NEAR(c2.Score(index_underuse), 0.12, 1e-9);
  EXPECT_NEAR(c2.Score(enum_types), 0.445, 1e-9);      // paper rounds to 0.47
}

TEST(RankingModelTest, SquashingSaturatesAtOne) {
  ApMetrics huge;
  huge.read_speedup = 10000.0;
  RankingModel model(RankingWeights::C1());
  EXPECT_NEAR(model.Score(huge), 0.7, 1e-9);  // Wrp * min(1, ...) = Wrp
}

TEST(RankingModelTest, NoImprovementScoresZero) {
  ApMetrics flat;
  flat.read_speedup = 1.0;  // ratio 1.0 = no change
  flat.write_speedup = 0.9;
  RankingModel model;
  EXPECT_DOUBLE_EQ(model.Score(flat), 0.0);
}

TEST(RankingModelTest, RankSortsDescending) {
  Detection high;
  high.type = AntiPattern::kMultiValuedAttribute;  // huge read speedup
  Detection low;
  low.type = AntiPattern::kGenericPrimaryKey;  // maintainability only
  RankingModel model;
  auto ranked = model.Rank({low, high, low});
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].detection.type, AntiPattern::kMultiValuedAttribute);
  EXPECT_GE(ranked[0].score, ranked[1].score);
  EXPECT_GE(ranked[1].score, ranked[2].score);
}

TEST(RankingModelTest, QueryAwareAdjustment) {
  // §5.2: a detection on a read-only statement cannot claim write speedup.
  sql::SelectStatement select_stmt;
  sql::InsertStatement insert_stmt;
  Detection on_select;
  on_select.type = AntiPattern::kEnumeratedTypes;  // write-heavy metrics
  on_select.stmt = &select_stmt;
  Detection on_insert = on_select;
  on_insert.stmt = &insert_stmt;

  RankingModel model(RankingWeights::C2());
  double select_score = model.ScoreDetection(on_select).score;
  double insert_score = model.ScoreDetection(on_insert).score;
  EXPECT_LT(select_score, insert_score);
}

TEST(RankingModelTest, ByApCountModeGroupsBusyQueries) {
  Detection a1;
  a1.type = AntiPattern::kGenericPrimaryKey;  // low score
  a1.query = "q_busy";
  Detection a2 = a1;
  a2.type = AntiPattern::kColumnWildcard;
  Detection b;
  b.type = AntiPattern::kMultiValuedAttribute;  // highest score
  b.query = "q_single";

  RankingModel by_count(RankingWeights::C1(), InterQueryMode::kByApCount);
  auto ranked = by_count.Rank({b, a1, a2});
  // The two-AP query outranks the single high-scoring one in count mode.
  EXPECT_EQ(ranked[0].detection.query, "q_busy");

  RankingModel by_score(RankingWeights::C1(), InterQueryMode::kByScore);
  auto ranked2 = by_score.Rank({b, a1, a2});
  EXPECT_EQ(ranked2[0].detection.query, "q_single");
}

TEST(RankingModelTest, ByApCountCountsEachDataFindingAlone) {
  // Data findings carry no query. Each is its own one-AP "query": three of
  // them must not pool into a three-AP group that outranks a real query.
  Detection data;
  data.type = AntiPattern::kRedundantColumn;
  data.table = "t";
  Detection busy1;
  busy1.type = AntiPattern::kGenericPrimaryKey;
  busy1.query = "q_busy";
  Detection busy2 = busy1;
  busy2.type = AntiPattern::kColumnWildcard;
  Detection single;
  single.type = AntiPattern::kMultiValuedAttribute;
  single.query = "q_single";

  RankingModel by_count(RankingWeights::C1(), InterQueryMode::kByApCount);
  auto ranked = by_count.Rank({data, data, single, busy1, data, busy2});
  ASSERT_EQ(ranked.size(), 6u);
  // q_busy (2 APs) first, by score within; then the one-AP findings by score
  // (q_single's 636x read speedup leads), ties in input order.
  EXPECT_EQ(ranked[0].detection.query, "q_busy");
  EXPECT_EQ(ranked[1].detection.query, "q_busy");
  EXPECT_GE(ranked[0].score, ranked[1].score);
  EXPECT_EQ(ranked[2].detection.query, "q_single");
  for (size_t i = 3; i < ranked.size(); ++i) {
    EXPECT_TRUE(ranked[i].detection.query.empty()) << i;
    EXPECT_EQ(ranked[i].detection.type, AntiPattern::kRedundantColumn) << i;
  }
}

TEST(RankingModelTest, ByApCountOrdersByCountThenScoreThenInput) {
  // Per-query counts: q3 has three APs, q2 two, q1 one.
  auto make = [](AntiPattern type, const char* query, const char* message) {
    Detection d;
    d.type = type;
    d.query = query;
    d.message = message;
    return d;
  };
  std::vector<Detection> input = {
      make(AntiPattern::kMultiValuedAttribute, "q1", "a"),
      make(AntiPattern::kGenericPrimaryKey, "q2", "b"),
      make(AntiPattern::kGenericPrimaryKey, "q3", "c"),
      make(AntiPattern::kMultiValuedAttribute, "q2", "d"),
      make(AntiPattern::kGenericPrimaryKey, "q3", "e"),
      make(AntiPattern::kOrderingByRand, "q3", "f"),
  };
  RankingModel by_count(RankingWeights::C1(), InterQueryMode::kByApCount);
  std::string order;
  for (const auto& r : by_count.Rank(input)) order += r.detection.message;
  // q3: f (RAND, 0.7) then c, e (equal scores, input order); q2: d then b.
  EXPECT_EQ(order, "fcedba");
}

TEST(RankingModelTest, ByScoreKeepsInputOrderAmongEqualScores) {
  // The default mode is a stable descending sort on score alone: equal
  // scores keep their input order, whatever their query counts.
  auto make = [](AntiPattern type, const char* query, const char* message) {
    Detection d;
    d.type = type;
    d.query = query;
    d.message = message;
    return d;
  };
  std::vector<Detection> input = {
      make(AntiPattern::kGenericPrimaryKey, "q1", "a"),
      make(AntiPattern::kMultiValuedAttribute, "q2", "b"),
      make(AntiPattern::kGenericPrimaryKey, "q3", "c"),
      make(AntiPattern::kGenericPrimaryKey, "q3", "d"),
      make(AntiPattern::kMultiValuedAttribute, "", "e"),
      make(AntiPattern::kGenericPrimaryKey, "", "f"),
  };
  RankingModel by_score;
  std::string order;
  double previous = 1e9;
  for (const auto& r : by_score.Rank(input)) {
    order += r.detection.message;
    EXPECT_LE(r.score, previous);
    previous = r.score;
    EXPECT_EQ(r.score, by_score.ScoreDetection(r.detection).score);
  }
  EXPECT_EQ(order, "beacdf");
}

TEST(MetricsStoreTest, DefaultsCoverEveryType) {
  MetricsStore store = MetricsStore::Default();
  // Spot-check the calibration rows cited from the paper.
  EXPECT_NEAR(store.For(AntiPattern::kMultiValuedAttribute).read_speedup, 636.0, 1e-9);
  EXPECT_NEAR(store.For(AntiPattern::kIndexUnderuse).read_speedup, 1.5, 1e-9);
  EXPECT_NEAR(store.For(AntiPattern::kEnumeratedTypes).write_speedup, 10.0, 1e-9);
}

TEST(MetricsStoreTest, RecordObservationBlends) {
  MetricsStore store = MetricsStore::Default();
  ApMetrics observed;
  observed.read_speedup = 3.0;
  observed.accuracy = 1;
  double before = store.For(AntiPattern::kIndexUnderuse).read_speedup;
  store.RecordObservation(AntiPattern::kIndexUnderuse, observed, 0.5);
  const ApMetrics& after = store.For(AntiPattern::kIndexUnderuse);
  EXPECT_NEAR(after.read_speedup, 0.5 * before + 0.5 * 3.0, 1e-9);
  EXPECT_EQ(after.accuracy, 1);  // binary flags stick
}

}  // namespace
}  // namespace sqlcheck
