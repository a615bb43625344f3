// Cross-checks of the standalone join engines: GenericJoin (NPRR-style
// WCOJ), the reference hash-join executor, and Rank-Join — all against the
// brute-force oracle.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "join/brute_force.h"
#include "join/generic_join.h"
#include "join/rank_join.h"
#include "join/reference_executor.h"
#include "dioid/tropical.h"
#include "query/cq.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/paper_instances.h"

namespace anyk {
namespace {

std::multiset<std::vector<uint32_t>> WitnessSet(const JoinResultSet& rs) {
  std::multiset<std::vector<uint32_t>> out;
  for (size_t i = 0; i < rs.size(); ++i) {
    out.insert(std::vector<uint32_t>(rs.witness(i),
                                     rs.witness(i) + rs.num_atoms));
  }
  return out;
}

TEST(GenericJoinTest, MatchesBruteForceOnCycles) {
  for (size_t l : {3u, 4u, 5u}) {
    Database db = MakePathDatabase(30, l, 11 + l, {.fanout = 5.0});
    auto q = ConjunctiveQuery::Cycle(l);
    EXPECT_EQ(WitnessSet(GenericJoin(db, q)),
              WitnessSet(BruteForceJoin(db, q)))
        << "cycle length " << l;
  }
}

TEST(GenericJoinTest, MatchesBruteForceOnPathsAndStars) {
  Database db = MakePathDatabase(30, 4, 17, {.fanout = 5.0});
  for (auto q : {ConjunctiveQuery::Path(4), ConjunctiveQuery::Star(4)}) {
    EXPECT_EQ(WitnessSet(GenericJoin(db, q)),
              WitnessSet(BruteForceJoin(db, q)));
  }
}

TEST(GenericJoinTest, DuplicateRowsYieldAllWitnesses) {
  Database db;
  auto& r1 = db.AddRelation("R1", 2);
  r1.Add({1, 2}, 1.0);
  r1.Add({1, 2}, 5.0);  // duplicate values, distinct witness
  auto& r2 = db.AddRelation("R2", 2);
  r2.Add({2, 3}, 1.0);
  auto q = ConjunctiveQuery::Path(2);
  EXPECT_EQ(GenericJoin(db, q).size(), 2u);
}

TEST(GenericJoinTest, TriangleOnI1StyleData) {
  Database db = MakeWorstCaseCycleDatabase(12, 3, 19);
  auto q = ConjunctiveQuery::Cycle(3);
  EXPECT_EQ(WitnessSet(GenericJoin(db, q)),
            WitnessSet(BruteForceJoin(db, q)));
}

TEST(ReferenceExecutorTest, MatchesOracleSortedWeights) {
  Database db = MakePathDatabase(35, 3, 23, {.fanout = 6.0});
  auto q = ConjunctiveQuery::Path(3);
  BatchOutput out = ReferenceHashJoin(db, q);
  auto oracle = testing::Oracle<TropicalDioid>(db, q);
  ASSERT_EQ(out.size(), oracle.size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(out.weight(i), oracle[i].weight) << "rank " << i;
  }
}

TEST(ReferenceExecutorTest, HandlesCyclesViaResidualJoin) {
  Database db = MakePathDatabase(25, 4, 29, {.fanout = 5.0});
  auto q = ConjunctiveQuery::Cycle(4);
  BatchOutput out = ReferenceHashJoin(db, q);
  EXPECT_EQ(out.size(), BruteForceJoin(db, q).size());
}

TEST(RankJoinTest, AscendingOrderMatchesOracle) {
  Database db = MakePathDatabase(30, 3, 31, {.fanout = 5.0});
  auto q = ConjunctiveQuery::Path(3);
  auto oracle = testing::Oracle<TropicalDioid>(db, q);
  RankJoin rj(db, q);
  size_t i = 0;
  while (auto t = rj.Next()) {
    ASSERT_LT(i, oracle.size());
    EXPECT_DOUBLE_EQ(t->weight, oracle[i].weight) << "rank " << i;
    ++i;
  }
  EXPECT_EQ(i, oracle.size());
}

TEST(RankJoinTest, TwoWayJoinValues) {
  Database db;
  auto& r1 = db.AddRelation("R1", 2);
  r1.Add({1, 2}, 5.0);
  r1.Add({4, 2}, 1.0);
  auto& r2 = db.AddRelation("R2", 2);
  r2.Add({2, 7}, 2.0);
  r2.Add({2, 8}, 10.0);
  RankJoin rj(db, ConjunctiveQuery::Path(2));
  auto t1 = rj.Next();
  ASSERT_TRUE(t1.has_value());
  EXPECT_DOUBLE_EQ(t1->weight, 3.0);
  EXPECT_EQ(t1->values, (std::vector<Value>{4, 2, 7}));
  auto t2 = rj.Next();
  EXPECT_DOUBLE_EQ(t2->weight, 7.0);
  auto t3 = rj.Next();
  EXPECT_DOUBLE_EQ(t3->weight, 11.0);
  auto t4 = rj.Next();
  EXPECT_DOUBLE_EQ(t4->weight, 15.0);
  EXPECT_FALSE(rj.Next().has_value());
}

TEST(RankJoinTest, PullsQuadraticallyOnI2) {
  // Section 9.1.3: on I2 (under max-first ranking, realized by negating
  // weights), Rank-Join explores all (n-1)^2 R1 x R2 combinations before the
  // top result. We verify the join_combinations counter scales ~n^2.
  auto negate = [](Database db) {
    for (int i = 1; i <= 3; ++i) {
      auto& rel = db.GetMutable("R" + std::to_string(i));
      for (size_t r = 0; r < rel.NumRows(); ++r) rel.SetWeight(r, -rel.Weight(r));
    }
    return db;
  };
  const size_t n1 = 40, n2 = 80;
  Database db1 = negate(MakeI2Database(n1));
  Database db2 = negate(MakeI2Database(n2));
  auto q = ConjunctiveQuery::Path(3);
  RankJoin rj1(db1, q), rj2(db2, q);
  ASSERT_TRUE(rj1.Next().has_value());
  ASSERT_TRUE(rj2.Next().has_value());
  const double ratio = static_cast<double>(rj2.stats().join_combinations) /
                       static_cast<double>(rj1.stats().join_combinations);
  // Doubling n should ~quadruple the combinations examined.
  EXPECT_GT(ratio, 2.5);
}

TEST(BruteForceTest, SelfJoinAndRepeatedVars) {
  Database db;
  auto& e = db.AddRelation("E", 2);
  e.Add({1, 1}, 1.0);
  e.Add({1, 2}, 2.0);
  e.Add({2, 1}, 3.0);
  // Loops: E(x,x) joined with E(x,y).
  ConjunctiveQuery q;
  q.AddAtom("E", {"x", "x"});
  q.AddAtom("E", {"x", "y"});
  auto rs = BruteForceJoin(db, q);
  EXPECT_EQ(rs.size(), 2u);  // (1,1)x(1,1), (1,1)x(1,2)
}

}  // namespace
}  // namespace anyk
