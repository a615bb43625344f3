// Robustness and determinism: repeated runs are bit-identical, independent
// enumerators over one stage graph do not interfere, negative weights and
// duplicate-heavy inputs are handled, and medium-scale top-k prefixes agree
// with a partial-sort oracle.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "anyk/factory.h"
#include "dioid/tropical.h"
#include "dp/stage_graph.h"
#include "join/brute_force.h"
#include "query/cq.h"
#include "query/join_tree.h"
#include "storage/group_index.h"
#include "storage/kernels.h"
#include "test_util.h"
#include "workload/generators.h"

namespace anyk {
namespace {

std::string AlgoName(const ::testing::TestParamInfo<Algorithm>& info) {
  return AlgorithmName(info.param);
}

class RobustnessTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(RobustnessTest, DeterministicAcrossRuns) {
  Database db = MakePathDatabase(60, 3, 601, {.fanout = 6.0});
  ConjunctiveQuery q = ConjunctiveQuery::Path(3);
  TDPInstance inst = BuildAcyclicInstance(db, q);
  StageGraph<TropicalDioid> g = BuildStageGraph<TropicalDioid>(inst);
  auto run = [&] {
    auto e = MakeEnumerator<TropicalDioid>(&g, GetParam());
    std::vector<std::pair<double, std::vector<uint32_t>>> out;
    while (auto r = e->Next()) out.emplace_back(r->weight, r->witness);
    return out;
  };
  EXPECT_EQ(run(), run());
}

TEST_P(RobustnessTest, InterleavedEnumeratorsAreIndependent) {
  Database db = MakePathDatabase(50, 3, 602, {.fanout = 5.0});
  ConjunctiveQuery q = ConjunctiveQuery::Path(3);
  TDPInstance inst = BuildAcyclicInstance(db, q);
  StageGraph<TropicalDioid> g = BuildStageGraph<TropicalDioid>(inst);
  auto a = MakeEnumerator<TropicalDioid>(&g, GetParam());
  auto b = MakeEnumerator<TropicalDioid>(&g, GetParam());
  // Advance a by 10, then run both in lockstep; b must see rank 1..k while a
  // sees 11..k+10, i.e. identical streams with an offset.
  std::vector<double> head;
  for (int i = 0; i < 10; ++i) {
    auto r = a->Next();
    if (!r) break;
    head.push_back(r->weight);
  }
  std::vector<double> sa, sb;
  while (true) {
    auto ra = a->Next();
    auto rb = b->Next();
    if (!rb) {
      EXPECT_FALSE(ra.has_value());
      break;
    }
    if (ra) sa.push_back(ra->weight);
    sb.push_back(rb->weight);
  }
  // b's first results equal the head a consumed.
  ASSERT_GE(sb.size(), head.size());
  for (size_t i = 0; i < head.size(); ++i) {
    EXPECT_DOUBLE_EQ(sb[i], head[i]);
  }
}

TEST_P(RobustnessTest, NegativeWeights) {
  GeneratorOptions gen;
  gen.weight_min = -5000;
  gen.weight_max = 5000;
  gen.fanout = 5.0;
  Database db = MakePathDatabase(35, 3, 603, gen);
  ConjunctiveQuery q = ConjunctiveQuery::Path(3);
  TDPInstance inst = BuildAcyclicInstance(db, q);
  StageGraph<TropicalDioid> g = BuildStageGraph<TropicalDioid>(inst);
  auto e = MakeEnumerator<TropicalDioid>(&g, GetParam());
  testing::ExpectMatchesOracle<TropicalDioid>(e.get(), db, q);
}

TEST_P(RobustnessTest, DuplicateHeavyRelations) {
  // Tiny domain + duplicate rows: many identical assignments with distinct
  // witnesses must all be enumerated.
  Rng rng(604);
  Database db;
  for (int i = 1; i <= 3; ++i) {
    auto& rel = db.AddRelation("R" + std::to_string(i), 2);
    for (int t = 0; t < 30; ++t) {
      rel.Add({rng.Uniform(0, 1), rng.Uniform(0, 1)},
              static_cast<double>(rng.Uniform(0, 3)));
    }
  }
  ConjunctiveQuery q = ConjunctiveQuery::Path(3);
  TDPInstance inst = BuildAcyclicInstance(db, q);
  StageGraph<TropicalDioid> g = BuildStageGraph<TropicalDioid>(inst);
  auto e = MakeEnumerator<TropicalDioid>(&g, GetParam());
  testing::ExpectMatchesOracle<TropicalDioid>(e.get(), db, q);
}

TEST_P(RobustnessTest, MediumScaleTopKPrefix) {
  // Larger instance: check only the top-500 prefix against a partial-sorted
  // brute-force oracle (the full output would be slow to verify per rank).
  Database db = MakePathDatabase(1500, 4, 605);
  ConjunctiveQuery q = ConjunctiveQuery::Path(4);
  auto oracle = testing::Oracle<TropicalDioid>(db, q);
  TDPInstance inst = BuildAcyclicInstance(db, q);
  StageGraph<TropicalDioid> g = BuildStageGraph<TropicalDioid>(inst);
  auto e = MakeEnumerator<TropicalDioid>(&g, GetParam());
  for (size_t i = 0; i < 500 && i < oracle.size(); ++i) {
    auto r = e->Next();
    ASSERT_TRUE(r.has_value());
    ASSERT_DOUBLE_EQ(r->weight, oracle[i].weight) << "rank " << i;
  }
}

TEST_P(RobustnessTest, EmptyResultJoin) {
  // Disjoint join-key domains: every branch dead-ends during the semi-join
  // reduction, so the stage graph is empty and enumeration ends immediately.
  Database db;
  auto& r1 = db.AddRelation("R1", 2);
  auto& r2 = db.AddRelation("R2", 2);
  for (int i = 0; i < 20; ++i) {
    r1.Add({i, 100 + i}, 1.0);    // x2 values 100..119
    r2.Add({500 + i, i}, 1.0);    // x2 values 500..519: never match
  }
  ConjunctiveQuery q = ConjunctiveQuery::Path(2);
  TDPInstance inst = BuildAcyclicInstance(db, q);
  StageGraph<TropicalDioid> g = BuildStageGraph<TropicalDioid>(inst);
  auto e = MakeEnumerator<TropicalDioid>(&g, GetParam());
  EXPECT_FALSE(e->Next().has_value());
  ResultRow<TropicalDioid> row;
  EXPECT_FALSE(e->NextInto(&row));
  testing::ExpectMatchesOracle<TropicalDioid>(e.get(), db, q);
}

TEST_P(RobustnessTest, EmptyRelationInput) {
  // One relation has no rows at all.
  Database db;
  auto& r1 = db.AddRelation("R1", 2);
  db.AddRelation("R2", 2);  // empty
  r1.Add({1, 2}, 1.0);
  ConjunctiveQuery q = ConjunctiveQuery::Path(2);
  TDPInstance inst = BuildAcyclicInstance(db, q);
  StageGraph<TropicalDioid> g = BuildStageGraph<TropicalDioid>(inst);
  auto e = MakeEnumerator<TropicalDioid>(&g, GetParam());
  EXPECT_FALSE(e->Next().has_value());
}

TEST(ZeroArityTest, RelationTracksRowCount) {
  // Zero-arity relations are nullary facts with multiplicity: NumRows must
  // count the added rows even though there are no value columns.
  Relation nullary("Z", 0);
  EXPECT_EQ(nullary.NumRows(), 0u);
  nullary.AddRow({}, 2.5);
  nullary.AddRow({}, 1.5);
  EXPECT_EQ(nullary.NumRows(), 2u);
  EXPECT_DOUBLE_EQ(nullary.Weight(0), 2.5);
  EXPECT_DOUBLE_EQ(nullary.Weight(1), 1.5);
  EXPECT_TRUE(nullary.Row(0).empty());
  nullary.Clear();
  EXPECT_EQ(nullary.NumRows(), 0u);
}

TEST(ZeroArityTest, GroupIndexOverZeroArityRelation) {
  Relation nullary("Z", 0);
  nullary.AddRow({}, 1.0);
  nullary.AddRow({}, 2.0);
  GroupIndex idx(nullary, std::span<const uint32_t>{});
  ASSERT_EQ(idx.NumGroups(), 1u);  // all rows under the empty key
  EXPECT_EQ(idx.Lookup(Key{}).size(), 2u);
}

TEST(ZeroArityTest, ZeroArityJoinActsAsMultiplicity) {
  // Q() :- R(x, y), Z(): the nullary atom joins on the empty key, so the
  // output is the cross product — every R row paired with every Z fact.
  Database db;
  auto& r = db.AddRelation("R", 2);
  r.Add({1, 10}, 1.0);
  r.Add({2, 20}, 2.0);
  auto& z = db.AddRelation("Z", 0);
  z.AddRow({}, 5.0);
  z.AddRow({}, 7.0);
  ConjunctiveQuery q;
  q.AddAtom("R", {"x", "y"});
  q.AddAtom("Z", {});
  const JoinResultSet join = BruteForceJoin(db, q);
  EXPECT_EQ(join.size(), 4u);  // 2 rows x 2 nullary facts
}

TEST(ZeroArityTest, ZeroArityJoinWithNoFactsIsEmpty) {
  // A zero-arity relation with no rows makes the conjunction false.
  Database db;
  auto& r = db.AddRelation("R", 2);
  r.Add({1, 10}, 1.0);
  db.AddRelation("Z", 0);  // no facts
  ConjunctiveQuery q;
  q.AddAtom("R", {"x", "y"});
  q.AddAtom("Z", {});
  const JoinResultSet join = BruteForceJoin(db, q);
  EXPECT_EQ(join.size(), 0u);
}

TEST(ZeroArityTest, ColumnViewsAreWellDefinedForDegenerateShapes) {
  // Columnar storage must keep every accessor total on the degenerate
  // shapes: arity-0 relations (no columns at all) and 0-row relations
  // (columns exist but every ColumnView is empty).
  Relation nullary("Z", 0);
  nullary.AddRow({}, 1.0);
  EXPECT_TRUE(nullary.Row(0).empty());
  EXPECT_EQ(nullary.Weights().size(), 1u);

  Relation empty("E", 2);
  EXPECT_EQ(empty.NumRows(), 0u);
  for (size_t c = 0; c < empty.arity(); ++c) {
    ColumnView col = empty.Column(c);
    EXPECT_TRUE(col.empty());
    EXPECT_TRUE(empty.ColumnStatsOf(c).empty());
  }
  EXPECT_TRUE(empty.Weights().empty());

  // The bind kernels must accept n=0 over these (possibly null) column
  // pointers without touching memory — this is exactly what a dead-ended
  // stage hands them.
  Value out = -1;
  uint32_t uout = 7;
  Gather(empty.ColumnData(0), nullptr, 0, &out);
  GatherToStride(empty.ColumnData(0), nullptr, 0, &out, 3);
  GatherU32(nullptr, nullptr, 0, &uout);
  GatherU32Strided(nullptr, 2, 1, nullptr, 0, &uout);
  CopyStridedU32(nullptr, 2, 0, 0, &uout);
  SpreadToStride(empty.ColumnData(1), 0, &out, 2);
  EXPECT_EQ(out, -1);
  EXPECT_EQ(uout, 7u);
}

TEST(ZeroArityTest, ColumnChunkAppendOnDegenerateShapes) {
  // AppendColumnChunk (the CSV loader's shard flush) with zero rows is a
  // no-op; on a zero-arity relation it appends facts (weights) only.
  Relation rel("R", 2);
  rel.AppendColumnChunk({}, {});
  EXPECT_EQ(rel.NumRows(), 0u);

  Relation nullary("Z", 0);
  const double w[] = {2.5, 0.5};
  nullary.AppendColumnChunk({}, w);
  ASSERT_EQ(nullary.NumRows(), 2u);
  EXPECT_DOUBLE_EQ(nullary.Weight(1), 0.5);
  EXPECT_TRUE(nullary.Row(1).empty());
}

TEST(ZeroArityTest, GroupIndexOverEmptyRelation) {
  // The column-strided GroupIndex build must be total on 0-row input
  // (SpreadToStride over an empty column).
  Relation empty("E", 2);
  const std::vector<uint32_t> key_cols = {0};
  GroupIndex idx(empty, key_cols);
  EXPECT_EQ(idx.NumGroups(), 0u);
  EXPECT_EQ(idx.Find(Key{42}), -1);
  EXPECT_TRUE(idx.Lookup(Key{42}).empty());
}

INSTANTIATE_TEST_SUITE_P(Algos, RobustnessTest,
                         ::testing::ValuesIn(AllRankedAlgorithms()), AlgoName);

}  // namespace
}  // namespace anyk
