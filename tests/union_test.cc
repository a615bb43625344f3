// UT-DP union tests (paper Sections 5.2, 6.3): merged rank order across
// trees, consecutive-duplicate elimination under the tie-breaking dioid
// when trees overlap, and a prepared cycle union that merges only the trees
// with answers.

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "anyk/factory.h"
#include "anyk/prepared_query.h"
#include "anyk/union_anyk.h"
#include "dioid/tiebreak.h"
#include "dioid/tropical.h"
#include "dp/stage_graph.h"
#include "query/cq.h"
#include "query/join_tree.h"
#include "test_util.h"
#include "workload/generators.h"

namespace anyk {
namespace {

TEST(UnionTest, MergesDisjointTreesInOrder) {
  // Two databases for the same query shape; tag assignments so we can see
  // both contribute. Tree A has even weights, tree B odd weights.
  Database db_a, db_b;
  auto& a1 = db_a.AddRelation("R1", 2);
  auto& a2 = db_a.AddRelation("R2", 2);
  auto& b1 = db_b.AddRelation("R1", 2);
  auto& b2 = db_b.AddRelation("R2", 2);
  for (Value i = 0; i < 5; ++i) {
    a1.Add({i, 100}, static_cast<double>(2 * i));
    a2.Add({100, i}, 0.0);
    b1.Add({i + 10, 200}, static_cast<double>(2 * i + 1));
    b2.Add({200, i + 10}, 0.0);
  }
  auto q = ConjunctiveQuery::Path(2);
  TDPInstance ia = BuildAcyclicInstance(db_a, q);
  TDPInstance ib = BuildAcyclicInstance(db_b, q);
  auto ga = BuildStageGraph<TropicalDioid>(ia);
  auto gb = BuildStageGraph<TropicalDioid>(ib);
  std::vector<std::unique_ptr<Enumerator<TropicalDioid>>> parts;
  parts.push_back(MakeEnumerator<TropicalDioid>(&ga, Algorithm::kLazy));
  parts.push_back(MakeEnumerator<TropicalDioid>(&gb, Algorithm::kLazy));
  UnionEnumerator<TropicalDioid> u(std::move(parts));
  double prev = -1;
  size_t count = 0;
  while (auto r = u.Next()) {
    EXPECT_GE(r->weight, prev);
    prev = r->weight;
    ++count;
  }
  EXPECT_EQ(count, 50u);  // 25 per tree
}

TEST(UnionTest, DedupWithTieBreakRemovesOverlap) {
  using TB = TieBreakDioid<TropicalDioid, 8>;
  // Feed the SAME instance twice: every result is produced by both trees.
  // Under the tie-breaking dioid duplicates arrive consecutively, so dedup
  // keeps exactly one copy of each.
  GeneratorOptions gen;
  gen.weight_min = 0;
  gen.weight_max = 2;  // plenty of base-weight ties
  gen.fanout = 5.0;
  Database db = MakePathDatabase(30, 3, 91, gen);
  auto q = ConjunctiveQuery::Path(3);
  TDPInstance i1 = BuildAcyclicInstance(db, q);
  TDPInstance i2 = BuildAcyclicInstance(db, q);
  auto g1 = BuildStageGraph<TB>(i1);
  auto g2 = BuildStageGraph<TB>(i2);
  std::vector<std::unique_ptr<Enumerator<TB>>> parts;
  parts.push_back(MakeEnumerator<TB>(&g1, Algorithm::kTake2));
  parts.push_back(MakeEnumerator<TB>(&g2, Algorithm::kTake2));
  UnionEnumerator<TB> u(std::move(parts), /*dedup=*/true);

  auto oracle = testing::Oracle<TB>(db, q);
  size_t count = 0;
  typename TB::Value prev = TB::One();
  while (auto r = u.Next()) {
    if (count > 0) {
      EXPECT_FALSE(TB::Less(r->weight, prev)) << "order violated";
      EXPECT_FALSE(DioidEq<TB>(r->weight, prev))
          << "tie-break must make all emitted weights distinct";
    }
    prev = r->weight;
    ++count;
  }
  EXPECT_EQ(count, oracle.size());
  EXPECT_EQ(u.duplicates_filtered(), oracle.size());
}

// The union's merge runs in NextBatch (NextInto is a one-row batch); the
// duplicate filter must see the same stream however the caller pulls it,
// with and without a union k budget.
TEST(UnionTest, DedupInPagesFiltersTheSameDuplicates) {
  using TB = TieBreakDioid<TropicalDioid, 8>;
  GeneratorOptions gen;
  gen.weight_min = 0;
  gen.weight_max = 2;
  gen.fanout = 5.0;
  Database db = MakePathDatabase(30, 3, 93, gen);
  auto q = ConjunctiveQuery::Path(3);
  TDPInstance inst = BuildAcyclicInstance(db, q);
  auto g = BuildStageGraph<TB>(inst);
  // Three overlapping copies of one tree.
  auto make_union = [&](size_t k_budget) {
    std::vector<std::unique_ptr<Enumerator<TB>>> parts;
    parts.push_back(MakeEnumerator<TB>(&g, Algorithm::kRecursive));
    parts.push_back(MakeEnumerator<TB>(&g, Algorithm::kTake2));
    parts.push_back(MakeEnumerator<TB>(&g, Algorithm::kRecursive));
    return UnionEnumerator<TB>(std::move(parts), /*dedup=*/true, k_budget);
  };
  const size_t out_size = testing::Oracle<TB>(db, q).size();
  ASSERT_GT(out_size, 200u) << "instance too small to span many pages";
  for (const size_t k_budget : {size_t{0}, size_t{37}, out_size - 1}) {
    UnionEnumerator<TB> rows = make_union(k_budget);
    std::vector<ResultRow<TB>> want;
    ResultRow<TB> row;
    while (rows.NextInto(&row)) want.push_back(row);
    ASSERT_EQ(want.size(), k_budget == 0 ? out_size : k_budget);

    UnionEnumerator<TB> paged = make_union(k_budget);
    std::vector<ResultRow<TB>> page(5);
    size_t got_total = 0;
    while (true) {
      const size_t got = paged.NextBatch(page.data(), page.size());
      for (size_t b = 0; b < got; ++b) {
        ASSERT_LT(got_total, want.size());
        EXPECT_TRUE(DioidEq<TB>(page[b].weight, want[got_total].weight))
            << "k_budget=" << k_budget << " rank " << got_total;
        EXPECT_EQ(page[b].assignment, want[got_total].assignment);
        EXPECT_EQ(page[b].witness, want[got_total].witness);
        ++got_total;
      }
      if (got < page.size()) break;
    }
    EXPECT_EQ(got_total, want.size()) << "k_budget=" << k_budget;
    EXPECT_EQ(paged.duplicates_filtered(), rows.duplicates_filtered())
        << "k_budget=" << k_budget;
    if (k_budget == 0) {
      EXPECT_EQ(paged.duplicates_filtered(), 2 * out_size);
    }
  }
}

TEST(UnionTest, WithoutDedupEmitsDuplicates) {
  Database db = MakePathDatabase(10, 2, 92, {.fanout = 3.0});
  auto q = ConjunctiveQuery::Path(2);
  TDPInstance i1 = BuildAcyclicInstance(db, q);
  TDPInstance i2 = BuildAcyclicInstance(db, q);
  auto g1 = BuildStageGraph<TropicalDioid>(i1);
  auto g2 = BuildStageGraph<TropicalDioid>(i2);
  const size_t out_size = [&] {
    auto e = MakeEnumerator<TropicalDioid>(&g1, Algorithm::kBatch);
    size_t n = 0;
    while (e->Next()) ++n;
    return n;
  }();
  std::vector<std::unique_ptr<Enumerator<TropicalDioid>>> parts;
  parts.push_back(MakeEnumerator<TropicalDioid>(&g1, Algorithm::kLazy));
  parts.push_back(MakeEnumerator<TropicalDioid>(&g2, Algorithm::kLazy));
  UnionEnumerator<TropicalDioid> u(std::move(parts), /*dedup=*/false);
  size_t count = 0;
  while (u.Next()) ++count;
  EXPECT_EQ(count, 2 * out_size);
}

TEST(UnionTest, EmptyPartsHandled) {
  std::vector<std::unique_ptr<Enumerator<TropicalDioid>>> parts;
  UnionEnumerator<TropicalDioid> empty(std::move(parts));
  EXPECT_FALSE(empty.Next().has_value());
}

// Trees of a prepared cycle union that hold at least one answer.
size_t LiveTrees(const PreparedQuery<TropicalDioid>& pq) {
  size_t live = 0;
  for (const auto& g : pq.graphs()) live += g->Empty() ? 0 : 1;
  return live;
}

bool OpensAUnion(const PreparedQuery<TropicalDioid>& pq, Algorithm algo) {
  EnumerationSession<TropicalDioid> session = pq.NewSession(algo);
  return dynamic_cast<UnionEnumerator<TropicalDioid>*>(
             session.enumerator()) != nullptr;
}

size_t DrainCount(const PreparedQuery<TropicalDioid>& pq, Algorithm algo) {
  EnumerationSession<TropicalDioid> session = pq.NewSession(algo);
  std::vector<ResultRow<TropicalDioid>> rows(64);
  size_t count = 0;
  while (true) {
    const size_t got = session.NextBatch(rows.data(), rows.size());
    count += got;
    if (got < rows.size()) return count;
  }
}

TEST(UnionTest, CycleUnionOpensOnlyLiveParts) {
  // A uniform 4-cycle (about 4 rows per join value, far under the heavy
  // threshold sqrt(n) = 20) answers from its all-light tree alone: the
  // session runs that tree's enumerator with no union around it.
  const auto q = ConjunctiveQuery::Cycle(4);
  const Database uniform = MakePathDatabase(400, 4, 3, {.fanout = 4.0});
  const PreparedQuery<TropicalDioid> one(uniform, q);
  ASSERT_EQ(one.plan(), QueryPlan::kCycleUnion);
  ASSERT_EQ(one.NumTrees(), 5u);
  ASSERT_EQ(LiveTrees(one), 1u);
  for (Algorithm algo : AllRankedAlgorithms()) {
    SCOPED_TRACE(AlgorithmName(algo));
    EXPECT_FALSE(OpensAUnion(one, algo));
    EXPECT_EQ(static_cast<double>(DrainCount(one, algo)),
              one.decision().stats.output_count);
  }

  // The worst-case cycle joins everything through value 0, which is heavy
  // in every relation: several trees answer, and they still merge.
  const Database worst = MakeWorstCaseCycleDatabase(200, 4, 5);
  const PreparedQuery<TropicalDioid> several(worst, q);
  ASSERT_GE(LiveTrees(several), 2u);
  for (Algorithm algo : AllRankedAlgorithms()) {
    SCOPED_TRACE(AlgorithmName(algo));
    EXPECT_TRUE(OpensAUnion(several, algo));
    EXPECT_EQ(static_cast<double>(DrainCount(several, algo)),
              several.decision().stats.output_count);
  }

  // No answers at all: the session is the first tree's (empty) stream.
  Database none;
  for (int i = 1; i <= 4; ++i) {
    none.AddRelation("R" + std::to_string(i), 2).Add({i, 10 * i}, 1.0);
  }
  const PreparedQuery<TropicalDioid> empty(none, q);
  ASSERT_EQ(LiveTrees(empty), 0u);
  EXPECT_FALSE(OpensAUnion(empty, Algorithm::kLazy));
  EXPECT_EQ(DrainCount(empty, Algorithm::kLazy), 0u);
}

}  // namespace
}  // namespace anyk
