// Theta-join path queries (paper Section 2.1): private per-state connectors,
// checked against a nested-loop oracle for <, !=, and band predicates under
// every algorithm.

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "anyk/factory.h"
#include "dioid/max_plus.h"
#include "dioid/max_times.h"
#include "dioid/min_max.h"
#include "dioid/tropical.h"
#include "dp/theta.h"
#include "plan/stats.h"
#include "util/random.h"
#include "workload/generators.h"

#include "test_util.h"

namespace anyk {
namespace {

std::string AlgoName(const ::testing::TestParamInfo<Algorithm>& info) {
  return AlgorithmName(info.param);
}

// Nested-loop oracle over the chain with the same predicates.
std::vector<double> ThetaOracle(const std::vector<const Relation*>& rels,
                                const std::vector<ThetaPredicate>& thetas) {
  std::vector<double> weights;
  std::vector<size_t> pick(rels.size(), 0);
  auto recurse = [&](auto&& self, size_t i, double w) -> void {
    if (i == rels.size()) {
      weights.push_back(w);
      return;
    }
    for (size_t r = 0; r < rels[i]->NumRows(); ++r) {
      if (i > 0) {
        std::vector<Value> left(rels[i - 1]->arity());
        std::vector<Value> right(rels[i]->arity());
        rels[i - 1]->Row(pick[i - 1]).CopyInto(left.data());
        rels[i]->Row(r).CopyInto(right.data());
        if (!thetas[i - 1](left, right)) continue;
      }
      pick[i] = r;
      self(self, i + 1, w + rels[i]->Weight(r));
    }
  };
  recurse(recurse, 0, 0.0);
  std::sort(weights.begin(), weights.end());
  return weights;
}

/// Runs `algo` over the theta graph (under `k_budget`, 0 = unbounded) and
/// checks the ranked weights against the oracle's prefix of that length.
void CheckTheta(const std::vector<const Relation*>& rels,
                const std::vector<ThetaPredicate>& thetas, Algorithm algo,
                size_t k_budget = 0) {
  auto oracle = ThetaOracle(rels, thetas);
  if (k_budget != 0 && k_budget < oracle.size()) oracle.resize(k_budget);
  auto problem = BuildThetaPathGraph<TropicalDioid>(rels, thetas);
  EnumOptions opts;
  opts.k_budget = k_budget;
  auto e = MakeEnumerator<TropicalDioid>(problem.graph.get(), algo, opts);
  std::vector<double> got;
  while (auto r = e->Next()) {
    got.push_back(r->weight);
    ASSERT_LE(got.size(), oracle.size()) << "too many results";
  }
  ASSERT_EQ(got.size(), oracle.size()) << "k_budget " << k_budget;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i], oracle[i]) << "rank " << i;
  }
}

std::vector<ThetaPredicate> LessThan() {
  return {[](std::span<const Value> l, std::span<const Value> r) {
    return l[1] < r[0];
  }};
}

std::vector<ThetaPredicate> BandThenInequality() {
  return {// band join: |R1.A2 - R2.A1| <= 1
          [](std::span<const Value> l, std::span<const Value> r) {
            return std::llabs(l[1] - r[0]) <= 1;
          },
          // inequality join
          [](std::span<const Value> l, std::span<const Value> r) {
            return l[1] != r[0];
          }};
}

class ThetaTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(ThetaTest, LessThanJoin) {
  Database db = MakePathDatabase(25, 2, 701, {.fanout = 5.0});
  std::vector<const Relation*> rels = {&db.Get("R1"), &db.Get("R2")};
  CheckTheta(rels, LessThan(), GetParam());
}

TEST_P(ThetaTest, ThreeWayMixedPredicates) {
  Database db = MakePathDatabase(15, 3, 702, {.fanout = 4.0});
  std::vector<const Relation*> rels = {&db.Get("R1"), &db.Get("R2"),
                                       &db.Get("R3")};
  CheckTheta(rels, BandThenInequality(), GetParam());
}

// Budgeted runs take the same successor paths as serving top-k requests
// (second-best deviations straight off the connector heaps).
TEST_P(ThetaTest, BudgetedPrefixMatchesOracle) {
  Database two = MakePathDatabase(25, 2, 701, {.fanout = 5.0});
  Database three = MakePathDatabase(15, 3, 702, {.fanout = 4.0});
  for (const size_t k : {1u, 3u, 10u}) {
    SCOPED_TRACE(k);
    CheckTheta({&two.Get("R1"), &two.Get("R2")}, LessThan(), GetParam(), k);
    CheckTheta({&three.Get("R1"), &three.Get("R2"), &three.Get("R3")},
               BandThenInequality(), GetParam(), k);
  }
}

TEST_P(ThetaTest, EmptyWhenPredicateNeverHolds) {
  Database db = MakePathDatabase(10, 2, 703, {.fanout = 3.0});
  std::vector<const Relation*> rels = {&db.Get("R1"), &db.Get("R2")};
  std::vector<ThetaPredicate> thetas = {
      [](std::span<const Value>, std::span<const Value>) { return false; }};
  auto problem = BuildThetaPathGraph<TropicalDioid>(rels, thetas);
  auto e = MakeEnumerator<TropicalDioid>(problem.graph.get(), GetParam());
  EXPECT_FALSE(e->Next().has_value());
}

TEST_P(ThetaTest, SingleRelationDegenerate) {
  Database db = MakePathDatabase(12, 1, 704, {.fanout = 3.0});
  std::vector<const Relation*> rels = {&db.Get("R1")};
  auto problem = BuildThetaPathGraph<TropicalDioid>(rels, {});
  auto e = MakeEnumerator<TropicalDioid>(problem.graph.get(), GetParam());
  size_t count = 0;
  double prev = -1e18;
  while (auto r = e->Next()) {
    EXPECT_GE(r->weight, prev);
    prev = r->weight;
    ++count;
  }
  EXPECT_EQ(count, 12u);
}

// The planner's statistics (exact output count, fanout) are filled for
// theta graphs too.
TEST(ThetaStatsTest, OutputCountMatchesOracle) {
  Database two = MakePathDatabase(25, 2, 701, {.fanout = 5.0});
  Database three = MakePathDatabase(15, 3, 702, {.fanout = 4.0});
  const std::vector<const Relation*> rels2 = {&two.Get("R1"), &two.Get("R2")};
  const std::vector<const Relation*> rels3 = {
      &three.Get("R1"), &three.Get("R2"), &three.Get("R3")};
  for (const auto& [rels, thetas] :
       {std::pair{rels2, LessThan()}, std::pair{rels3, BandThenInequality()}}) {
    const auto oracle = ThetaOracle(rels, thetas);
    ASSERT_FALSE(oracle.empty());
    auto problem = BuildThetaPathGraph<TropicalDioid>(rels, thetas);
    const plan::GraphStats stats = plan::CollectGraphStats(*problem.graph);
    EXPECT_EQ(stats.output_count, static_cast<double>(oracle.size()));
    EXPECT_EQ(problem.graph->OutputCount(), static_cast<double>(oracle.size()));
    EXPECT_GE(stats.max_fanout, 1u);
  }
}

// Theta stages are finished through the same connector helper as equi-join
// stages, so they carry the same heap layout.
template <SelectiveDioid D>
void ExpectThetaLayout(const std::vector<const Relation*>& rels,
                       const std::vector<ThetaPredicate>& thetas) {
  auto problem = BuildThetaPathGraph<D>(rels, thetas);
  testing::ExpectHeapOrderedConnectors(*problem.graph);
}

TEST(ThetaStatsTest, ConnectorsAreHeapOrdered) {
  Database two = MakePathDatabase(25, 2, 701, {.fanout = 5.0});
  Database three = MakePathDatabase(15, 3, 702, {.fanout = 4.0});
  const std::vector<const Relation*> rels2 = {&two.Get("R1"), &two.Get("R2")};
  const std::vector<const Relation*> rels3 = {
      &three.Get("R1"), &three.Get("R2"), &three.Get("R3")};
  for (const auto& [rels, thetas] :
       {std::pair{rels2, LessThan()}, std::pair{rels3, BandThenInequality()}}) {
    ExpectThetaLayout<TropicalDioid>(rels, thetas);
    ExpectThetaLayout<MaxPlusDioid>(rels, thetas);
    ExpectThetaLayout<MinMaxDioid>(rels, thetas);
    ExpectThetaLayout<MaxTimesDioid>(rels, thetas);
  }
}

INSTANTIATE_TEST_SUITE_P(Algos, ThetaTest,
                         ::testing::ValuesIn(AllRankedAlgorithms()), AlgoName);

}  // namespace
}  // namespace anyk
