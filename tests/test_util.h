// Shared test helpers: an independent ranked-join oracle (brute-force join +
// stable sort) and enumeration-vs-oracle comparison at witness granularity.

#ifndef ANYK_TESTS_TEST_UTIL_H_
#define ANYK_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "anyk/enumerator.h"
#include "dioid/dioid.h"
#include "dioid/lift.h"
#include "dp/stage_graph.h"
#include "join/brute_force.h"
#include "query/cq.h"
#include "storage/database.h"

namespace anyk {
namespace testing {

template <SelectiveDioid D>
struct OracleRow {
  typename D::Value weight;
  std::vector<uint32_t> witness;  // row per atom
  std::vector<Value> assignment;  // per variable
};

/// All answers of the full CQ, ranked by the dioid order (ties arbitrary).
template <SelectiveDioid D>
std::vector<OracleRow<D>> Oracle(const Database& db,
                                 const ConjunctiveQuery& q) {
  const JoinResultSet join = BruteForceJoin(db, q);
  const size_t na = q.NumAtoms();
  std::vector<OracleRow<D>> rows;
  rows.reserve(join.size());
  for (size_t i = 0; i < join.size(); ++i) {
    OracleRow<D> row;
    row.weight = D::One();
    row.witness.assign(join.witness(i), join.witness(i) + na);
    row.assignment.assign(q.NumVars(), 0);
    for (size_t a = 0; a < na; ++a) {
      const Relation& rel = db.Get(q.atom(a).relation);
      const uint32_t r = row.witness[a];
      row.weight =
          D::Combine(row.weight, LiftWeight<D>(rel.Weight(r), a, na, r));
      const auto& vars = q.AtomVarIds(a);
      for (size_t c = 0; c < vars.size(); ++c) {
        row.assignment[vars[c]] = rel.At(r, c);
      }
    }
    rows.push_back(std::move(row));
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const OracleRow<D>& a, const OracleRow<D>& b) {
                     return D::Less(a.weight, b.weight);
                   });
  return rows;
}

/// Drain `e` and compare against the oracle:
///  * result count matches,
///  * the weight sequence matches exactly (both are sorted by a total order
///    on weights, so even tie groups must agree as multisets of weights),
///  * the multiset of witnesses matches (catches duplicates / omissions),
///  * weights are non-decreasing.
template <SelectiveDioid D>
void ExpectMatchesOracle(Enumerator<D>* e, const Database& db,
                         const ConjunctiveQuery& q,
                         size_t max_results = SIZE_MAX) {
  auto oracle = Oracle<D>(db, q);
  std::vector<ResultRow<D>> got;
  while (auto r = e->Next()) {
    got.push_back(std::move(*r));
    if (got.size() > oracle.size() + 5) break;  // runaway guard
    if (got.size() >= max_results) break;
  }
  const size_t limit = std::min(max_results, oracle.size());
  ASSERT_EQ(got.size(), limit) << "wrong number of results";
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(DioidEq<D>(got[i].weight, oracle[i].weight))
        << "weight mismatch at rank " << i;
    if (i > 0) {
      ASSERT_TRUE(DioidLeq<D>(got[i - 1].weight, got[i].weight))
          << "order violated at rank " << i;
    }
  }
  if (limit == oracle.size()) {
    std::vector<std::vector<uint32_t>> got_w, want_w;
    for (const auto& r : got) got_w.push_back(r.witness);
    for (const auto& r : oracle) want_w.push_back(r.witness);
    std::sort(got_w.begin(), got_w.end());
    std::sort(want_w.begin(), want_w.end());
    ASSERT_EQ(got_w, want_w) << "witness multiset mismatch";
  }
}

/// The stage graph's connector layout (dp/stage_graph.h): every connector
/// range is a binary min-heap on member_val under D::Less, member_val[p]
/// still equals weight ⊗ pi1 of members[p], and the best / second-best
/// accessors agree with a brute-force scan.
template <SelectiveDioid D>
void ExpectHeapOrderedConnectors(const StageGraph<D>& g) {
  for (size_t k = 0; k < g.stages.size(); ++k) {
    const auto& st = g.stages[k];
    ASSERT_EQ(st.members.size(), st.member_val.size());
    for (uint32_t c = 0; c < st.NumConns(); ++c) {
      const uint32_t b = st.conn_begin[c];
      const uint32_t n = st.ConnSize(c);
      ASSERT_GT(n, 0u) << "stage " << k << " connector " << c;
      uint32_t best = b;
      for (uint32_t i = 0; i < n; ++i) {
        const uint32_t s = st.members[b + i];
        ASSERT_TRUE(DioidEq<D>(st.member_val[b + i],
                               D::Combine(st.weight[s], st.pi1[s])))
            << "stage " << k << " connector " << c << " slot " << i;
        if (i > 0) {
          ASSERT_FALSE(D::Less(st.member_val[b + i],
                               st.member_val[b + (i - 1) / 2]))
              << "heap order broken: stage " << k << " connector " << c
              << " slot " << i;
        }
        if (D::Less(st.member_val[b + i], st.member_val[best])) best = b + i;
      }
      ASSERT_EQ(st.ConnBest(c), b);
      ASSERT_TRUE(DioidEq<D>(st.ConnBestVal(c), st.member_val[best]));
      const uint32_t second = st.ConnSecond(c);
      if (n == 1) {
        ASSERT_EQ(second, StageGraph<D>::kNoMember);
        continue;
      }
      ASSERT_NE(second, b);
      ASSERT_LT(second - b, n);
      uint32_t want = second;
      for (uint32_t p = b + 1; p < b + n; ++p) {
        if (D::Less(st.member_val[p], st.member_val[want])) want = p;
      }
      ASSERT_TRUE(DioidEq<D>(st.member_val[second], st.member_val[want]))
          << "second best: stage " << k << " connector " << c;
    }
  }
}

}  // namespace testing
}  // namespace anyk

#endif  // ANYK_TESTS_TEST_UTIL_H_
