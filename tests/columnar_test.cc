// Columnar-vs-row-major differential oracle (PR-8).
//
// The storage layer is structure-of-arrays now; every production code path
// reads column segments. This suite pins that the conversion changed the
// *layout only*: a thin row-oriented reference join — backtracking over
// RowMajorTable snapshots (storage/row_reference.h, the pre-columnar
// interleaved layout) with per-atom key→rows maps, never touching Relation,
// GroupIndex, the stage graph or the kernels — must produce exactly the
// answers the columnar pipeline enumerates, for the 200-query corpus
// (tests/corpus.h) × all four dioids × all six algorithms plus `auto`.
//
// Comparison is rank-exact on weights and exact on tie-group contents:
// answers are sorted by dioid weight and each maximal equal-weight run is
// canonicalized (sorted by witness, then assignment) on both sides — the
// same discipline differential_test applies for the non-cancellative
// dioids, here used uniformly because the reference join has no tie-break
// machinery. Within distinct weights the match is byte-for-byte.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "anyk/factory.h"
#include "anyk/ranked_query.h"
#include "dioid/dioid.h"
#include "dioid/lift.h"
#include "dioid/max_plus.h"
#include "dioid/max_times.h"
#include "dioid/min_max.h"
#include "dioid/tropical.h"
#include "query/cq.h"
#include "storage/database.h"
#include "storage/row_reference.h"
#include "storage/value.h"

#include "corpus.h"

namespace anyk {
namespace {

using corpus::GeneratedCase;
using corpus::MakeCase;

// Runaway-output guard only: the largest corpus case yields ~63k answers,
// so the cap never truncates a legitimate drain.
constexpr size_t kCap = 150000;

struct Answer {
  double weight = 0;
  std::vector<Value> assignment;
  std::vector<uint32_t> witness;

  bool operator==(const Answer& o) const = default;
  bool operator<(const Answer& o) const {
    if (weight != o.weight) return weight < o.weight;
    if (witness != o.witness) return witness < o.witness;
    return assignment < o.assignment;
  }
};

// ---------------------------------------------------------------------------
// Row-major reference join: backtracking over the atoms in query order. For
// each atom, candidate rows come from a hash map keyed on the projection
// onto the columns whose variables are bound by earlier atoms (linear build
// per atom over the row-major snapshot); full row consistency — including
// repeated variables within one atom — is re-checked per candidate.
// ---------------------------------------------------------------------------

template <typename B>
std::vector<Answer> RowMajorReference(const Database& db,
                                      const ConjunctiveQuery& q) {
  const size_t na = q.NumAtoms();
  const size_t nv = q.NumVars();

  std::vector<RowMajorTable> tables;
  tables.reserve(na);
  for (size_t a = 0; a < na; ++a) {
    tables.emplace_back(db.Get(q.atom(a).relation));
  }

  // Per atom: columns whose variable is bound before the atom (in fixed
  // query order), and the key→rows map over those columns.
  std::vector<std::vector<uint32_t>> bound_cols(na);
  std::vector<std::unordered_map<Key, std::vector<uint32_t>, KeyHash>>
      maps(na);
  {
    std::vector<bool> bound(nv, false);
    for (size_t a = 0; a < na; ++a) {
      const auto& vars = q.AtomVarIds(a);
      for (size_t c = 0; c < vars.size(); ++c) {
        if (bound[vars[c]]) bound_cols[a].push_back(static_cast<uint32_t>(c));
      }
      const RowMajorTable& t = tables[a];
      for (uint32_t r = 0; r < t.NumRows(); ++r) {
        Key key;
        key.reserve(bound_cols[a].size());
        for (uint32_t c : bound_cols[a]) key.push_back(t.At(r, c));
        maps[a][key].push_back(r);
      }
      for (uint32_t v : vars) bound[v] = true;
    }
  }

  std::vector<Answer> out;
  std::vector<Value> assignment(nv, 0);
  std::vector<bool> bound(nv, false);
  std::vector<uint32_t> witness(na, 0);

  auto recurse = [&](auto&& self, size_t a, typename B::Value w) -> void {
    if (a == na) {
      Answer ans;
      ans.weight = static_cast<double>(w);
      ans.assignment = assignment;
      ans.witness = witness;
      out.push_back(std::move(ans));
      return;
    }
    const RowMajorTable& t = tables[a];
    const auto& vars = q.AtomVarIds(a);
    Key key;
    key.reserve(bound_cols[a].size());
    for (uint32_t c : bound_cols[a]) key.push_back(assignment[vars[c]]);
    const auto it = maps[a].find(key);
    if (it == maps[a].end()) return;
    for (uint32_t r : it->second) {
      // Full consistency over the interleaved row (repeated variables in
      // this atom included), binding fresh variables as we go.
      std::span<const Value> row = t.Row(r);
      std::vector<uint32_t> newly;
      bool ok = true;
      for (size_t c = 0; c < vars.size() && ok; ++c) {
        const uint32_t v = vars[c];
        if (bound[v]) {
          ok = assignment[v] == row[c];
        } else {
          assignment[v] = row[c];
          bound[v] = true;
          newly.push_back(v);
        }
      }
      if (ok) {
        witness[a] = r;
        self(self, a + 1,
             B::Combine(w, LiftWeight<B>(t.Weight(r), a, na, r)));
      }
      for (uint32_t v : newly) bound[v] = false;
    }
  };
  recurse(recurse, 0, B::One());

  std::sort(out.begin(), out.end(), [](const Answer& x, const Answer& y) {
    if (B::Less(x.weight, y.weight)) return true;
    if (B::Less(y.weight, x.weight)) return false;
    return x < y;  // canonical within tie groups
  });
  return out;
}

// ---------------------------------------------------------------------------
// Columnar drains + canonicalization (differential_test's discipline).
// ---------------------------------------------------------------------------

template <typename B>
std::vector<Answer> DrainColumnar(const Database& db,
                                  const ConjunctiveQuery& q, Algorithm algo,
                                  size_t cap) {
  typename RankedQuery<B>::Options opts;
  opts.algorithm = algo;
  RankedQuery<B> rq(db, q, opts);
  std::vector<Answer> out;
  // Drain through NextBatch with an awkward batch size so the kernelized
  // batched-bind path (not just NextInto) is what the oracle checks.
  std::vector<ResultRow<B>> batch(7);
  while (out.size() < cap) {
    const size_t got = rq.enumerator()->NextBatch(batch.data(), batch.size());
    for (size_t b = 0; b < got && out.size() < cap; ++b) {
      Answer a;
      a.weight = static_cast<double>(batch[b].weight);
      a.assignment = batch[b].assignment;
      a.witness = batch[b].witness;
      out.push_back(std::move(a));
    }
    if (got < batch.size()) break;
  }
  return out;
}

template <typename B>
void CanonicalizeTieGroups(std::vector<Answer>* answers) {
  size_t i = 0;
  while (i < answers->size()) {
    size_t j = i + 1;
    while (j < answers->size() &&
           DioidEq<B>((*answers)[j].weight, (*answers)[i].weight)) {
      ++j;
    }
    std::sort(answers->begin() + i, answers->begin() + j);
    i = j;
  }
}

std::vector<Algorithm> AllColumns() {
  auto v = AllAnyKAlgorithms();
  v.push_back(Algorithm::kAuto);
  return v;
}

template <typename B>
void ExpectColumnarMatchesRowMajor(const GeneratedCase& c,
                                   const char* dioid_name) {
  std::vector<Answer> want = RowMajorReference<B>(c.db, c.q);
  ASSERT_LT(want.size(), kCap) << c.label << ": corpus case too large";
  for (Algorithm algo : AllColumns()) {
    std::vector<Answer> got = DrainColumnar<B>(c.db, c.q, algo, kCap);
    CanonicalizeTieGroups<B>(&got);
    ASSERT_EQ(got.size(), want.size())
        << c.label << "/" << dioid_name << "/" << AlgorithmName(algo)
        << ": columnar result count diverges from the row-major reference";
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i])
          << c.label << "/" << dioid_name << "/" << AlgorithmName(algo)
          << ": rank " << i << " diverges (weight " << got[i].weight
          << " vs " << want[i].weight << ")";
    }
  }
}

class ColumnarDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ColumnarDifferentialTest, ColumnarPathMatchesRowMajorReference) {
  const uint64_t block = GetParam();
  constexpr uint64_t kBlockSize = 25;
  for (uint64_t s = 0; s < kBlockSize; ++s) {
    const uint64_t seed = block * kBlockSize + s + 1;
    const GeneratedCase c = MakeCase(seed);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " " + c.label + " " +
                 c.q.ToString());
    ExpectColumnarMatchesRowMajor<TropicalDioid>(c, "min-sum");
    ExpectColumnarMatchesRowMajor<MaxPlusDioid>(c, "max-sum");
    ExpectColumnarMatchesRowMajor<MinMaxDioid>(c, "min-max");
    ExpectColumnarMatchesRowMajor<MaxTimesDioid>(c, "max-times");
  }
}

INSTANTIATE_TEST_SUITE_P(Blocks, ColumnarDifferentialTest,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "block" + std::to_string(info.param);
                         });

// The RowMajorTable snapshot itself round-trips the columnar data exactly.
TEST(RowReferenceTest, SnapshotMatchesRelation) {
  Relation rel("R", 3);
  rel.Add({1, 2, 3}, 0.5);
  rel.Add({4, 5, 6}, 1.5);
  rel.Add({7, 8, 9}, -2.0);
  RowMajorTable t(rel);
  ASSERT_EQ(t.NumRows(), rel.NumRows());
  ASSERT_EQ(t.arity(), rel.arity());
  for (size_t r = 0; r < rel.NumRows(); ++r) {
    EXPECT_DOUBLE_EQ(t.Weight(r), rel.Weight(r));
    for (size_t c = 0; c < rel.arity(); ++c) {
      EXPECT_EQ(t.At(r, c), rel.At(r, c));
    }
    // The reference reader keeps the old contiguous-span Row contract.
    std::span<const Value> row = t.Row(r);
    ASSERT_EQ(row.size(), rel.arity());
    for (size_t c = 0; c < rel.arity(); ++c) EXPECT_EQ(row[c], rel.At(r, c));
  }
}

}  // namespace
}  // namespace anyk
