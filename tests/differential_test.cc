// Differential test oracle for the flat-memory enumeration hot path.
//
// Generates 200 seeded random full CQs (tests/corpus.h — paths, stars,
// simple cycles, mixed-arity random trees, duplicate-weight-heavy
// instances) and asserts that all six ranked algorithms (Recursive / Take2
// / Lazy / Eager / All / Batch) plus the planner-resolved seventh column
// (`auto`) emit the same ranked sequence under all four dioids of the
// experimental study (min-sum, max-sum, min-max, max-times). BatchSorting
// doubles as the reference executor: it materializes the full output by DFS
// and sorts, never touching the any-k candidate machinery, so any bug in
// the flat GroupIndex, the arena paths or the strategy successor logic
// shows up as a divergence.
//
// Tie-breaking determinism comes in two strengths:
//  * min-sum / max-sum: ⊗ is cancellative and strictly monotone, so wrapping
//    the base dioid in TieBreakDioid (Section 6.3) yields a genuine
//    selective dioid whose order is total on answers — every algorithm must
//    agree *rank for rank*, including inside former tie groups.
//  * min-max / max-times: ⊗ (max / multiplication-with-zero) is not
//    cancellative, so the lexicographic refinement is not distributive and
//    different (correct!) algorithms may resolve weight ties differently.
//    There the oracle canonicalizes: equal-weight runs must appear at the
//    same ranks with the same length, and their contents must match as
//    sets — i.e. the ranked order is exact modulo a deterministic
//    canonical sort within each tie group.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "anyk/factory.h"
#include "anyk/prepared_query.h"
#include "anyk/ranked_query.h"
#include "anyk/sharded_query.h"
#include "dioid/dioid.h"
#include "dioid/max_plus.h"
#include "dioid/max_times.h"
#include "dioid/min_max.h"
#include "dioid/tiebreak.h"
#include "dioid/tropical.h"
#include "query/cq.h"
#include "storage/database.h"
#include "util/random.h"

#include "corpus.h"
#include "test_util.h"

namespace anyk {
namespace {

using corpus::GeneratedCase;
using corpus::MakeCase;

/// The seven algorithm columns of the differential matrix: the six concrete
/// strategies plus `auto`, whose planner-resolved pick must agree with the
/// oracle rank for rank (and prefix for prefix in the bounded-k sweep).
std::vector<Algorithm> DifferentialColumns() {
  auto v = AllAnyKAlgorithms();
  v.push_back(Algorithm::kAuto);
  return v;
}

constexpr size_t kMaxAtoms = 8;

// One ranked answer, flattened for exact comparison. `tie_ids` carries the
// TieBreakDioid witness vector in exact-order mode and is empty in
// canonical mode.
struct Answer {
  double base_weight = 0;
  std::vector<int64_t> tie_ids;
  std::vector<Value> assignment;
  std::vector<uint32_t> witness;

  bool operator==(const Answer& o) const = default;
  bool operator<(const Answer& o) const {
    if (base_weight != o.base_weight) return base_weight < o.base_weight;
    if (tie_ids != o.tie_ids) return tie_ids < o.tie_ids;
    if (witness != o.witness) return witness < o.witness;
    return assignment < o.assignment;
  }
};

// ---------------------------------------------------------------------------
// Differential drivers
// ---------------------------------------------------------------------------

/// Hand every answer to `fn`, up to `cap`: one NextInto call per answer
/// (page == 0), or NextBatch pulls of `page` rows.
template <typename D, typename Fn>
void PullAnswers(Enumerator<D>* e, size_t cap, size_t page, Fn fn) {
  size_t seen = 0;
  if (page == 0) {
    ResultRow<D> row;
    while (seen < cap && e->NextInto(&row)) {
      fn(row);
      ++seen;
    }
    return;
  }
  std::vector<ResultRow<D>> rows(page);
  while (seen < cap) {
    const size_t want = std::min(page, cap - seen);
    const size_t got = e->NextBatch(rows.data(), want);
    for (size_t b = 0; b < got; ++b) fn(rows[b]);
    seen += got;
    if (got < want) break;
  }
}

template <typename B>
std::vector<Answer> DrainExact(const Database& db, const ConjunctiveQuery& q,
                               Algorithm algo, size_t cap,
                               size_t k_budget = 0, size_t page = 0) {
  using TB = TieBreakDioid<B, kMaxAtoms>;
  typename RankedQuery<TB>::Options opts;
  opts.algorithm = algo;
  opts.enum_opts.k_budget = k_budget;
  RankedQuery<TB> rq(db, q, opts);
  std::vector<Answer> out;
  PullAnswers(rq.enumerator(), cap, page, [&](const ResultRow<TB>& row) {
    Answer a;
    a.base_weight = row.weight.base;
    a.tie_ids.assign(row.weight.id.begin(), row.weight.id.end());
    a.assignment = row.assignment;
    a.witness = row.witness;
    out.push_back(std::move(a));
  });
  return out;
}

template <typename B>
std::vector<Answer> DrainRaw(const Database& db, const ConjunctiveQuery& q,
                             Algorithm algo, size_t cap,
                             size_t k_budget = 0, size_t page = 0) {
  typename RankedQuery<B>::Options opts;
  opts.algorithm = algo;
  opts.enum_opts.k_budget = k_budget;
  RankedQuery<B> rq(db, q, opts);
  std::vector<Answer> out;
  PullAnswers(rq.enumerator(), cap, page, [&](const ResultRow<B>& row) {
    Answer a;
    a.base_weight = static_cast<double>(row.weight);
    a.assignment = row.assignment;
    a.witness = row.witness;
    out.push_back(std::move(a));
  });
  return out;
}

/// Cancellative dioids: rank-for-rank equality under the tie-break wrapper.
template <typename B>
void ExpectExactOrder(const GeneratedCase& c, const char* dioid_name,
                      size_t cap) {
  const std::vector<Answer> want =
      DrainExact<B>(c.db, c.q, Algorithm::kBatch, cap);
  for (Algorithm algo : DifferentialColumns()) {
    const std::vector<Answer> got = DrainExact<B>(c.db, c.q, algo, cap);
    ASSERT_EQ(got.size(), want.size())
        << c.label << "/" << dioid_name << "/" << AlgorithmName(algo)
        << ": result count diverges from BatchSorting";
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i])
          << c.label << "/" << dioid_name << "/" << AlgorithmName(algo)
          << ": rank " << i << " diverges (weight " << got[i].base_weight
          << " vs " << want[i].base_weight << ")";
    }
  }
}

/// Sort each maximal equal-weight run in place (deterministic tie-break
/// applied canonically at comparison time).
template <typename B>
void CanonicalizeTieGroups(std::vector<Answer>* answers) {
  size_t i = 0;
  while (i < answers->size()) {
    size_t j = i + 1;
    while (j < answers->size() &&
           DioidEq<B>((*answers)[j].base_weight, (*answers)[i].base_weight)) {
      ++j;
    }
    std::sort(answers->begin() + i, answers->begin() + j);
    i = j;
  }
}

/// When a drain stopped at the cap, the last tie group is cut at an
/// arbitrary member; drop it so only complete groups are compared.
template <typename B>
void TrimIncompleteTailGroup(std::vector<Answer>* answers, size_t cap) {
  if (answers->size() < cap) return;
  const double last = answers->back().base_weight;
  while (!answers->empty() &&
         DioidEq<B>(answers->back().base_weight, last)) {
    answers->pop_back();
  }
}

/// Non-cancellative dioids: exact order modulo canonicalized tie groups.
/// (TieBreakDioid over these is not distributive — max / mult-by-zero do
/// not cancel — so correct algorithms may resolve ties differently.)
template <typename B>
void ExpectCanonicalOrder(const GeneratedCase& c, const char* dioid_name,
                          size_t cap) {
  std::vector<Answer> want = DrainRaw<B>(c.db, c.q, Algorithm::kBatch, cap);
  TrimIncompleteTailGroup<B>(&want, cap);
  CanonicalizeTieGroups<B>(&want);
  for (Algorithm algo : DifferentialColumns()) {
    std::vector<Answer> got = DrainRaw<B>(c.db, c.q, algo, cap);
    TrimIncompleteTailGroup<B>(&got, cap);
    CanonicalizeTieGroups<B>(&got);
    ASSERT_EQ(got.size(), want.size())
        << c.label << "/" << dioid_name << "/" << AlgorithmName(algo)
        << ": result count diverges from BatchSorting";
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i])
          << c.label << "/" << dioid_name << "/" << AlgorithmName(algo)
          << ": rank " << i << " diverges (weight " << got[i].base_weight
          << " vs " << want[i].base_weight << ")";
    }
  }
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, SixStrategiesFourDioidsSameOrder) {
  // Each parameter covers a block of seeds so the suite stays one ctest
  // entry per block while still exercising 200 distinct queries.
  const uint64_t block = GetParam();
  constexpr uint64_t kBlockSize = 25;
  // Generous cap: the generators keep instances small enough that full
  // outputs stay below this, so canonical mode never splits a tie group.
  constexpr size_t kCap = 20000;
  for (uint64_t s = 0; s < kBlockSize; ++s) {
    const uint64_t seed = block * kBlockSize + s + 1;
    const GeneratedCase c = MakeCase(seed);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " " + c.label + " " +
                 c.q.ToString());
    ExpectExactOrder<TropicalDioid>(c, "min-sum", kCap);
    ExpectExactOrder<MaxPlusDioid>(c, "max-sum", kCap);
    ExpectCanonicalOrder<MinMaxDioid>(c, "min-max", kCap);
    ExpectCanonicalOrder<MaxTimesDioid>(c, "max-times", kCap);
  }
}

INSTANTIATE_TEST_SUITE_P(Blocks, DifferentialTest,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "block" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Connector layout: every stage graph the corpus prepares (tree plans and
// each part of a cycle union) stores its connectors as member_val heaps,
// the order all successor strategies share.
// ---------------------------------------------------------------------------

template <typename B>
void ExpectCorpusLayout(const GeneratedCase& c) {
  PreparedQuery<B> pq(c.db, c.q);
  for (const auto& g : pq.graphs()) testing::ExpectHeapOrderedConnectors(*g);
}

TEST(ConnectorLayoutTest, CorpusGraphsAreHeapOrdered) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const GeneratedCase c = MakeCase(seed);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " " + c.label);
    ExpectCorpusLayout<TropicalDioid>(c);
    ExpectCorpusLayout<MaxPlusDioid>(c);
    ExpectCorpusLayout<MinMaxDioid>(c);
    ExpectCorpusLayout<MaxTimesDioid>(c);
  }
}

// ---------------------------------------------------------------------------
// Bounded-k sweep: a budget-aware run (EnumOptions::k_budget = k) must be
// the exact k-prefix of the unbounded run — byte-for-byte under the
// tie-break (cancellative) dioids, modulo canonicalized tie groups under the
// non-cancellative ones — and the enumerator itself must report exhaustion
// at the budget (the drain below has no external cap).
// ---------------------------------------------------------------------------

/// Batch rejoins the matrix here (against its own unbounded run), and auto
/// rides along so the planner's pick is budget-correct at every swept k.
std::vector<Algorithm> SweepColumns() {
  auto v = AllRankedAlgorithms();
  v.push_back(Algorithm::kAuto);
  return v;
}

std::vector<size_t> SweepBudgets(size_t out_size) {
  // k ∈ {1, 2, |out|-1, |out|, |out|+7}, deduplicated for tiny outputs.
  std::vector<size_t> ks = {1, 2};
  if (out_size > 1) ks.push_back(out_size - 1);
  ks.push_back(out_size);
  ks.push_back(out_size + 7);
  std::sort(ks.begin(), ks.end());
  ks.erase(std::unique(ks.begin(), ks.end()), ks.end());
  return ks;
}

template <typename B>
void ExpectBudgetedPrefixExact(const GeneratedCase& c,
                               const char* dioid_name) {
  const std::vector<Answer> full =
      DrainExact<B>(c.db, c.q, Algorithm::kBatch, SIZE_MAX);
  for (const size_t k : SweepBudgets(full.size())) {
    for (Algorithm algo : SweepColumns()) {
      // No external cap: the k_budget alone must stop the enumerator.
      const std::vector<Answer> got =
          DrainExact<B>(c.db, c.q, algo, /*cap=*/k + 16, /*k_budget=*/k);
      const size_t want = std::min(k, full.size());
      ASSERT_EQ(got.size(), want)
          << c.label << "/" << dioid_name << "/" << AlgorithmName(algo)
          << ": budget k=" << k << " emitted wrong count";
      for (size_t i = 0; i < want; ++i) {
        ASSERT_EQ(got[i], full[i])
            << c.label << "/" << dioid_name << "/" << AlgorithmName(algo)
            << ": budget k=" << k << " diverges at rank " << i;
      }
    }
  }
}

template <typename B>
void ExpectBudgetedPrefixCanonical(const GeneratedCase& c,
                                   const char* dioid_name) {
  const std::vector<Answer> full =
      DrainRaw<B>(c.db, c.q, Algorithm::kBatch, SIZE_MAX);
  for (const size_t k : SweepBudgets(full.size())) {
    for (Algorithm algo : SweepColumns()) {
      std::vector<Answer> got =
          DrainRaw<B>(c.db, c.q, algo, /*cap=*/k + 16, /*k_budget=*/k);
      const size_t want_count = std::min(k, full.size());
      ASSERT_EQ(got.size(), want_count)
          << c.label << "/" << dioid_name << "/" << AlgorithmName(algo)
          << ": budget k=" << k << " emitted wrong count";
      std::vector<Answer> want(full.begin(),
                               full.begin() + static_cast<ptrdiff_t>(
                                                  want_count));
      // Both prefixes may cut a tie group at an arbitrary member; compare
      // complete groups only, canonically ordered within each group.
      TrimIncompleteTailGroup<B>(&want, want_count);
      TrimIncompleteTailGroup<B>(&got, want_count);
      CanonicalizeTieGroups<B>(&want);
      CanonicalizeTieGroups<B>(&got);
      ASSERT_EQ(got, want)
          << c.label << "/" << dioid_name << "/" << AlgorithmName(algo)
          << ": budget k=" << k << " diverges modulo tie groups";
    }
  }
}

class BoundedKSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BoundedKSweepTest, BudgetedRunsMatchUnboundedPrefixes) {
  // One seed per shape family (MakeCase switches on seed % 5), plus a
  // second pass to vary sizes; the full 200-case sweep lives in the
  // unbounded suite above.
  const uint64_t seed = GetParam();
  const GeneratedCase c = MakeCase(seed);
  SCOPED_TRACE("seed=" + std::to_string(seed) + " " + c.label + " " +
               c.q.ToString());
  ExpectBudgetedPrefixExact<TropicalDioid>(c, "min-sum");
  ExpectBudgetedPrefixExact<MaxPlusDioid>(c, "max-sum");
  ExpectBudgetedPrefixCanonical<MinMaxDioid>(c, "min-max");
  ExpectBudgetedPrefixCanonical<MaxTimesDioid>(c, "max-times");
}

INSTANTIATE_TEST_SUITE_P(Shapes, BoundedKSweepTest,
                         ::testing::Values(5, 6, 7, 8, 9, 10, 11, 12, 13, 14),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Page sweep: a NextBatch drain in pages of 1, 5 and 64 rows must equal the
// NextInto drain of the same algorithm exactly — rank for rank, tie-break
// ids and witnesses included, under every dioid — on the corpus's tree and
// cycle-union cases, where Recursive binds by the page and the union merges
// inside NextBatch.
// ---------------------------------------------------------------------------

/// `drain(algo, page)` drains one fresh session; page 0 means NextInto.
template <typename DrainFn>
void ExpectPagesMatchRows(const char* dioid_name, DrainFn drain) {
  for (Algorithm algo : SweepColumns()) {
    const std::vector<Answer> rows = drain(algo, 0);
    for (const size_t page : {size_t{1}, size_t{5}, size_t{64}}) {
      const std::vector<Answer> paged = drain(algo, page);
      ASSERT_EQ(paged.size(), rows.size())
          << dioid_name << "/" << AlgorithmName(algo) << " page=" << page;
      for (size_t i = 0; i < rows.size(); ++i) {
        ASSERT_EQ(paged[i], rows[i])
            << dioid_name << "/" << AlgorithmName(algo) << " page=" << page
            << ": rank " << i << " diverges from the NextInto drain";
      }
    }
  }
}

class PageSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PageSweepTest, NextBatchPagesMatchNextIntoDrain) {
  const uint64_t seed = GetParam();
  const GeneratedCase c = MakeCase(seed);
  SCOPED_TRACE("seed=" + std::to_string(seed) + " " + c.label + " " +
               c.q.ToString());
  if (c.label.starts_with("cycle")) {
    ASSERT_EQ(RankedQuery<TropicalDioid>(c.db, c.q).plan(),
              QueryPlan::kCycleUnion);
  }
  constexpr size_t kCap = 20000;
  ExpectPagesMatchRows("min-sum", [&](Algorithm algo, size_t page) {
    return DrainExact<TropicalDioid>(c.db, c.q, algo, kCap, 0, page);
  });
  ExpectPagesMatchRows("max-sum", [&](Algorithm algo, size_t page) {
    return DrainExact<MaxPlusDioid>(c.db, c.q, algo, kCap, 0, page);
  });
  ExpectPagesMatchRows("min-max", [&](Algorithm algo, size_t page) {
    return DrainRaw<MinMaxDioid>(c.db, c.q, algo, kCap, 0, page);
  });
  ExpectPagesMatchRows("max-times", [&](Algorithm algo, size_t page) {
    return DrainRaw<MaxTimesDioid>(c.db, c.q, algo, kCap, 0, page);
  });
}

// MakeCase builds a tree at seed % 5 == 2 and a cycle at seed % 5 == 3.
INSTANTIATE_TEST_SUITE_P(TreesAndCycles, PageSweepTest,
                         ::testing::Values(2, 3, 7, 8, 12, 13, 17, 18, 22, 23),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Sharded sweep: a ShardedPreparedQuery at S ∈ {1, 2, 4, 7} must emit the
// same answer stream as the unsharded BatchSorting oracle under every dioid,
// for `auto` plus explicit strategies. Comparison is canonical (equal-weight
// runs sorted, witnesses dropped): partitioning renumbers rows per shard, so
// tie-break order within an equal-weight group and witness row ids may
// legitimately differ from the unsharded drain — the answer set and its
// weight order may not. The corpus domains are 2..6, so S = 7 always leaves
// at least one shard empty, and every fifth seed is the all-ties stress
// (uniform weights) — both acceptance cases of the sweep.
// ---------------------------------------------------------------------------

template <typename B>
std::vector<Answer> DrainSharded(const Database& db, const ConjunctiveQuery& q,
                                 Algorithm algo, size_t shards, size_t cap) {
  typename ShardedPreparedQuery<B>::Options sopts;
  sopts.shards = shards;
  const ShardedPreparedQuery<B> pq(db, q, sopts);
  EnumerationSession<B> sess = pq.NewSession(algo);
  std::vector<Answer> out;
  ResultRow<B> row;
  while (out.size() < cap && sess.NextInto(&row)) {
    Answer a;
    a.base_weight = static_cast<double>(row.weight);
    a.assignment = row.assignment;
    // Witnesses stay empty: shard-local row ids are not comparable.
    out.push_back(std::move(a));
  }
  return out;
}

template <typename B>
void ExpectShardedCanonical(const GeneratedCase& c, const char* dioid_name,
                            size_t cap) {
  std::vector<Answer> want = DrainRaw<B>(c.db, c.q, Algorithm::kBatch, cap);
  for (Answer& a : want) a.witness.clear();
  // A cap-truncated drain cuts its last tie group at an arbitrary member;
  // compare complete groups only (no-op when the output fits the cap).
  TrimIncompleteTailGroup<B>(&want, cap);
  CanonicalizeTieGroups<B>(&want);
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{7}}) {
    for (Algorithm algo :
         {Algorithm::kAuto, Algorithm::kLazy, Algorithm::kTake2}) {
      std::vector<Answer> got =
          DrainSharded<B>(c.db, c.q, algo, shards, cap);
      TrimIncompleteTailGroup<B>(&got, cap);
      CanonicalizeTieGroups<B>(&got);
      ASSERT_EQ(got.size(), want.size())
          << c.label << "/" << dioid_name << "/" << AlgorithmName(algo)
          << "/S=" << shards << ": result count diverges from BatchSorting";
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], want[i])
            << c.label << "/" << dioid_name << "/" << AlgorithmName(algo)
            << "/S=" << shards << ": rank " << i << " diverges (weight "
            << got[i].base_weight << " vs " << want[i].base_weight << ")";
      }
    }
  }
}

class ShardSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShardSweepTest, ShardedDrainsMatchUnshardedOracle) {
  // Each parameter is a block of 5 consecutive seeds — one full pass over
  // the shape families (path, star, tree, cycle, all-ties) per block.
  const uint64_t block = GetParam();
  constexpr uint64_t kBlockSize = 5;
  constexpr size_t kCap = 20000;
  for (uint64_t s = 0; s < kBlockSize; ++s) {
    const uint64_t seed = block * kBlockSize + s + 1;
    const GeneratedCase c = MakeCase(seed);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " " + c.label + " " +
                 c.q.ToString());
    ExpectShardedCanonical<TropicalDioid>(c, "min-sum", kCap);
    ExpectShardedCanonical<MaxPlusDioid>(c, "max-sum", kCap);
    ExpectShardedCanonical<MinMaxDioid>(c, "min-max", kCap);
    ExpectShardedCanonical<MaxTimesDioid>(c, "max-times", kCap);
  }
}

INSTANTIATE_TEST_SUITE_P(Blocks, ShardSweepTest, ::testing::Values(0, 1, 2),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "block" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace anyk
