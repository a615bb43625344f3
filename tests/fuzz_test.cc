// Randomized property tests: random acyclic join trees (random shapes,
// arities, domains, weight distributions) evaluated by every algorithm and
// compared against the brute-force oracle. Seeds are fixed, so failures are
// reproducible.

#include <cstddef>
#include <cstdint>
#include <queue>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "anyk/factory.h"
#include "anyk/ranked_query.h"
#include "dioid/min_max.h"
#include "dioid/tropical.h"
#include "dp/stage_graph.h"
#include "query/cq.h"
#include "query/join_tree.h"
#include "storage/flat_index.h"
#include "storage/group_index.h"
#include "storage/kernels.h"
#include "test_util.h"
#include "util/arena.h"
#include "util/dary_heap.h"
#include "util/random.h"

namespace anyk {
namespace {

struct FuzzCase {
  uint64_t seed;
  size_t num_atoms;
  size_t rows;
  int64_t domain;
  int64_t weight_max;
};

// Random tree-shaped CQ: atom i joins its parent on one shared variable and
// introduces 1-2 fresh variables.
ConjunctiveQuery RandomTreeQuery(Rng* rng, size_t num_atoms,
                                 std::vector<size_t>* arity_out) {
  ConjunctiveQuery q;
  std::vector<std::vector<std::string>> atom_vars(num_atoms);
  size_t fresh = 0;
  auto new_var = [&] { return "v" + std::to_string(fresh++); };
  for (size_t i = 0; i < num_atoms; ++i) {
    std::vector<std::string> vars;
    if (i > 0) {
      const size_t parent = rng->Below(i);
      const auto& pv = atom_vars[parent];
      vars.push_back(pv[rng->Below(pv.size())]);  // join var
    } else {
      vars.push_back(new_var());
    }
    const size_t extra = 1 + rng->Below(2);
    for (size_t e = 0; e < extra; ++e) vars.push_back(new_var());
    rng->Shuffle(&vars);
    atom_vars[i] = vars;
    arity_out->push_back(vars.size());
    q.AddAtom("F" + std::to_string(i), vars);
  }
  return q;
}

Database RandomDatabase(Rng* rng, const std::vector<size_t>& arities,
                        size_t rows, int64_t domain, int64_t weight_max) {
  Database db;
  for (size_t i = 0; i < arities.size(); ++i) {
    auto& rel = db.AddRelation("F" + std::to_string(i), arities[i]);
    std::vector<Value> buf(arities[i]);
    for (size_t r = 0; r < rows; ++r) {
      for (auto& v : buf) v = rng->Uniform(0, domain);
      rel.AddRow(buf, static_cast<double>(rng->Uniform(0, weight_max)));
    }
  }
  return db;
}

class FuzzTest : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(FuzzTest, AllAlgorithmsMatchOracle) {
  const FuzzCase& fc = GetParam();
  Rng rng(fc.seed);
  std::vector<size_t> arities;
  ConjunctiveQuery q = RandomTreeQuery(&rng, fc.num_atoms, &arities);
  Database db =
      RandomDatabase(&rng, arities, fc.rows, fc.domain, fc.weight_max);
  ASSERT_TRUE(IsAcyclic(q)) << q.ToString();
  TDPInstance inst = BuildAcyclicInstance(db, q);
  StageGraph<TropicalDioid> g = BuildStageGraph<TropicalDioid>(inst);
  for (Algorithm algo : AllRankedAlgorithms()) {
    SCOPED_TRACE(std::string(AlgorithmName(algo)) + " on " + q.ToString());
    auto e = MakeEnumerator<TropicalDioid>(&g, algo);
    testing::ExpectMatchesOracle<TropicalDioid>(e.get(), db, q);
  }
}

TEST_P(FuzzTest, RankedQueryFrontDoor) {
  const FuzzCase& fc = GetParam();
  Rng rng(fc.seed ^ 0xF00D);
  std::vector<size_t> arities;
  ConjunctiveQuery q = RandomTreeQuery(&rng, fc.num_atoms, &arities);
  Database db =
      RandomDatabase(&rng, arities, fc.rows, fc.domain, fc.weight_max);
  RankedQuery<TropicalDioid>::Options opts;
  opts.algorithm = Algorithm::kTake2;
  RankedQuery<TropicalDioid> rq(db, q, opts);
  EXPECT_EQ(rq.plan(), QueryPlan::kAcyclicTree);
  testing::ExpectMatchesOracle<TropicalDioid>(rq.enumerator(), db, q);
}

TEST_P(FuzzTest, RandomCycleThroughDecomposition) {
  const FuzzCase& fc = GetParam();
  Rng rng(fc.seed ^ 0xC1C1E);
  const size_t l = 4 + rng.Below(3);  // 4..6
  Database db;
  for (size_t i = 0; i < l; ++i) {
    auto& rel = db.AddRelation("R" + std::to_string(i + 1), 2);
    for (size_t r = 0; r < fc.rows; ++r) {
      rel.Add({rng.Uniform(0, fc.domain), rng.Uniform(0, fc.domain)},
              static_cast<double>(rng.Uniform(0, fc.weight_max)));
    }
  }
  ConjunctiveQuery q = ConjunctiveQuery::Cycle(l);
  RankedQuery<TropicalDioid>::Options opts;
  opts.algorithm =
      AllAnyKAlgorithms()[rng.Below(AllAnyKAlgorithms().size())];
  RankedQuery<TropicalDioid> rq(db, q, opts);
  EXPECT_EQ(rq.plan(), QueryPlan::kCycleUnion);
  testing::ExpectMatchesOracle<TropicalDioid>(rq.enumerator(), db, q);
}

// ---------------------------------------------------------------------------
// Flat GroupIndex fuzz: adversarial key distributions checked against a
// naive unordered_map oracle. Covers the open-addressing probe chains
// (all-equal keys, all-distinct keys, values crafted to collide after the
// splitmix64 mix) that the linear-pass build must survive.
// ---------------------------------------------------------------------------

enum class KeyDist {
  kAllEqual,     // one giant group
  kAllDistinct,  // every row its own group
  kFewHot,       // zipf-ish: a few hot keys + singletons
  kCollision,    // values differing only in high bits (hash stress)
  kUniform,
};

Value AdversarialValue(Rng* rng, KeyDist dist, size_t r) {
  switch (dist) {
    case KeyDist::kAllEqual: return 42;
    case KeyDist::kAllDistinct: return static_cast<Value>(r);
    case KeyDist::kFewHot:
      return rng->Bernoulli(0.7) ? static_cast<Value>(rng->Below(3))
                                 : static_cast<Value>(1000 + r);
    case KeyDist::kCollision:
      // Same low 32 bits, differing high bits: stresses the mixer and the
      // power-of-two mask (identical slots before mixing).
      return static_cast<Value>((static_cast<int64_t>(r) << 32) | 0x1234);
    case KeyDist::kUniform: return static_cast<Value>(rng->Uniform(-50, 50));
  }
  return 0;
}

class GroupIndexFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(GroupIndexFuzzTest, MatchesMapOracle) {
  const int variant = GetParam();
  Rng rng(9000 + variant);
  const KeyDist dist = static_cast<KeyDist>(variant % 5);
  const size_t rows = 1 + rng.Below(400);
  const size_t arity = 1 + rng.Below(3);
  const size_t key_width = rng.Below(arity + 1);  // 0..arity key columns

  Relation rel("F", arity);
  std::vector<Value> buf(arity);
  for (size_t r = 0; r < rows; ++r) {
    for (auto& v : buf) v = AdversarialValue(&rng, dist, r);
    rel.AddRow(buf, 0.0);
  }
  std::vector<uint32_t> key_cols;
  for (size_t c = 0; c < key_width; ++c) {
    key_cols.push_back(static_cast<uint32_t>(c));
  }

  GroupIndex idx(rel, key_cols);

  // Naive oracle.
  std::unordered_map<Key, std::vector<uint32_t>, KeyHash> oracle;
  for (size_t r = 0; r < rows; ++r) {
    oracle[rel.ProjectRow(r, key_cols)].push_back(static_cast<uint32_t>(r));
  }

  ASSERT_EQ(idx.NumGroups(), oracle.size());
  for (const auto& [key, want_rows] : oracle) {
    const auto got = idx.Lookup(key);
    ASSERT_EQ(std::vector<uint32_t>(got.begin(), got.end()), want_rows)
        << "rows of a group diverge (dist=" << variant << ")";
  }
  // Group ids are dense, in first-appearance order, and KeyOf round-trips.
  for (size_t g = 0; g < idx.NumGroups(); ++g) {
    const auto key_span = idx.KeyOf(g);
    const Key key(key_span.begin(), key_span.end());
    EXPECT_EQ(idx.Find(key), static_cast<int64_t>(g));
    ASSERT_TRUE(oracle.count(key) > 0);
  }
  // Absent keys must miss (probe chains must terminate).
  for (int probe = 0; probe < 50; ++probe) {
    Key absent(key_width);
    for (auto& v : absent) v = rng.Uniform(-5000, -4000);
    if (key_width == 0) break;  // the empty key always exists if rows > 0
    if (oracle.count(absent) == 0) {
      EXPECT_EQ(idx.Find(absent), -1);
      EXPECT_TRUE(idx.Lookup(absent).empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(KeyDistributions, GroupIndexFuzzTest,
                         ::testing::Range(0, 25));

// Tiny-capacity boundaries: Init(width, 0) must yield a valid power-of-two
// table (empty relations and connector stages are legal), and interning
// straight through the 75% load-factor boundary must neither probe a full
// table nor lose ids. Runs the same oracle loop across widths and a sweep
// of expected_keys values including 0.
TEST(FlatIndexFuzzTest, TinyCapacityAndLoadFactorBoundaryMatchOracle) {
  Rng rng(4242);
  for (const size_t width : {size_t{0}, size_t{1}, size_t{2}, size_t{3}}) {
    for (const size_t expected : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                                  size_t{4}, size_t{7}, size_t{8}}) {
      FlatKeyIndex idx;
      idx.Init(width, expected);
      EXPECT_EQ(idx.NumKeys(), 0u);
      if (width == 0) {
        // Zero-width keys: exactly one distinct key, idempotent intern.
        EXPECT_EQ(idx.Find({}), -1);
        EXPECT_EQ(idx.Intern({}), 0u);
        EXPECT_EQ(idx.Intern({}), 0u);
        EXPECT_EQ(idx.Find({}), 0);
        EXPECT_EQ(idx.NumKeys(), 1u);
        continue;
      }
      std::unordered_map<Key, uint32_t, KeyHash> oracle;
      // Interleave fresh keys with re-interns of everything seen so far, so
      // some re-intern lands exactly at the pre-growth boundary of every
      // table size the index passes through (4, 8, 16, ...).
      for (size_t i = 0; i < 64; ++i) {
        Key key(width);
        for (auto& v : key) v = rng.Uniform(0, 40);
        const auto [it, inserted] =
            oracle.try_emplace(key, static_cast<uint32_t>(oracle.size()));
        EXPECT_EQ(idx.Intern(key), it->second);
        for (const auto& [seen, id] : oracle) {
          ASSERT_EQ(idx.Intern(seen), id)
              << "re-intern changed an id at step " << i;
          ASSERT_EQ(idx.Find(seen), static_cast<int64_t>(id));
        }
        // Absent-key probes must terminate at every load factor.
        Key absent(width, -99 - static_cast<Value>(i));
        ASSERT_EQ(idx.Find(absent), -1);
      }
      ASSERT_EQ(idx.NumKeys(), oracle.size());
    }
  }
}

// Re-interning an existing key must never grow the table, even when the
// load factor sits exactly at the growth threshold (a pre-fix version
// doubled the table on any intern at the boundary, duplicate or not).
TEST(FlatIndexFuzzTest, DuplicateInternAtBoundaryDoesNotGrow) {
  for (const size_t distinct : {size_t{3}, size_t{6}, size_t{12}}) {
    FlatKeyIndex idx;
    idx.Init(1, 0);  // smallest table; grows on the way to `distinct`
    for (size_t i = 0; i < distinct; ++i) {
      idx.Intern(Key{static_cast<Value>(i)});
    }
    const size_t bytes_at_boundary = idx.MemoryBytes();
    for (size_t round = 0; round < 3; ++round) {
      for (size_t i = 0; i < distinct; ++i) {
        ASSERT_EQ(idx.Intern(Key{static_cast<Value>(i)}), i);
      }
    }
    EXPECT_EQ(idx.MemoryBytes(), bytes_at_boundary)
        << "duplicate interns grew a " << distinct << "-key table";
    EXPECT_EQ(idx.NumKeys(), distinct);
  }
}

// FlatKeyIndex under forced growth: start with a deliberately wrong
// expectation so the table rehashes repeatedly, and check ids survive.
TEST(FlatIndexFuzzTest, GrowthPreservesIds) {
  Rng rng(777);
  FlatKeyIndex idx;
  idx.Init(2, 1);  // undersized on purpose: forces doubling + rehash
  std::unordered_map<Key, uint32_t, KeyHash> oracle;
  for (size_t i = 0; i < 5000; ++i) {
    Key key{rng.Uniform(0, 500), rng.Uniform(0, 500)};
    const auto [it, inserted] =
        oracle.try_emplace(key, static_cast<uint32_t>(oracle.size()));
    const uint32_t id = idx.Intern(key);
    EXPECT_EQ(id, it->second) << "dense id diverged at insert " << i;
  }
  ASSERT_EQ(idx.NumKeys(), oracle.size());
  for (const auto& [key, id] : oracle) {
    ASSERT_EQ(idx.Find(key), static_cast<int64_t>(id));
  }
}

// ---------------------------------------------------------------------------
// Arena-path fuzz: force tiny arena blocks so every enumeration structure
// refills mid-run (block chaining, vector regrowth inside the arena) and
// verify the ranked output still matches the brute-force oracle.
// ---------------------------------------------------------------------------

TEST_P(FuzzTest, ArenaBlockChainingMatchesOracle) {
  const FuzzCase& fc = GetParam();
  Rng rng(fc.seed ^ 0xA12EA);
  std::vector<size_t> arities;
  ConjunctiveQuery q = RandomTreeQuery(&rng, fc.num_atoms, &arities);
  Database db =
      RandomDatabase(&rng, arities, fc.rows, fc.domain, fc.weight_max);
  TDPInstance inst = BuildAcyclicInstance(db, q);
  StageGraph<TropicalDioid> g = BuildStageGraph<TropicalDioid>(inst);
  // Minimal first block: the arena must chain (and vectors must regrow
  // across block boundaries) many times during enumeration.
  EnumOptions opts;
  opts.arena_block_bytes = 1;  // clamped to the arena's minimum block size
  for (Algorithm algo : AllAnyKAlgorithms()) {
    SCOPED_TRACE(std::string(AlgorithmName(algo)) + " on " + q.ToString());
    auto e = MakeEnumerator<TropicalDioid>(&g, algo, opts);
    testing::ExpectMatchesOracle<TropicalDioid>(e.get(), db, q);
  }
}

// ---------------------------------------------------------------------------
// DAryHeap / BoundedHeap fuzz: long random op tapes against a
// std::priority_queue oracle — bulk builds, duplicate-heavy keys, tiny
// capacities, all supported arities, and budgeted runs with adversarial
// successor pushes (the shape the ANYK-PART candidate queue produces).
// ---------------------------------------------------------------------------

template <size_t Arity>
void FuzzDAryHeapTape(uint64_t seed) {
  Rng rng(seed);
  using Heap = DAryHeap<int, std::less<int>, std::allocator<int>, Arity>;
  Heap heap;
  std::priority_queue<int, std::vector<int>, std::greater<int>> oracle;
  // Random initial bulk build of size 0..24 (tiny capacities included).
  {
    std::vector<int> initial(rng.Below(25));
    for (auto& x : initial) x = static_cast<int>(rng.Uniform(0, 8));
    for (int x : initial) oracle.push(x);
    heap.BuildFrom(std::move(initial));
  }
  for (int round = 0; round < 3000; ++round) {
    const double p = 0.05 + 0.9 * rng.Bernoulli(0.5);  // phase-y workloads
    if (oracle.empty() || rng.Bernoulli(p)) {
      const int v = static_cast<int>(rng.Uniform(0, 12));  // heavy duplicates
      heap.Push(v);
      oracle.push(v);
    } else {
      ASSERT_EQ(heap.Min(), oracle.top());
      ASSERT_EQ(heap.PopMin(), oracle.top());
      oracle.pop();
    }
    ASSERT_EQ(heap.Size(), oracle.size());
  }
}

TEST(DAryHeapFuzzTest, RandomTapesMatchPriorityQueueOracle) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    FuzzDAryHeapTape<2>(seed);
    FuzzDAryHeapTape<4>(seed ^ 0x44);
    FuzzDAryHeapTape<8>(seed ^ 0x88);
  }
}

TEST(BoundedHeapFuzzTest, BudgetedDrainsMatchUnboundedOracle) {
  // Lawler-shaped tape: every pop emits, successors are >= the popped key.
  // The bounded heap must pop the exact same key sequence as an unbounded
  // oracle for the whole budget, for any budget and duplicate density.
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed * 977);
    const size_t budget = 1 + rng.Below(60);
    const int dup_range = rng.Bernoulli(0.3) ? 3 : 1000;  // 30%: heavy ties
    SCOPED_TRACE("seed=" + std::to_string(seed) + " budget=" +
                 std::to_string(budget) + " dup_range=" +
                 std::to_string(dup_range));
    BoundedHeap<int> bounded;
    bounded.SetBudget(budget);
    std::priority_queue<int, std::vector<int>, std::greater<int>> oracle;
    bounded.Push(0);
    oracle.push(0);
    size_t emitted = 0;
    while (emitted < budget && !bounded.Empty()) {
      ASSERT_EQ(bounded.Min(), oracle.top());
      const int top = bounded.PopMin();
      ASSERT_EQ(top, oracle.top());
      oracle.pop();
      ++emitted;
      const size_t succ = rng.Below(5);
      for (size_t s = 0; s < succ; ++s) {
        const int child = top + static_cast<int>(rng.Uniform(0, dup_range));
        bounded.Push(child);
        oracle.push(child);
      }
    }
    // Exhausting before the budget means the oracle is empty too modulo
    // pruned-but-never-needed candidates; sizes only diverge via pruning.
    EXPECT_LE(bounded.Size(), oracle.size());
  }
}

// ---------------------------------------------------------------------------
// Bind-kernel fuzz: every primitive in storage/kernels.h against naive
// reference loops, over adversarial column data — skewed/hot ids, all-equal
// values, values crafted to collide after the hash mix (kCollision), lengths
// straddling every unroll remainder (n % 4 ∈ {0,1,2,3}), and empty inputs.
// ---------------------------------------------------------------------------

class KernelFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(KernelFuzzTest, MatchesNaiveLoops) {
  const int variant = GetParam();
  Rng rng(31000 + variant);
  const KeyDist dist = static_cast<KeyDist>(variant % 5);
  // Lengths cover every unroll remainder and degenerate sizes.
  const size_t col_rows = 1 + rng.Below(300);
  const size_t lens[] = {0, 1, 2, 3, 4, 5, 7, 8, 63 + rng.Below(70)};

  // Adversarial column + id vector (ids skew hot under kFewHot/kAllEqual).
  std::vector<Value> col(col_rows);
  for (size_t r = 0; r < col_rows; ++r) {
    col[r] = AdversarialValue(&rng, dist, r);
  }
  std::vector<uint32_t> u32col(col_rows);
  for (size_t r = 0; r < col_rows; ++r) {
    u32col[r] = static_cast<uint32_t>(rng.Below(1u << 20));
  }

  for (const size_t n : lens) {
    SCOPED_TRACE("n=" + std::to_string(n) + " dist=" +
                 std::to_string(variant));
    std::vector<uint32_t> ids(n);
    for (auto& id : ids) {
      id = static_cast<uint32_t>(
          dist == KeyDist::kAllEqual ? 0 : rng.Below(col_rows));
    }
    const size_t stride = 1 + rng.Below(5);
    const size_t offset = rng.Below(stride);
    std::vector<uint32_t> strided(std::max<size_t>(n * stride, 1));
    for (auto& v : strided) v = static_cast<uint32_t>(rng.Below(col_rows));

    std::vector<Value> got(n + 1, -777), want(n + 1, -777);
    Gather(col.data(), ids.data(), n, got.data());
    for (size_t i = 0; i < n; ++i) want[i] = col[ids[i]];
    ASSERT_EQ(got, want) << "Gather";

    std::vector<Value> got_s(std::max<size_t>(n * stride, 1), -777);
    std::vector<Value> want_s(got_s);
    GatherToStride(col.data(), ids.data(), n, got_s.data(), stride);
    for (size_t i = 0; i < n; ++i) want_s[i * stride] = col[ids[i]];
    ASSERT_EQ(got_s, want_s) << "GatherToStride stride=" << stride;

    std::vector<uint32_t> got_u(n + 1, 0xdead), want_u(n + 1, 0xdead);
    GatherU32(u32col.data(), ids.data(), n, got_u.data());
    for (size_t i = 0; i < n; ++i) want_u[i] = u32col[ids[i]];
    ASSERT_EQ(got_u, want_u) << "GatherU32";

    // GatherU32Strided reads base[id*stride + offset]; ids must stay in
    // range of the strided buffer.
    std::vector<uint32_t> sids(n);
    const size_t srows = strided.size() / stride;
    for (auto& id : sids) {
      id = static_cast<uint32_t>(srows != 0 ? rng.Below(srows) : 0);
    }
    if (srows != 0) {
      GatherU32Strided(strided.data(), stride, offset, sids.data(), n,
                       got_u.data());
      for (size_t i = 0; i < n; ++i) {
        want_u[i] = strided[sids[i] * stride + offset];
      }
      ASSERT_EQ(got_u, want_u) << "GatherU32Strided";

      const size_t cn = std::min(n, srows);
      CopyStridedU32(strided.data(), stride, offset, cn, got_u.data());
      for (size_t i = 0; i < cn; ++i) {
        want_u[i] = strided[i * stride + offset];
      }
      ASSERT_EQ(std::vector<uint32_t>(got_u.begin(), got_u.begin() + cn),
                std::vector<uint32_t>(want_u.begin(), want_u.begin() + cn))
          << "CopyStridedU32";
    }

    const size_t sn = std::min(n, col_rows);
    std::fill(got_s.begin(), got_s.end(), -777);
    std::fill(want_s.begin(), want_s.end(), -777);
    SpreadToStride(col.data(), sn, got_s.data(), stride);
    for (size_t i = 0; i < sn; ++i) want_s[i * stride] = col[i];
    ASSERT_EQ(got_s, want_s) << "SpreadToStride";
  }
}

TEST_P(KernelFuzzTest, CombineMatchesDirectEvaluation) {
  const int variant = GetParam();
  Rng rng(32000 + variant);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4},
                         size_t{17}, size_t{100 + rng.Below(60)}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<double> a(n), b(n);
    for (auto& x : a) x = static_cast<double>(rng.Uniform(-50, 50));
    // Heavy ties under odd variants: all-equal b column.
    for (auto& x : b) {
      x = variant % 2 ? 7.0 : static_cast<double>(rng.Uniform(-50, 50));
    }

    std::vector<double> got(n + 1, -1e9), want(n + 1, -1e9);
    Combine<TropicalDioid>(a.data(), b.data(), n, got.data());
    for (size_t i = 0; i < n; ++i) {
      want[i] = TropicalDioid::Combine(a[i], b[i]);
    }
    ASSERT_EQ(got, want) << "tropical Combine";

    Combine<MinMaxDioid>(a.data(), b.data(), n, got.data());
    for (size_t i = 0; i < n; ++i) {
      want[i] = MinMaxDioid::Combine(a[i], b[i]);
    }
    ASSERT_EQ(got, want) << "min-max Combine";
  }
}

INSTANTIATE_TEST_SUITE_P(AdversarialColumns, KernelFuzzTest,
                         ::testing::Range(0, 15));

std::string FuzzName(const ::testing::TestParamInfo<FuzzCase>& info) {
  return "s" + std::to_string(info.param.seed) + "_a" +
         std::to_string(info.param.num_atoms) + "_r" +
         std::to_string(info.param.rows) + "_d" +
         std::to_string(info.param.domain);
}

INSTANTIATE_TEST_SUITE_P(
    Random, FuzzTest,
    ::testing::Values(FuzzCase{11, 2, 30, 4, 100}, FuzzCase{12, 3, 25, 3, 50},
                      FuzzCase{13, 3, 40, 5, 10}, FuzzCase{14, 4, 20, 3, 100},
                      FuzzCase{15, 4, 30, 4, 2},  // heavy ties
                      FuzzCase{16, 5, 15, 3, 100}, FuzzCase{17, 5, 20, 4, 50},
                      FuzzCase{18, 6, 12, 3, 100}, FuzzCase{19, 6, 15, 2, 20},
                      FuzzCase{20, 7, 10, 3, 100}, FuzzCase{21, 8, 8, 2, 50},
                      FuzzCase{22, 3, 60, 8, 1},  // all equal weights
                      FuzzCase{23, 4, 50, 10, 10000},
                      FuzzCase{24, 2, 5, 2, 100},  // tiny
                      FuzzCase{25, 5, 25, 5, 100}),
    FuzzName);

}  // namespace
}  // namespace anyk
