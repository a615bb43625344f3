// Structural invariant tests backing the complexity table (paper Fig. 5):
// operation counters of the any-k algorithms must respect the per-result
// bounds that the asymptotic analysis relies on.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "anyk/anyk_part.h"
#include "anyk/anyk_rec.h"
#include "anyk/batch.h"
#include "anyk/factory.h"
#include "anyk/prepared_query.h"
#include "anyk/query_handle.h"
#include "anyk/sharded_query.h"
#include "anyk/strategies.h"
#include "util/dary_heap.h"
#include "dioid/min_max.h"
#include "dioid/tropical.h"
#include "dp/stage_graph.h"
#include "plan/stats.h"
#include "query/cq.h"
#include "query/join_tree.h"
#include "query/sql.h"
#include "util/alloc_stats.h"
#include "util/arena.h"
#include "util/random.h"
#include "workload/generators.h"

namespace anyk {
namespace {

struct Fixture {
  Database db;
  ConjunctiveQuery q;
  TDPInstance inst;
  StageGraph<TropicalDioid> g;

  Fixture(size_t n, size_t l, uint64_t seed, double fanout)
      : db(MakePathDatabase(n, l, seed, {.fanout = fanout})),
        q(ConjunctiveQuery::Path(l)),
        inst(BuildAcyclicInstance(db, q)),
        g(BuildStageGraph<TropicalDioid>(inst)) {}
};

// A 4-cycle (path relations R1..R4 closed by R4.A2 = R1.A1), prepared as a
// cycle union of five trees: the session type Recursive and Lazy drain
// through on the benchmark's drain-cycle4.
struct CycleFixture {
  Database db;
  ConjunctiveQuery q;
  PreparedQuery<TropicalDioid> pq;

  CycleFixture(size_t n, uint64_t seed, double fanout,
               PrepareOptions opts = {})
      : db(MakePathDatabase(n, 4, seed, {.fanout = fanout})),
        q(ConjunctiveQuery::Cycle(4)),
        pq(db, q, opts) {}

  std::unique_ptr<Enumerator<TropicalDioid>> Open(Algorithm algo) const {
    return pq.NewSessionEnumerator(algo, pq.default_enum_options());
  }
};

// A 3-star S1(x, a), S2(x, b), S3(x, c): the root state has λ = 3 child
// slots, so Recursive ranks Cartesian products of branch rankings.
struct StarFixture {
  Database db;
  ConjunctiveQuery q;
  TDPInstance inst;
  StageGraph<TropicalDioid> g;

  explicit StarFixture(uint64_t seed, int rows = 200)
      : db(MakeStar(seed, rows)),
        q(StarQuery()),
        inst(BuildAcyclicInstance(db, q)),
        g(BuildStageGraph<TropicalDioid>(inst)) {}

  static Database MakeStar(uint64_t seed, int rows) {
    Rng rng(seed);
    Database db;
    for (int i = 1; i <= 3; ++i) {
      auto& rel = db.AddRelation("S" + std::to_string(i), 2);
      for (int r = 0; r < rows; ++r) {
        rel.Add({rng.Uniform(0, 8), rng.Uniform(0, 30)},
                static_cast<double>(rng.Uniform(0, 50)));
      }
    }
    return db;
  }
  static ConjunctiveQuery StarQuery() {
    ConjunctiveQuery q;
    q.AddAtom("S1", {"x", "a"});
    q.AddAtom("S2", {"x", "b"});
    q.AddAtom("S3", {"x", "c"});
    return q;
  }
};

TEST(InvariantTest, Take2AtMostTwoSuccessorsPerCall) {
  Fixture f(200, 4, 71, 10.0);
  AnyKPartEnumerator<TropicalDioid, Take2Strategy> e(&f.g);
  size_t k = 0;
  while (e.Next() && k < 500) ++k;
  const auto& ss = e.strategy_stats();
  EXPECT_LE(ss.succ_returned, 2 * ss.succ_calls);
  // Per result: <= L successor calls, each adding <= 2 candidates, plus the
  // initial candidate.
  const size_t L = f.g.stages.size();
  EXPECT_LE(e.stats().pushes, 1 + k * 2 * L);
  // MEM(k): candidate set stays O(k * l).
  EXPECT_LE(e.stats().max_cand_size, 1 + 2 * L * (k + 1));
}

TEST(InvariantTest, EagerAndLazySingleSuccessor) {
  Fixture f(200, 4, 72, 10.0);
  AnyKPartEnumerator<TropicalDioid, EagerStrategy> eager(&f.g);
  AnyKPartEnumerator<TropicalDioid, LazyStrategy> lazy(&f.g);
  size_t k = 0;
  while (eager.Next() && lazy.Next() && k < 500) ++k;
  EXPECT_LE(eager.strategy_stats().succ_returned,
            eager.strategy_stats().succ_calls);
  EXPECT_LE(lazy.strategy_stats().succ_returned,
            lazy.strategy_stats().succ_calls);
  const size_t L = f.g.stages.size();
  EXPECT_LE(eager.stats().pushes, 1 + k * L);
  EXPECT_LE(lazy.stats().pushes, 1 + k * L);
}

TEST(InvariantTest, AllInsertsEverySiblingOnce) {
  Fixture f(80, 3, 73, 8.0);
  AnyKPartEnumerator<TropicalDioid, AllStrategy> e(&f.g);
  // Drain fully: total pushes equal total deviations considered; every
  // candidate is pushed exactly once, so pushes == pops when exhausted.
  size_t k = 0;
  while (e.Next()) ++k;
  EXPECT_EQ(e.stats().pops, e.stats().pushes);
  EXPECT_GT(k, 0u);
}

TEST(InvariantTest, PopsNeverExceedPushes) {
  Fixture f(100, 4, 74, 6.0);
  AnyKPartEnumerator<TropicalDioid, Take2Strategy> e(&f.g);
  while (e.Next()) {
    EXPECT_LE(e.stats().pops, e.stats().pushes);
  }
}

TEST(InvariantTest, RecursivePqOpsLinearInDepthPerResult) {
  Fixture f(150, 5, 75, 8.0);
  RecursiveEnumerator<TropicalDioid> e(&f.g);
  const size_t L = f.g.stages.size();
  size_t prev_pops = 0;
  size_t k = 0;
  while (k < 300) {
    if (!e.Next()) break;
    ++k;
    const size_t pops = e.stats().heap_pops;
    // Each next() materializes at most one new rank per stage, i.e. <= 2*L
    // pops even while rankings warm up.
    EXPECT_LE(pops - prev_pops, 2 * L) << "at k=" << k;
    prev_pops = pops;
  }
}

TEST(InvariantTest, RecursiveTotalPopsBoundedBySuffixCount) {
  // Theorem 11's accounting: over a full enumeration, each suffix enters and
  // leaves a connector priority queue at most once.
  Fixture f(60, 4, 76, 6.0);
  RecursiveEnumerator<TropicalDioid> e(&f.g);
  size_t out = 0;
  while (e.Next()) ++out;
  size_t suffix_bound = 0;  // total suffixes = sum over connectors of paths
  // Upper bound: (#results) * stages + total states (loose but shape-true).
  suffix_bound = out * f.g.stages.size();
  for (const auto& st : f.g.stages) suffix_bound += st.NumStates();
  EXPECT_LE(e.stats().heap_pops, suffix_bound);
}

TEST(InvariantTest, LazyInitializesConnectorsLazily) {
  Fixture f(300, 4, 77, 10.0);
  AnyKPartEnumerator<TropicalDioid, LazyStrategy> e(&f.g);
  ASSERT_TRUE(e.Next().has_value());
  // After one result only the connectors on one root-to-leaf path (plus the
  // root) can have been initialized: at most L.
  EXPECT_LE(e.strategy_stats().conns_initialized, f.g.stages.size());
}

// ---------------------------------------------------------------------------
// Session open does not scale with the data: the connector heap order is
// part of the shared stage graph, so a session only pays for the
// connectors it touches — Take2 not even a pointer table.
// ---------------------------------------------------------------------------

/// Global-heap bytes allocated by constructing an enumerator of type E.
template <typename E>
uint64_t OpenBytes(const StageGraph<TropicalDioid>& g) {
  const AllocCounts before = CurrentAllocCounts();
  E e(&g);
  return AllocDelta(before, CurrentAllocCounts()).bytes;
}

TEST(InvariantTest, Take2SessionOpenIsIndependentOfDataSize) {
  Fixture small(300, 4, 88, 10.0);
  Fixture large(3000, 4, 88, 10.0);
  ASSERT_GT(large.g.total_connectors, 5 * small.g.total_connectors);
  using Take2 = AnyKPartEnumerator<TropicalDioid, Take2Strategy>;
  EXPECT_EQ(OpenBytes<Take2>(small.g), OpenBytes<Take2>(large.g));
  Take2 e(&large.g);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(e.Next().has_value());
  EXPECT_EQ(e.strategy_stats().init_work, 0u);
  EXPECT_EQ(e.strategy_stats().conns_initialized, 0u);
}

TEST(InvariantTest, SessionOpenCostsAtMostOnePointerPerConnector) {
  Fixture f(20000, 4, 89, 10.0);
  // 8-byte table entries plus a size-independent constant: the arena's
  // first block and the enumerator's O(L) buffers.
  const uint64_t bound =
      8 * uint64_t{f.g.total_connectors} + Arena::kDefaultFirstBlockBytes + 1024;
  EXPECT_LE(OpenBytes<RecursiveEnumerator<TropicalDioid>>(f.g), bound);
  EXPECT_LE(
      (OpenBytes<AnyKPartEnumerator<TropicalDioid, LazyStrategy>>(f.g)), bound);
  EXPECT_LE(
      (OpenBytes<AnyKPartEnumerator<TropicalDioid, EagerStrategy>>(f.g)),
      bound);
}

TEST(InvariantTest, RecursiveFirstAnswerPushesOLNotRootSize) {
  Fixture f(3000, 4, 90, 10.0);
  const size_t L = f.g.stages.size();
  const uint32_t root_size =
      f.g.stages[0].ConnSize(StageGraph<TropicalDioid>::kRootConn);
  ASSERT_GT(root_size, 100 * L) << "root connector too small to tell";
  RecursiveEnumerator<TropicalDioid> e(&f.g);
  ASSERT_TRUE(e.Next().has_value());
  // One seed entry per connector on the answer's root-to-leaf path.
  EXPECT_LE(e.stats().heap_pushes, L);
  ASSERT_TRUE(e.Next().has_value());
  // The second answer pops at most once per stage, admitting two heap
  // children and one deeper rank per pop, then seeds at most one new
  // connector per stage below its own root member.
  EXPECT_LE(e.stats().heap_pushes, L + 3 * L + L);
}

// ---------------------------------------------------------------------------
// Flat-memory invariants: the enumeration phase performs ZERO global heap
// allocations. Everything it needs — candidates, prefixes, lazily built
// strategy structures, suffix rankings — lives in the per-query arena, which
// preprocessing reserves. Verified through the counting allocator hook of
// util/alloc_stats.h (the library replaces global operator new/delete).
//
// Protocol: construct the enumerator with a generous arena reservation
// (preprocessing), pull one result through the caller-owned row to warm its
// output buffers, snapshot the counters, drain k more results, and require
// the operator-new delta to be exactly zero.
// ---------------------------------------------------------------------------

template <typename D, typename E>
void ExpectZeroAllocEnumeration(const StageGraph<D>& g, size_t k) {
  EnumOptions opts;
  opts.arena_reserve_bytes = size_t{16} << 20;  // 16 MiB, ample for the test
  E e(&g, opts);
  ResultRow<D> row;
  ASSERT_TRUE(e.NextInto(&row));  // warm-up: sizes the row's buffers
  const AllocCounts before = CurrentAllocCounts();
  size_t produced = 0;
  while (produced < k && e.NextInto(&row)) ++produced;
  const AllocCounts delta = AllocDelta(before, CurrentAllocCounts());
  EXPECT_EQ(delta.news, 0u)
      << "enumeration of " << produced << " results hit the global heap "
      << delta.news << " times (" << delta.bytes << " bytes)";
  EXPECT_GT(e.arena().BytesUsed(), 0u) << "arena was never used";
  EXPECT_GT(produced, 100u) << "instance too small to be meaningful";
}

TEST(InvariantTest, ZeroHeapAllocationsDuringEnumeration) {
  Fixture f(300, 4, 79, 8.0);
  ExpectZeroAllocEnumeration<
      TropicalDioid, AnyKPartEnumerator<TropicalDioid, Take2Strategy>>(f.g,
                                                                       2000);
  ExpectZeroAllocEnumeration<
      TropicalDioid, AnyKPartEnumerator<TropicalDioid, LazyStrategy>>(f.g,
                                                                      2000);
  ExpectZeroAllocEnumeration<
      TropicalDioid, AnyKPartEnumerator<TropicalDioid, EagerStrategy>>(f.g,
                                                                       2000);
  ExpectZeroAllocEnumeration<
      TropicalDioid, AnyKPartEnumerator<TropicalDioid, AllStrategy>>(f.g,
                                                                     2000);
  ExpectZeroAllocEnumeration<TropicalDioid,
                             RecursiveEnumerator<TropicalDioid>>(f.g, 2000);
}

TEST(InvariantTest, ZeroHeapAllocationsWithoutDioidInverse) {
  // MinMax has no ⊗-inverse: ANYK-PART takes the explicit-frontier fallback
  // (Section 6.2), which must also stay allocation-free.
  Database db = MakePathDatabase(300, 4, 80, {.fanout = 8.0});
  ConjunctiveQuery q = ConjunctiveQuery::Path(4);
  TDPInstance inst = BuildAcyclicInstance(db, q);
  StageGraph<MinMaxDioid> g = BuildStageGraph<MinMaxDioid>(inst);
  ExpectZeroAllocEnumeration<
      MinMaxDioid, AnyKPartEnumerator<MinMaxDioid, Take2Strategy>>(g, 2000);
  ExpectZeroAllocEnumeration<MinMaxDioid, RecursiveEnumerator<MinMaxDioid>>(
      g, 2000);
}

TEST(InvariantTest, ZeroHeapAllocationsOnStarQuery) {
  // Star shape: the root state has λ = 3 child slots, exercising Recursive's
  // Cartesian-product rankings (per-combo rank vectors live in the arena).
  const StarFixture star(81);
  ExpectZeroAllocEnumeration<TropicalDioid,
                             RecursiveEnumerator<TropicalDioid>>(star.g, 2000);
  ExpectZeroAllocEnumeration<
      TropicalDioid, AnyKPartEnumerator<TropicalDioid, LazyStrategy>>(star.g,
                                                                      2000);
}

TEST(InvariantTest, ArenaGrowsGeometricallyWithoutReservation) {
  // Without a reservation the arena refills from the global heap, but only
  // O(log(bytes)) times — enumeration must not allocate per result.
  Fixture f(300, 4, 82, 8.0);
  AnyKPartEnumerator<TropicalDioid, Take2Strategy> e(&f.g);
  ResultRow<TropicalDioid> row;
  ASSERT_TRUE(e.NextInto(&row));
  const AllocCounts before = CurrentAllocCounts();
  size_t produced = 0;
  while (produced < 5000 && e.NextInto(&row)) ++produced;
  const AllocCounts delta = AllocDelta(before, CurrentAllocCounts());
  EXPECT_GT(produced, 1000u);
  // Geometric block growth: far fewer heap trips than results.
  EXPECT_LE(delta.news, 20u);
}

// ---------------------------------------------------------------------------
// Budget-aware top-k fast path: with EnumOptions::k_budget = k the candidate
// heap must stay O(k) (BoundedHeap pruning + compaction) instead of growing
// with the number of generated candidates, the budgeted prefix must match
// the unbounded run, and the enumerator must report exhaustion at k.
// ---------------------------------------------------------------------------

TEST(InvariantTest, CandidateHeapStaysOrderKUnderBudget) {
  // Large instance with continuous random weights (tie groups are tiny, so
  // the O(k) bound is meaningful).
  Fixture f(400, 4, 83, 10.0);
  const size_t L = f.g.stages.size();
  for (const size_t k : {1u, 10u, 100u}) {
    EnumOptions opts;
    opts.k_budget = k;
    AnyKPartEnumerator<TropicalDioid, LazyStrategy> bounded(&f.g, opts);
    AnyKPartEnumerator<TropicalDioid, LazyStrategy> unbounded(&f.g);
    ResultRow<TropicalDioid> row, urow;
    size_t produced = 0;
    while (bounded.NextInto(&row)) {
      ASSERT_TRUE(unbounded.NextInto(&urow));
      // Weight-for-weight prefix equality; witness order inside tie groups
      // is only pinned down under a tie-break dioid (differential_test's
      // BoundedKSweep covers that side).
      ASSERT_EQ(row.weight, urow.weight) << "k=" << k << " rank=" << produced;
      ++produced;
    }
    EXPECT_EQ(produced, k) << "budget must stop the enumerator at k";
    // O(k): compaction cap (doubled once for the tie-group watermark) plus
    // the per-result burst of <= L+1 successor pushes.
    const size_t cap = std::max<size_t>(2 * k, 64);
    EXPECT_LE(bounded.stats().max_cand_size, 2 * cap + L + 1) << "k=" << k;
    EXPECT_LE(bounded.stats().pushes, unbounded.stats().pushes);
    // Whenever the unbounded heap outgrows the bounded cap, the budgeted
    // run must actually have pruned or compacted to stay inside it.
    if (unbounded.stats().max_cand_size > 2 * cap + L + 1) {
      const BoundedHeapStats bh = bounded.bounded_heap_stats();
      EXPECT_GT(bh.pruned_pushes + bh.compactions, 0u)
          << "budget k=" << k << " never pruned on a large instance";
    }
  }
}

TEST(InvariantTest, BudgetSkipsSuccessorGenerationForFinalAnswer) {
  Fixture f(200, 4, 84, 8.0);
  EnumOptions opts;
  opts.k_budget = 1;
  AnyKPartEnumerator<TropicalDioid, LazyStrategy> e(&f.g, opts);
  ResultRow<TropicalDioid> row;
  ASSERT_TRUE(e.NextInto(&row));
  // k=1: the only answer is the DP optimum; no deviation may be generated.
  EXPECT_EQ(e.stats().pushes, 1u);  // just the initial candidate
  EXPECT_FALSE(e.NextInto(&row));
}

TEST(InvariantTest, BatchEnumerationIsAllocationFreeAfterMaterialize) {
  // The batch algorithm materializes on first pull; after that, NextInto /
  // NextBatch must reuse the row buffers (resize + fill, never a fresh
  // allocation) just like the any-k hot path.
  Fixture f(300, 4, 85, 8.0);
  BatchEnumerator<TropicalDioid> e(&f.g);
  ResultRow<TropicalDioid> row;
  ASSERT_TRUE(e.NextInto(&row));  // materializes + warms the row buffers
  std::vector<ResultRow<TropicalDioid>> batch(64);
  ASSERT_EQ(e.NextBatch(batch.data(), batch.size()), batch.size());  // warm
  const AllocCounts before = CurrentAllocCounts();
  size_t produced = 0;
  while (produced < 1000 && e.NextInto(&row)) ++produced;
  while (produced < 3000) {
    const size_t got = e.NextBatch(batch.data(), batch.size());
    if (got == 0) break;
    produced += got;
  }
  const AllocCounts delta = AllocDelta(before, CurrentAllocCounts());
  EXPECT_EQ(delta.news, 0u)
      << "batch enumeration of " << produced << " results hit the global "
      << "heap " << delta.news << " times (" << delta.bytes << " bytes)";
  EXPECT_GT(produced, 1000u) << "instance too small to be meaningful";
}

TEST(InvariantTest, StatsCollectionNeverTouchesTheGlobalHeap) {
  // The planner reads CollectGraphStats on the serving path (anykd prepares
  // under load); it must stay a pure scalar reduction over counters the
  // build already produced — zero operator-new calls, however often it runs.
  Fixture f(300, 4, 86, 8.0);
  plan::GraphStats warm = plan::CollectGraphStats(f.g);
  const AllocCounts before = CurrentAllocCounts();
  plan::GraphStats merged;
  for (int i = 0; i < 100; ++i) {
    const plan::GraphStats s = plan::CollectGraphStats(f.g);
    plan::MergeGraphStats(&merged, s);
  }
  const AllocCounts delta = AllocDelta(before, CurrentAllocCounts());
  EXPECT_EQ(delta.news, 0u)
      << "stats collection hit the global heap " << delta.news << " times";
  EXPECT_EQ(merged.stages, warm.stages);
  EXPECT_EQ(merged.states, 100 * warm.states);
  EXPECT_GT(warm.output_count, 0.0);
}

// ---------------------------------------------------------------------------
// NextBatch partial-fill contract (anyk/enumerator.h): a short return —
// fewer rows than requested, including zero — is exclusively the exhaustion
// signal; exhaustion is sticky; every returned row is fully bound; and
// NextBatch interleaves freely with NextInto. Swept across every ranked
// algorithm (base-class fallback and the kernelized overrides alike) and
// across batch sizes that don't divide the output count.
// ---------------------------------------------------------------------------

/// One subject of the contract sweep: a name, a factory of fresh
/// enumerators, the query whose witness rows recompute each weight, and the
/// fixture's answer count, taken from one reference drain (Lazy's NextInto)
/// so that no subject is checked only against itself.
struct BatchSubject {
  std::string name;
  std::function<std::unique_ptr<Enumerator<TropicalDioid>>()> open;
  const Database* db;
  const ConjunctiveQuery* q;
  size_t total;
};

size_t CountAnswers(Enumerator<TropicalDioid>* e) {
  ResultRow<TropicalDioid> row;
  size_t total = 0;
  while (e->NextInto(&row)) ++total;
  return total;
}

/// Every ranked algorithm over the path fixture and over the 4-cycle union,
/// plus a RecursiveEnumerator built directly over the star fixture (its
/// product-state rankings).
std::vector<BatchSubject> BatchSubjects(const Fixture& f,
                                        const CycleFixture& cycle,
                                        const StarFixture& star) {
  const size_t path_total =
      CountAnswers(MakeEnumerator(&f.g, Algorithm::kLazy).get());
  const size_t cycle_total = CountAnswers(cycle.Open(Algorithm::kLazy).get());
  const size_t star_total =
      CountAnswers(MakeEnumerator(&star.g, Algorithm::kLazy).get());
  std::vector<BatchSubject> subjects;
  for (Algorithm algo : AllRankedAlgorithms()) {
    subjects.push_back({std::string("path/") + AlgorithmName(algo),
                        [&f, algo] { return MakeEnumerator(&f.g, algo); },
                        &f.db, &f.q, path_total});
    subjects.push_back({std::string("cycle-union/") + AlgorithmName(algo),
                        [&cycle, algo] { return cycle.Open(algo); },
                        &cycle.db, &cycle.q, cycle_total});
  }
  subjects.push_back({"star/RecursiveEnumerator",
                      [&star] {
                        return std::make_unique<
                            RecursiveEnumerator<TropicalDioid>>(&star.g);
                      },
                      &star.db, &star.q, star_total});
  return subjects;
}

TEST(InvariantTest, NextBatchContract) {
  const Fixture f(80, 4, 87, 6.0);
  const CycleFixture cycle(60, 87, 6.0);
  const StarFixture star(87, 40);
  for (const BatchSubject& subject : BatchSubjects(f, cycle, star)) {
    const size_t total = subject.total;
    ASSERT_GT(total, 100u) << subject.name
                           << ": instance too small to exercise batching";
    const size_t atoms = subject.q->NumAtoms();
    for (const size_t n : {1u, 3u, 64u, 1000u}) {
      auto e = subject.open();
      std::vector<ResultRow<TropicalDioid>> rows(n);
      size_t got_total = 0;
      double prev_weight = -std::numeric_limits<double>::infinity();
      while (true) {
        const size_t got = e->NextBatch(rows.data(), rows.size());
        ASSERT_LE(got, n);
        for (size_t b = 0; b < got; ++b) {
          // Fully bound: assignment, witness, and a weight that recomputes
          // exactly from the witness rows.
          ASSERT_EQ(rows[b].assignment.size(), subject.q->NumVars())
              << subject.name << " n=" << n;
          ASSERT_EQ(rows[b].witness.size(), atoms);
          double sum = 0;
          for (size_t a = 0; a < atoms; ++a) {
            sum += subject.db->Get(subject.q->atom(a).relation)
                       .Weight(rows[b].witness[a]);
          }
          ASSERT_EQ(rows[b].weight, sum)
              << subject.name << " n=" << n << " rank=" << got_total + b;
          ASSERT_GE(rows[b].weight, prev_weight) << "ranked order violated";
          prev_weight = rows[b].weight;
        }
        got_total += got;
        if (got < n) {
          // Short return means exhausted — and stays exhausted.
          EXPECT_EQ(e->NextBatch(rows.data(), rows.size()), 0u)
              << subject.name << ": exhaustion must be sticky";
          ResultRow<TropicalDioid> one;
          EXPECT_FALSE(e->NextInto(&one))
              << subject.name << ": NextInto after a short NextBatch";
          EXPECT_EQ(e->NextBatch(rows.data(), rows.size()), 0u);
          break;
        }
      }
      EXPECT_EQ(got_total, total)
          << subject.name << " n=" << n
          << ": a short return hid results instead of signaling exhaustion";
    }
  }
}

TEST(InvariantTest, NextBatchInterleavesWithNextInto) {
  const Fixture f(80, 4, 88, 6.0);
  const CycleFixture cycle(60, 88, 6.0);
  const StarFixture star(88, 40);
  for (const BatchSubject& subject : BatchSubjects(f, cycle, star)) {
    const size_t total = subject.total;
    // The interleaved drain must also be the NextInto drain, row for row.
    std::vector<ResultRow<TropicalDioid>> want;
    {
      auto ref = subject.open();
      ResultRow<TropicalDioid> row;
      while (ref->NextInto(&row)) want.push_back(row);
    }
    ASSERT_EQ(want.size(), total) << subject.name << ": NextInto drain";
    auto e = subject.open();
    std::vector<ResultRow<TropicalDioid>> rows(5);
    ResultRow<TropicalDioid> one;
    size_t got_total = 0;
    auto expect_row = [&](const ResultRow<TropicalDioid>& row) {
      ASSERT_LT(got_total, want.size()) << subject.name;
      EXPECT_EQ(row.weight, want[got_total].weight) << subject.name;
      EXPECT_EQ(row.witness, want[got_total].witness)
          << subject.name << " rank=" << got_total;
      ++got_total;
    };
    while (true) {
      const size_t got = e->NextBatch(rows.data(), rows.size());
      for (size_t b = 0; b < got; ++b) expect_row(rows[b]);
      if (got < rows.size()) break;
      if (!e->NextInto(&one)) break;
      expect_row(one);
    }
    EXPECT_EQ(got_total, total) << subject.name;
  }
}

TEST(InvariantTest, ZeroHeapAllocationsDuringBatchedEnumeration) {
  // The kernelized NextBatch override gathers through caller-owned +
  // arena-backed scratch; like the scalar path it must never touch the
  // global heap once the row buffers are warm.
  Fixture f(300, 4, 89, 8.0);
  EnumOptions opts;
  opts.arena_reserve_bytes = size_t{16} << 20;
  AnyKPartEnumerator<TropicalDioid, LazyStrategy> e(&f.g, opts);
  std::vector<ResultRow<TropicalDioid>> rows(64);
  ASSERT_EQ(e.NextBatch(rows.data(), rows.size()), rows.size());  // warm
  const AllocCounts before = CurrentAllocCounts();
  size_t produced = 0;
  while (produced < 3000) {
    const size_t got = e.NextBatch(rows.data(), rows.size());
    produced += got;
    if (got < rows.size()) break;
  }
  const AllocCounts delta = AllocDelta(before, CurrentAllocCounts());
  EXPECT_EQ(delta.news, 0u)
      << "batched enumeration of " << produced << " results hit the global "
      << "heap " << delta.news << " times (" << delta.bytes << " bytes)";
  EXPECT_GT(produced, 1000u) << "instance too small to be meaningful";
}

/// Warm a batched drain with one page, then require the next pages —
/// up to `k` answers — to make zero operator-new calls.
void ExpectZeroAllocBatchedDrain(Enumerator<TropicalDioid>* e, size_t k,
                                 const std::string& name) {
  std::vector<ResultRow<TropicalDioid>> rows(64);
  ASSERT_EQ(e->NextBatch(rows.data(), rows.size()), rows.size()) << name;
  const AllocCounts before = CurrentAllocCounts();
  size_t produced = 0;
  while (produced < k) {
    const size_t got = e->NextBatch(rows.data(), rows.size());
    produced += got;
    if (got < rows.size()) break;
  }
  const AllocCounts delta = AllocDelta(before, CurrentAllocCounts());
  EXPECT_EQ(delta.news, 0u)
      << name << ": batched enumeration of " << produced << " results hit "
      << "the global heap " << delta.news << " times (" << delta.bytes
      << " bytes)";
  EXPECT_GT(produced, 1000u) << name << ": instance too small";
}

TEST(InvariantTest, ZeroHeapAllocationsDuringBatchedRecursiveAndUnion) {
  // Recursive's stage-wise NextBatch keeps its state matrix in the arena,
  // and the union swaps rows between the caller's page and its one pending
  // row per part, so once the warm-up page has sized every buffer in that
  // rotation nothing is allocated again.
  EnumOptions eopts;
  eopts.arena_reserve_bytes = size_t{16} << 20;
  const Fixture f(300, 4, 89, 8.0);
  RecursiveEnumerator<TropicalDioid> path_rec(&f.g, eopts);
  ExpectZeroAllocBatchedDrain(&path_rec, 3000, "path/Recursive");
  const StarFixture star(89);
  RecursiveEnumerator<TropicalDioid> star_rec(&star.g, eopts);
  ExpectZeroAllocBatchedDrain(&star_rec, 3000, "star/Recursive");

  PrepareOptions popts;
  popts.enum_opts.arena_reserve_bytes = size_t{4} << 20;  // per union part
  const CycleFixture cycle(200, 89, 6.0, popts);
  for (Algorithm algo : AllRankedAlgorithms()) {
    auto e = cycle.Open(algo);
    ExpectZeroAllocBatchedDrain(
        e.get(), 3000, std::string("cycle-union/") + AlgorithmName(algo));
  }
}

TEST(InvariantTest, RecursiveArenaStaysBelowOneEntryPerAnswer) {
  // Suffix sharing keeps Recursive's memory proportional to the suffixes
  // below shared connectors, not to the answers: a full drain of a path
  // whose connectors are shared by ~8 parents each must use fewer arena
  // bytes than one 16-byte ranked entry (value + member + rank) per
  // answer — the size a memoized root ranking would take on its own.
  const Fixture f(200, 4, 90, 8.0);
  size_t states = 0;
  for (const auto& st : f.g.stages) states += st.NumStates();
  RecursiveEnumerator<TropicalDioid> e(&f.g);
  std::vector<ResultRow<TropicalDioid>> rows(64);
  size_t answers = 0;
  while (true) {
    const size_t got = e.NextBatch(rows.data(), rows.size());
    answers += got;
    if (got < rows.size()) break;
  }
  ASSERT_GT(answers, 20 * states) << "too few answers per state to tell";
  EXPECT_LT(e.arena().BytesUsed(), answers * 16)
      << answers << " answers over " << states << " states";
}

// A query-handle stream grows its page buffer and never shrinks it: a small
// page must not destroy rows (and their value buffers) that the next large
// page would allocate again. Over the same answers, alternating page sizes
// therefore allocate no more than a constant page size does.
uint64_t PagingAllocs(const QueryHandle& handle,
                      const std::vector<size_t>& pages) {
  const std::unique_ptr<PageStream> stream = handle.Open(Algorithm::kLazy, 0);
  const RowFn ignore = [](size_t, double, const std::vector<Value>&) {};
  const AllocCounts before = CurrentAllocCounts();
  for (const size_t n : pages) {
    EXPECT_EQ(stream->FetchPage(n, ignore), n);
  }
  return AllocDelta(before, CurrentAllocCounts()).news;
}

TEST(InvariantTest, HandlePagingWithMixedSizesAllocatesNoMore) {
  const Database db = MakePathDatabase(2000, 4, 707, {.fanout = 6.0});
  const SqlStatement stmt = ParseSql(
      "SELECT * FROM R1, R2, R3 WHERE R1.A2 = R2.A1 AND R2.A2 = R3.A1", &db);
  const std::unique_ptr<QueryHandle> handle =
      MakeQueryHandle(db, stmt, "min-sum", {});
  std::vector<size_t> alternating;
  std::vector<size_t> constant;
  for (size_t p = 0; p < 25; ++p) {
    alternating.insert(alternating.end(), {100, 10});
    constant.push_back(110);  // the same 2750 answers
  }
  const uint64_t mixed = PagingAllocs(*handle, alternating);
  const uint64_t steady = PagingAllocs(*handle, constant);
  EXPECT_LE(mixed, steady) << "alternating page sizes reallocated rows";
}

// The k budget is a property of the stream, not of the prepared query:
// streams opened at different budgets (each resolving `auto` for its own
// budget) on one shared handle page concurrently-interleaved with zero
// global allocations once each stream's page buffer is warm.
TEST(InvariantTest, HandleStreamsAtDifferentBudgetsPageWithoutAllocating) {
  const Database db = MakePathDatabase(2000, 4, 707, {.fanout = 6.0});
  const SqlStatement stmt = ParseSql(
      "SELECT * FROM R1, R2, R3 WHERE R1.A2 = R2.A1 AND R2.A2 = R3.A1", &db);
  ShardedQueryOptions opts;
  opts.prepare.enum_opts.arena_reserve_bytes = size_t{16} << 20;
  opts.prepare.auto_plan = true;
  const std::unique_ptr<QueryHandle> handle =
      MakeQueryHandle(db, stmt, "min-sum", opts);
  constexpr size_t kPage = 64;
  std::vector<std::unique_ptr<PageStream>> streams;
  for (const size_t k : {size_t{0}, size_t{1}, size_t{64}, size_t{65},
                         size_t{1000}, size_t{70000}}) {
    for (const Algorithm algo : {Algorithm::kAuto, Algorithm::kLazy}) {
      streams.push_back(handle->Open(algo, k));
      streams.back()->FetchPage(kPage, {});  // warm the page buffer
    }
  }
  const RowFn ignore = [](size_t, double, const std::vector<Value>&) {};
  const AllocCounts before = CurrentAllocCounts();
  size_t produced = 0;
  for (size_t round = 0; round < 40; ++round) {
    for (const auto& stream : streams) {
      produced += stream->FetchPage(1 + (round * 7) % kPage, ignore);
    }
  }
  const AllocCounts delta = AllocDelta(before, CurrentAllocCounts());
  EXPECT_EQ(delta.news, 0u) << "paging " << produced << " answers over "
                            << streams.size() << " streams hit the global "
                            << "heap " << delta.news << " times";
  EXPECT_GT(produced, 4000u) << "instance too small to be meaningful";
  // The budgets held: each bounded stream stopped at its k.
  EXPECT_EQ(streams[2]->produced(), 1u);
  EXPECT_EQ(streams[4]->produced(), 64u);
  EXPECT_EQ(streams[6]->produced(), 65u);
}

TEST(InvariantTest, WeightsMatchRecomputationFromWitness) {
  Fixture f(60, 4, 78, 6.0);
  AnyKPartEnumerator<TropicalDioid, Take2Strategy> e(&f.g);
  while (auto r = e.Next()) {
    double sum = 0;
    ASSERT_EQ(r->witness.size(), f.q.NumAtoms());
    for (size_t a = 0; a < f.q.NumAtoms(); ++a) {
      sum += f.db.Get(f.q.atom(a).relation).Weight(r->witness[a]);
    }
    // Integer weights: the O(1) subtract/add candidate arithmetic must be
    // exact, not approximately equal.
    EXPECT_EQ(r->weight, sum);
  }
}

}  // namespace
}  // namespace anyk
