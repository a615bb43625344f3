// Unit tests for the utility layer: the d-ary and bounded heaps, RNG,
// timer, thread pool, checkpoints and ParseSize. The heap tests check every
// arity the enumerators instantiate against a std::priority_queue oracle:
// every any-k variant's output order rests on these structures.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/checkpoints.h"
#include "util/dary_heap.h"
#include "util/parse.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace anyk {
namespace {

// ---------------------------------------------------------------------------
// DAryHeap: differential oracle against std::priority_queue across arities,
// duplicate-heavy keys, bulk builds and tiny sizes (the hot-path candidate
// queues of the budget-aware top-k work ride on this structure).
// ---------------------------------------------------------------------------

template <size_t Arity>
void DAryHeapMatchesPriorityQueue(uint64_t seed) {
  Rng rng(seed);
  DAryHeap<int, std::less<int>, std::allocator<int>, Arity> heap;
  std::priority_queue<int, std::vector<int>, std::greater<int>> oracle;
  for (int round = 0; round < 4000; ++round) {
    if (oracle.empty() || rng.Bernoulli(0.55)) {
      // Narrow key domain: plenty of duplicates.
      const int v = static_cast<int>(rng.Uniform(0, 40));
      heap.Push(v);
      oracle.push(v);
    } else {
      ASSERT_EQ(heap.Min(), oracle.top());
      EXPECT_EQ(heap.PopMin(), oracle.top());
      oracle.pop();
    }
  }
  while (!oracle.empty()) {
    EXPECT_EQ(heap.PopMin(), oracle.top());
    oracle.pop();
  }
  EXPECT_TRUE(heap.Empty());
}

TEST(DAryHeapTest, MatchesPriorityQueueAcrossArities) {
  DAryHeapMatchesPriorityQueue<2>(11);
  DAryHeapMatchesPriorityQueue<4>(12);
  DAryHeapMatchesPriorityQueue<8>(13);
}

template <size_t Arity, typename Less = std::less<int>>
void BuildFromHeapifiesEverySmallSize(uint64_t seed) {
  Rng rng(seed);
  for (size_t n = 0; n <= 33; ++n) {
    std::vector<int> v(n);
    for (auto& x : v) x = static_cast<int>(rng.Uniform(0, 10));
    std::vector<int> sorted = v;
    std::sort(sorted.begin(), sorted.end(), Less());
    DAryHeap<int, Less, std::allocator<int>, Arity> heap;
    heap.BuildFrom(std::move(v));
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(heap.PopMin(), sorted[i]) << "n=" << n << " i=" << i;
    }
    EXPECT_TRUE(heap.Empty());
  }
}

TEST(DAryHeapTest, BuildFromBulkHeapifiesEverySmallSize) {
  // Tiny capacities are where child-index arithmetic goes wrong.
  BuildFromHeapifiesEverySmallSize<4>(21);
  BuildFromHeapifiesEverySmallSize<2>(22);
  BuildFromHeapifiesEverySmallSize<8>(23);
  // The comparator alone decides the order: std::greater pops a max-heap.
  BuildFromHeapifiesEverySmallSize<2, std::greater<int>>(24);
}

TEST(DAryHeapTest, MoveOnlyElements) {
  DAryHeap<std::unique_ptr<int>,
           decltype([](const auto& a, const auto& b) { return *a < *b; })>
      mo;
  mo.Push(std::make_unique<int>(3));
  mo.Push(std::make_unique<int>(1));
  mo.Push(std::make_unique<int>(2));
  EXPECT_EQ(*mo.PopMin(), 1);
  EXPECT_EQ(*mo.PopMin(), 2);
  EXPECT_EQ(*mo.PopMin(), 3);
}

// ---------------------------------------------------------------------------
// BoundedHeap: with a budget of r pops, the first r pops must byte-match an
// unbounded run, the array must stay O(r), and ties at the bound must
// survive pruning.
// ---------------------------------------------------------------------------

TEST(BoundedHeapTest, BudgetedPopsMatchUnboundedPrefix) {
  for (const size_t budget : {1u, 2u, 7u, 50u, 400u}) {
    Rng rng(100 + budget);
    BoundedHeap<int> bounded;
    DAryHeap<int> plain;
    bounded.SetBudget(budget);
    // Interleave pushes and pops the way a Lawler candidate queue does:
    // pop one, push a few successors no lighter than the popped element.
    std::vector<int> popped_b, popped_p;
    bounded.Push(0);
    plain.Push(0);
    while (popped_b.size() < budget && !bounded.Empty()) {
      const int top_b = bounded.PopMin();
      const int top_p = plain.PopMin();
      popped_b.push_back(top_b);
      popped_p.push_back(top_p);
      const size_t succ = rng.Below(4);
      for (size_t s = 0; s < succ; ++s) {
        const int child = top_b + static_cast<int>(rng.Uniform(0, 20));
        bounded.Push(child);
        plain.Push(child);
      }
    }
    EXPECT_EQ(popped_b, popped_p) << "budget=" << budget;
    // O(k) bound: the compaction cap (doubled once for the tie-group
    // watermark) plus in-flight pushes — never the O(pushes) of a plain heap.
    EXPECT_LE(bounded.stats().max_size,
              4 * std::max<size_t>(2 * budget,
                                   BoundedHeap<int>::kMinCompactSize))
        << "budget=" << budget;
  }
}

TEST(BoundedHeapTest, TiesAtTheBoundSurvive) {
  BoundedHeap<int> heap;
  heap.SetBudget(2);
  // Push far past the compaction cap with *one* distinct key: nothing is
  // strictly worse than the bound, so nothing may be discarded.
  for (int i = 0; i < 500; ++i) heap.Push(7);
  EXPECT_EQ(heap.Size(), 500u);
  EXPECT_EQ(heap.stats().pruned_pushes, 0u);
  // Now a strictly worse key: once a bound exists it must be pruned.
  heap.Push(3);  // strictly better, must be kept
  EXPECT_EQ(heap.PopMin(), 3);
}

TEST(BoundedHeapTest, StrictlyWorseCandidatesArePruned) {
  BoundedHeap<int> heap;
  heap.SetBudget(4);
  for (int i = 0; i < 1000; ++i) heap.Push(i);
  EXPECT_GT(heap.stats().pruned_pushes, 0u);
  EXPECT_GT(heap.stats().compactions, 0u);
  for (int want = 0; want < 4; ++want) EXPECT_EQ(heap.PopMin(), want);
}

TEST(BoundedHeapTest, UnboundedBehavesLikePlainHeap) {
  Rng rng(31);
  BoundedHeap<int> heap;  // SetBudget never called
  std::priority_queue<int, std::vector<int>, std::greater<int>> oracle;
  for (int round = 0; round < 2000; ++round) {
    if (oracle.empty() || rng.Bernoulli(0.5)) {
      const int v = static_cast<int>(rng.Uniform(0, 50));
      heap.Push(v);
      oracle.push(v);
    } else {
      EXPECT_EQ(heap.PopMin(), oracle.top());
      oracle.pop();
    }
  }
  EXPECT_EQ(heap.stats().pruned_pushes, 0u);
  EXPECT_EQ(heap.stats().compactions, 0u);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicAndRangeRespecting) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  Rng c(7);
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = c.Uniform(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, BelowIsRoughlyUniform) {
  Rng rng(8);
  std::vector<int> counts(10, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++counts[rng.Below(10)];
  for (int c : counts) {
    EXPECT_GT(c, draws / 10 - draws / 50);
    EXPECT_LT(c, draws / 10 + draws / 50);
  }
}

TEST(RngTest, UniformDoubleInHalfOpenUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(14);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ShuffleIsDeterministicPermutation) {
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  std::vector<int> w = v;
  Rng a(21), b(21);
  a.Shuffle(&v);
  b.Shuffle(&w);
  EXPECT_EQ(v, w) << "same seed must give the same permutation";
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[i], i);
  // Empty and singleton inputs must be handled.
  std::vector<int> tiny;
  a.Shuffle(&tiny);
  EXPECT_TRUE(tiny.empty());
  tiny.push_back(9);
  a.Shuffle(&tiny);
  EXPECT_EQ(tiny, (std::vector<int>{9}));
}

// ---------------------------------------------------------------------------
// Timer
// ---------------------------------------------------------------------------

TEST(TimerTest, MonotonicAndResettable) {
  Timer t;
  const double a = t.Seconds();
  EXPECT_GE(a, 0.0);
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  const double b = t.Seconds();
  EXPECT_GE(b, a);
  // Bracket Millis() between two Seconds() reads so the check cannot flake
  // under scheduler preemption.
  const double s1 = t.Seconds();
  const double ms = t.Millis();
  const double s2 = t.Seconds();
  EXPECT_GE(ms, s1 * 1e3);
  EXPECT_LE(ms, s2 * 1e3);
  t.Reset();
  EXPECT_LE(t.Seconds(), b + 1.0);  // reset cannot move the clock backwards far
}

// ---------------------------------------------------------------------------
// ThreadPool / ParallelFor
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (const size_t workers : {size_t{0}, size_t{1}, size_t{3}}) {
    ThreadPool pool(workers);
    EXPECT_EQ(pool.NumThreads(), workers <= 1 ? 0u : workers);
    constexpr size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    ParallelFor(&pool, kN, [&](size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << ", " << workers
                                   << " workers";
    }
  }
}

TEST(ThreadPoolTest, ParallelForWithNullPoolRunsInline) {
  size_t sum = 0;  // inline execution: plain writes are safe
  ParallelFor(nullptr, 100, [&](size_t i) { sum += i; });
  EXPECT_EQ(sum, 4950u);
  ParallelFor(nullptr, 0, [&](size_t) { FAIL() << "n=0 must not call body"; });
}

TEST(ThreadPoolTest, ParallelForRethrowsFirstException) {
  ThreadPool pool(4);
  std::atomic<size_t> ran{0};
  try {
    ParallelFor(&pool, 64, [&](size_t i) {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (i == 7) throw std::runtime_error("boom");
    });
    FAIL() << "expected the iteration's exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  EXPECT_GT(ran.load(), 0u);
  // The pool stays usable after an exceptional ParallelFor.
  std::atomic<size_t> again{0};
  ParallelFor(&pool, 32, [&](size_t) {
    again.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(again.load(), 32u);
}

TEST(ThreadPoolTest, ReusableAcrossManyParallelFors) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<size_t> count{0};
    ParallelFor(&pool, 10, [&](size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(count.load(), 10u) << "round " << round;
  }
}

TEST(CheckpointsTest, ZeroMeansNoCheckpoints) {
  // max_k == 0 is "nothing will be pulled", not the unbounded sentinel
  // (that's SIZE_MAX here), so there is nothing to stamp.
  EXPECT_TRUE(GeometricCheckpoints(0).empty());
}

TEST(CheckpointsTest, SmallEdgeCases) {
  EXPECT_EQ(GeometricCheckpoints(1), (std::vector<size_t>{1}));
  EXPECT_EQ(GeometricCheckpoints(2), (std::vector<size_t>{1, 2}));
  EXPECT_EQ(GeometricCheckpoints(4), (std::vector<size_t>{1, 2}));
  EXPECT_EQ(GeometricCheckpoints(10), (std::vector<size_t>{1, 2, 5, 10}));
}

TEST(CheckpointsTest, StrictlyIncreasingAndBounded) {
  const auto cps = GeometricCheckpoints(123456);
  ASSERT_FALSE(cps.empty());
  EXPECT_EQ(cps.front(), 1u);
  for (size_t i = 1; i < cps.size(); ++i) {
    EXPECT_LT(cps[i - 1], cps[i]);
  }
  EXPECT_LE(cps.back(), 123456u);
  EXPECT_EQ(cps.back(), 100000u);  // 1-2-5 decades: last decade head fits
}

TEST(CheckpointsTest, SizeMaxDoesNotOverflowOrHang) {
  // The unbounded spelling. The decade walk must terminate without wrapping;
  // every candidate is divided against max_k, never multiplied first.
  const auto cps = GeometricCheckpoints(SIZE_MAX);
  ASSERT_FALSE(cps.empty());
  for (size_t i = 1; i < cps.size(); ++i) {
    ASSERT_LT(cps[i - 1], cps[i]);  // wrap-around would break monotonicity
  }
  // The list reaches the top decade that still fits: more than 10^18 on
  // 64-bit size_t, i.e. the walk did not bail out early.
  EXPECT_GT(cps.back(), SIZE_MAX / 20);
}

// ParseSize backs every size the binaries accept (anyk and anykd flags, the
// server's k=): digits only and range-checked, so a huge value is a usage
// error instead of a wrapped or truncated size.
TEST(ParseSizeTest, AcceptsDigitsUpToSizeMax) {
  size_t v = 7;
  EXPECT_TRUE(ParseSize("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseSize("00042", &v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(ParseSize("18446744073709551615", &v));  // 2^64 - 1
  EXPECT_EQ(v, SIZE_MAX);
}

TEST(ParseSizeTest, RejectsOutOfRangeAndNonDigits) {
  size_t v = 7;
  EXPECT_FALSE(ParseSize("18446744073709551616", &v));  // 2^64
  EXPECT_FALSE(ParseSize("99999999999999999999999", &v));
  EXPECT_FALSE(ParseSize("", &v));
  EXPECT_FALSE(ParseSize("-", &v));
  EXPECT_FALSE(ParseSize("-3", &v));
  EXPECT_FALSE(ParseSize("+3", &v));
  EXPECT_FALSE(ParseSize(" 3", &v));
  EXPECT_FALSE(ParseSize("3 ", &v));
  EXPECT_FALSE(ParseSize("3x", &v));
  EXPECT_FALSE(ParseSize("0x10", &v));
  EXPECT_EQ(v, 7u) << "a rejected value must leave the output untouched";
}

}  // namespace
}  // namespace anyk
