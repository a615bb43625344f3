// Unit tests for the utility layer: heaps (binary + pairing), heapify, RNG,
// timer. The heap tests are deliberately exhaustive over decrease-key and
// meld edge cases: every any-k variant's asymptotics rest on these structures
// behaving exactly as advertised.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/binary_heap.h"
#include "util/checkpoints.h"
#include "util/dary_heap.h"
#include "util/pairing_heap.h"
#include "util/parse.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace anyk {
namespace {

// ---------------------------------------------------------------------------
// BinaryHeap
// ---------------------------------------------------------------------------

TEST(BinaryHeapTest, SortsRandomSequence) {
  Rng rng(1);
  BinaryHeap<int> heap;
  std::vector<int> values;
  for (int i = 0; i < 1000; ++i) {
    int v = static_cast<int>(rng.Uniform(-500, 500));
    values.push_back(v);
    heap.Push(v);
  }
  std::sort(values.begin(), values.end());
  for (int v : values) EXPECT_EQ(heap.PopMin(), v);
  EXPECT_TRUE(heap.Empty());
}

TEST(BinaryHeapTest, AssignHeapifies) {
  Rng rng(2);
  std::vector<int> values;
  for (int i = 0; i < 777; ++i) {
    values.push_back(static_cast<int>(rng.Uniform(0, 100)));
  }
  BinaryHeap<int> heap;
  heap.Assign(values);
  std::sort(values.begin(), values.end());
  for (int v : values) EXPECT_EQ(heap.PopMin(), v);
}

TEST(BinaryHeapTest, EmptySingleAndClear) {
  BinaryHeap<int> heap;
  EXPECT_TRUE(heap.Empty());
  EXPECT_EQ(heap.Size(), 0u);
  heap.Assign({});
  EXPECT_TRUE(heap.Empty());
  heap.Push(42);
  EXPECT_FALSE(heap.Empty());
  EXPECT_EQ(heap.Size(), 1u);
  EXPECT_EQ(heap.Min(), 42);
  EXPECT_EQ(heap.PopMin(), 42);
  EXPECT_TRUE(heap.Empty());
  heap.Push(1);
  heap.Push(2);
  heap.Clear();
  EXPECT_TRUE(heap.Empty());
  EXPECT_EQ(heap.Size(), 0u);
}

TEST(BinaryHeapTest, AllEqualElements) {
  BinaryHeap<int> heap;
  for (int i = 0; i < 64; ++i) heap.Push(7);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(heap.PopMin(), 7);
  EXPECT_TRUE(heap.Empty());
}

TEST(BinaryHeapTest, CustomComparatorMakesMaxHeap) {
  BinaryHeap<int, std::greater<int>> heap;
  heap.Assign({3, 1, 4, 1, 5, 9, 2, 6});
  std::vector<int> got;
  while (!heap.Empty()) got.push_back(heap.PopMin());
  EXPECT_EQ(got, (std::vector<int>{9, 6, 5, 4, 3, 2, 1, 1}));
}

TEST(BinaryHeapTest, MoveOnlyElements) {
  BinaryHeap<std::unique_ptr<int>,
             decltype([](const std::unique_ptr<int>& a,
                         const std::unique_ptr<int>& b) { return *a < *b; })>
      heap;
  for (int v : {5, 1, 3, 2, 4}) heap.Push(std::make_unique<int>(v));
  for (int want : {1, 2, 3, 4, 5}) EXPECT_EQ(*heap.PopMin(), want);
}

TEST(BinaryHeapTest, HeapifyEstablishesHeapProperty) {
  Rng rng(3);
  std::vector<int> v;
  for (int i = 0; i < 500; ++i) v.push_back(static_cast<int>(rng.Uniform(0, 50)));
  Heapify(&v, std::less<int>());
  for (size_t i = 1; i < v.size(); ++i) {
    EXPECT_LE(v[(i - 1) / 2], v[i]) << "heap property violated at " << i;
  }
}

TEST(BinaryHeapTest, HeapifyEdgeShapes) {
  for (std::vector<int> v : std::vector<std::vector<int>>{
           {},
           {1},
           {1, 2},
           {2, 1},
           {1, 2, 3, 4, 5},
           {5, 4, 3, 2, 1},
           {3, 3, 3, 3},
       }) {
    std::vector<int> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    Heapify(&v, std::less<int>());
    for (size_t i = 1; i < v.size(); ++i) {
      EXPECT_LE(v[(i - 1) / 2], v[i]);
    }
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted) << "heapify must be a permutation";
  }
}

TEST(BinaryHeapTest, PushBulkMatchesIndividualPushes) {
  Rng rng(9);
  BinaryHeap<int> bulk, single;
  std::vector<int> batch;
  bulk.PushBulk(batch);  // empty batch is a no-op
  EXPECT_TRUE(bulk.Empty());
  for (int round = 0; round < 50; ++round) {
    batch.clear();
    for (int i = 0; i < 20; ++i) {
      batch.push_back(static_cast<int>(rng.Uniform(0, 1000)));
    }
    bulk.PushBulk(batch);
    for (int v : batch) single.Push(v);
    EXPECT_EQ(bulk.PopMin(), single.PopMin());
  }
  while (!single.Empty()) EXPECT_EQ(bulk.PopMin(), single.PopMin());
  EXPECT_TRUE(bulk.Empty());
}

TEST(BinaryHeapTest, ReplaceMin) {
  BinaryHeap<int> heap;
  heap.Assign({5, 3, 8});
  EXPECT_EQ(heap.ReplaceMin(1), 3);
  EXPECT_EQ(heap.Min(), 1);
  EXPECT_EQ(heap.ReplaceMin(9), 1);
  EXPECT_EQ(heap.PopMin(), 5);
  EXPECT_EQ(heap.PopMin(), 8);
  EXPECT_EQ(heap.PopMin(), 9);
}

TEST(BinaryHeapTest, ReplaceMinOnSingletonHeap) {
  BinaryHeap<int> heap;
  heap.Push(10);
  EXPECT_EQ(heap.ReplaceMin(20), 10);
  EXPECT_EQ(heap.Size(), 1u);
  EXPECT_EQ(heap.PopMin(), 20);
}

// Take2 never pops a static heap: it navigates the array through Slot(),
// reading children 2i+1 / 2i+2. The invariant it relies on is exactly the
// heap property over slots.
TEST(BinaryHeapTest, SlotNavigationSeesHeapOrder) {
  Rng rng(11);
  std::vector<int> values;
  for (int i = 0; i < 300; ++i) {
    values.push_back(static_cast<int>(rng.Uniform(0, 1 << 15)));
  }
  BinaryHeap<int> heap;
  heap.Assign(values);
  for (size_t i = 0; i < heap.Size(); ++i) {
    const size_t left = 2 * i + 1, right = 2 * i + 2;
    if (left < heap.Size()) {
      EXPECT_LE(heap.Slot(i), heap.Slot(left));
    }
    if (right < heap.Size()) {
      EXPECT_LE(heap.Slot(i), heap.Slot(right));
    }
  }
  EXPECT_EQ(heap.Slot(0), heap.Min());
}

TEST(BinaryHeapTest, StressInterleaved) {
  Rng rng(4);
  BinaryHeap<int> heap;
  std::vector<int> mirror;
  for (int round = 0; round < 5000; ++round) {
    if (mirror.empty() || rng.Bernoulli(0.6)) {
      int v = static_cast<int>(rng.Uniform(0, 1 << 20));
      heap.Push(v);
      mirror.push_back(v);
      std::push_heap(mirror.begin(), mirror.end(), std::greater<int>());
    } else {
      std::pop_heap(mirror.begin(), mirror.end(), std::greater<int>());
      int want = mirror.back();
      mirror.pop_back();
      EXPECT_EQ(heap.PopMin(), want);
    }
  }
}

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

TEST(DAryHeapTest, BuildFromBulkHeapifiesEverySmallSize) {
  // Tiny capacities are where child-index arithmetic goes wrong.
  Rng rng(21);
  for (size_t n = 0; n <= 33; ++n) {
    std::vector<int> v(n);
    for (auto& x : v) x = static_cast<int>(rng.Uniform(0, 10));
    std::vector<int> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    DAryHeap<int> heap;
    heap.BuildFrom(std::move(v));
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(heap.PopMin(), sorted[i]) << "n=" << n << " i=" << i;
    }
    EXPECT_TRUE(heap.Empty());
  }
}

TEST(DAryHeapTest, PushBulkMatchesIndividualPushes) {
  Rng rng(22);
  DAryHeap<int> bulk, single;
  std::vector<int> seeded(40);
  for (auto& x : seeded) x = static_cast<int>(rng.Uniform(0, 1000));
  std::vector<int> extra(200);  // > size/2: triggers the re-heapify path
  for (auto& x : extra) x = static_cast<int>(rng.Uniform(0, 1000));
  bulk.BuildFrom(std::vector<int>(seeded));
  for (int x : seeded) single.Push(x);
  bulk.PushBulk(extra);
  for (int x : extra) single.Push(x);
  ASSERT_EQ(bulk.Size(), single.Size());
  while (!single.Empty()) EXPECT_EQ(bulk.PopMin(), single.PopMin());
}

TEST(DAryHeapTest, ReplaceMinAndMoveOnly) {
  DAryHeap<int> heap;
  heap.BuildFrom({5, 9, 7});
  EXPECT_EQ(heap.ReplaceMin(1), 5);
  EXPECT_EQ(heap.Min(), 1);
  EXPECT_EQ(heap.ReplaceMin(20), 1);
  EXPECT_EQ(heap.PopMin(), 7);

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
// PairingHeap
// ---------------------------------------------------------------------------

TEST(PairingHeapTest, SortsRandomSequence) {
  Rng rng(5);
  PairingHeap<int> heap;
  std::vector<int> values;
  for (int i = 0; i < 2000; ++i) {
    int v = static_cast<int>(rng.Uniform(-1000, 1000));
    values.push_back(v);
    heap.Push(v);
  }
  std::sort(values.begin(), values.end());
  for (int v : values) EXPECT_EQ(heap.PopMin(), v);
  EXPECT_TRUE(heap.Empty());
}

TEST(PairingHeapTest, EmptySingleAndClear) {
  PairingHeap<int> heap;
  EXPECT_TRUE(heap.Empty());
  EXPECT_EQ(heap.Size(), 0u);
  auto h = heap.Push(3);
  EXPECT_EQ(heap.At(h), 3);
  EXPECT_EQ(heap.Min(), 3);
  EXPECT_EQ(heap.PopMin(), 3);
  EXPECT_TRUE(heap.Empty());
  heap.Push(1);
  heap.Push(2);
  heap.Clear();
  EXPECT_TRUE(heap.Empty());
  EXPECT_EQ(heap.Size(), 0u);
}

TEST(PairingHeapTest, HandleSlotIsRecycledAfterPop) {
  PairingHeap<int> heap;
  auto h1 = heap.Push(1);
  heap.Push(2);
  EXPECT_EQ(heap.PopMin(), 1);
  auto h3 = heap.Push(3);
  EXPECT_EQ(h3, h1) << "arena should recycle the freed slot";
  EXPECT_EQ(heap.At(h3), 3);
  EXPECT_EQ(heap.PopMin(), 2);
  EXPECT_EQ(heap.PopMin(), 3);
}

TEST(PairingHeapTest, DecreaseKeyOnRoot) {
  PairingHeap<int> heap;
  auto h = heap.Push(5);
  heap.Push(10);
  heap.DecreaseKey(h, 1);
  EXPECT_EQ(heap.Min(), 1);
  EXPECT_EQ(heap.PopMin(), 1);
  EXPECT_EQ(heap.PopMin(), 10);
}

TEST(PairingHeapTest, DecreaseKeyToEqualValueIsAllowed) {
  PairingHeap<int> heap;
  auto h = heap.Push(5);
  heap.Push(3);
  heap.DecreaseKey(h, 5);  // no-op decrease must not corrupt structure
  EXPECT_EQ(heap.PopMin(), 3);
  EXPECT_EQ(heap.PopMin(), 5);
}

TEST(PairingHeapTest, DecreaseKeyPromotesNewMin) {
  PairingHeap<int> heap;
  std::vector<PairingHeap<int>::Handle> handles;
  for (int v = 10; v < 20; ++v) handles.push_back(heap.Push(v));
  heap.DecreaseKey(handles[7], 0);  // 17 -> 0
  EXPECT_EQ(heap.Min(), 0);
  EXPECT_EQ(heap.PopMin(), 0);
  std::vector<int> rest;
  while (!heap.Empty()) rest.push_back(heap.PopMin());
  EXPECT_EQ(rest, (std::vector<int>{10, 11, 12, 13, 14, 15, 16, 18, 19}));
}

// Exercise every Cut() position. Pushing 0 first and then 10, 11, 12 makes
// each later push lose its meld against the root, so the root's child chain
// is 12 -> 11 -> 10: 12 is a first child, 11 a middle sibling, 10 the last
// sibling. Decreasing each one hits a distinct relink path in Cut().
TEST(PairingHeapTest, DecreaseKeyCutsAtEveryChildPosition) {
  for (int target : {10, 11, 12}) {
    PairingHeap<int> heap;
    std::map<int, PairingHeap<int>::Handle> handle_of;
    for (int v : {0, 10, 11, 12}) handle_of[v] = heap.Push(v);
    heap.DecreaseKey(handle_of[target], target - 100);
    std::vector<int> want = {0, 10, 11, 12};
    want[target - 9] = target - 100;
    std::sort(want.begin(), want.end());
    std::vector<int> got;
    while (!heap.Empty()) got.push_back(heap.PopMin());
    EXPECT_EQ(got, want) << "decreasing key " << target;
  }
}

TEST(PairingHeapTest, DecreaseKeyDeepChain) {
  // Build a deep structure by popping between pushes, then decrease a deep
  // node below the root.
  PairingHeap<int> heap;
  std::vector<PairingHeap<int>::Handle> handles(64);
  for (int v = 0; v < 64; ++v) handles[v] = heap.Push(100 + v);
  for (int i = 0; i < 16; ++i) heap.PopMin();  // forces multi-level links
  heap.DecreaseKey(handles[63], -1);
  EXPECT_EQ(heap.Min(), -1);
  int prev = heap.PopMin();
  while (!heap.Empty()) {
    int cur = heap.PopMin();
    EXPECT_LE(prev, cur);
    prev = cur;
  }
}

TEST(PairingHeapTest, MeldTwoNonEmptyHeaps) {
  PairingHeap<int> a, b;
  std::vector<int> all;
  Rng rng(12);
  for (int i = 0; i < 100; ++i) {
    int v = static_cast<int>(rng.Uniform(0, 1000));
    a.Push(v);
    all.push_back(v);
  }
  for (int i = 0; i < 57; ++i) {
    int v = static_cast<int>(rng.Uniform(-1000, 0));
    b.Push(v);
    all.push_back(v);
  }
  a.Meld(std::move(b));
  EXPECT_TRUE(b.Empty());  // NOLINT(bugprone-use-after-move): documented reset
  EXPECT_EQ(a.Size(), all.size());
  std::sort(all.begin(), all.end());
  for (int v : all) EXPECT_EQ(a.PopMin(), v);
}

TEST(PairingHeapTest, MeldWithEmptyEitherSide) {
  PairingHeap<int> a, b;
  a.Push(1);
  a.Push(2);
  a.Meld(std::move(b));  // melding an empty heap is a no-op
  EXPECT_EQ(a.Size(), 2u);
  PairingHeap<int> c;
  c.Meld(std::move(a));  // melding into an empty heap adopts everything
  EXPECT_EQ(c.Size(), 2u);
  EXPECT_EQ(c.PopMin(), 1);
  EXPECT_EQ(c.PopMin(), 2);
}

TEST(PairingHeapTest, DestinationHandlesSurviveMeld) {
  PairingHeap<int> a, b;
  auto ha = a.Push(50);
  a.Push(60);
  b.Push(55);
  a.Meld(std::move(b));
  a.DecreaseKey(ha, 10);
  EXPECT_EQ(a.PopMin(), 10);
  EXPECT_EQ(a.PopMin(), 55);
  EXPECT_EQ(a.PopMin(), 60);
}

TEST(PairingHeapTest, MeldAfterPopsSplicesFreeList) {
  PairingHeap<int> a, b;
  for (int v : {5, 6, 7}) a.Push(v);
  for (int v : {1, 2, 3}) b.Push(v);
  EXPECT_EQ(a.PopMin(), 5);  // both arenas have freed slots
  EXPECT_EQ(b.PopMin(), 1);
  a.Meld(std::move(b));
  // Pushes after the meld must reuse spliced free slots without corruption.
  for (int v : {-3, -2, -1}) a.Push(v);
  std::vector<int> got;
  while (!a.Empty()) got.push_back(a.PopMin());
  EXPECT_EQ(got, (std::vector<int>{-3, -2, -1, 2, 3, 6, 7}));
}

TEST(PairingHeapTest, StressInterleavedAgainstBinary) {
  Rng rng(6);
  PairingHeap<int> ph;
  BinaryHeap<int> bh;
  for (int round = 0; round < 8000; ++round) {
    if (bh.Empty() || rng.Bernoulli(0.55)) {
      int v = static_cast<int>(rng.Uniform(0, 1 << 16));
      ph.Push(v);
      bh.Push(v);
    } else {
      EXPECT_EQ(ph.PopMin(), bh.PopMin());
    }
  }
  EXPECT_EQ(ph.Size(), bh.Size());
}

// Differential stress of push / pop-min / decrease-key against an ordered
// reference. Elements are (key, uid) pairs so ties never make the popped
// identity ambiguous and handles can be retired exactly.
TEST(PairingHeapTest, StressDecreaseKeyAgainstReference) {
  using Entry = std::pair<int64_t, int>;  // (key, uid), lexicographic order
  Rng rng(7);
  PairingHeap<Entry> heap;
  std::map<int, PairingHeap<Entry>::Handle> live;   // uid -> handle
  std::map<int, int64_t> key_of;                    // uid -> current key
  int next_uid = 0;
  for (int round = 0; round < 20000; ++round) {
    const double dice = rng.UniformDouble();
    if (live.empty() || dice < 0.45) {
      const int uid = next_uid++;
      const int64_t key = rng.Uniform(-1000000, 1000000);
      live[uid] = heap.Push({key, uid});
      key_of[uid] = key;
    } else if (dice < 0.75) {
      // Decrease a uniformly random live element.
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.Below(live.size())));
      const int uid = it->first;
      const int64_t new_key = key_of[uid] - static_cast<int64_t>(rng.Below(5000));
      heap.DecreaseKey(it->second, {new_key, uid});
      key_of[uid] = new_key;
    } else {
      // Pop and check against the reference minimum.
      Entry want{INT64_MAX, INT32_MAX};
      for (const auto& [uid, key] : key_of) {
        want = std::min(want, Entry{key, uid});
      }
      const Entry got = heap.PopMin();
      EXPECT_EQ(got, want);
      live.erase(got.second);
      key_of.erase(got.second);
    }
    ASSERT_EQ(heap.Size(), live.size());
  }
  // Drain: remaining elements must come out in exact sorted order.
  std::vector<Entry> rest;
  for (const auto& [uid, key] : key_of) rest.push_back({key, uid});
  std::sort(rest.begin(), rest.end());
  for (const Entry& want : rest) EXPECT_EQ(heap.PopMin(), want);
  EXPECT_TRUE(heap.Empty());
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
