// Flat d-ary min-heaps for the enumeration hot path, plus a budget-aware
// bounded wrapper for Lawler-style candidate queues. This is the project's
// only priority queue: every candidate, connector and merge heap is one of
// these two classes.
//
// Why an array d-ary heap (default arity 4): the any-k candidate/suffix
// heaps are pop-and-push workloads over small structs whose comparison key
// (the dioid weight) is cached inline as the first member. The paper's
// ANYK-PART analysis assumes O(1)-insert pointer heaps, but observes that
// they perform poorly in practice and runs array heaps; a wider node then
// halves the tree depth, so a sift-up — the common operation when
// candidates arrive in near-sorted order — touches half the cache lines,
// and the extra child comparisons of a sift-down stay within one or two
// lines because the children are contiguous. bench_ablation_pq measures the
// arities the planner picks from (2, 4, 8).
//
// BoundedHeap adds the top-k budget logic ("Optimal Join Algorithms Meet
// Top-k", Tziavelis et al. 2020): when the caller knows it will emit at most
// k answers, and every pop of the queue emits exactly one answer whose
// successors are never better than it (the Lawler/ANYK-PART invariant), any
// candidate provably worse than the running k-th-best bound can be discarded
// and the heap stays O(k) instead of growing with the number of generated
// candidates. Tie handling is deliberately conservative: a candidate is only
// discarded when it is *strictly* worse than the bound, so equal-weight tie
// groups survive intact and bounded runs byte-match unbounded prefixes under
// cancellative (tie-broken) dioids and canonicalize identically elsewhere
// (see tests/differential_test.cc, BoundedKSweep).
//
// Both heaps take an allocator template parameter so the hot path can point
// them at a per-query Arena (util/arena.h) and enumerate with zero global
// heap allocations; compaction is in-place (nth_element + partition), so the
// bounded heap keeps that property.

#ifndef ANYK_UTIL_DARY_HEAP_H_
#define ANYK_UTIL_DARY_HEAP_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace anyk {

// The sift helpers are declared inline and bound the child scan by
// min(Arity, n - first), so GCC inlines them into the heap methods and the
// Floyd loop and knows the scan's trip count (one compare at arity 2).
// Without both, arity-2 heapify or drain runs up to 1.3x slower than a
// hand-written binary heap. The comparator is taken by value, as the std
// algorithms take it.

/// Sift a[hole] down in a d-ary min-heap of size n.
template <size_t Arity, typename Container, typename Less>
inline void DArySiftDown(Container& a, size_t hole, Less less) {
  using T = typename Container::value_type;
  const size_t n = a.size();
  T value = std::move(a[hole]);
  while (true) {
    const size_t first = Arity * hole + 1;
    if (first >= n) break;
    const size_t children = std::min(Arity, n - first);
    size_t best = first;
    for (size_t i = 1; i < children; ++i) {
      if (less(a[first + i], a[best])) best = first + i;
    }
    if (!less(a[best], value)) break;
    a[hole] = std::move(a[best]);
    hole = best;
  }
  a[hole] = std::move(value);
}

/// Sift a[hole] up in a d-ary min-heap.
template <size_t Arity, typename Container, typename Less>
inline void DArySiftUp(Container& a, size_t hole, Less less) {
  using T = typename Container::value_type;
  T value = std::move(a[hole]);
  while (hole > 0) {
    const size_t parent = (hole - 1) / Arity;
    if (!less(value, a[parent])) break;
    a[hole] = std::move(a[parent]);
    hole = parent;
  }
  a[hole] = std::move(value);
}

/// Establish the d-ary min-heap property in O(|v|) (Floyd's method).
template <size_t Arity, typename Container, typename Less>
inline void DAryHeapify(Container* v, Less less) {
  const size_t n = v->size();
  if (n < 2) return;
  for (size_t i = (n - 2) / Arity + 1; i-- > 0;) {
    DArySiftDown<Arity>(*v, i, less);
  }
}

/// Flat d-ary min-heap.
template <typename T, typename Less = std::less<T>,
          typename Alloc = std::allocator<T>, size_t Arity = 4>
class DAryHeap {
  static_assert(Arity >= 2, "a heap node needs at least two children");

 public:
  using Container = std::vector<T, Alloc>;

  explicit DAryHeap(Less less = Less(), Alloc alloc = Alloc())
      : less_(less), data_(alloc) {}

  /// Take ownership of `entries` and bulk-heapify them in O(n) — the cheap
  /// way to seed an initial candidate/frontier set (vs n sift-up pushes).
  void BuildFrom(Container entries) {
    data_ = std::move(entries);
    DAryHeapify<Arity>(&data_, less_);
  }

  bool Empty() const { return data_.empty(); }
  size_t Size() const { return data_.size(); }

  const T& Min() const {
    ANYK_DCHECK(!data_.empty());
    return data_[0];
  }

  void Push(T value) {
    data_.push_back(std::move(value));
    DArySiftUp<Arity>(data_, data_.size() - 1, less_);
  }

  T PopMin() {
    ANYK_DCHECK(!data_.empty());
    T top = std::move(data_[0]);
    T last = std::move(data_.back());
    data_.pop_back();
    if (!data_.empty()) {
      data_[0] = std::move(last);
      DArySiftDown<Arity>(data_, 0, less_);
    }
    return top;
  }

 private:
  Less less_;
  Container data_;
};

/// Operation counters of a BoundedHeap (invariants_test asserts the O(k)
/// size bound through these).
struct BoundedHeapStats {
  size_t pruned_pushes = 0;  // discarded as provably outside the budget
  size_t compactions = 0;    // in-place shrinks back to O(k)
  size_t max_size = 0;       // high-water mark of the heap array
};

/// Budget-aware min-heap for candidate queues where *every pop emits exactly
/// one answer* and successors pushed afterwards are never better than the
/// popped element (the ANYK-PART invariant: deviations only make a solution
/// heavier under D::Less).
///
/// With a budget of k answers, once the heap has ever held r = k - emitted
/// candidates no worse than some value B, every answer still to be emitted
/// within the budget is <= B — so candidates strictly worse than B can never
/// be emitted and are discarded at push time; periodic in-place compaction
/// (nth_element to the r-th smallest, keeping the whole boundary tie group)
/// re-tightens B and keeps the array O(k). Without a budget (SetBudget never
/// called, or called with 0) the heap behaves exactly like DAryHeap.
///
/// Tie handling: discarding requires D::Less(B, x) *strictly*, so elements
/// equal to the bound always survive — bounded runs preserve the exact
/// emission order of unbounded runs under total orders (tie-break dioids)
/// and keep tie groups complete under the non-cancellative ones.
template <typename T, typename Less = std::less<T>,
          typename Alloc = std::allocator<T>, size_t Arity = 4>
class BoundedHeap {
 public:
  using Container = std::vector<T, Alloc>;
  // Below this size compaction is not worth the nth_element pass.
  static constexpr size_t kMinCompactSize = 64;

  explicit BoundedHeap(Less less = Less(), Alloc alloc = Alloc())
      : less_(less), data_(alloc) {}

  /// Declare that at most `remaining` more answers will be popped. 0 leaves
  /// the heap unbounded. Each PopMin decrements the budget (pop == emit).
  void SetBudget(size_t remaining) {
    bounded_ = remaining > 0;
    remaining_ = remaining;
  }
  const BoundedHeapStats& stats() const { return stats_; }

  void BuildFrom(Container entries) {
    data_ = std::move(entries);
    DAryHeapify<Arity>(&data_, less_);
    NoteSize();
    MaybeCompact();
  }

  bool Empty() const { return data_.empty(); }
  size_t Size() const { return data_.size(); }

  const T& Min() const {
    ANYK_DCHECK(!data_.empty());
    return data_[0];
  }

  void Push(T value) {
    if (bounded_) {
      if (remaining_ == 0 ||
          (have_bound_ && less_(bound_, value))) {  // provably outside budget
        ++stats_.pruned_pushes;
        return;
      }
    }
    data_.push_back(std::move(value));
    DArySiftUp<Arity>(data_, data_.size() - 1, less_);
    NoteSize();
    MaybeCompact();
  }

  T PopMin() {
    ANYK_DCHECK(!data_.empty());
    T top = std::move(data_[0]);
    T last = std::move(data_.back());
    data_.pop_back();
    if (!data_.empty()) {
      data_[0] = std::move(last);
      DArySiftDown<Arity>(data_, 0, less_);
    }
    if (bounded_ && remaining_ > 0) --remaining_;
    return top;
  }

 private:
  void NoteSize() { stats_.max_size = std::max(stats_.max_size, data_.size()); }

  void MaybeCompact() {
    if (!bounded_) return;
    // A budget at or above the array size has nothing to prune; checking it
    // first also keeps 2 * remaining_ below from overflowing on a huge
    // caller budget.
    if (remaining_ >= data_.size()) return;
    if (data_.size() <= std::max(2 * remaining_, kMinCompactSize)) return;
    // Doubling watermark: when a compaction cannot shrink the array (a huge
    // tie group straddles the budget boundary), don't retry until the array
    // has doubled since — keeps compaction amortized O(1) per push even on
    // all-ties inputs.
    if (data_.size() < 2 * compact_watermark_) return;
    Compact();
    compact_watermark_ = data_.size();
  }

  /// In-place shrink to the remaining budget (plus the boundary tie group)
  /// and tighten the discard bound. O(size); amortized O(1) per push because
  /// it only fires once the array has doubled past the budget.
  void Compact() {
    ++stats_.compactions;
    const size_t r = remaining_;
    if (r == 0) {
      data_.clear();
      return;
    }
    if (data_.size() <= r) return;
    auto nth = data_.begin() + static_cast<ptrdiff_t>(r - 1);
    std::nth_element(data_.begin(), nth, data_.end(), less_);
    const T boundary = *nth;  // r-th smallest = the new bound
    // Keep every element <= boundary (ties at the bound survive).
    auto keep_end = std::partition(
        data_.begin() + static_cast<ptrdiff_t>(r), data_.end(),
        [&](const T& x) { return !less_(boundary, x); });
    data_.erase(keep_end, data_.end());
    bound_ = boundary;
    have_bound_ = true;
    DAryHeapify<Arity>(&data_, less_);
  }

  Less less_;
  Container data_;
  bool bounded_ = false;
  size_t remaining_ = 0;
  size_t compact_watermark_ = 0;  // array size right after the last Compact
  bool have_bound_ = false;
  T bound_{};  // valid iff have_bound_
  BoundedHeapStats stats_;
};

/// The default candidate queue, as an alias matching the enumerators'
/// `template <class, class, class>` PQ parameter.
template <typename T, typename Less, typename Alloc>
using BoundedQuadHeap = BoundedHeap<T, Less, Alloc, 4>;

/// Arity variants the cost-based planner can pick instead of the default 4
/// (EnumOptions::heap_arity, dispatched in MakeEnumerator; docs/PLANNER.md,
/// "Heap arity"). bench_ablation_pq sweeps all three on both sides of the
/// planner's thresholds; at k <= 64, where binary is picked, the three
/// measure the same.
template <typename T, typename Less, typename Alloc>
using BoundedBinaryHeap = BoundedHeap<T, Less, Alloc, 2>;
template <typename T, typename Less, typename Alloc>
using BoundedOctHeap = BoundedHeap<T, Less, Alloc, 8>;

}  // namespace anyk

#endif  // ANYK_UTIL_DARY_HEAP_H_
