// UT-DP: ranked enumeration over a union of T-DP problems (paper
// Section 5.2). A top-level priority queue holds the last-pulled pending
// result of every sub-enumerator; popping the minimum emits it and refills
// from the same sub-problem.
//
// With overlapping decompositions (e.g. PANDA-style), the same output can be
// produced by several trees. Under a tie-breaking dioid (Section 6.3) no two
// *distinct* outputs compare equal, so duplicates arrive consecutively and
// `dedup = true` filters them with delay linear in the number of trees —
// constant in data complexity.
//
// Memory: each source has at most one pending result at a time, so pending
// rows live in a per-source slot pool and the heap holds only (weight,
// source) pairs. Rows move between the pool and the caller's buffer by
// swap, so steady-state union enumeration performs no heap allocation of
// its own (the sources' one-row pulls reuse the slot's buffers). The
// previously emitted result is kept only with dedup on.
//
// Look-ahead: a source is pulled one row ahead of the merge (its pending
// row), and each source carries the full k in its EnumOptions.
//
// Batching: NextBatch runs the merge over the caller's rows; the sources are
// pulled a row at a time (NextInto, a page of one), refilling each popped
// source before the next pop.
//
// This is the one merge: the cycle decomposition's trees
// (PreparedQuery::NewSession), the shards of a ShardedPreparedQuery and,
// under parallel drain, the shards' worker-fed rings (anyk/shard_drain.h)
// all go through it.
//
// Threading: the union owns its sub-enumerators, slots and heap outright;
// one UnionEnumerator per session (PreparedQuery::NewSession builds the
// whole part list fresh), sessions share only the underlying stage graphs.

#ifndef ANYK_ANYK_UNION_ANYK_H_
#define ANYK_ANYK_UNION_ANYK_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "anyk/enumerator.h"
#include "util/dary_heap.h"

namespace anyk {

template <SelectiveDioid D>
class UnionEnumerator : public Enumerator<D> {
  using V = typename D::Value;

 public:
  /// `k_budget` caps the number of answers *emitted by the union* (0 = all);
  /// after the k-th answer NextBatch reports exhaustion without pulling the
  /// sources again. Each source's own budget travels in its EnumOptions
  /// (PreparedQuery::NewSession gives every part the full k: any single
  /// partition may supply the entire top-k).
  explicit UnionEnumerator(std::vector<std::unique_ptr<Enumerator<D>>> parts,
                           bool dedup = false, size_t k_budget = 0)
      : parts_(std::move(parts)),
        slots_(parts_.size()),
        dedup_(dedup),
        k_budget_(k_budget) {
    // Bulk-heapify the initial pending set (one entry per non-empty source)
    // instead of |parts| individual pushes.
    std::vector<Pending> initial;
    initial.reserve(parts_.size());
    for (size_t i = 0; i < parts_.size(); ++i) {
      const uint32_t source = static_cast<uint32_t>(i);
      if (parts_[source]->NextInto(&slots_[source])) {
        initial.push_back(Pending{slots_[source].weight, source});
      }
    }
    heap_.BuildFrom(std::move(initial));
  }

  size_t NextBatch(ResultRow<D>* rows, size_t n) override {
    size_t produced = 0;
    while (produced < n && !heap_.Empty() &&
           (k_budget_ == 0 || emitted_ < k_budget_)) {
      const uint32_t source = heap_.PopMin().source;
      ResultRow<D>& row = rows[produced];
      std::swap(row, slots_[source]);  // hand out the pending row's buffers
      Refill(source);
      if (dedup_) {
        if (have_last_ && DioidEq<D>(row.weight, last_weight_) &&
            row.assignment == last_assignment_) {
          ++duplicates_filtered_;
          continue;  // duplicate of the previously emitted result
        }
        have_last_ = true;
        last_weight_ = row.weight;
        last_assignment_ = row.assignment;
      }
      ++emitted_;
      ++produced;
    }
    return produced;
  }

  size_t duplicates_filtered() const { return duplicates_filtered_; }

 private:
  struct Pending {
    V weight;
    uint32_t source;
  };
  struct PendingLess {
    bool operator()(const Pending& a, const Pending& b) const {
      return D::Less(a.weight, b.weight);
    }
  };

  void Refill(uint32_t source) {
    if (parts_[source]->NextInto(&slots_[source])) {
      heap_.Push(Pending{slots_[source].weight, source});
    }
  }

  std::vector<std::unique_ptr<Enumerator<D>>> parts_;
  std::vector<ResultRow<D>> slots_;  // one pending row per source
  bool dedup_;
  size_t k_budget_;
  size_t emitted_ = 0;
  DAryHeap<Pending, PendingLess> heap_;
  // The previously emitted result; only written with dedup on.
  bool have_last_ = false;
  V last_weight_{};
  std::vector<Value> last_assignment_;
  size_t duplicates_filtered_ = 0;
};

}  // namespace anyk

#endif  // ANYK_ANYK_UNION_ANYK_H_
