// ParallelUnionEnumerator: a ranked union whose sources are drained by
// dedicated worker threads (one per shard) while the caller merges.
//
// The serial UnionEnumerator (union_anyk.h) pulls a source only when the
// merge heap pops it, so the caller's thread pays every shard's per-answer
// cost sequentially. Here each source runs ahead on its own worker, filling
// a bounded SPSC ring in rank order; the merging thread pops the global
// minimum exactly like the serial union (same heap, same source order, same
// refill-after-pop discipline), so the output stream is byte-identical to
// the serial merge — only the production of per-shard answers overlaps.
// ShardedPreparedQuery (sharded_query.h) builds one of these per session
// when parallel drain is requested; sharded streams are disjoint by
// construction, so there is no dedup mode.
//
// Memory: the ring slots and the merge slots are allocated once at session
// open; afterwards rows circulate by std::swap between the producer's ring,
// the merge slot, and the caller's buffer, so the steady-state drain
// performs no heap allocation of its own (the per-shard enumerators keep
// their zero-alloc guarantee on their own threads).
//
// Locking: each Feed has its own leaf Mutex guarding only that ring's
// head/count/flags; the merger locks at most one Feed at a time and workers
// only ever lock their own. No lock is held while a source's NextInto runs.
//
// anyk-lint: allow-file(heap-hot-path): every allocation here happens at
// session open (rings, threads, heap) — the drain loop itself only swaps
// pre-allocated rows.

#ifndef ANYK_ANYK_SHARD_DRAIN_H_
#define ANYK_ANYK_SHARD_DRAIN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "anyk/enumerator.h"
#include "util/dary_heap.h"
#include "util/sync.h"

namespace anyk {

template <SelectiveDioid D>
// anyk-lint: allow(batch-forwarding): the workers fill their rings row by
// row through NextInto and the merge hands out one ring row per pop; ROADMAP
// item 4 decides whether this class earns a batched path or goes.
class ParallelUnionEnumerator : public Enumerator<D> {
  using V = typename D::Value;

 public:
  /// Takes ownership of the per-shard sources. `k_budget` caps the answers
  /// emitted by the union (0 = all); every source should carry its own full
  /// k budget in its EnumOptions (any single shard may supply the whole
  /// top-k). Workers start immediately.
  explicit ParallelUnionEnumerator(
      std::vector<std::unique_ptr<Enumerator<D>>> parts, size_t k_budget = 0)
      : parts_(std::move(parts)), slots_(parts_.size()), k_budget_(k_budget) {
    feeds_.reserve(parts_.size());
    for (size_t i = 0; i < parts_.size(); ++i) {
      feeds_.push_back(std::make_unique<Feed>());
    }
    workers_.reserve(parts_.size());
    for (size_t i = 0; i < parts_.size(); ++i) {
      workers_.emplace_back([this, i] { Produce(i); });
    }
    // Initial pending set: the first (minimum) answer of every non-empty
    // shard, in source order — the same heapify the serial union performs.
    std::vector<Pending> initial;
    initial.reserve(parts_.size());
    for (size_t i = 0; i < parts_.size(); ++i) {
      const uint32_t source = static_cast<uint32_t>(i);
      if (Pull(source, &slots_[source])) {
        initial.push_back(Pending{slots_[source].weight, source});
      }
    }
    heap_.BuildFrom(std::move(initial));
  }

  ~ParallelUnionEnumerator() override {
    for (auto& feed : feeds_) {
      MutexLock lock(&feed->mu);
      feed->stop = true;
      feed->cv.NotifyAll();
    }
    for (std::thread& w : workers_) w.join();
  }

  ParallelUnionEnumerator(const ParallelUnionEnumerator&) = delete;
  ParallelUnionEnumerator& operator=(const ParallelUnionEnumerator&) = delete;

  bool NextInto(ResultRow<D>* row) override {
    if (k_budget_ != 0 && emitted_ >= k_budget_) return false;
    if (heap_.Empty()) return false;
    const uint32_t source = heap_.PopMin().source;
    std::swap(*row, slots_[source]);  // hand out the pending row's buffers
    if (Pull(source, &slots_[source])) {
      heap_.Push(Pending{slots_[source].weight, source});
    }
    ++emitted_;
    return true;
  }

  std::optional<ResultRow<D>> Next() override {
    ResultRow<D> row;
    if (!NextInto(&row)) return std::nullopt;
    return row;
  }

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

  /// Bounded SPSC ring between one shard worker and the merger. The filled
  /// region is [head, head + count); the producer writes slot head + count,
  /// publishes by ++count, and the consumer takes slot head by swap — row
  /// buffers never leave the ring, they rotate through it.
  struct Feed {
    static constexpr size_t kCapacity = 64;
    Feed() : ring(kCapacity) {}
    Mutex mu;
    CondVar cv;
    std::vector<ResultRow<D>> ring;
    size_t head ANYK_GUARDED_BY(mu) = 0;
    size_t count ANYK_GUARDED_BY(mu) = 0;
    bool done ANYK_GUARDED_BY(mu) = false;  // producer exhausted its source
    bool stop ANYK_GUARDED_BY(mu) = false;  // enumerator tearing down
  };

  /// Worker body for shard `i`: drain the source in rank order into the
  /// ring. The source's NextInto always runs with no lock held.
  void Produce(size_t i) {
    Feed& f = *feeds_[i];
    Enumerator<D>* source = parts_[i].get();
    while (true) {
      size_t slot;
      {
        MutexLock lock(&f.mu);
        while (f.count == Feed::kCapacity && !f.stop) f.cv.Wait(f.mu);
        if (f.stop) return;
        slot = (f.head + f.count) % Feed::kCapacity;
      }
      const bool got = source->NextInto(&f.ring[slot]);
      MutexLock lock(&f.mu);
      if (got) {
        ++f.count;
      } else {
        f.done = true;
      }
      f.cv.NotifyAll();
      if (!got) return;
    }
  }

  /// Merger-side pull of shard `source`'s next answer (blocking); false
  /// once the shard is exhausted.
  bool Pull(uint32_t source, ResultRow<D>* row) {
    Feed& f = *feeds_[source];
    MutexLock lock(&f.mu);
    while (f.count == 0 && !f.done) f.cv.Wait(f.mu);
    if (f.count == 0) return false;
    std::swap(*row, f.ring[f.head]);
    f.head = (f.head + 1) % Feed::kCapacity;
    --f.count;
    f.cv.NotifyAll();
    return true;
  }

  std::vector<std::unique_ptr<Enumerator<D>>> parts_;
  std::vector<std::unique_ptr<Feed>> feeds_;  // stable addresses for workers
  std::vector<std::thread> workers_;
  std::vector<ResultRow<D>> slots_;  // one pending row per source (merged)
  size_t k_budget_;
  size_t emitted_ = 0;
  DAryHeap<Pending, PendingLess> heap_;
};

}  // namespace anyk

#endif  // ANYK_ANYK_SHARD_DRAIN_H_
