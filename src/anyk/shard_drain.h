// ShardFeed: one shard's answer stream, produced ahead on a dedicated
// worker thread into a bounded SPSC ring.
//
// Under ShardedQueryOptions::parallel_drain, ShardedPreparedQuery
// (sharded_query.h) wraps every shard's session in a ShardFeed and merges
// the feeds through the one ranked union (union_anyk.h). The union pulls
// its parts in the same source order and refills a part right after
// popping it, whether the part is a shard session or its feed, so the
// output stream is byte-identical to the serial merge; only the production
// of per-shard answers overlaps with the merge. Sharded streams are
// disjoint by construction, so the union runs without dedup.
//
// Memory: the ring's rows are allocated once at session open; afterwards
// they circulate by std::swap between the ring and the union's slots, so
// the steady-state drain performs no heap allocation of its own (the shard
// enumerators keep their zero-alloc guarantee on their own threads).
//
// Locking: each feed has its own leaf Mutex guarding only its ring's
// head/count/flags; the merging thread locks one feed at a time and a
// worker only ever locks its own. No lock is held while the source ranks.
//
// anyk-lint: allow-file(heap-hot-path): every allocation here happens at
// session open (ring, thread) — the drain loop itself only swaps
// pre-allocated rows.

#ifndef ANYK_ANYK_SHARD_DRAIN_H_
#define ANYK_ANYK_SHARD_DRAIN_H_

#include <cstddef>
#include <exception>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "anyk/enumerator.h"
#include "util/sync.h"

namespace anyk {

template <SelectiveDioid D>
class ShardFeed : public Enumerator<D> {
 public:
  /// Takes ownership of the shard's session enumerator; the worker starts
  /// immediately and runs until the source is exhausted or the feed is
  /// destroyed.
  explicit ShardFeed(std::unique_ptr<Enumerator<D>> source)
      : source_(std::move(source)), ring_(kCapacity) {
    worker_ = std::thread([this] { Produce(); });
  }

  ~ShardFeed() override {
    {
      MutexLock lock(&mu_);
      stop_ = true;
      cv_.NotifyAll();
    }
    worker_.join();
  }

  ShardFeed(const ShardFeed&) = delete;
  ShardFeed& operator=(const ShardFeed&) = delete;

  /// Hand out up to `n` ring rows by swap, waiting for the worker as
  /// needed; short only once the source is exhausted and the ring drained.
  /// An exception the source threw on the worker is rethrown here, after
  /// the rows ranked before it.
  size_t NextBatch(ResultRow<D>* rows, size_t n) override {
    MutexLock lock(&mu_);
    size_t produced = 0;
    while (produced < n) {
      while (count_ == 0 && !done_) cv_.Wait(mu_);
      if (count_ == 0) {
        if (error_ != nullptr) std::rethrow_exception(error_);
        break;
      }
      std::swap(rows[produced++], ring_[head_]);
      head_ = (head_ + 1) % kCapacity;
      --count_;
      cv_.NotifyAll();
    }
    return produced;
  }

 private:
  static constexpr size_t kCapacity = 64;

  /// Worker body: rank the source into the ring one slot at a time. The
  /// filled region is [head, head + count); the worker writes slot
  /// head + count with no lock held and publishes it by ++count.
  void Produce() {
    try {
      while (true) {
        size_t slot;
        {
          MutexLock lock(&mu_);
          while (count_ == kCapacity && !stop_) cv_.Wait(mu_);
          if (stop_) return;
          slot = (head_ + count_) % kCapacity;
        }
        const bool got = source_->NextInto(&ring_[slot]);
        MutexLock lock(&mu_);
        if (got) {
          ++count_;
        } else {
          done_ = true;
        }
        cv_.NotifyAll();
        if (!got) return;
      }
    } catch (...) {
      MutexLock lock(&mu_);
      error_ = std::current_exception();
      done_ = true;
      cv_.NotifyAll();
    }
  }

  std::unique_ptr<Enumerator<D>> source_;
  std::vector<ResultRow<D>> ring_;  // rows rotate through, never leave
  Mutex mu_;
  CondVar cv_;
  size_t head_ ANYK_GUARDED_BY(mu_) = 0;
  size_t count_ ANYK_GUARDED_BY(mu_) = 0;
  bool done_ ANYK_GUARDED_BY(mu_) = false;  // source exhausted
  bool stop_ ANYK_GUARDED_BY(mu_) = false;  // feed tearing down
  std::exception_ptr error_ ANYK_GUARDED_BY(mu_);  // thrown by the source
  std::thread worker_;
};

}  // namespace anyk

#endif  // ANYK_ANYK_SHARD_DRAIN_H_
