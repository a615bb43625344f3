// Per-query bump ("arena") allocation for the enumeration hot path.
//
// The paper's TT(k) bounds charge O(1) per candidate/suffix, which the seed
// implementation undercut with scattered general-purpose `new` calls (per
// connector, per combination, per candidate-heap growth). An Arena turns all
// of those into pointer bumps inside a few large blocks: a query owns one
// arena, preprocessing reserves it, and enumeration never touches the global
// allocator (verified by invariants_test via util/alloc_stats.h).
//
// Design notes:
//  * Blocks are geometric (doubling, capped) so a query that outgrows its
//    reservation performs O(log total) global allocations, not O(k).
//  * Individual deallocation is a no-op; memory is reclaimed when the arena
//    dies with its query. `std::vector` growth through ArenaAllocator
//    therefore retires old buffers inside the arena (bounded by the usual
//    2x geometric-growth waste), which is the standard arena trade-off.
//  * ArenaAllocator is a C++17 allocator so existing std containers (and
//    the DAryHeap / BoundedHeap arrays of util/dary_heap.h) can be pointed
//    at an arena without changing container logic.

#ifndef ANYK_UTIL_ARENA_H_
#define ANYK_UTIL_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace anyk {

/// Chunked bump allocator. Not thread-safe; one arena per query pipeline.
class Arena {
 public:
  static constexpr size_t kDefaultFirstBlockBytes = size_t{1} << 16;  // 64 KiB
  static constexpr size_t kMaxBlockBytes = size_t{1} << 24;           // 16 MiB

  explicit Arena(size_t first_block_bytes = kDefaultFirstBlockBytes)
      : next_block_bytes_(first_block_bytes < kMinBlockBytes
                              ? kMinBlockBytes
                              : first_block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocate `bytes` aligned to `align` (power of two).
  void* Allocate(size_t bytes, size_t align = alignof(std::max_align_t)) {
    ANYK_DCHECK((align & (align - 1)) == 0);
    uintptr_t p = (cursor_ + (align - 1)) & ~(uintptr_t{align} - 1);
    if (p + bytes > limit_) {
      AddBlock(bytes + align);
      p = (cursor_ + (align - 1)) & ~(uintptr_t{align} - 1);
    }
    cursor_ = p + bytes;
    bytes_used_ += bytes;
    return reinterpret_cast<void*>(p);
  }

  template <typename T>
  T* AllocateArray(size_t n) {
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  /// Ensure at least `bytes` are available without touching the global
  /// allocator again. Called by preprocessing so enumeration stays new-free.
  void Reserve(size_t bytes) {
    if (bytes == 0) return;
    const size_t free_now = static_cast<size_t>(limit_ - cursor_);
    if (free_now >= bytes) return;
    AddBlock(bytes);
  }

  /// Bytes handed out so far (excludes alignment padding and block slack).
  size_t BytesUsed() const { return bytes_used_; }
  /// Bytes obtained from the global allocator.
  size_t BytesReserved() const { return bytes_reserved_; }
  size_t NumBlocks() const { return blocks_.size(); }

 private:
  static constexpr size_t kMinBlockBytes = 256;

  struct Block {
    std::unique_ptr<char[]> data;
    size_t bytes = 0;
  };

  void AddBlock(size_t min_bytes) {
    size_t bytes = next_block_bytes_;
    while (bytes < min_bytes) bytes *= 2;
    Block block{std::unique_ptr<char[]>(new char[bytes]), bytes};
    cursor_ = reinterpret_cast<uintptr_t>(block.data.get());
    limit_ = cursor_ + bytes;
    bytes_reserved_ += bytes;
    blocks_.push_back(std::move(block));
    if (next_block_bytes_ < kMaxBlockBytes) next_block_bytes_ *= 2;
  }

  std::vector<Block> blocks_;
  uintptr_t cursor_ = 0;
  uintptr_t limit_ = 0;
  size_t next_block_bytes_;
  size_t bytes_used_ = 0;
  size_t bytes_reserved_ = 0;
};

/// std-compatible allocator over an Arena. Deallocation is a no-op. A
/// default-constructed (arena-less) allocator CHECK-fails on first use: it
/// exists so containers can be declared before their arena is chosen and
/// re-seated by assignment (the allocator propagates on copy/move/swap).
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;
  using is_always_equal = std::false_type;

  ArenaAllocator() = default;
  explicit ArenaAllocator(Arena* arena) : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(size_t n) {
    ANYK_CHECK(arena_ != nullptr)
        << "ArenaAllocator used before being seated on an arena";
    return arena_->AllocateArray<T>(n);
  }
  void deallocate(T*, size_t) {}  // arena memory dies with the arena

  Arena* arena() const { return arena_; }

  friend bool operator==(const ArenaAllocator& a, const ArenaAllocator& b) {
    return a.arena_ == b.arena_;
  }
  friend bool operator!=(const ArenaAllocator& a, const ArenaAllocator& b) {
    return a.arena_ != b.arena_;
  }

 private:
  Arena* arena_ = nullptr;
};

/// Vector whose storage lives in an arena.
template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

/// Convenience: an empty ArenaVector seated on `arena`.
template <typename T>
ArenaVector<T> MakeArenaVector(Arena* arena) {
  return ArenaVector<T>(ArenaAllocator<T>(arena));
}

}  // namespace anyk

#endif  // ANYK_UTIL_ARENA_H_
