// Open-addressing flat key index: the linear-time, constant-lookup structure
// the paper assumes for tuple access (Section 2.3), without per-node heap
// cells or pointer chasing.
//
// FlatKeyIndex interns fixed-width composite keys (projections of rows onto
// key columns; attribute values are already dictionary-encoded int64s, see
// storage/value.h) into dense ids 0..NumKeys()-1 in first-appearance order.
// Storage is two flat arrays:
//   * key_pool_ — the distinct keys back to back (width values each),
//   * slots_    — a power-of-two open-addressing table of key ids probed
//                 linearly, so a lookup touches one cache line in the common
//                 case and never follows a pointer.
//
// Both GroupIndex and the stage-graph connector maps are built on this; the
// dense ids double as group/connector ids, which is what makes the
// "connector" indirection of Fig. 3 an array offset instead of a hash-map
// node.

#ifndef ANYK_STORAGE_FLAT_INDEX_H_
#define ANYK_STORAGE_FLAT_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "storage/value.h"
#include "util/logging.h"

namespace anyk {

class FlatKeyIndex {
 public:
  static constexpr uint32_t kEmptySlot = UINT32_MAX;

  FlatKeyIndex() = default;

  /// Prepare for keys of `width` values, expecting about `expected_keys`
  /// distinct keys (the table grows by doubling if exceeded).
  /// `expected_keys = 0` is valid and yields the minimum 4-slot table —
  /// relations and connector stages can legitimately be empty. The slot
  /// table and the key pool are both sized by this count, so callers pass
  /// a bound on the distinct keys, not the row count: GroupIndex and the
  /// stage-graph connector maps pass DistinctKeyBound (group_index.h),
  /// min(rows, product of the key columns' value-range sizes).
  void Init(size_t width, size_t expected_keys) {
    width_ = width;
    key_pool_.clear();
    key_pool_.reserve(width * expected_keys);
    num_keys_ = 0;
    const size_t cap = TableCapacity(expected_keys);
    slots_.assign(cap, kEmptySlot);
    mask_ = cap - 1;
  }

  size_t width() const { return width_; }
  size_t NumKeys() const { return num_keys_; }

  /// Dense id of `key`, interning it if new. Amortized O(width). Init()
  /// must have been called first (the table never self-initializes).
  uint32_t Intern(std::span<const Value> key) {
    ANYK_DCHECK(key.size() == width_);
    ANYK_CHECK(!slots_.empty()) << "FlatKeyIndex::Intern before Init";
    // Probe first, grow only on an actual insert: the table always holds at
    // most 75% load (Grow runs before the insert that would exceed it), so
    // this scan is guaranteed an empty slot and re-interning an existing
    // key exactly at the load-factor boundary cannot trigger a spurious
    // doubling.
    size_t slot = Hash(key.data()) & mask_;
    while (true) {
      const uint32_t id = slots_[slot];
      if (id == kEmptySlot) break;
      if (Equal(id, key.data())) return id;
      slot = (slot + 1) & mask_;
    }
    if (num_keys_ + 1 > (mask_ + 1) - (mask_ + 1) / 4) {
      Grow();
      slot = Hash(key.data()) & mask_;
      while (slots_[slot] != kEmptySlot) slot = (slot + 1) & mask_;
    }
    slots_[slot] = static_cast<uint32_t>(num_keys_);
    key_pool_.insert(key_pool_.end(), key.begin(), key.end());
    return static_cast<uint32_t>(num_keys_++);
  }

  /// Dense id of `key`, or -1 if it was never interned. O(width) expected.
  int64_t Find(std::span<const Value> key) const {
    ANYK_DCHECK(key.size() == width_);
    if (num_keys_ == 0) return -1;
    size_t slot = Hash(key.data()) & mask_;
    while (true) {
      const uint32_t id = slots_[slot];
      if (id == kEmptySlot) return -1;
      if (Equal(id, key.data())) return static_cast<int64_t>(id);
      slot = (slot + 1) & mask_;
    }
  }

  /// The interned key with dense id `id`.
  std::span<const Value> KeyAt(uint32_t id) const {
    return {key_pool_.data() + static_cast<size_t>(id) * width_, width_};
  }

  /// Heap footprint in bytes (for explain/bench accounting).
  size_t MemoryBytes() const {
    return key_pool_.capacity() * sizeof(Value) +
           slots_.capacity() * sizeof(uint32_t);
  }

 private:
  // Sized for load factor <= 0.75; zero-width keys still get one slot.
  static size_t TableCapacity(size_t keys) {
    size_t cap = 4;
    while (cap - cap / 4 < keys + 1) cap *= 2;
    return cap;
  }

  uint64_t Hash(const Value* key) const {
    uint64_t h = 0x2545F4914F6CDD1DULL ^ (width_ * 0x9E3779B97F4A7C15ULL);
    for (size_t i = 0; i < width_; ++i) {
      h = MixHash(h ^ static_cast<uint64_t>(key[i]));
    }
    return h;
  }

  bool Equal(uint32_t id, const Value* key) const {
    const Value* stored = key_pool_.data() + static_cast<size_t>(id) * width_;
    for (size_t i = 0; i < width_; ++i) {
      if (stored[i] != key[i]) return false;
    }
    return true;
  }

  void Grow() {
    const size_t cap = (mask_ + 1) * 2;
    slots_.assign(cap, kEmptySlot);
    mask_ = cap - 1;
    for (uint32_t id = 0; id < num_keys_; ++id) {
      size_t slot = Hash(key_pool_.data() + static_cast<size_t>(id) * width_) &
                    mask_;
      while (slots_[slot] != kEmptySlot) slot = (slot + 1) & mask_;
      slots_[slot] = id;
    }
  }

  size_t width_ = 0;
  size_t num_keys_ = 0;
  size_t mask_ = 0;
  std::vector<Value> key_pool_;   // num_keys_ * width_ values
  std::vector<uint32_t> slots_;   // open-addressing table of key ids
};

}  // namespace anyk

#endif  // ANYK_STORAGE_FLAT_INDEX_H_
