// Hash-grouping of relation rows by a composite key.
//
// This is the "data structure that can be built in linear time to support
// tuple lookups in constant time" assumed by the paper (Section 2.3). It maps
// each distinct key (projection of a row onto the key columns) to the dense
// list of matching row ids. Groups are the physical realization of the
// connector nodes of the equi-join graph transformation (Fig. 3).
//
// Layout: one FlatKeyIndex interning keys to dense group ids plus a CSR pair
// (group_begin_, rows_) holding all row ids grouped and back to back. Built
// in two linear passes (intern + counting scatter); no per-group heap
// allocations, lookups probe one open-addressing table and then read a
// contiguous span.

#ifndef ANYK_STORAGE_GROUP_INDEX_H_
#define ANYK_STORAGE_GROUP_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "storage/flat_index.h"
#include "storage/kernels.h"
#include "storage/relation.h"
#include "storage/value.h"

namespace anyk {

/// Groups row ids of a relation by the projection onto `key_cols`.
class GroupIndex {
 public:
  GroupIndex() = default;

  /// Build in expected O(rows) time.
  GroupIndex(const Relation& rel, std::span<const uint32_t> key_cols) {
    Build(rel, key_cols);
  }

  void Build(const Relation& rel, std::span<const uint32_t> key_cols) {
    key_cols_.assign(key_cols.begin(), key_cols.end());
    const size_t rows = rel.NumRows();
    const size_t width = key_cols_.size();
    keys_.Init(width, rows);

    // Pass 1a: spread each key column segment into a row-major scratch
    // matrix. One sequential read per column segment (the columnar layout's
    // whole point) instead of striding over every row's interleaved values.
    std::vector<Value> key_rows(rows * width);
    for (size_t c = 0; c < width; ++c) {
      SpreadToStride(rel.ColumnData(key_cols_[c]), rows, key_rows.data() + c,
                     width);
    }

    // Pass 1b: intern every row's key; remember the group per row.
    std::vector<uint32_t> group_of_row(rows);
    for (size_t r = 0; r < rows; ++r) {
      group_of_row[r] = keys_.Intern(
          std::span<const Value>(key_rows.data() + r * width, width));
    }

    // Pass 2: counting scatter into CSR form (stable: rows of a group keep
    // their relation order).
    const size_t groups = keys_.NumKeys();
    group_begin_.assign(groups + 1, 0);
    for (size_t r = 0; r < rows; ++r) ++group_begin_[group_of_row[r] + 1];
    for (size_t g = 0; g < groups; ++g) group_begin_[g + 1] += group_begin_[g];
    rows_.resize(rows);
    std::vector<uint32_t> cursor(group_begin_.begin(), group_begin_.end() - 1);
    for (size_t r = 0; r < rows; ++r) {
      rows_[cursor[group_of_row[r]]++] = static_cast<uint32_t>(r);
    }
  }

  size_t NumGroups() const { return keys_.NumKeys(); }

  /// Group id for `key`, or -1 if the key does not occur.
  int64_t Find(std::span<const Value> key) const { return keys_.Find(key); }
  int64_t Find(const Key& key) const {
    return keys_.Find(std::span<const Value>(key));
  }

  /// Rows in group `g`.
  std::span<const uint32_t> Rows(size_t g) const {
    return {rows_.data() + group_begin_[g],
            group_begin_[g + 1] - group_begin_[g]};
  }

  /// Rows matching `key` (empty if absent).
  std::span<const uint32_t> Lookup(std::span<const Value> key) const {
    const int64_t g = keys_.Find(key);
    if (g < 0) return {};
    return Rows(static_cast<size_t>(g));
  }
  std::span<const uint32_t> Lookup(const Key& key) const {
    return Lookup(std::span<const Value>(key));
  }

  /// The interned key of group `g` (keys are in first-appearance order).
  std::span<const Value> KeyOf(size_t g) const {
    return keys_.KeyAt(static_cast<uint32_t>(g));
  }

  /// Heap footprint in bytes (for explain/bench accounting).
  size_t MemoryBytes() const {
    return keys_.MemoryBytes() + group_begin_.capacity() * sizeof(uint32_t) +
           rows_.capacity() * sizeof(uint32_t);
  }

 private:
  std::vector<uint32_t> key_cols_;
  FlatKeyIndex keys_;
  std::vector<uint32_t> group_begin_;  // group g spans rows_[begin[g], begin[g+1])
  std::vector<uint32_t> rows_;         // row ids grouped by key
};

}  // namespace anyk

#endif  // ANYK_STORAGE_GROUP_INDEX_H_
