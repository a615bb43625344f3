// Bind kernels over columnar segments (docs/ARCHITECTURE.md, "Bind
// kernels").
//
// The enumeration hot path moves batches of values between three flat
// representations: column segments (storage/relation.h), dense row-id lists
// (GroupIndex / StageGraph CSR arrays) and ResultRow slots. Each move is one
// of a handful of primitive loops — gather, strided gather, strided copy,
// column spread — plus the dioid's elementwise ⊗. They live here as plain
// inline functions that BuildStageGraph, BindStateBatch and GroupIndex call
// directly.
//
// The bodies are 4x manually unrolled: that breaks the loop-carried
// bookkeeping dependence so the OoO core keeps 4 loads in flight, and gives
// the auto-vectorizer straight-line gather bodies to work with. fuzz_test
// checks every kernel against a naive loop on adversarial (skewed, all-ties,
// hash-colliding) column data.
//
// All kernels are allocation-free: callers own every buffer (arena scratch
// in the enumerators, stack/members in the builders), preserving the
// zero-global-alloc enumeration invariant (invariants_test). Every kernel
// accepts n = 0 with null pointers.

#ifndef ANYK_STORAGE_KERNELS_H_
#define ANYK_STORAGE_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "dioid/dioid.h"
#include "storage/value.h"

namespace anyk {

/// out[i] = col[ids[i]]  (column gather by row id)
inline void Gather(const Value* col, const uint32_t* ids, size_t n,
                   Value* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const Value v0 = col[ids[i + 0]];
    const Value v1 = col[ids[i + 1]];
    const Value v2 = col[ids[i + 2]];
    const Value v3 = col[ids[i + 3]];
    out[i + 0] = v0;
    out[i + 1] = v1;
    out[i + 2] = v2;
    out[i + 3] = v3;
  }
  for (; i < n; ++i) out[i] = col[ids[i]];
}

/// out_base[i * out_stride] = col[ids[i]]  (gather into a strided
/// destination, e.g. one column of a row-major key scratch matrix)
inline void GatherToStride(const Value* col, const uint32_t* ids, size_t n,
                           Value* out_base, size_t out_stride) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const Value v0 = col[ids[i + 0]];
    const Value v1 = col[ids[i + 1]];
    const Value v2 = col[ids[i + 2]];
    const Value v3 = col[ids[i + 3]];
    out_base[(i + 0) * out_stride] = v0;
    out_base[(i + 1) * out_stride] = v1;
    out_base[(i + 2) * out_stride] = v2;
    out_base[(i + 3) * out_stride] = v3;
  }
  for (; i < n; ++i) out_base[i * out_stride] = col[ids[i]];
}

/// out[i] = col[ids[i]]  (row-id indirection)
inline void GatherU32(const uint32_t* col, const uint32_t* ids, size_t n,
                      uint32_t* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32_t v0 = col[ids[i + 0]];
    const uint32_t v1 = col[ids[i + 1]];
    const uint32_t v2 = col[ids[i + 2]];
    const uint32_t v3 = col[ids[i + 3]];
    out[i + 0] = v0;
    out[i + 1] = v1;
    out[i + 2] = v2;
    out[i + 3] = v3;
  }
  for (; i < n; ++i) out[i] = col[ids[i]];
}

/// out[i] = base[ids[i] * stride + offset]  (strided source gather, e.g. the
/// pin_rows array laid out row-major by pin)
inline void GatherU32Strided(const uint32_t* base, size_t stride,
                             size_t offset, const uint32_t* ids, size_t n,
                             uint32_t* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32_t v0 = base[ids[i + 0] * stride + offset];
    const uint32_t v1 = base[ids[i + 1] * stride + offset];
    const uint32_t v2 = base[ids[i + 2] * stride + offset];
    const uint32_t v3 = base[ids[i + 3] * stride + offset];
    out[i + 0] = v0;
    out[i + 1] = v1;
    out[i + 2] = v2;
    out[i + 3] = v3;
  }
  for (; i < n; ++i) out[i] = base[ids[i] * stride + offset];
}

/// out[i] = base[i * stride + offset]  (strided sequential copy, e.g. one
/// stage's column of the batch state matrix)
inline void CopyStridedU32(const uint32_t* base, size_t stride, size_t offset,
                           size_t n, uint32_t* out) {
  size_t i = 0;
  const uint32_t* p = base + offset;
  for (; i + 4 <= n; i += 4) {
    const uint32_t v0 = p[(i + 0) * stride];
    const uint32_t v1 = p[(i + 1) * stride];
    const uint32_t v2 = p[(i + 2) * stride];
    const uint32_t v3 = p[(i + 3) * stride];
    out[i + 0] = v0;
    out[i + 1] = v1;
    out[i + 2] = v2;
    out[i + 3] = v3;
  }
  for (; i < n; ++i) out[i] = p[i * stride];
}

/// out_base[i * out_stride] = col[i]  (spread one dense column into a
/// row-major scratch matrix; the column-strided key-build primitive)
inline void SpreadToStride(const Value* col, size_t n, Value* out_base,
                           size_t out_stride) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    out_base[(i + 0) * out_stride] = col[i + 0];
    out_base[(i + 1) * out_stride] = col[i + 1];
    out_base[(i + 2) * out_stride] = col[i + 2];
    out_base[(i + 3) * out_stride] = col[i + 3];
  }
  for (; i < n; ++i) out_base[i * out_stride] = col[i];
}

/// out[i] = a[i] ⊗ b[i]  (e.g. member_val = w ⊗ π1)
template <SelectiveDioid D>
void Combine(const typename D::Value* a, const typename D::Value* b, size_t n,
             typename D::Value* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    out[i + 0] = D::Combine(a[i + 0], b[i + 0]);
    out[i + 1] = D::Combine(a[i + 1], b[i + 1]);
    out[i + 2] = D::Combine(a[i + 2], b[i + 2]);
    out[i + 3] = D::Combine(a[i + 3], b[i + 3]);
  }
  for (; i < n; ++i) out[i] = D::Combine(a[i], b[i]);
}

}  // namespace anyk

#endif  // ANYK_STORAGE_KERNELS_H_
