// Common interface of all ranked-enumeration ("any-k") algorithms.

#ifndef ANYK_ANYK_ENUMERATOR_H_
#define ANYK_ANYK_ENUMERATOR_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "dioid/dioid.h"
#include "storage/value.h"

namespace anyk {

inline constexpr uint32_t kNoRow = UINT32_MAX;

/// One query answer: its dioid weight, the variable assignment (indexed by
/// the query's variable ids) and, optionally, the witness — the original row
/// id per atom (Section 2.1: "we often represent an output tuple as a vector
/// of those input tuples that joined to produce it").
template <SelectiveDioid D>
struct ResultRow {
  typename D::Value weight;
  std::vector<Value> assignment;
  std::vector<uint32_t> witness;  // empty if witnesses were not requested
};

struct EnumOptions {
  bool with_witness = true;
  // Top-k budget: the maximum number of answers this enumerator will be
  // asked for. 0 is a SENTINEL meaning "unbounded / anytime enumeration",
  // NOT "zero answers" — there is no way to request an empty enumeration
  // through this knob. User-facing boundaries must therefore reject a
  // literal 0 before it reaches this field (the CLI rejects `--k 0`, the
  // server rejects `k=0`, and the SQL parser rejects `LIMIT 0`); api_test
  // pins the sentinel semantics. When set, enumerators
  // take the budget-aware fast path: ANYK-PART bounds its candidate heap to
  // O(k) via BoundedHeap and skips successor generation for the final
  // answer, Batch partial-sorts only the top k, and every enumerator
  // reports exhaustion once the budget is spent — NextInto returns false
  // after k answers even if more exist. The first k answers are exactly the
  // first k of an unbounded run (byte-identical under tie-break dioids,
  // identical modulo canonicalized tie groups under the non-cancellative
  // ones); differential_test's BoundedKSweep enforces this.
  size_t k_budget = 0;
  // Candidate-heap arity for the ANYK-PART strategies: 2, 4 (default) or 8,
  // dispatched to the matching BoundedHeap instantiation in MakeEnumerator.
  // Other values fall back to 4. Normally left alone; `--algorithm auto`
  // sets it from the cost model (docs/PLANNER.md, "Heap arity"). Ignored by
  // Recursive and the batch variants.
  size_t heap_arity = 4;
  // Bytes to pre-reserve in the enumerator's per-query arena at construction
  // (i.e. during preprocessing). With a large enough reservation the whole
  // enumeration phase performs zero global heap allocations — candidates,
  // prefixes, lazily initialized connector structures and suffix rankings
  // all live in the arena (see docs/ARCHITECTURE.md, "Memory layout").
  // 0 keeps the default first-block size; the arena still grows
  // geometrically on demand either way.
  size_t arena_reserve_bytes = 0;
  // First arena block size in bytes (0 = Arena default). Small values force
  // frequent block chaining — used by fuzz tests to stress arena
  // boundaries; production code should leave this alone.
  size_t arena_block_bytes = 0;
};

/// Pull-based enumerator: answers come out in non-decreasing rank order
/// until exhausted.
///
/// Threading contract (docs/ARCHITECTURE.md, "Threading model"): an
/// enumerator owns all of its mutable state and only *reads* the stage
/// graph it was built over, so any number of enumerators may drain the
/// same shared graph concurrently — but a single enumerator must stay
/// confined to one thread at a time.
///
/// Two pull styles:
///  * Next() — convenience API returning a fresh ResultRow (allocates the
///    row's vectors on every call).
///  * NextInto(&row) — hot-path API writing into a caller-owned row whose
///    buffers are reused across calls; after a warm-up call the per-result
///    cost contains no heap allocation. The default implementation falls
///    back to Next() for enumerators that don't override it; the harness
///    and CLI drain through NextBatch below.
template <SelectiveDioid D>
class Enumerator {
 public:
  virtual ~Enumerator() = default;
  virtual std::optional<ResultRow<D>> Next() = 0;

  /// Write the next answer into `*row`; false when exhausted.
  virtual bool NextInto(ResultRow<D>* row) {
    std::optional<ResultRow<D>> r = Next();
    if (!r.has_value()) return false;
    *row = std::move(*r);
    return true;
  }

  /// Batched pull: write up to `n` answers into `rows[0..n)` (caller-owned,
  /// buffers reused across calls like NextInto) and return how many were
  /// written.
  ///
  /// PARTIAL-FILL CONTRACT (pinned; invariants_test::NextBatchContract
  /// sweeps every strategy and wrapper against it):
  ///  1. A return of exactly `n` promises nothing about remaining output —
  ///     keep calling.
  ///  2. A short count (< n, including 0) means EXHAUSTED: the output — or
  ///     the enumerator's `k_budget` — ran out. There are no other legal
  ///     short returns: an override may not return early because a buffer
  ///     filled, a shard ended, or an internal batch boundary was hit.
  ///     Callers (DrainTopK, the CLI writers, the server cursor loop)
  ///     rely on this to stop on the first short batch without a
  ///     confirming extra call.
  ///  3. After a short return, every further call returns 0 — exhaustion
  ///     is sticky.
  ///  4. rows[0..returned) are fully bound; rows beyond the returned count
  ///     are scratch with unspecified contents.
  ///  5. Interleaving NextBatch with Next()/NextInto() is legal; the
  ///     answer stream stays the same regardless of pull granularity.
  ///
  /// This base fallback inherits the contract from NextInto (its only
  /// short-stop is NextInto returning false, i.e. exhaustion — clause 2
  /// holds by construction). ANYK-PART, ANYK-REC (RecursiveEnumerator) and
  /// the batch enumerator override it to rank the whole batch first and
  /// then bind variables stage-wise across it via the bind kernels
  /// (storage/kernels.h); the ranked union runs its merge in it (pulling
  /// its parts a row at a time); the wrappers (MinWeightProjection,
  /// SharedVectorEnumerator) forward it. Only ParallelUnionEnumerator keeps
  /// this NextInto loop — the batch-forwarding lint rule
  /// (scripts/anyk_lint.py) keeps it that way.
  virtual size_t NextBatch(ResultRow<D>* rows, size_t n) {
    size_t produced = 0;
    while (produced < n && NextInto(&rows[produced])) ++produced;
    return produced;
  }
};

}  // namespace anyk

#endif  // ANYK_ANYK_ENUMERATOR_H_
