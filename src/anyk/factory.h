// Algorithm registry: constructs any of the six ranked-enumeration
// algorithms of the paper's experimental study (Section 7) over a stage
// graph, plus the `kAuto` marker resolved by the cost-based planner.
//
// anyk-lint: allow-file(heap-hot-path): every allocation here is the
// one-time construction of an enumerator at session-open, charged to TTF —
// never per-result work (invariants_test pins the zero-alloc guarantee).

#ifndef ANYK_ANYK_FACTORY_H_
#define ANYK_ANYK_FACTORY_H_

#include <cctype>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "anyk/anyk_part.h"
#include "anyk/anyk_rec.h"
#include "anyk/batch.h"
#include "anyk/enumerator.h"
#include "util/dary_heap.h"
#include "util/logging.h"

namespace anyk {

enum class Algorithm {
  kRecursive,  // ANYK-REC (REA)
  kTake2,      // ANYK-PART, heap-children successors (this paper)
  kLazy,       // ANYK-PART, incrementally drained heap (Chang et al.)
  kEager,      // ANYK-PART, pre-sorted choice sets
  kAll,        // ANYK-PART, insert all siblings (Yang et al.)
  kBatch,      // full result via Yannakakis-style DFS + sort
  kBatchNoSort,// full result, unranked (reference only)
  kAuto        // cost-based planner picks one of the above (docs/PLANNER.md);
               // resolved at prepare time by PreparedQuery, never passed to
               // MakeEnumerator directly
};

inline const char* AlgorithmName(Algorithm a) {
  switch (a) {
    case Algorithm::kRecursive: return "Recursive";
    case Algorithm::kTake2: return "Take2";
    case Algorithm::kLazy: return "Lazy";
    case Algorithm::kEager: return "Eager";
    case Algorithm::kAll: return "All";
    case Algorithm::kBatch: return "Batch";
    case Algorithm::kBatchNoSort: return "BatchNoSort";
    case Algorithm::kAuto: return "Auto";
  }
  return "?";
}

/// The user-facing spelling of an algorithm (case-insensitive: recursive |
/// rec | take2 | lazy | eager | all | batch | auto), as accepted by the
/// CLI's --algorithm and the server's algorithm=; nullopt when unknown.
inline std::optional<Algorithm> ParseAlgorithm(std::string name) {
  for (char& c : name) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (name == "recursive" || name == "rec") return Algorithm::kRecursive;
  if (name == "take2") return Algorithm::kTake2;
  if (name == "lazy") return Algorithm::kLazy;
  if (name == "eager") return Algorithm::kEager;
  if (name == "all") return Algorithm::kAll;
  if (name == "batch") return Algorithm::kBatch;
  if (name == "auto") return Algorithm::kAuto;
  return std::nullopt;
}

/// The five any-k algorithms (no batch variants, no auto).
inline std::vector<Algorithm> AllAnyKAlgorithms() {
  return {Algorithm::kRecursive, Algorithm::kTake2, Algorithm::kLazy,
          Algorithm::kEager, Algorithm::kAll};
}

/// All ranked algorithms including Batch (still no auto: these lists feed
/// differential oracles, and auto resolves to a member of this set).
inline std::vector<Algorithm> AllRankedAlgorithms() {
  auto v = AllAnyKAlgorithms();
  v.push_back(Algorithm::kBatch);
  return v;
}

namespace internal {

/// One ANYK-PART strategy at the candidate-heap arity requested in
/// EnumOptions::heap_arity (2 / 4 / 8; anything else = the default 4).
template <SelectiveDioid D, template <class> class Strategy>
std::unique_ptr<Enumerator<D>> MakePartEnumerator(const StageGraph<D>* g,
                                                  const EnumOptions& opts) {
  switch (opts.heap_arity) {
    case 2:
      return std::make_unique<
          AnyKPartEnumerator<D, Strategy, BoundedBinaryHeap>>(g, opts);
    case 8:
      return std::make_unique<AnyKPartEnumerator<D, Strategy, BoundedOctHeap>>(
          g, opts);
    default:
      return std::make_unique<AnyKPartEnumerator<D, Strategy>>(g, opts);
  }
}

}  // namespace internal

/// Construct an enumerator over `g`. Only reads the graph, so concurrent
/// calls against one shared (immutable) StageGraph are safe — this is what
/// PreparedQuery::NewSession relies on.
template <SelectiveDioid D>
std::unique_ptr<Enumerator<D>> MakeEnumerator(const StageGraph<D>* g,
                                              Algorithm algo,
                                              EnumOptions opts = {}) {
  switch (algo) {
    case Algorithm::kRecursive:
      return std::make_unique<RecursiveEnumerator<D>>(g, opts);
    case Algorithm::kTake2:
      return internal::MakePartEnumerator<D, Take2Strategy>(g, opts);
    case Algorithm::kLazy:
      return internal::MakePartEnumerator<D, LazyStrategy>(g, opts);
    case Algorithm::kEager:
      return internal::MakePartEnumerator<D, EagerStrategy>(g, opts);
    case Algorithm::kAll:
      return internal::MakePartEnumerator<D, AllStrategy>(g, opts);
    case Algorithm::kBatch:
      return std::make_unique<BatchEnumerator<D>>(g,
                                                  BatchOptions{true, opts});
    case Algorithm::kBatchNoSort:
      return std::make_unique<BatchEnumerator<D>>(g,
                                                  BatchOptions{false, opts});
    case Algorithm::kAuto:
      ANYK_CHECK(false) << "Algorithm::kAuto must be resolved by "
                           "PreparedQuery::NewSession before reaching "
                           "MakeEnumerator";
      return nullptr;
  }
  ANYK_CHECK(false) << "unknown algorithm";
  return nullptr;
}

}  // namespace anyk

#endif  // ANYK_ANYK_FACTORY_H_
