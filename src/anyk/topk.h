// Convenience wrappers for the common "give me the top k" use case.
//
// Both TopK overloads take the budget-aware fast path: the k is passed down
// as EnumOptions::k_budget (bounded candidate heaps, final-answer shortcuts,
// batch partial sort — see docs/ARCHITECTURE.md, "Top-k fast path") and the
// drain goes through NextBatch into pre-sized rows, so no ResultRow is ever
// copied on its way into the returned vector. CountOutput pages through
// NextBatch too, reusing one page of rows.

#ifndef ANYK_ANYK_TOPK_H_
#define ANYK_ANYK_TOPK_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "anyk/ranked_query.h"

namespace anyk {

namespace internal {
inline constexpr size_t kChunk = 1024;

/// Chunked NextBatch drain of up to k answers into a fresh vector. Rows are
/// written in place (no per-answer copy); chunking keeps the buffer
/// proportional to the actual output when k overshoots it.
template <SelectiveDioid D>
std::vector<ResultRow<D>> DrainTopK(Enumerator<D>* e, size_t k) {
  std::vector<ResultRow<D>> out;
  size_t produced = 0;
  while (produced < k) {
    const size_t chunk = std::min(k - produced, kChunk);
    out.resize(produced + chunk);
    const size_t got = e->NextBatch(out.data() + produced, chunk);
    produced += got;
    if (got < chunk) break;
  }
  out.resize(produced);
  return out;
}
}  // namespace internal

/// The k lightest answers of a full CQ (fewer if the output is smaller).
/// k == 0 returns an empty vector: the drain pulls nothing, so the
/// EnumOptions::k_budget "0 = unbounded" sentinel (which this k is forwarded
/// into) never turns a zero request into a full enumeration — api_test pins
/// this.
template <SelectiveDioid D = TropicalDioid>
std::vector<ResultRow<D>> TopK(const Database& db, const ConjunctiveQuery& q,
                               size_t k,
                               typename RankedQuery<D>::Options opts = {}) {
  opts.enum_opts.k_budget = k;
  RankedQuery<D> rq(db, q, opts);
  return internal::DrainTopK<D>(rq.enumerator(), k);
}

/// The k lightest answers through a fresh session of an already prepared
/// query — the serving-path variant: prepare once, call this from as many
/// threads as you like (each call owns its session; the prepared query is
/// only read).
template <SelectiveDioid D>
std::vector<ResultRow<D>> TopK(const PreparedQuery<D>& pq, Algorithm algo,
                               size_t k) {
  EnumOptions opts = pq.default_enum_options();
  opts.k_budget = k;
  EnumerationSession<D> session = pq.NewSession(algo, opts);
  return internal::DrainTopK<D>(session.enumerator(), k);
}

/// Count the full output by draining an unranked batch enumeration.
template <SelectiveDioid D = TropicalDioid>
size_t CountOutput(const Database& db, const ConjunctiveQuery& q) {
  typename RankedQuery<D>::Options opts;
  opts.algorithm = Algorithm::kBatchNoSort;
  opts.enum_opts.with_witness = false;
  RankedQuery<D> rq(db, q, opts);
  std::vector<ResultRow<D>> page(internal::kChunk);
  size_t n = 0;
  size_t got;
  do {
    got = rq.enumerator()->NextBatch(page.data(), page.size());
    n += got;
  } while (got == page.size());
  return n;
}

}  // namespace anyk

#endif  // ANYK_ANYK_TOPK_H_
