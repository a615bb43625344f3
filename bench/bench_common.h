// Shared glue for the figure benchmarks: run a (database, query) pair
// through every ranked-enumeration algorithm and report TT(k) series via the
// structured Reporter (stdout CSV + optional BENCH_<bench>.json; see
// harness.h). Every bench main() starts with InitBench(argc, argv, name) and
// scales its instance sizes with Pick(full, smoke) so `--smoke` runs the
// whole suite in seconds for the CI perf gate.

#ifndef ANYK_BENCH_BENCH_COMMON_H_
#define ANYK_BENCH_BENCH_COMMON_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "anyk/ranked_query.h"
#include "dioid/tropical.h"
#include "harness.h"

namespace anyk {
namespace bench {

/// Enumerator adapter owning the whole query pipeline (so preprocessing is
/// charged to the measured time).
template <typename D>
class OwningEnumerator : public Enumerator<D> {
 public:
  OwningEnumerator(const Database& db, const ConjunctiveQuery& q,
                   typename RankedQuery<D>::Options opts)
      : rq_(db, q, opts) {}
  size_t NextBatch(ResultRow<D>* rows, size_t n) override {
    return rq_.enumerator()->NextBatch(rows, n);
  }

 private:
  RankedQuery<D> rq_;
};

template <typename D>
std::function<std::unique_ptr<Enumerator<D>>()> MakeFactory(
    const Database& db, const ConjunctiveQuery& q, Algorithm algo) {
  return [&db, &q, algo]() {
    typename RankedQuery<D>::Options opts;
    opts.algorithm = algo;
    opts.enum_opts.with_witness = false;  // benches rank, they don't audit
    return std::make_unique<OwningEnumerator<D>>(db, q, opts);
  };
}

/// Run every algorithm in `algos` on (db, q) up to max_k results.
inline void RunAlgorithms(const std::string& figure, const std::string& query,
                          const std::string& dataset, size_t n,
                          const Database& db, const ConjunctiveQuery& q,
                          size_t max_k, const std::vector<Algorithm>& algos) {
  for (Algorithm algo : algos) {
    RunAndPrint<TropicalDioid>(figure, query, dataset, n, AlgorithmName(algo),
                               MakeFactory<TropicalDioid>(db, q, algo), max_k);
  }
}

}  // namespace bench
}  // namespace anyk

#endif  // ANYK_BENCH_BENCH_COMMON_H_
