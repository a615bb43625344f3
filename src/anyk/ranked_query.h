// High-level entry point: ranked enumeration of a full CQ over a database
// (Theorem 15). Plans:
//   * acyclic CQ           -> GYO join tree -> one T-DP problem,
//   * simple cycle (l>=4)  -> heavy/light decomposition -> UT-DP union,
//   * other cyclic CQs     -> worst-case-optimal generic join, then sort
//                             (batch fallback; no any-k guarantees).
//
// RankedQuery is the single-session convenience wrapper around the
// PreparedQuery / EnumerationSession split (prepared_query.h): it prepares
// once and opens one session. Code that serves the same query to several
// concurrent consumers should hold a PreparedQuery directly and call
// NewSession per thread.

#ifndef ANYK_ANYK_RANKED_QUERY_H_
#define ANYK_ANYK_RANKED_QUERY_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "anyk/enumerator.h"
#include "anyk/factory.h"
#include "anyk/prepared_query.h"
#include "dioid/tropical.h"
#include "dp/stage_graph.h"
#include "util/thread_pool.h"

namespace anyk {

template <SelectiveDioid D = TropicalDioid>
class RankedQuery {
 public:
  struct Options {
    Algorithm algorithm = Algorithm::kLazy;
    EnumOptions enum_opts;
    CycleDecompositionOptions cycle_opts;
    // Preprocessing parallelism (not owned; null = serial).
    ThreadPool* pool = nullptr;
  };

  RankedQuery(const Database& db, const ConjunctiveQuery& q,
              Options opts = {})
      : prepared_(db, q,
                  PrepareOptions{
                      opts.enum_opts, opts.cycle_opts, opts.pool,
                      /*auto_plan=*/opts.algorithm == Algorithm::kAuto}),
        session_(prepared_.NewSession(opts.algorithm, opts.enum_opts)) {}

  /// Next answer in rank order, or nullopt when exhausted.
  std::optional<ResultRow<D>> Next() { return session_.Next(); }

  QueryPlan plan() const { return prepared_.plan(); }
  size_t NumTrees() const { return prepared_.NumTrees(); }
  /// The cached planner decision (what Algorithm::kAuto resolved to).
  const plan::PlanDecision& decision() const { return prepared_.decision(); }
  Enumerator<D>* enumerator() { return session_.enumerator(); }
  const std::vector<std::unique_ptr<StageGraph<D>>>& graphs() const {
    return prepared_.graphs();
  }

  /// The shared immutable half (e.g. to open further concurrent sessions).
  const PreparedQuery<D>& prepared() const { return prepared_; }

 private:
  PreparedQuery<D> prepared_;
  EnumerationSession<D> session_;
};

}  // namespace anyk

#endif  // ANYK_ANYK_RANKED_QUERY_H_
