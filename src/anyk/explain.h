// Plan inspection: sizes and shape of the DP structures behind a ranked
// query plus the cost-based planner's decision, for the CLI's EXPLAIN
// output, debugging, and the size-bound tests of the decompositions.

#ifndef ANYK_ANYK_EXPLAIN_H_
#define ANYK_ANYK_EXPLAIN_H_

#include <cstddef>
#include <sstream>
#include <string>

#include "anyk/ranked_query.h"
#include "anyk/sharded_query.h"
#include "dp/stage_graph.h"
#include "plan/planner.h"
#include "plan/stats.h"

namespace anyk {

/// EXPLAIN of `pq`'s plan shape and sizes, with the planner lines of `d`.
template <SelectiveDioid D>
std::string Explain(const PreparedQuery<D>& pq, const plan::PlanDecision& d) {
  std::ostringstream out;
  switch (pq.plan()) {
    case QueryPlan::kAcyclicTree:
      out << "plan: acyclic join tree (GYO), 1 T-DP problem\n";
      break;
    case QueryPlan::kCycleUnion:
      out << "plan: simple-cycle decomposition, UT-DP union of "
          << pq.NumTrees() << " trees\n";
      break;
    case QueryPlan::kGenericJoinBatch:
      out << "plan: worst-case-optimal generic join + sort (batch fallback)\n";
      break;
  }
  for (size_t t = 0; t < pq.graphs().size(); ++t) {
    const plan::GraphStats s = plan::CollectGraphStats(*pq.graphs()[t]);
    out << "  tree " << t << ": " << s.stages << " stages, " << s.input_rows
        << " bag rows, " << s.states << " surviving states, " << s.connectors
        << " connectors\n";
  }
  out << "planner: " << d.Summary() << "\n";
  out << "  topology: " << (d.auto_topology ? "planner-chosen (auto)"
                                            : "construction order")
      << ", stats: output=" << d.stats.output_count << " states="
      << d.stats.states << " connectors=" << d.stats.connectors
      << " avg_fanout=" << d.stats.avg_fanout << " max_fanout="
      << d.stats.max_fanout << (d.stats.serial() ? " (serial chain)" : "")
      << "\n";
  return out.str();
}

template <SelectiveDioid D>
std::string Explain(const PreparedQuery<D>& pq) {
  return Explain(pq, pq.decision());
}

/// All shards share one pipeline shape (only the data differs): the shape
/// and sizes shown are shard 0's, labeled as such when S > 1, while the
/// planner lines are `d`, a cross-shard decision.
template <SelectiveDioid D>
std::string Explain(const ShardedPreparedQuery<D>& pq,
                    const plan::PlanDecision& d) {
  if (pq.NumShards() == 1) return Explain(pq.shard(0), d);
  return "shards: " + std::to_string(pq.NumShards()) +
         " (plan shape and sizes below are shard 0's; the planner decision "
         "is merged across shards)\n" +
         Explain(pq.shard(0), d);
}

template <SelectiveDioid D>
std::string Explain(const RankedQuery<D>& rq) {
  return Explain(rq.prepared());
}

}  // namespace anyk

#endif  // ANYK_ANYK_EXPLAIN_H_
