// The planning layer: turns load/build statistics into the three choices
// `--algorithm auto` needs (docs/PLANNER.md):
//   (a) join-tree root/orientation        — PlanTopology, before the build,
//   (b) TDP stage order (child order)     — PlanTopology, before the build,
//   (c) strategy + candidate-heap arity   — DecideStrategy, after the build.
//
// (a)/(b) only see relation cardinalities (the build hasn't run yet); the
// shape follows Themis's chooseOrderForAndQuery: order by ascending
// cardinality estimate with a stable tie-break. (c) sees the full graph
// statistics including exact output counts and goes through the cost model.
//
// (c) depends on the k budget only through the cost model's scalar inputs:
// PreparedQuery decides it ONCE, at prepare time, against the prepare-time
// k_budget, and every session opened with Algorithm::kAuto reuses it
// (concurrency_test pins that sessions never re-plan). QueryHandle
// (anyk/query_handle.h) prepares unbounded and re-decides per stream budget
// from the cached statistics through the O(1) GraphStats overload — the
// same pick a prepare at that budget makes, with no pass over the graphs.

#ifndef ANYK_PLAN_PLANNER_H_
#define ANYK_PLAN_PLANNER_H_

#include <cstddef>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "anyk/factory.h"
#include "dp/stage_graph.h"
#include "plan/cost_model.h"
#include "plan/stats.h"
#include "query/cq.h"
#include "query/gyo.h"
#include "query/join_tree.h"
#include "storage/database.h"

namespace anyk {
namespace plan {

/// The cached outcome of planning one query: what NewSession(kAuto) runs,
/// what EXPLAIN and the server's /statz expose.
struct PlanDecision {
  Algorithm algorithm = Algorithm::kLazy;
  size_t heap_arity = 4;
  int planner_version = kPlannerVersion;
  bool auto_topology = false;  // (a)/(b) were planner-chosen
  GraphStats stats;
  double est_cost = 0;
  double est_batch = 0;
  // A string literal (the cost model's or BatchOnlyDecision's): deciding
  // allocates nothing, so a stream can re-decide for its budget at open.
  const char* reason = "";

  /// One-line rendering for EXPLAIN / /statz / logs.
  std::string Summary() const {
    std::ostringstream out;
    out << "v" << planner_version << " algorithm=" << AlgorithmName(algorithm)
        << " heap_arity=" << heap_arity << " out=" << stats.output_count
        << " max_fanout=" << stats.max_fanout << " reason=" << reason;
    return out.str();
  }
};

/// Choose root/orientation and child (stage) order for an acyclic query,
/// starting from the GYO tree after Cartesian-link normalization.
///
/// Chains are re-rooted like RerootChains — serial DP, the paper's path
/// formulation — but at the *endpoint whose relation is smallest*, so the
/// root stage (whose states seed every candidate) is the cheapest one.
/// Branching trees keep their root and instead order each node's children
/// by ascending relation cardinality (JoinTreeTopology::child_priority),
/// the Themis ascending-estimate discipline.
inline JoinTreeTopology PlanTopology(const Database& db,
                                     const ConjunctiveQuery& q,
                                     const JoinTreeTopology& topo) {
  const size_t n = topo.parent.size();
  if (n <= 1) return topo;
  std::vector<std::vector<int>> adj(n);
  for (size_t i = 0; i < n; ++i) {
    if (topo.parent[i] >= 0) {
      adj[i].push_back(topo.parent[i]);
      adj[topo.parent[i]].push_back(static_cast<int>(i));
    }
  }
  bool chain = true;
  for (size_t i = 0; i < n && chain; ++i) chain = adj[i].size() <= 2;

  if (chain) {
    // Both endpoints; root at the one with the smaller relation (stable
    // tie-break on atom index keeps the choice deterministic).
    int best = -1;
    size_t best_rows = 0;
    for (size_t i = 0; i < n; ++i) {
      if (adj[i].size() > 1) continue;
      const size_t rows = AtomCardinality(db, q, i);
      if (best < 0 || rows < best_rows) {
        best = static_cast<int>(i);
        best_rows = rows;
      }
    }
    JoinTreeTopology out;
    out.parent.assign(n, -1);
    out.root = best;
    std::vector<bool> seen(n, false);
    seen[best] = true;
    std::vector<int> stack = {best};
    while (!stack.empty()) {
      const int u = stack.back();
      stack.pop_back();
      for (int v : adj[u]) {
        if (!seen[v]) {
          seen[v] = true;
          out.parent[v] = u;
          stack.push_back(v);
        }
      }
    }
    return out;
  }

  // Branching tree: keep the orientation, order sibling subtrees smallest
  // relation first so cheap stages come earlier in the serialization.
  JoinTreeTopology out = topo;
  out.child_priority.resize(n);
  for (size_t i = 0; i < n; ++i) {
    out.child_priority[i] = static_cast<double>(AtomCardinality(db, q, i));
  }
  return out;
}

/// Decide strategy + heap arity for a budget from graph statistics alone.
/// `k_budget` is the stream's budget (EnumOptions sentinel: 0 =
/// unbounded). O(1): the cost model reads the scalar statistics only, so a
/// caller that cached a prepared query's stats can re-decide for every
/// stream's budget without another pass over the graphs (QueryHandle does).
inline PlanDecision DecideStrategy(const GraphStats& stats, size_t k_budget,
                                   bool has_inverse) {
  PlanInput in;
  in.stats = stats;
  in.k_budget = k_budget;
  in.has_inverse = has_inverse;
  const StrategyChoice choice = ChooseStrategy(in);
  PlanDecision d;
  d.algorithm = choice.algorithm;
  d.heap_arity = choice.heap_arity;
  d.stats = stats;
  d.est_cost = choice.est_cost;
  d.est_batch = choice.est_batch;
  d.reason = choice.reason;
  return d;
}

/// Decide strategy + heap arity for built tree/union graphs: their merged
/// statistics, then the stats overload above.
///
/// The non-owning overload exists for cross-shard planning: the sharded
/// layer (anyk/sharded_query.h) concatenates the graph lists of S per-shard
/// PreparedQueries it does not own and decides ONCE over the merged
/// statistics, so every shard session runs the same strategy.
template <SelectiveDioid D>
PlanDecision DecideStrategy(const std::vector<const StageGraph<D>*>& graphs,
                            size_t k_budget) {
  GraphStats stats;
  for (size_t i = 0; i < graphs.size(); ++i) {
    const GraphStats part = CollectGraphStats(*graphs[i]);
    if (i == 0) {
      stats = part;
    } else {
      MergeGraphStats(&stats, part);
    }
  }
  return DecideStrategy(stats, k_budget, D::kHasInverse);
}

template <SelectiveDioid D>
PlanDecision DecideStrategy(
    const std::vector<std::unique_ptr<StageGraph<D>>>& graphs,
    size_t k_budget) {
  std::vector<const StageGraph<D>*> ptrs;
  ptrs.reserve(graphs.size());
  for (const auto& g : graphs) ptrs.push_back(g.get());
  return DecideStrategy<D>(ptrs, k_budget);
}

/// Decision for the generic-join fallback, where the output is already
/// materialized and sorted: every session is a cursor, "Batch" by
/// construction.
inline PlanDecision BatchOnlyDecision(double output_count) {
  PlanDecision d;
  d.algorithm = Algorithm::kBatch;
  d.stats.output_count = output_count;
  d.reason = "generic-join fallback materializes + sorts at prepare time";
  return d;
}

}  // namespace plan
}  // namespace anyk

#endif  // ANYK_PLAN_PLANNER_H_
