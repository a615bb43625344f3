// Strategy cost model: estimated TT(k) of every ranked-enumeration
// strategy from the graph statistics, the dioid, and the k budget.
//
// The units are abstract "elementary operations"; the constants below are
// coarse calibration weights, not microarchitectural truth. What the model
// must get right — and what planner_test verifies against a drain-them-all
// oracle over the differential corpus — are the *crossovers* the paper and
// "Optimal Join Algorithms Meet Top-k" characterize:
//   * Batch wins late: when k approaches |out|, one DFS materialization
//     plus one (partial) sort beats per-answer priority-queue machinery.
//   * Any-k wins early: for k << |out| it touches O(k * l) states instead
//     of all |out| answers.
//   * Among the any-k strategies the constants differ by successor
//     discipline: Lazy pays one incremental-heap pop per answer, Eager
//     pre-sorts whole choice sets (great when fanout is tiny), All floods
//     the candidate heap with every sibling (fanout-proportional), Take2
//     pushes two heap-children per pop, and Recursive amortizes suffix
//     rankings across shared connectors (serial chains only).
//
// docs/PLANNER.md derives each formula.

#ifndef ANYK_PLAN_COST_MODEL_H_
#define ANYK_PLAN_COST_MODEL_H_

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "anyk/factory.h"
#include "plan/stats.h"

namespace anyk {
namespace plan {

/// Version of the cost model + statistics schema. Bumped whenever a change
/// can alter a planning decision; the anykd prepared-query cache folds it
/// into its keys so a binary upgrade can never serve a plan chosen by an
/// older model from a warm cache (see docs/SERVER.md, "Cache keying").
inline constexpr int kPlannerVersion = 1;

/// Inputs to one strategy decision.
struct PlanInput {
  GraphStats stats;
  size_t k_budget = 0;       // 0 = unbounded (EnumOptions sentinel)
  bool has_inverse = true;   // dioid's (W, o*) is a group (D::kHasInverse)
};

/// Estimated cost per strategy, in abstract operation units.
struct StrategyCosts {
  double batch = 0;
  double lazy = 0;
  double eager = 0;
  double take2 = 0;
  double all = 0;
  double recursive = 0;
};

/// The answers actually requested: the budget capped by the output size.
inline double EffectiveK(const PlanInput& in) {
  const double out = in.stats.output_count;
  if (in.k_budget == 0) return out;
  return std::min(static_cast<double>(in.k_budget), out);
}

inline StrategyCosts EstimateCosts(const PlanInput& in) {
  const GraphStats& st = in.stats;
  const double out = std::max(st.output_count, 0.0);
  const double k = std::max(EffectiveK(in), 1.0);
  const double l = static_cast<double>(std::max<size_t>(st.stages, 1));
  const double fan = std::max(st.avg_fanout, 1.0);
  const double conns = static_cast<double>(st.connectors);
  const double log_k = std::log2(k + 2.0);
  const double log_fan = std::log2(fan + 2.0);
  // Non-invertible dioids (min-max, max-times) re-accumulate candidate
  // weights along the deviation frontier instead of subtracting the old
  // branch out — a constant-factor tax on every ANYK-PART successor.
  const double part_tax = in.has_inverse ? 1.0 : 1.3;

  StrategyCosts c;
  // One DFS over all answers (l states each) plus a partial sort of the
  // top k out of |out|.
  c.batch = out * (2.0 * l + log_k);
  // Per answer: one candidate pop (log k), l successor pushes, l binds;
  // plus lazily initializing one incremental heap per touched connector.
  const double touched = std::min(k * l, conns);
  c.lazy = part_tax * k * (log_k + 2.5 * l) + 2.0 * touched;
  // Eager pre-sorts every touched choice set up front; successors are then
  // plain array steps (cheapest per answer, expensive on wide fanout).
  c.eager = part_tax * k * (log_k + 1.5 * l) + touched * fan * log_fan;
  // Take2 pushes two heap-children per pop: slightly heavier per answer
  // than Lazy, but no per-connector structure at all.
  c.take2 = part_tax * k * (2.0 * log_k + 2.0 * l);
  // All inserts every sibling of each popped candidate.
  c.all = part_tax * k * (fan * log_k + 2.0 * l);
  // Recursive shares suffix rankings across connectors: near-linear per
  // answer on serial chains, but the Cartesian combination for bushy trees
  // multiplies the per-stage work.
  const double shape_tax = st.serial() ? 1.0 : 2.5;
  c.recursive = shape_tax * (1.5 * k * l + static_cast<double>(st.states) *
                                               log_fan * 0.5);
  return c;
}

/// One strategy pick with the evidence that produced it.
struct StrategyChoice {
  Algorithm algorithm = Algorithm::kLazy;
  size_t heap_arity = 4;   // candidate-heap arity for the PART strategies
  double est_cost = 0;     // estimated cost of the chosen strategy
  double est_batch = 0;    // batch estimate, for the crossover diagnostics
  const char* reason = "";
};

inline StrategyChoice ChooseStrategy(const PlanInput& in) {
  StrategyChoice pick;
  const double out = in.stats.output_count;
  if (out <= 0.0) {
    pick.algorithm = Algorithm::kLazy;
    pick.reason = "empty output: any strategy terminates immediately";
    return pick;
  }
  const StrategyCosts c = EstimateCosts(in);
  pick.est_batch = c.batch;
  // Deterministic preference order breaks exact cost ties.
  struct Entry { Algorithm a; double cost; const char* why; };
  const Entry entries[] = {
      {Algorithm::kLazy, c.lazy, "lazy incremental heaps"},
      {Algorithm::kTake2, c.take2, "take2 heap-children successors"},
      {Algorithm::kEager, c.eager, "eager pre-sorted choice sets"},
      {Algorithm::kRecursive, c.recursive, "recursive suffix reuse"},
      {Algorithm::kAll, c.all, "all-sibling insertion"},
      {Algorithm::kBatch, c.batch, "batch materialize + sort"},
  };
  pick.algorithm = entries[0].a;
  pick.est_cost = entries[0].cost;
  pick.reason = entries[0].why;
  for (const Entry& e : entries) {
    if (e.cost < pick.est_cost) {
      pick.algorithm = e.a;
      pick.est_cost = e.cost;
      pick.reason = e.why;
    }
  }
  // Candidate-heap arity for the PART strategies: tiny budgets fit a
  // shallow binary heap; unbounded deep drains favor wider nodes (fewer
  // cache-missing levels). Batch/Recursive ignore the knob.
  const double k = EffectiveK(in);
  if (k <= 64.0) {
    pick.heap_arity = 2;
  } else if (k >= 65536.0) {
    pick.heap_arity = 8;
  } else {
    pick.heap_arity = 4;
  }
  return pick;
}

}  // namespace plan
}  // namespace anyk

#endif  // ANYK_PLAN_COST_MODEL_H_
