// Theta-joins (paper Section 2.1: "Our approach can be applied to any join
// query, including those with theta-join conditions"; optimality guarantees
// are only claimed for equi-joins).
//
// For a path query R1 θ1 R2 θ2 ... θ_{l-1} Rl with arbitrary join
// predicates θ_i(left row, right row), the Fig. 3 connector sharing is
// unavailable: every state gets its *private* connector listing the child
// states its predicate admits. The stage graph therefore has O(n²) edges in
// the worst case — the price of generality — but all any-k algorithms run
// on it unchanged, and delays keep their guarantees relative to the larger
// preprocessing.

#ifndef ANYK_DP_THETA_H_
#define ANYK_DP_THETA_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "dp/stage_graph.h"
#include "query/join_tree.h"
#include "storage/database.h"
#include "util/logging.h"

namespace anyk {

/// Join predicate between a row of stage i and a row of stage i+1.
using ThetaPredicate =
    std::function<bool(std::span<const Value>, std::span<const Value>)>;

/// Holds the chain instance together with its theta stage graph (the graph
/// points into the instance).
template <SelectiveDioid D>
struct ThetaPathProblem {
  std::unique_ptr<TDPInstance> instance;
  std::unique_ptr<StageGraph<D>> graph;
};

/// Build the DP for relations[0] θ[0] relations[1] θ[1] ... — a serial
/// chain; variables are synthetic (stage i contributes its own columns).
template <SelectiveDioid D>
ThetaPathProblem<D> BuildThetaPathGraph(
    const std::vector<const Relation*>& relations,
    const std::vector<ThetaPredicate>& thetas) {
  using V = typename D::Value;
  const size_t L = relations.size();
  ANYK_CHECK_GE(L, 1u);
  ANYK_CHECK_EQ(thetas.size(), L - 1);

  ThetaPathProblem<D> out;
  // anyk-lint: allow(heap-hot-path): problem setup before any enumeration
  out.instance = std::make_unique<TDPInstance>();
  TDPInstance& inst = *out.instance;
  inst.num_atoms = L;
  // Synthetic disjoint variables: stage i's columns are vars base..base+a.
  uint32_t var_base = 0;
  for (size_t i = 0; i < L; ++i) {
    TDPNode node;
    node.table = relations[i];
    for (size_t c = 0; c < relations[i]->arity(); ++c) {
      node.vars.push_back(var_base++);
    }
    node.parent = (i == 0) ? -1 : static_cast<int>(i - 1);
    node.pinned_atoms = {static_cast<uint32_t>(i)};
    inst.nodes.push_back(std::move(node));
  }
  inst.num_vars = var_base;
  FinalizeTopology(&inst);
  // No key columns: connectors are assigned explicitly below.

  // anyk-lint: allow(heap-hot-path): problem setup before any enumeration
  out.graph = std::make_unique<StageGraph<D>>();
  StageGraph<D>& g = *out.graph;
  g.instance = &inst;
  g.stages.resize(L);
  g.child_stage.assign(L, {});
  g.conn_of_key.resize(L);
  for (size_t k = 0; k < L; ++k) {
    auto& st = g.stages[k];
    st.node_idx = static_cast<uint32_t>(k);
    st.col_segs.resize(relations[k]->arity());
    for (size_t c = 0; c < relations[k]->arity(); ++c) {
      st.col_segs[c] =
          relations[k]->NumRows() ? relations[k]->ColumnData(c) : nullptr;
    }
    st.parent_stage = (k == 0) ? -1 : static_cast<int>(k - 1);
    st.parent_slot = 0;
    st.num_slots = (k + 1 < L) ? 1 : 0;
    st.conn_begin = {0};
    if (k + 1 < L) g.child_stage[k].push_back(static_cast<uint32_t>(k + 1));
  }

  // Bottom-up, last stage first. Each surviving parent state gets a private
  // connector over the surviving child states its predicate admits; a
  // stage's connectors are finished (heap order, counts) once its parent
  // stage has been scanned. `count` holds the current stage's per-state
  // solution counts.
  std::vector<double> count;
  for (size_t k = L; k-- > 0;) {
    auto& st = g.stages[k];
    const Relation& rel = *relations[k];
    const size_t rows = rel.NumRows();
    if (k + 1 == L) {
      // Leaf stage: every row survives with pi1 = 1̄.
      for (size_t r = 0; r < rows; ++r) {
        st.row_of_state.push_back(static_cast<uint32_t>(r));
        st.weight.push_back(LiftWeight<D>(rel.Weight(r), k, L,
                                          static_cast<uint32_t>(r)));
        st.pi1.push_back(D::One());
      }
      count.assign(st.NumStates(), 1.0);
      continue;
    }
    auto& child = g.stages[k + 1];
    // Predicates take row spans; storage is columnar, so materialize each
    // candidate pair into flat buffers (left once per r, right per state).
    const Relation& child_rel = *relations[k + 1];
    std::vector<Value> left_buf(rel.arity());
    std::vector<Value> right_buf(child_rel.arity());
    for (size_t r = 0; r < rows; ++r) {
      rel.Row(r).CopyInto(left_buf.data());
      // Private connector: matching surviving child states.
      const size_t begin = child.members.size();
      V best = D::Zero();
      for (uint32_t cs = 0; cs < child.NumStates(); ++cs) {
        child_rel.Row(child.row_of_state[cs]).CopyInto(right_buf.data());
        if (!thetas[k](left_buf, right_buf)) continue;
        const V val = D::Combine(child.weight[cs], child.pi1[cs]);
        if (child.members.size() == begin || D::Less(val, best)) best = val;
        child.members.push_back(cs);
        child.member_val.push_back(val);
      }
      if (child.members.size() == begin) continue;  // dangling: prune
      st.conn_of_state.push_back(
          static_cast<uint32_t>(child.conn_begin.size() - 1));
      child.conn_begin.push_back(static_cast<uint32_t>(child.members.size()));
      st.row_of_state.push_back(static_cast<uint32_t>(r));
      st.weight.push_back(LiftWeight<D>(rel.Weight(r), k, L,
                                        static_cast<uint32_t>(r)));
      st.pi1.push_back(best);
    }
    child.FinishConnectors(count);
    count.resize(st.NumStates());
    for (size_t s = 0; s < st.NumStates(); ++s) {
      count[s] = child.conn_count[st.conn_of_state[s]];
    }
  }
  // Root connector: all surviving root states.
  {
    auto& st = g.stages[0];
    const uint32_t ns = static_cast<uint32_t>(st.NumStates());
    if (ns > 0) st.conn_begin.push_back(ns);
    for (uint32_t s = 0; s < ns; ++s) {
      st.members.push_back(s);
      st.member_val.push_back(D::Combine(st.weight[s], st.pi1[s]));
    }
    st.FinishConnectors(count);
  }
  uint32_t base = 0;
  for (auto& st : g.stages) {
    st.conn_global_base = base;
    base += static_cast<uint32_t>(st.NumConns());
  }
  g.total_connectors = base;
  return out;
}

}  // namespace anyk

#endif  // ANYK_DP_THETA_H_
