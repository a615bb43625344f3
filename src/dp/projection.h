// Ranked enumeration under min-weight-projection semantics for free-connex
// acyclic queries (paper Section 8.1, Theorem 20).
//
// Pipeline:
//  1. build the layered join tree (projection_tree.h): U layer over free
//     variables, original atoms with existential variables hanging below;
//  2. run the bottom-up phase on the *full* layered T-DP — this computes
//     π1 for every state, in particular the best completion of every
//     lower-layer branch per join key;
//  3. build the *pruned* T-DP over the U layer only, folding each pruned
//     branch's minimum into the retained states' weights via the
//     StateWeightHook (the paper's artificial-terminal weight rewrite);
//  4. run any any-k algorithm on the pruned graph.
//
// TTF is O(n) and delay O(log k) (Theorem 20); each emitted assignment binds
// exactly the free variables and carries the minimum weight over all full
// answers projecting to it.

#ifndef ANYK_DP_PROJECTION_H_
#define ANYK_DP_PROJECTION_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "anyk/factory.h"
#include "dp/projection_tree.h"
#include "dp/stage_graph.h"

namespace anyk {

template <SelectiveDioid D>
class MinWeightProjection : public Enumerator<D> {
  using V = typename D::Value;

 public:
  MinWeightProjection(const Database& db, const ConjunctiveQuery& q,
                      Algorithm algo = Algorithm::kTake2,
                      EnumOptions opts = {})
      : layered_(BuildLayeredInstance(db, q)) {
    // anyk-lint: allow(heap-hot-path): constructor-time graph build (TTF)
    full_graph_ = std::make_unique<StageGraph<D>>(
        BuildStageGraph<D>(layered_.full));

    // Stage index of each layered node in the full graph.
    std::vector<uint32_t> stage_of_node(layered_.full.nodes.size());
    for (uint32_t k = 0; k < full_graph_->stages.size(); ++k) {
      stage_of_node[full_graph_->stages[k].node_idx] = k;
    }

    // Pruned instance over the U layer.
    pruned_.num_vars = layered_.full.num_vars;
    pruned_.num_atoms = layered_.full.num_atoms;
    std::vector<int> pruned_idx(layered_.full.nodes.size(), -1);
    for (uint32_t u : layered_.u_nodes) {
      pruned_idx[u] = static_cast<int>(pruned_.nodes.size());
      layered_to_pruned_node_.push_back(u);
      const TDPNode& src = layered_.full.nodes[u];
      TDPNode copy;
      copy.vars = src.vars;
      copy.table = src.table;
      copy.owned = src.owned;
      copy.pinned_atoms = src.pinned_atoms;
      copy.pin_weights = src.pin_weights;
      copy.pin_rows = src.pin_rows;
      pruned_.nodes.push_back(std::move(copy));
    }
    for (size_t i = 0; i < pruned_.nodes.size(); ++i) {
      const int lp = layered_.full.nodes[layered_to_pruned_node_[i]].parent;
      pruned_.nodes[i].parent = (lp < 0) ? -1 : pruned_idx[lp];
      ANYK_CHECK(lp < 0 || pruned_idx[lp] >= 0) << "U layer not connex";
    }
    FinalizeTopology(&pruned_);
    ComputeJoinKeys(&pruned_);

    // Weight hook: fold the best completion of every pruned branch.
    hook_ = [this, stage_of_node](uint32_t node_idx,
                                  uint32_t row) -> std::optional<V> {
      const uint32_t layered_idx = layered_to_pruned_node_[node_idx];
      const TDPNode& unode = layered_.full.nodes[layered_idx];
      V extra = D::One();
      for (uint32_t c : layered_.pruned_children[layered_idx]) {
        const TDPNode& cnode = layered_.full.nodes[c];
        Key key;
        key.reserve(cnode.parent_key_cols.size());
        for (uint32_t pc : cnode.parent_key_cols) {
          key.push_back(unode.table->At(row, pc));
        }
        const uint32_t cstage = stage_of_node[c];
        const int64_t conn = full_graph_->conn_of_key[cstage].Find(key);
        if (conn < 0) return std::nullopt;  // no completion: prune
        extra = D::Combine(extra, full_graph_->stages[cstage].ConnBestVal(
                                      static_cast<uint32_t>(conn)));
      }
      return extra;
    };
    // anyk-lint: allow(heap-hot-path): constructor-time graph build (TTF)
    pruned_graph_ = std::make_unique<StageGraph<D>>(BuildStageGraph<D>(
        pruned_, layered_.full.num_atoms, &hook_));
    enumerator_ = MakeEnumerator<D>(pruned_graph_.get(), algo, opts);
  }

  /// Free-variable assignments in rank order; each weight is the minimum
  /// over all full answers projecting to it. Witnesses are only meaningful
  /// for atoms fully contained in the free part.
  size_t NextBatch(ResultRow<D>* rows, size_t n) override {
    return enumerator_->NextBatch(rows, n);
  }

  const std::vector<uint32_t>& free_vars() const { return layered_.free_vars; }

 private:
  LayeredInstance layered_;
  std::unique_ptr<StageGraph<D>> full_graph_;
  TDPInstance pruned_;
  std::vector<uint32_t> layered_to_pruned_node_;
  StateWeightHook<D> hook_;
  std::unique_ptr<StageGraph<D>> pruned_graph_;
  std::unique_ptr<Enumerator<D>> enumerator_;
};

}  // namespace anyk

#endif  // ANYK_DP_PROJECTION_H_
