// Batch baseline (paper Section 4.3): produce the *full* unranked output by
// DFS over the (semi-join-reduced) stage graph — this is exactly the
// Yannakakis algorithm for acyclic queries, O(n + |out|) — and then sort it
// by weight. TTF equals TTL, MEM is O(|out| * l).
//
// The unsorted variant ("Batch(No sort)" in the paper's plots) is available
// through `BatchOptions::sort = false`.

#ifndef ANYK_ANYK_BATCH_H_
#define ANYK_ANYK_BATCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <optional>
#include <vector>

#include "anyk/enumerator.h"
#include "dp/stage_graph.h"
#include "util/logging.h"

namespace anyk {

struct BatchOptions {
  bool sort = true;
  EnumOptions enum_opts;
};

template <SelectiveDioid D>
class BatchEnumerator : public Enumerator<D> {
  using V = typename D::Value;

 public:
  explicit BatchEnumerator(const StageGraph<D>* g, BatchOptions opts = {})
      : g_(g), opts_(opts) {}

  bool NextInto(ResultRow<D>* row) override {
    if (!materialized_) Materialize();
    if (cursor_ >= order_.size()) return false;
    const size_t L = g_->stages.size();
    const uint32_t idx = order_[cursor_++];
    PrepareRow(weights_[idx], row);
    for (uint32_t j = 0; j < L; ++j) {
      BindState(*g_, j, solutions_[static_cast<size_t>(idx) * L + j],
                &row->assignment,
                opts_.enum_opts.with_witness ? &row->witness : nullptr);
    }
    return true;
  }

  /// Batched pull, bound stage-wise through the bind kernels: the batch's
  /// rank window of `order_` becomes a dense state matrix (one strided
  /// gather per stage out of the materialized solutions), then each stage
  /// binds its whole column of the batch in one BindStateBatch pass. Short
  /// return ⇒ the rank order is exhausted (contract in anyk/enumerator.h);
  /// the only possible short count is the tail min() below. Scratch buffers
  /// are plain members reused across calls (no allocation after warm-up;
  /// the batch variant's enumeration phase is already post-materialize).
  size_t NextBatch(ResultRow<D>* rows, size_t n) override {
    if (!materialized_) Materialize();
    const size_t L = g_->stages.size();
    const size_t produced = std::min(n, order_.size() - cursor_);
    for (size_t b = 0; b < produced; ++b) {
      PrepareRow(weights_[order_[cursor_ + b]], &rows[b]);
    }
    // Flatten the batch's states in rank order: batch_states_[b * L + j] =
    // answer b's state at stage j (one contiguous L-copy per answer out of
    // the materialized solutions).
    batch_states_.resize(produced * L);
    batch_ids_.resize(2 * produced);
    batch_vals_.resize(produced);
    const uint32_t* order_win = order_.data() + cursor_;
    for (size_t b = 0; b < produced; ++b) {
      std::copy_n(solutions_.data() + static_cast<size_t>(order_win[b]) * L,
                  L, batch_states_.data() + b * L);
    }
    for (uint32_t j = 0; j < L; ++j) {
      BindStateBatch(*g_, j, batch_states_.data(), L, j, produced, rows,
                     opts_.enum_opts.with_witness, batch_ids_.data(),
                     batch_vals_.data());
    }
    cursor_ += produced;
    return produced;
  }

  std::optional<ResultRow<D>> Next() override {
    ResultRow<D> row;
    if (!NextInto(&row)) return std::nullopt;
    return row;
  }

  /// Number of output tuples (forces materialization).
  size_t OutputSize() {
    if (!materialized_) Materialize();
    return weights_.size();
  }

  static const char* Name() { return "Batch"; }

 private:
  void Materialize() {
    materialized_ = true;
    if (g_->Empty()) return;
    const size_t L = g_->stages.size();
    std::vector<uint32_t> states(L);
    std::vector<V> partial(L + 1);
    partial[0] = D::One();

    // DFS over the stage graph in serialization order: at stage j iterate
    // the members of the connector selected by the parent state.
    std::vector<uint32_t> pos(L);    // current member position per stage
    std::vector<uint32_t> end(L);    // member range end per stage
    int j = 0;
    SetRange(0, states, &pos, &end);
    while (j >= 0) {
      if (pos[j] >= end[j]) {
        --j;
        if (j >= 0) ++pos[j];
        continue;
      }
      const auto& st = g_->stages[j];
      states[j] = st.members[pos[j]];
      partial[j + 1] = D::Combine(partial[j], st.weight[states[j]]);
      if (static_cast<size_t>(j) + 1 == L) {
        for (uint32_t s : states) solutions_.push_back(s);
        weights_.push_back(partial[L]);
        ++pos[j];
      } else {
        ++j;
        SetRange(j, states, &pos, &end);
      }
    }

    order_.resize(weights_.size());
    std::iota(order_.begin(), order_.end(), 0u);
    const size_t k = opts_.enum_opts.k_budget;
    if (opts_.sort) {
      auto less = [&](uint32_t a, uint32_t b) {
        return D::Less(weights_[a], weights_[b]);
      };
      if (k != 0 && k < order_.size()) {
        // Budget-aware: only the top k ranks will ever be pulled, so select
        // and sort just those — O(|out| + k log k) instead of
        // O(|out| log |out|).
        std::partial_sort(order_.begin(),
                          order_.begin() + static_cast<ptrdiff_t>(k),
                          order_.end(), less);
        order_.resize(k);
      } else {
        std::sort(order_.begin(), order_.end(), less);
      }
    } else if (k != 0 && k < order_.size()) {
      order_.resize(k);  // unranked budget: any k tuples
    }
  }

  /// Size the row's reusable buffers and set the weight. `resize` + fill
  /// (never a fresh `assign` onto a moved-from vector) so the buffers keep
  /// their capacity across calls and the batch algorithm shares the
  /// zero-global-alloc enumeration property of the any-k hot path
  /// (invariants_test::BatchEnumerationIsAllocationFreeAfterMaterialize).
  void PrepareRow(const V& weight, ResultRow<D>* row) {
    row->weight = weight;
    row->assignment.resize(g_->instance->num_vars);
    std::fill(row->assignment.begin(), row->assignment.end(), 0);
    if (opts_.enum_opts.with_witness) {
      row->witness.resize(g_->instance->num_atoms);
      std::fill(row->witness.begin(), row->witness.end(), kNoRow);
    } else {
      row->witness.clear();
    }
  }

  void SetRange(int j, const std::vector<uint32_t>& states,
                std::vector<uint32_t>* pos, std::vector<uint32_t>* end) {
    const auto& st = g_->stages[j];
    uint32_t conn;
    if (j == 0) {
      conn = StageGraph<D>::kRootConn;
    } else {
      const auto& par = g_->stages[st.parent_stage];
      conn = par.conn_of_state[states[st.parent_stage] * par.num_slots +
                               st.parent_slot];
    }
    (*pos)[j] = st.conn_begin[conn];
    (*end)[j] = st.conn_begin[conn + 1];
  }

  const StageGraph<D>* g_;
  BatchOptions opts_;
  bool materialized_ = false;
  std::vector<uint32_t> solutions_;  // |out| * L state ids
  std::vector<V> weights_;
  std::vector<uint32_t> order_;
  size_t cursor_ = 0;
  // NextBatch scratch, reused across calls (capacity sticks after warm-up).
  std::vector<uint32_t> batch_states_;
  std::vector<uint32_t> batch_ids_;
  std::vector<Value> batch_vals_;
};

}  // namespace anyk

#endif  // ANYK_ANYK_BATCH_H_
