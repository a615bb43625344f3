// ANYK-PART (paper Algorithm 1): ranked enumeration by repeated partitioning
// of the solution space (Lawler procedure), specialized to T-DP.
//
// A candidate is the best solution of one Lawler subspace: a prefix over the
// serialized stages σ1..σ_{r-1}, a deviating choice at stage σr, and the
// weight of its optimal completion. Popping the lightest candidate from the
// global priority queue Cand yields the next result; expanding it creates
// one new subspace per remaining stage (successors of the taken choices).
//
// Prefixes are persistent (parent-pointer pool), so creating a candidate is
// O(1) and MEM(k) = O(l*n + k*l).
//
// Candidate weights: expanding a solution with top choices provably keeps
// its total weight unchanged, so only deviations need arithmetic. With a
// dioid inverse (tropical), a deviation's total is
//     total ⊘ member_val[current] ⊗ member_val[deviation]      (O(1));
// without one we recompute from the assigned prefix and the *frontier* of
// pending connectors (Section 6.2's O(l) fallback).
//
// Memory: the candidate PQ, the prefix pool, the successor scratch buffer
// and every lazily built strategy structure draw from one per-query Arena,
// so after construction (preprocessing) the enumeration loop performs no
// global heap allocation (invariants_test verifies this with the counting
// allocator of util/alloc_stats.h).
//
// Threading: the enumerator never writes through g_ — all mutable state
// (arena, strategy, heaps, prefix pool, frontier) is member-owned, so
// multiple AnyKPartEnumerators over one shared StageGraph are safe; each
// individual enumerator is single-threaded (see PreparedQuery /
// EnumerationSession in anyk/prepared_query.h).

#ifndef ANYK_ANYK_ANYK_PART_H_
#define ANYK_ANYK_ANYK_PART_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "anyk/enumerator.h"
#include "anyk/strategies.h"
#include "dp/stage_graph.h"
#include "util/arena.h"
#include "util/dary_heap.h"
#include "util/logging.h"

namespace anyk {

struct AnyKPartStats {
  size_t pops = 0;
  size_t pushes = 0;  // attempted pushes (includes budget-pruned ones)
  size_t max_cand_size = 0;
  size_t prefix_nodes = 0;
};

/// Algorithm 1, parameterized by successor strategy and candidate PQ: one of
/// the BoundedHeap arity aliases of util/dary_heap.h (MakeEnumerator picks
/// it from EnumOptions::heap_arity). Without EnumOptions::k_budget the queue
/// is a plain flat d-ary heap; with a budget it keeps the candidate set O(k).
template <SelectiveDioid D, template <class> class Strategy,
          template <class, class, class> class PQT = BoundedQuadHeap>
class AnyKPartEnumerator : public Enumerator<D> {
  using V = typename D::Value;
  static constexpr uint32_t kNoPrefix = UINT32_MAX;

 public:
  explicit AnyKPartEnumerator(const StageGraph<D>* g, EnumOptions opts = {})
      : g_(g),
        opts_(opts),
        arena_(opts.arena_block_bytes == 0 ? Arena::kDefaultFirstBlockBytes
                                           : opts.arena_block_bytes),
        strategy_(g, &arena_),
        cand_(CandLess{}, ArenaAllocator<Candidate>(&arena_)),
        prefix_pool_(ArenaAllocator<PrefixNode>(&arena_)),
        succ_buf_(ArenaAllocator<uint32_t>(&arena_)),
        frontier_(ArenaAllocator<std::pair<uint32_t, uint32_t>>(&arena_)),
        page_(ArenaAllocator<uint32_t>(&arena_)) {
    arena_.Reserve(opts_.arena_reserve_bytes);
    cand_.SetBudget(opts_.k_budget);
    frontier_.reserve(g_->stages.size() + 1);
    if (!g_->Empty()) {
      const uint32_t top = strategy_.Top(0, StageGraph<D>::kRootConn);
      const uint32_t pos =
          strategy_.MemberPos(0, StageGraph<D>::kRootConn, top);
      Push(Candidate{g_->stages[0].member_val[pos], kNoPrefix, 0,
                     StageGraph<D>::kRootConn, top});
    }
  }

  /// Pop up to `n` answers, each written straight into its row of the
  /// page's state matrix, then bind the page (RankThenBind). Short return ⇒
  /// exhausted (the only early exit is Advance() == false); see the
  /// contract in anyk/enumerator.h.
  size_t NextBatch(ResultRow<D>* rows, size_t n) override {
    return RankThenBind(*g_, opts_.with_witness, rows, n, &page_,
                        [this](uint32_t* states, V* total) {
                          return Advance(states, total);
                        });
  }

  const AnyKPartStats& stats() const { return stats_; }
  const StrategyStats& strategy_stats() const { return strategy_.stats(); }
  /// Candidate-heap budget counters.
  const BoundedHeapStats& bounded_heap_stats() const { return cand_.stats(); }
  size_t CandSize() const { return cand_.Size(); }
  const Arena& arena() const { return arena_; }
  static const char* Name() { return Strategy<D>::kName; }

 private:
  struct Candidate {
    V total;            // weight of the subspace's best full solution
    uint32_t prefix;    // assigned states σ1..σ_{r-1} (prefix-pool id)
    uint32_t dev_stage; // r
    uint32_t conn;      // connector at stage r (local id)
    uint32_t choice;    // strategy-specific choice handle
  };
  struct CandLess {
    bool operator()(const Candidate& a, const Candidate& b) const {
      return D::Less(a.total, b.total);
    }
  };
  struct PrefixNode {
    uint32_t parent;
    uint32_t state;
  };

  /// Pop the next-lightest candidate and expand it: reconstruct its prefix
  /// into `states`, assign the remaining stages with top choices, and spawn
  /// the successor subspaces. On return states[0..L) holds the full
  /// solution and *total its weight; false when the output — or the
  /// k-budget — is exhausted. When the budget says this is the final
  /// answer, successor generation (and the no-inverse frontier bookkeeping
  /// that only feeds it) is skipped entirely: nothing after this answer
  /// will be emitted.
  bool Advance(uint32_t* states, V* total) {
    if (opts_.k_budget != 0 && emitted_ >= opts_.k_budget) return false;
    if (cand_.Empty()) return false;
    const size_t L = g_->stages.size();
    Candidate c = cand_.PopMin();
    ++stats_.pops;
    ++emitted_;
    skip_generation_ = opts_.k_budget != 0 && emitted_ >= opts_.k_budget;

    // Reconstruct the assigned prefix σ1..σ_{r-1}; the expansion below
    // writes the other stages.
    {
      uint32_t p = c.prefix;
      uint32_t idx = c.dev_stage;
      while (p != kNoPrefix) {
        states[--idx] = prefix_pool_[p].state;
        p = prefix_pool_[p].parent;
      }
      ANYK_DCHECK(idx == 0);
    }

    if constexpr (!D::kHasInverse) {
      if (!skip_generation_) RebuildFrontier(c.dev_stage, states);
    }

    // Deviations of the popped candidate within its own subspace (the first
    // iteration of Algorithm 1's for-loop, r = dev_stage).
    if (!skip_generation_) {
      GenerateCandidates(c.dev_stage, c.conn, c.choice, c.total, c.prefix);
    }

    // Assign the deviating choice and expand stage by stage with top
    // choices (heap slot 0 of each connector, which no strategy has to
    // build anything for), spawning one subspace per stage — except for
    // the final budgeted answer.
    uint32_t prefix = c.prefix;
    AssignStage(c.dev_stage, c.conn, c.choice, &prefix, states);
    for (uint32_t j = c.dev_stage + 1; j < L; ++j) {
      const auto& stj = g_->stages[j];
      const auto& par = g_->stages[stj.parent_stage];
      const uint32_t conn =
          par.conn_of_state[states[stj.parent_stage] * par.num_slots +
                            stj.parent_slot];
      const uint32_t top = strategy_.Top(j, conn);
      if (!skip_generation_) GenerateCandidates(j, conn, top, c.total, prefix);
      AssignStage(j, conn, top, &prefix, states);
    }

    *total = c.total;
    return true;
  }

  void Push(Candidate cand) {
    cand_.Push(std::move(cand));
    ++stats_.pushes;
    stats_.max_cand_size = std::max(stats_.max_cand_size, cand_.Size());
  }

  /// Record the chosen state for `stage` (by absolute member position) in
  /// `states` and append it to the prefix.
  void CommitStage(uint32_t stage, uint32_t pos, uint32_t* prefix,
                   uint32_t* states) {
    const auto& st = g_->stages[stage];
    const uint32_t state = st.members[pos];
    states[stage] = state;
    // The prefix pool and frontier only feed candidate generation, which the
    // final budgeted answer skips — `states` alone drives the bind.
    if (skip_generation_) return;
    prefix_pool_.push_back(PrefixNode{*prefix, state});
    *prefix = static_cast<uint32_t>(prefix_pool_.size() - 1);
    stats_.prefix_nodes = prefix_pool_.size();
    if constexpr (!D::kHasInverse) {
      // Frontier maintenance: this stage's connector is now resolved; the
      // chosen state's child connectors become pending.
      RemoveFromFrontier(stage);
      assigned_weight_ = D::Combine(assigned_weight_, st.weight[state]);
      for (uint32_t slot = 0; slot < st.num_slots; ++slot) {
        frontier_.push_back(
            {g_->child_stage[stage][slot],
             st.conn_of_state[state * st.num_slots + slot]});
      }
    }
  }

  /// Record the chosen state for `stage` via the strategy's choice handle.
  void AssignStage(uint32_t stage, uint32_t conn, uint32_t choice,
                   uint32_t* prefix, uint32_t* states) {
    CommitStage(stage, strategy_.MemberPos(stage, conn, choice), prefix,
                states);
  }

  /// Push one candidate per successor of `cur_choice` at (stage, conn).
  void GenerateCandidates(uint32_t stage, uint32_t conn, uint32_t cur_choice,
                          const V& solution_total, uint32_t prefix) {
    succ_buf_.clear();
    strategy_.Successors(stage, conn, cur_choice, &succ_buf_);
    if (succ_buf_.empty()) return;
    const auto& st = g_->stages[stage];
    V base;
    if constexpr (D::kHasInverse) {
      const uint32_t cur_pos = strategy_.MemberPos(stage, conn, cur_choice);
      base = D::Subtract(solution_total, st.member_val[cur_pos]);
    } else {
      (void)solution_total;
      base = FrontierBase(stage);
    }
    for (uint32_t h : succ_buf_) {
      const uint32_t pos = strategy_.MemberPos(stage, conn, h);
      Push(Candidate{D::Combine(base, st.member_val[pos]), prefix, stage, conn,
                     h});
    }
  }

  // ---- no-inverse fallback: explicit frontier of pending connectors ----

  void RebuildFrontier(uint32_t dev_stage, const uint32_t* states) {
    frontier_.clear();
    assigned_weight_ = D::One();
    for (uint32_t i = 0; i < dev_stage; ++i) {
      assigned_weight_ = D::Combine(assigned_weight_, g_->stages[i].weight[states[i]]);
    }
    // Pending = stages whose parent is assigned but that are not assigned
    // themselves; stage 0's connector is the root connector.
    const size_t L = g_->stages.size();
    if (dev_stage == 0) {
      frontier_.push_back({0, StageGraph<D>::kRootConn});
      return;
    }
    for (uint32_t j = dev_stage; j < L; ++j) {
      const auto& stj = g_->stages[j];
      if (stj.parent_stage >= 0 &&
          static_cast<uint32_t>(stj.parent_stage) < dev_stage) {
        const auto& par = g_->stages[stj.parent_stage];
        frontier_.push_back(
            {j, par.conn_of_state[states[stj.parent_stage] * par.num_slots +
                                 stj.parent_slot]});
      }
    }
  }

  void RemoveFromFrontier(uint32_t stage) {
    for (size_t i = 0; i < frontier_.size(); ++i) {
      if (frontier_[i].first == stage) {
        frontier_[i] = frontier_.back();
        frontier_.pop_back();
        return;
      }
    }
    ANYK_CHECK(false) << "stage " << stage << " not pending";
  }

  /// assigned ⊗ best completions of every pending connector except the one
  /// at `dev_stage` (which the caller replaces with an explicit choice).
  V FrontierBase(uint32_t dev_stage) const {
    V base = assigned_weight_;
    for (const auto& [stg, conn] : frontier_) {
      if (stg == dev_stage) continue;
      base = D::Combine(base, g_->stages[stg].ConnBestVal(conn));
    }
    return base;
  }

  const StageGraph<D>* g_;
  EnumOptions opts_;
  // The arena must precede every member that draws from it.
  Arena arena_;
  Strategy<D> strategy_;
  PQT<Candidate, CandLess, ArenaAllocator<Candidate>> cand_;
  ArenaVector<PrefixNode> prefix_pool_;  // persistent prefix parent-pointers
  ArenaVector<uint32_t> succ_buf_;
  ArenaVector<std::pair<uint32_t, uint32_t>> frontier_;  // (stage, conn)
  AnswerPage<D, ArenaAllocator> page_;  // NextBatch: the ranked page
  V assigned_weight_ = D::One();
  size_t emitted_ = 0;       // answers popped so far (budget accounting)
  bool skip_generation_ = false;  // true while expanding the final answer
  AnyKPartStats stats_;
};

}  // namespace anyk

#endif  // ANYK_ANYK_ANYK_PART_H_
