// ANYK-REC (paper Algorithm 2, "Recursive" / REA): ranked enumeration via
// the generalized principle of optimality — if the k-th solution through a
// state takes that state's j-th best suffix, the next one through it takes
// the (j+1)-st.
//
// Suffix rankings are maintained *per connector* (Fig. 3 sharing: all parent
// states with the same join key reuse one ranking — the reason Recursive can
// beat Batch on time-to-last, Theorem 11). A connector's ranking is a
// materialized list Π1, Π2, ... plus a heap of (member, next-rank)
// candidates; a `next` call pops the heap and recursively advances the
// popped member's own suffix ranking one step, i.e. O(l) priority-queue
// operations per result (delay O(l log n)).
//
// The stage graph stores a connector's members as a binary min-heap on
// their rank-1 values (dp/stage_graph.h), so a connector's heap starts with
// slot 0 alone, and popping a member's rank-1 entry pushes the rank-1
// entries of its two heap children. A member only enters once its heap
// parent has been ranked, so the first answer costs O(l) pushes however
// wide the connectors are.
//
// Tree case (Section 5.1): a state with λ ≥ 2 child slots ranks the
// Cartesian product of its branch rankings. We enumerate that product with
// the classic frontier scheme — a combination's successors advance one
// branch at a time, only at or after the last-advanced branch — which is
// duplicate-free and accesses each branch ranking in sorted order (the
// paper's "run ANYK-PART over the product space" construction).
//
// Memory: rankings are reached through 8-byte pointer tables — one entry
// per connector, and one per state of the stages with λ ≥ 2 slots (a flat
// per-stage offset table instead of a hash map). The rankings themselves,
// with every heap and combination rank-vector, are built in the per-query
// Arena on first touch — after construction the enumeration loop performs
// no global heap allocation.
//
// Threading: suffix rankings are memoization *per enumerator*, not per
// graph — conn_rank_/state_rank_ are members, the shared StageGraph is
// read-only. Concurrent RecursiveEnumerators over one graph each build
// rankings for the connectors they touch (the price of lock-free sharing;
// see docs/ARCHITECTURE.md, "Threading model").

#ifndef ANYK_ANYK_ANYK_REC_H_
#define ANYK_ANYK_ANYK_REC_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "anyk/enumerator.h"
#include "dp/stage_graph.h"
#include "util/arena.h"
#include "util/dary_heap.h"
#include "util/logging.h"

namespace anyk {

struct AnyKRecStats {
  size_t heap_pushes = 0;
  size_t heap_pops = 0;
  size_t conns_initialized = 0;
  size_t combos_created = 0;
};

template <SelectiveDioid D>
class RecursiveEnumerator : public Enumerator<D> {
  using V = typename D::Value;
  static constexpr uint32_t kNoBase = UINT32_MAX;

 public:
  explicit RecursiveEnumerator(const StageGraph<D>* g, EnumOptions opts = {})
      : g_(g),
        opts_(opts),
        arena_(opts.arena_block_bytes == 0 ? Arena::kDefaultFirstBlockBytes
                                           : opts.arena_block_bytes),
        conn_rank_(g->total_connectors, nullptr) {
    arena_.Reserve(opts_.arena_reserve_bytes);
    // Flat offset table for product-state rankings: stages with >= 2 child
    // slots get a dense block of StateRank slots, one per state.
    state_rank_base_.assign(g_->stages.size(), kNoBase);
    uint32_t base = 0;
    for (size_t s = 0; s < g_->stages.size(); ++s) {
      if (g_->stages[s].num_slots >= 2) {
        state_rank_base_[s] = base;
        base += static_cast<uint32_t>(g_->stages[s].NumStates());
      }
    }
    state_rank_.assign(base, nullptr);
  }

  bool NextInto(ResultRow<D>* row) override {
    if (g_->Empty()) return false;
    // Budget: rank k_budget is the last one ever materialized; past it the
    // session is exhausted by definition.
    if (opts_.k_budget != 0 && k_ >= opts_.k_budget) return false;
    ++k_;
    if (!EnsureConnRank(0, StageGraph<D>::kRootConn, k_)) return false;
    const ConnEntry e = RankedEntry(0, StageGraph<D>::kRootConn, k_);

    row->weight = e.val;
    row->assignment.assign(g_->instance->num_vars, 0);
    if (opts_.with_witness) {
      row->witness.assign(g_->instance->num_atoms, kNoRow);
    } else {
      row->witness.clear();
    }
    AssembleState(0, g_->stages[0].members[e.member_pos], e.rank, row);
    return true;
  }

  std::optional<ResultRow<D>> Next() override {
    ResultRow<D> row;
    if (!NextInto(&row)) return std::nullopt;
    return row;
  }

  const AnyKRecStats& stats() const { return stats_; }
  const Arena& arena() const { return arena_; }
  static const char* Name() { return "Recursive"; }

 private:
  // One materialized suffix: the member (position in Stage::members) whose
  // own suffix ranking contributes at `rank`, and the resulting value
  // (member weight ⊗ member's rank-th completion).
  struct ConnEntry {
    V val;
    uint32_t member_pos;
    uint32_t rank;
  };
  struct EntryLess {
    bool operator()(const ConnEntry& a, const ConnEntry& b) const {
      return D::Less(a.val, b.val);
    }
  };
  using EntryHeap =
      DAryHeap<ConnEntry, EntryLess, ArenaAllocator<ConnEntry>, 4>;
  struct ConnRank {
    ArenaVector<ConnEntry> ranked;  // Π1, Π2, ... of this connector
    EntryHeap heap;
  };

  // Cartesian-product ranking for states with λ ≥ 2 child slots.
  struct Combo {
    V val;
    ArenaVector<uint32_t> ranks;  // per-slot rank into the branch ranking
    uint32_t last_advanced = 0;
  };
  struct ComboLess {
    bool operator()(const Combo& a, const Combo& b) const {
      return D::Less(a.val, b.val);
    }
  };
  using ComboHeap = DAryHeap<Combo, ComboLess, ArenaAllocator<Combo>, 4>;
  struct StateRank {
    ArenaVector<Combo> ranked;
    ComboHeap heap;
  };

  const ConnEntry& RankedEntry(uint32_t stage, uint32_t conn, uint32_t k) {
    return conn_rank_[g_->GlobalConn(stage, conn)]->ranked[k - 1];
  }

  /// A connector's ranking, seeded with its heap slot 0 (the rank-1 entry
  /// of its best member); built in the arena on first touch.
  ConnRank* NewConnRank(uint32_t stage, uint32_t conn) {
    const auto& st = g_->stages[stage];
    ConnRank* cr = new (arena_.Allocate(sizeof(ConnRank), alignof(ConnRank)))
        ConnRank{MakeArenaVector<ConnEntry>(&arena_),
                 EntryHeap(EntryLess{}, ArenaAllocator<ConnEntry>(&arena_))};
    const uint32_t best = st.ConnBest(conn);
    cr->heap.Push(ConnEntry{st.member_val[best], best, 1});
    ++stats_.heap_pushes;
    ++stats_.conns_initialized;
    return cr;
  }

  /// Push the rank-1 entries of the heap children of the member at `pos`.
  void PushHeapChildren(uint32_t stage, uint32_t conn, uint32_t pos,
                        ConnRank* cr) {
    const auto& st = g_->stages[stage];
    const auto [first, last] = st.HeapChildren(conn, pos);
    for (uint32_t p = first; p < last; ++p) {
      cr->heap.Push(ConnEntry{st.member_val[p], p, 1});
      ++stats_.heap_pushes;
    }
  }

  /// Materialize Πk of the connector; false if fewer than k suffixes exist.
  ///
  /// Lazy peek-then-pop scheme (Algorithm 2, lines 24-34): rank j is the
  /// heap *peek* after j-1 pops. Advancing pops the previously peeked entry
  /// and replaces it with the next-heavier suffix through the same member,
  /// which recursively advances exactly one rank per stage — O(l) priority-
  /// queue operations per result.
  bool EnsureConnRank(uint32_t stage, uint32_t conn, uint32_t k) {
    ConnRank*& slot = conn_rank_[g_->GlobalConn(stage, conn)];
    if (slot == nullptr) [[unlikely]] slot = NewConnRank(stage, conn);
    ConnRank& cr = *slot;
    const auto& st = g_->stages[stage];
    while (cr.ranked.size() < k) {
      if (!cr.ranked.empty()) {
        // Advance: pop the entry peeked as the last rank (still the top) and
        // push the next suffix through the same member, if any. A rank-1
        // entry also admits its member's heap children.
        if (cr.heap.Empty()) return false;
        ConnEntry e = cr.heap.PopMin();
        ++stats_.heap_pops;
        if (e.rank == 1) PushHeapChildren(stage, conn, e.member_pos, &cr);
        const uint32_t state = st.members[e.member_pos];
        V below;
        if (EnsureStateRank(stage, state, e.rank + 1, &below)) {
          cr.heap.Push(ConnEntry{D::Combine(st.weight[state], below),
                                 e.member_pos, e.rank + 1});
          ++stats_.heap_pushes;
        }
      }
      if (cr.heap.Empty()) return false;
      cr.ranked.push_back(cr.heap.Min());  // peek defines the next rank
    }
    return true;
  }

  /// Rank-j completion *below* `state` (excluding its own weight); true and
  /// sets *out_val if it exists.
  bool EnsureStateRank(uint32_t stage, uint32_t state, uint32_t j, V* out_val) {
    const auto& st = g_->stages[stage];
    const uint32_t slots = st.num_slots;
    if (slots == 0) {
      if (j != 1) return false;
      *out_val = D::One();
      return true;
    }
    if (slots == 1) {
      // Single branch: delegate to the child connector's ranking (shared by
      // all states that point at the same connector).
      const uint32_t cs = g_->child_stage[stage][0];
      const uint32_t conn = st.conn_of_state[state];
      if (!EnsureConnRank(cs, conn, j)) return false;
      *out_val = RankedEntry(cs, conn, j).val;
      return true;
    }
    // λ ≥ 2: rank the product of branch rankings (peek-then-pop, like the
    // connector case).
    StateRank*& sr_slot = StateRankOf(stage, state);
    if (sr_slot == nullptr) {
      sr_slot = new (arena_.Allocate(sizeof(StateRank), alignof(StateRank)))
          StateRank{MakeArenaVector<Combo>(&arena_),
                    ComboHeap(ComboLess{}, ArenaAllocator<Combo>(&arena_))};
      // Initial combination (1, ..., 1) with value π1(state).
      Combo c;
      c.val = st.pi1[state];
      c.ranks = MakeArenaVector<uint32_t>(&arena_);
      c.ranks.assign(slots, 1);
      c.last_advanced = 0;
      sr_slot->heap.Push(std::move(c));
      ++stats_.heap_pushes;
      ++stats_.combos_created;
    }
    StateRank& sr = *sr_slot;
    while (sr.ranked.size() < j) {
      if (!sr.ranked.empty()) {
        if (sr.heap.Empty()) return false;
        Combo c = sr.heap.PopMin();
        ++stats_.heap_pops;
        // Successors: advance one branch, at or after the last advanced one
        // (the classic duplicate-free product-space expansion).
        for (uint32_t b = c.last_advanced; b < slots; ++b) {
          const uint32_t cs = g_->child_stage[stage][b];
          const uint32_t conn = st.conn_of_state[state * slots + b];
          if (!EnsureConnRank(cs, conn, c.ranks[b] + 1)) continue;
          Combo nc;
          nc.ranks = c.ranks;  // copy adopts the arena allocator
          nc.ranks[b] += 1;
          nc.last_advanced = b;
          if constexpr (D::kHasInverse) {
            nc.val = D::Combine(
                D::Subtract(c.val, RankedEntry(cs, conn, c.ranks[b]).val),
                RankedEntry(cs, conn, c.ranks[b] + 1).val);
          } else {
            nc.val = D::One();
            for (uint32_t b2 = 0; b2 < slots; ++b2) {
              const uint32_t cs2 = g_->child_stage[stage][b2];
              const uint32_t conn2 = st.conn_of_state[state * slots + b2];
              const bool ok = EnsureConnRank(cs2, conn2, nc.ranks[b2]);
              ANYK_CHECK(ok);
              nc.val =
                  D::Combine(nc.val, RankedEntry(cs2, conn2, nc.ranks[b2]).val);
            }
          }
          sr.heap.Push(std::move(nc));
          ++stats_.heap_pushes;
          ++stats_.combos_created;
        }
      }
      if (sr.heap.Empty()) return false;
      sr.ranked.push_back(sr.heap.Min());
    }
    *out_val = sr.ranked[j - 1].val;
    return true;
  }

  /// Write `state`'s bindings and recurse into the children realizing its
  /// rank-j completion (everything is already materialized).
  void AssembleState(uint32_t stage, uint32_t state, uint32_t j,
                     ResultRow<D>* row) {
    BindState(*g_, stage, state, &row->assignment,
              opts_.with_witness ? &row->witness : nullptr);
    const auto& st = g_->stages[stage];
    const uint32_t slots = st.num_slots;
    if (slots == 0) return;
    if (slots == 1) {
      const uint32_t cs = g_->child_stage[stage][0];
      const uint32_t conn = st.conn_of_state[state];
      const bool ok = EnsureConnRank(cs, conn, j);  // cheap if materialized
      ANYK_CHECK(ok);
      const ConnEntry e = RankedEntry(cs, conn, j);
      AssembleState(cs, g_->stages[cs].members[e.member_pos], e.rank, row);
      return;
    }
    V dummy;
    const bool have = EnsureStateRank(stage, state, j, &dummy);
    ANYK_CHECK(have);
    const Combo& c = StateRankOf(stage, state)->ranked[j - 1];
    for (uint32_t b = 0; b < slots; ++b) {
      const uint32_t cs = g_->child_stage[stage][b];
      const uint32_t conn = st.conn_of_state[state * slots + b];
      const bool ok = EnsureConnRank(cs, conn, c.ranks[b]);
      ANYK_CHECK(ok);
      const ConnEntry e = RankedEntry(cs, conn, c.ranks[b]);
      AssembleState(cs, g_->stages[cs].members[e.member_pos], e.rank, row);
    }
  }

  StateRank*& StateRankOf(uint32_t stage, uint32_t state) {
    ANYK_DCHECK(state_rank_base_[stage] != kNoBase);
    return state_rank_[state_rank_base_[stage] + state];
  }

  const StageGraph<D>* g_;
  EnumOptions opts_;
  // The arena must precede every member that draws from it.
  Arena arena_;
  std::vector<ConnRank*> conn_rank_;       // null until first touch
  std::vector<uint32_t> state_rank_base_;  // per stage; kNoBase if < 2 slots
  std::vector<StateRank*> state_rank_;     // flat, only λ >= 2 stages
  uint32_t k_ = 0;
  AnyKRecStats stats_;
};

}  // namespace anyk

#endif  // ANYK_ANYK_ANYK_REC_H_
