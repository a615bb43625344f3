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
// no global heap allocation. Only rankings that something reads again are
// kept:
//  * the root connector is ranked by its heap and the current (peeked)
//    entry only: no parent shares it, and no earlier root rank is read
//    again, so it keeps no list of Π1, Π2, ... (a list would grow by one
//    entry per answer);
//  * a leaf connector (a stage with no child slots) serves ranks 1 and 2
//    straight from the stage graph's heap layout — slot 0, and the lesser
//    of slots 1 and 2 — and builds its ranking only when rank 3 is first
//    asked for, re-deriving ranks 1-2 through the same heap moves (slot 1 is
//    pushed before slot 2 and a sift-up needs a strict less, the tie rule
//    of ConnSecond). AnyKRecStats::conns_initialized counts the rankings
//    materialized this way, the root included — not the connectors touched.
//
// NextBatch ranks up to n answers, each written straight into its row of
// an arena-backed L-strided state matrix, then binds the page
// (RankThenBind, dp/stage_graph.h), as ANYK-PART and Batch do.
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
  // Connector rankings built in the arena: the root's heap, and every other
  // connector's on first touch — except leaf connectors, which only count
  // once rank 3 is asked for (ranks 1-2 come from the heap layout).
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
        conn_rank_(g->total_connectors, nullptr),
        root_heap_(EntryLess{}, ArenaAllocator<ConnEntry>(&arena_)),
        page_(ArenaAllocator<uint32_t>(&arena_)) {
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

  /// Rank up to `n` answers, each written straight into its row of the
  /// page's state matrix, then bind the page (RankThenBind). Short return ⇒
  /// exhausted (the only early exit is Advance() == false); see the
  /// contract in anyk/enumerator.h.
  size_t NextBatch(ResultRow<D>* rows, size_t n) override {
    return RankThenBind(*g_, opts_.with_witness, rows, n, &page_,
                        [this](uint32_t* states, V* total) {
                          return Advance(states, total);
                        });
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

  /// Πk of the connector (EnsureConnRank(stage, conn, k) must hold). A leaf
  /// connector's ranks 1-2 come from the heap layout, so this returns by
  /// value.
  ConnEntry RankedEntry(uint32_t stage, uint32_t conn, uint32_t k) const {
    const auto& st = g_->stages[stage];
    if (st.num_slots == 0 && k <= 2) {
      const uint32_t pos = k == 1 ? st.ConnBest(conn) : st.ConnSecond(conn);
      return ConnEntry{st.member_val[pos], pos, 1};
    }
    return conn_rank_[g_->GlobalConn(stage, conn)]->ranked[k - 1];
  }

  /// A connector's ranking, built in the arena on first touch.
  ConnRank* NewConnRank(uint32_t stage, uint32_t conn) {
    ConnRank* cr = new (arena_.Allocate(sizeof(ConnRank), alignof(ConnRank)))
        ConnRank{MakeArenaVector<ConnEntry>(&arena_),
                 EntryHeap(EntryLess{}, ArenaAllocator<ConnEntry>(&arena_))};
    SeedHeap(stage, conn, &cr->heap);
    return cr;
  }

  /// Start a connector's ranking: push heap slot 0, the rank-1 entry of
  /// its best member.
  void SeedHeap(uint32_t stage, uint32_t conn, EntryHeap* heap) {
    const auto& st = g_->stages[stage];
    const uint32_t best = st.ConnBest(conn);
    heap->Push(ConnEntry{st.member_val[best], best, 1});
    ++stats_.heap_pushes;
    ++stats_.conns_initialized;
  }

  /// Push the rank-1 entries of the heap children of the member at `pos`.
  void PushHeapChildren(uint32_t stage, uint32_t conn, uint32_t pos,
                        EntryHeap* heap) {
    const auto& st = g_->stages[stage];
    const auto [first, last] = st.HeapChildren(conn, pos);
    for (uint32_t p = first; p < last; ++p) {
      heap->Push(ConnEntry{st.member_val[p], p, 1});
      ++stats_.heap_pushes;
    }
  }

  /// Pop the entry peeked as a connector's last rank (still the heap's top)
  /// and push the next-heavier suffix through the same member, if any; a
  /// rank-1 entry also admits its member's heap children.
  void PopAndRefill(uint32_t stage, uint32_t conn, EntryHeap* heap) {
    const auto& st = g_->stages[stage];
    const ConnEntry e = heap->PopMin();
    ++stats_.heap_pops;
    if (e.rank == 1) PushHeapChildren(stage, conn, e.member_pos, heap);
    const uint32_t state = st.members[e.member_pos];
    V below;
    if (EnsureStateRank(stage, state, e.rank + 1, &below)) {
      heap->Push(ConnEntry{D::Combine(st.weight[state], below), e.member_pos,
                           e.rank + 1});
      ++stats_.heap_pushes;
    }
  }

  /// Rank the next answer: advance the root ranking one step (the ranking
  /// is seeded on the first call), write the answer's state at every stage
  /// into states[0..L) and its weight into *total. False when the output —
  /// or the k budget — is exhausted, and from then on.
  bool Advance(uint32_t* states, V* total) {
    if (g_->Empty()) return false;
    // Budget: rank k_budget is the last one ever materialized; past it the
    // session is exhausted by definition.
    if (opts_.k_budget != 0 && k_ >= opts_.k_budget) return false;
    if (k_ == 0) {
      SeedHeap(0, StageGraph<D>::kRootConn, &root_heap_);
    } else {
      if (root_heap_.Empty()) return false;
      PopAndRefill(0, StageGraph<D>::kRootConn, &root_heap_);
      if (root_heap_.Empty()) return false;
    }
    ++k_;
    root_cur_ = root_heap_.Min();  // peek defines the next rank
    WalkState(0, g_->stages[0].members[root_cur_.member_pos], root_cur_.rank,
              states);
    *total = root_cur_.val;
    return true;
  }

  /// Materialize Πk of a non-root connector; false if fewer than k
  /// suffixes exist.
  ///
  /// Lazy peek-then-pop scheme (Algorithm 2, lines 24-34): rank j is the
  /// heap *peek* after j-1 pops. Advancing pops the previously peeked entry
  /// and replaces it with the next-heavier suffix through the same member,
  /// which recursively advances exactly one rank per stage — O(l) priority-
  /// queue operations per result.
  bool EnsureConnRank(uint32_t stage, uint32_t conn, uint32_t k) {
    const auto& st = g_->stages[stage];
    if (st.num_slots == 0 && k <= 2) return k <= st.ConnSize(conn);
    ConnRank*& slot = conn_rank_[g_->GlobalConn(stage, conn)];
    if (slot == nullptr) [[unlikely]] slot = NewConnRank(stage, conn);
    ConnRank& cr = *slot;
    while (cr.ranked.size() < k) {
      if (!cr.ranked.empty()) {
        if (cr.heap.Empty()) return false;
        PopAndRefill(stage, conn, &cr.heap);
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

  /// Record `state` in `states` and recurse into the children realizing its
  /// rank-j completion (everything is already materialized).
  void WalkState(uint32_t stage, uint32_t state, uint32_t j,
                 uint32_t* states) {
    states[stage] = state;
    const auto& st = g_->stages[stage];
    const uint32_t slots = st.num_slots;
    if (slots == 0) return;
    if (slots == 1) {
      const uint32_t cs = g_->child_stage[stage][0];
      const uint32_t conn = st.conn_of_state[state];
      const bool ok = EnsureConnRank(cs, conn, j);  // cheap if materialized
      ANYK_CHECK(ok);
      const ConnEntry e = RankedEntry(cs, conn, j);
      WalkState(cs, g_->stages[cs].members[e.member_pos], e.rank, states);
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
      WalkState(cs, g_->stages[cs].members[e.member_pos], e.rank, states);
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
  std::vector<ConnRank*> conn_rank_;       // null until first touch; the
                                           // root's entry stays null
  std::vector<uint32_t> state_rank_base_;  // per stage; kNoBase if < 2 slots
  std::vector<StateRank*> state_rank_;     // flat, only λ >= 2 stages
  EntryHeap root_heap_;                    // the root ranking: heap + peek
  ConnEntry root_cur_{};                   // rank k_ of the root connector
  AnswerPage<D, ArenaAllocator> page_;     // NextBatch: the ranked page
  uint32_t k_ = 0;                         // root ranks produced so far
  AnyKRecStats stats_;
};

}  // namespace anyk

#endif  // ANYK_ANYK_ANYK_REC_H_
