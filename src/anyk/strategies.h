// Successor strategies for ANYK-PART (paper Section 4.1.3).
//
// Algorithm 1 is parameterized by how the choice set of a connector is
// organized and how Succ(state, choice) finds (a superset of) the next-best
// choice:
//   * Eager  — sort the whole choice set; Succ is the next rank.  O(n log n) init
//   * Lazy   — ranks drained incrementally off the shared heap.   O(1) init
//   * All    — no order at all; Succ(top) returns every other choice.   none
//   * Take2  — the shared heap as a *static* partial order; Succ(slot)
//              returns the slot's two heap children.                     none
//
// The stage graph stores every connector's members as a binary min-heap on
// member_val (dp/stage_graph.h), built once at prepare time. That heap is
// the O(n) half of Lazy and Take2, so neither pays it per session: Take2
// keeps no per-session state at all, and Lazy serves ranks 0 and 1 straight
// from the layout.
//
// A "choice handle" is a uint32 whose meaning is strategy-specific (rank,
// heap slot, or absolute member position). Eager and Lazy build a
// connector's structure lazily on first need (the paper applies this
// optimization to all algorithms in Section 7), behind one 8-byte pointer
// per connector.
//
// Memory: every per-connector structure lives in the enumerator's per-query
// arena. Because initialization is lazy it happens *during* enumeration, so
// routing it through the arena (reserved in preprocessing) is what keeps the
// enumeration phase free of global heap allocations.
//
// Threading: lazily initialized connector structures belong to the strategy
// instance, and a strategy instance belongs to exactly one enumerator
// (session) — the StageGraph is only ever read. That containment is what
// lets N sessions share one prepared graph without locks; do not cache
// anything strategy-mutable in the graph (concurrency_test + the TSan CI
// job enforce this).

#ifndef ANYK_ANYK_STRATEGIES_H_
#define ANYK_ANYK_STRATEGIES_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "dp/stage_graph.h"
#include "util/arena.h"
#include "util/dary_heap.h"
#include "util/logging.h"

namespace anyk {

/// Counters shared by all strategies (used by invariant tests).
struct StrategyStats {
  size_t conns_initialized = 0;
  size_t init_work = 0;  // total members touched during initialization
  size_t succ_calls = 0;
  size_t succ_returned = 0;
};

/// Eager Sort: sorts a choice set the first time a successor is asked of
/// it. Rank 0 is heap slot 0 (a minimum), so the best choice costs nothing
/// and the sort covers the remaining members.
template <SelectiveDioid D>
class EagerStrategy {
 public:
  static constexpr const char* kName = "Eager";

  EagerStrategy(const StageGraph<D>* g, Arena* arena)
      : g_(g), arena_(arena), sorted_(g->total_connectors, nullptr) {}

  /// Handle of the best choice of the connector.
  uint32_t Top(uint32_t /*stage*/, uint32_t /*conn*/) { return 0; }

  /// Absolute member position (into Stage::members) of a choice handle.
  uint32_t MemberPos(uint32_t stage, uint32_t conn, uint32_t choice) {
    if (choice == 0) return g_->stages[stage].ConnBest(conn);
    return sorted_[g_->GlobalConn(stage, conn)][choice];
  }

  /// Append the successor handles of `choice` to `out`.
  template <typename Out>
  void Successors(uint32_t stage, uint32_t conn, uint32_t choice, Out* out) {
    ++stats_.succ_calls;
    if (choice + 1 >= g_->stages[stage].ConnSize(conn)) return;
    uint32_t*& sorted = sorted_[g_->GlobalConn(stage, conn)];
    if (sorted == nullptr) [[unlikely]] sorted = Init(stage, conn);
    out->push_back(choice + 1);
    ++stats_.succ_returned;
  }

  const StrategyStats& stats() const { return stats_; }

 private:
  /// The connector's member positions, ascending by value, in the arena.
  uint32_t* Init(uint32_t stage, uint32_t conn) {
    const auto& st = g_->stages[stage];
    const uint32_t size = st.ConnSize(conn);
    uint32_t* sorted = arena_->AllocateArray<uint32_t>(size);
    for (uint32_t i = 0; i < size; ++i) sorted[i] = st.conn_begin[conn] + i;
    std::sort(sorted + 1, sorted + size, [&](uint32_t a, uint32_t b) {
      return D::Less(st.member_val[a], st.member_val[b]);
    });
    ++stats_.conns_initialized;
    stats_.init_work += size;
    return sorted;
  }

  const StageGraph<D>* g_;
  Arena* arena_;
  std::vector<uint32_t*> sorted_;  // null until first touch; arena-backed
  StrategyStats stats_;
};

/// Lazy Sort (Chang et al.): migrate choices into a sorted list as
/// successors are requested. Choice handles are ranks: 0 = best member,
/// 1 = second best, ...
///
/// Ranks 0 and 1 come straight from the graph's heap layout (slot 0, and
/// the lesser of slots 1 and 2), so a connector only asked for those — the
/// common case, especially under a k-budget — costs nothing per session.
/// The first request for rank 2 builds the connector's structure in the
/// arena: the sorted prefix of member positions plus a frontier heap of the
/// heap slots whose parents are already ranked. Each further rank pops the
/// frontier and pushes that slot's two heap children: O(log k) per rank,
/// never O(n).
template <SelectiveDioid D>
class LazyStrategy {
 public:
  static constexpr const char* kName = "Lazy";

  /// One 8-byte pointer per connector, zeroed at session construction; the
  /// ConnData itself is placement-new'd into the session arena on the first
  /// rank-2 request.
  LazyStrategy(const StageGraph<D>* g, Arena* arena)
      : g_(g), arena_(arena), conns_(g->total_connectors, nullptr) {}

  uint32_t Top(uint32_t /*stage*/, uint32_t /*conn*/) { return 0; }

  uint32_t MemberPos(uint32_t stage, uint32_t conn, uint32_t choice) {
    const auto& st = g_->stages[stage];
    if (choice == 0) return st.ConnBest(conn);
    if (choice == 1) return st.ConnSecond(conn);
    const ConnData& cd = *conns_[g_->GlobalConn(stage, conn)];
    ANYK_DCHECK(choice < cd.sorted.size());
    return cd.sorted[choice];
  }

  template <typename Out>
  void Successors(uint32_t stage, uint32_t conn, uint32_t choice, Out* out) {
    ++stats_.succ_calls;
    const uint32_t next = choice + 1;
    if (next >= g_->stages[stage].ConnSize(conn)) return;
    if (next >= 2) [[unlikely]] {
      // Materialize rank `next` if no earlier request has.
      ConnData*& cd = conns_[g_->GlobalConn(stage, conn)];
      if (cd == nullptr) cd = Init(stage, conn);
      if (next >= cd->sorted.size()) RankNext(stage, conn, cd);
    }
    out->push_back(next);
    ++stats_.succ_returned;
  }

  const StrategyStats& stats() const { return stats_; }

 private:
  using V = typename D::Value;
  struct Cmp {
    const V* vals;  // the stage's member_val
    bool operator()(uint32_t a, uint32_t b) const {
      return D::Less(vals[a], vals[b]);
    }
  };
  using Frontier = DAryHeap<uint32_t, Cmp, ArenaAllocator<uint32_t>, 4>;

  struct ConnData {
    ArenaVector<uint32_t> sorted;  // member positions of ranks 0, 1, 2, ...
    Frontier frontier;  // unranked slots whose heap parent is ranked
  };

  ConnData* Init(uint32_t stage, uint32_t conn) {
    const auto& st = g_->stages[stage];
    // Arena-allocated; never destroyed (ArenaAllocator deallocation is a
    // no-op anyway) — the memory dies with the session arena.
    ConnData* cd = new (arena_->Allocate(sizeof(ConnData), alignof(ConnData)))
        ConnData{MakeArenaVector<uint32_t>(arena_),
                 Frontier(Cmp{st.member_val.data()},
                          ArenaAllocator<uint32_t>(arena_))};
    const uint32_t best = st.ConnBest(conn);
    const uint32_t second = st.ConnSecond(conn);
    cd->sorted.push_back(best);
    cd->sorted.push_back(second);
    // The best's other child joins the frontier with the second's children.
    const auto [first, last] = st.HeapChildren(conn, best);
    for (uint32_t p = first; p < last; ++p) {
      if (p != second) cd->frontier.Push(p);
    }
    PushChildren(st, conn, second, cd);
    ++stats_.conns_initialized;
    stats_.init_work += cd->frontier.Size();
    return cd;
  }

  /// Move the frontier's minimum into the sorted prefix as the next rank.
  void RankNext(uint32_t stage, uint32_t conn, ConnData* cd) {
    const uint32_t pos = cd->frontier.PopMin();
    cd->sorted.push_back(pos);
    PushChildren(g_->stages[stage], conn, pos, cd);
  }

  /// Push the heap children of the member at `pos` onto the frontier.
  static void PushChildren(const typename StageGraph<D>::Stage& st,
                           uint32_t conn, uint32_t pos, ConnData* cd) {
    const auto [first, last] = st.HeapChildren(conn, pos);
    for (uint32_t p = first; p < last; ++p) cd->frontier.Push(p);
  }

  const StageGraph<D>* g_;
  Arena* arena_;
  std::vector<ConnData*> conns_;  // null until rank 2 is needed
  StrategyStats stats_;
};

/// All (Yang et al.): no per-connector structure; deviating from the top
/// choice inserts every other choice at once.
template <SelectiveDioid D>
class AllStrategy {
 public:
  static constexpr const char* kName = "All";

  AllStrategy(const StageGraph<D>* g, Arena* /*arena*/) : g_(g) {}

  // Choice handles are absolute member positions.
  uint32_t Top(uint32_t stage, uint32_t conn) {
    return g_->stages[stage].ConnBest(conn);
  }

  uint32_t MemberPos(uint32_t /*stage*/, uint32_t /*conn*/, uint32_t choice) {
    return choice;
  }

  template <typename Out>
  void Successors(uint32_t stage, uint32_t conn, uint32_t choice, Out* out) {
    ++stats_.succ_calls;
    const auto& st = g_->stages[stage];
    if (choice != st.ConnBest(conn)) return;  // siblings already inserted
    for (uint32_t p = st.conn_begin[conn]; p < st.conn_begin[conn + 1]; ++p) {
      if (p == choice) continue;
      out->push_back(p);
      ++stats_.succ_returned;
    }
  }

  const StrategyStats& stats() const { return stats_; }

 private:
  const StageGraph<D>* g_;
  StrategyStats stats_;
};

/// Take2 (this paper): the graph's connector heap used as a *static*
/// partial order — a choice is a heap slot, and its successors are the
/// slot's two children. No per-session state at all.
template <SelectiveDioid D>
class Take2Strategy {
 public:
  static constexpr const char* kName = "Take2";

  Take2Strategy(const StageGraph<D>* g, Arena* /*arena*/) : g_(g) {}

  uint32_t Top(uint32_t /*stage*/, uint32_t /*conn*/) { return 0; }

  uint32_t MemberPos(uint32_t stage, uint32_t conn, uint32_t choice) {
    return g_->stages[stage].conn_begin[conn] + choice;
  }

  template <typename Out>
  void Successors(uint32_t stage, uint32_t conn, uint32_t choice, Out* out) {
    ++stats_.succ_calls;
    const uint32_t size = g_->stages[stage].ConnSize(conn);
    for (uint32_t child = 2 * choice + 1;
         child <= 2 * choice + 2 && child < size; ++child) {
      out->push_back(child);
      ++stats_.succ_returned;
    }
  }

  const StrategyStats& stats() const { return stats_; }

 private:
  const StageGraph<D>* g_;
  StrategyStats stats_;
};

}  // namespace anyk

#endif  // ANYK_ANYK_STRATEGIES_H_
