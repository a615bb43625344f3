// The multi-stage DP state graph (paper Sections 3 and 5.1).
//
// Stages correspond to join-tree nodes, serialized in preorder; states are
// surviving tuples. The equi-join transformation of Fig. 3 is realized by
// *connectors*: a connector groups the states of a stage by their join-key
// with the parent stage, so that all parent states with that key share one
// choice set. This keeps the edge representation at O(l*n) and lets the
// any-k algorithms share per-connector data structures across states — the
// source of Recursive's suffix reuse.
//
// Building the graph runs the DP bottom-up phase (Eq. 2 / Eq. 7):
//   pi1(s) = combine over child slots of best(connector(s, slot)),
// pruning dangling states on the way (the semi-join reduction of
// Yannakakis), and finishes with the root connector whose best entry is the
// weight of the top-1 solution.
//
// Every connector's member range is stored as a binary min-heap on
// member_val (Floyd's heapify at build time, O(n) in total and no extra
// bytes). That order is the shared, immutable half of every successor
// strategy: slot 0 is the connector's best member, the lesser of slots 1
// and 2 its second best, and slots 2i+1 / 2i+2 are the successors of slot i
// (Take2's partial order, the frontier Lazy and Recursive expand). Sessions
// therefore keep state only for the connectors they actually touch.

#ifndef ANYK_DP_STAGE_GRAPH_H_
#define ANYK_DP_STAGE_GRAPH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "anyk/enumerator.h"  // ResultRow, bound by BindStateBatch
#include "dioid/dioid.h"
#include "dioid/lift.h"
#include "query/join_tree.h"
#include "storage/flat_index.h"
#include "storage/group_index.h"
#include "storage/kernels.h"
#include "storage/value.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace anyk {

/// DP state graph for one T-DP instance, specialized to a selective dioid.
template <SelectiveDioid D>
struct StageGraph {
  using V = typename D::Value;
  static constexpr uint32_t kNoState = UINT32_MAX;
  static constexpr uint32_t kNoMember = UINT32_MAX;

  struct Stage {
    uint32_t node_idx = 0;    // join-tree node backing this stage
    int parent_stage = -1;    // serialized index of the parent stage
    uint32_t parent_slot = 0; // which child slot of the parent we occupy
    uint32_t num_slots = 0;   // number of child stages of this stage

    // Flat per-column segment pointers of the node's table (col_segs[c] ==
    // table->ColumnData(c)), cached at build time: BindState, which binds a
    // one-answer page (every NextInto), reads one Value per column, and
    // going through Relation each time costs two extra dependent loads per
    // read.
    std::vector<const Value*> col_segs;

    // --- states (surviving rows) ---
    std::vector<uint32_t> row_of_state;  // original row in the node table
    std::vector<V> weight;               // lifted tuple weight w(s)
    std::vector<V> pi1;                  // optimal completion below s
    // state s, child slot j -> connector id in the child stage
    // (flattened: conn_of_state[s * num_slots + j])
    std::vector<uint32_t> conn_of_state;

    // --- connectors (this stage's states grouped by parent join key) ---
    std::vector<uint32_t> conn_begin;  // connector c spans members
                                       // [conn_begin[c], conn_begin[c+1])
    // State ids grouped by connector; each connector's range is a binary
    // min-heap on member_val (slot i = position conn_begin[c] + i).
    std::vector<uint32_t> members;
    std::vector<V> member_val;         // weight[s] (+) pi1[s], aligned
    uint32_t conn_global_base = 0;     // first global connector id

    // --- build-time statistics (planner inputs, src/plan/stats.h) ---
    // Exact number of subtree solutions rooted at each connector: the DP
    //   count(s)    = prod over child slots of conn_count(connector),
    //   conn_count(c) = sum over members s of count(s),
    // piggybacked on the state loop and the heap-ordering pass.
    // Doubles saturate to +inf on astronomically large outputs, which is
    // all the cost model needs. conn_count[kRootConn] of the root stage is
    // the query's total output size.
    std::vector<double> conn_count;
    uint32_t max_fanout = 0;  // largest connector (members per choice set)

    size_t NumStates() const { return row_of_state.size(); }
    size_t NumConns() const { return conn_begin.size() - 1; }
    uint32_t ConnSize(uint32_t c) const {
      return conn_begin[c + 1] - conn_begin[c];
    }
    /// Member position of the connector's best member: heap slot 0.
    uint32_t ConnBest(uint32_t c) const { return conn_begin[c]; }
    /// Member position of the second-best member, the lesser of heap slots
    /// 1 and 2 (kNoMember for a singleton connector).
    uint32_t ConnSecond(uint32_t c) const {
      const uint32_t b = conn_begin[c];
      const uint32_t size = conn_begin[c + 1] - b;
      if (size < 2) return kNoMember;
      if (size > 2 && D::Less(member_val[b + 2], member_val[b + 1])) {
        return b + 2;
      }
      return b + 1;
    }
    const V& ConnBestVal(uint32_t c) const { return member_val[conn_begin[c]]; }
    /// Member positions [first, last) of the heap children of the member at
    /// position `pos` in connector c (slots 2i+1 and 2i+2 of slot i).
    std::pair<uint32_t, uint32_t> HeapChildren(uint32_t c, uint32_t pos) const {
      const uint32_t end = conn_begin[c + 1];
      const uint32_t first =
          std::min(conn_begin[c] + 2 * (pos - conn_begin[c]) + 1, end);
      return {first, std::min(first + 2, end)};
    }

    /// Finish the connectors once members / member_val hold every choice
    /// set: heap-order each range in place (Floyd's method, O(members)), and
    /// fill conn_count and max_fanout from the per-state solution counts.
    void FinishConnectors(std::span<const double> state_count) {
      const size_t conns = NumConns();
      conn_count.assign(conns, 0.0);
      for (uint32_t c = 0; c < conns; ++c) {
        const uint32_t b = conn_begin[c];
        const uint32_t size = conn_begin[c + 1] - b;
        max_fanout = std::max(max_fanout, size);
        double cnt = 0.0;
        for (uint32_t p = b; p < b + size; ++p) cnt += state_count[members[p]];
        conn_count[c] = cnt;
        for (uint32_t i = size / 2; i-- > 0;) SiftDown(b, size, i);
      }
    }

   private:
    /// Sift slot i of the size-n heap at position b down (members and
    /// member_val move together).
    void SiftDown(uint32_t b, uint32_t n, uint32_t i) {
      const uint32_t m = members[b + i];
      V v = std::move(member_val[b + i]);
      for (uint32_t child = 2 * i + 1; child < n; child = 2 * i + 1) {
        if (child + 1 < n &&
            D::Less(member_val[b + child + 1], member_val[b + child])) {
          ++child;
        }
        if (!D::Less(member_val[b + child], v)) break;
        members[b + i] = members[b + child];
        member_val[b + i] = std::move(member_val[b + child]);
        i = child;
      }
      members[b + i] = m;
      member_val[b + i] = std::move(v);
    }
  };

  const TDPInstance* instance = nullptr;
  std::vector<Stage> stages;      // serialized preorder; stages[0] is root
  uint32_t total_connectors = 0;  // across all stages
  // Child stages of stage i, by slot: child_stage[i][j].
  std::vector<std::vector<uint32_t>> child_stage;
  // Per stage: parent join key -> local connector id, as a flat
  // open-addressing index whose dense key ids ARE the connector ids (kept
  // after the build; the projection machinery of Section 8.1 uses it to read
  // branch minima). Each is sized by its keys, not its states:
  // DistinctKeyBound caps the surviving-state count by the product of the
  // key columns' value ranges, so a 500k-state stage over 50k parent keys
  // keeps a 2^17-slot table, not 2^20.
  std::vector<FlatKeyIndex> conn_of_key;

  bool Empty() const { return stages[0].NumConns() == 0; }

  /// Exact output cardinality of this graph (0 when empty; +inf when the
  /// counting DP saturated).
  double OutputCount() const {
    return Empty() ? 0.0 : stages[0].conn_count[kRootConn];
  }

  /// Weight of the top-1 solution (D::Zero() if the output is empty).
  V TopWeight() const {
    if (Empty()) return D::Zero();
    return stages[0].ConnBestVal(0);
  }

  /// Global connector id of (stage, local connector).
  uint32_t GlobalConn(uint32_t stage, uint32_t conn) const {
    return stages[stage].conn_global_base + conn;
  }

  /// The root connector holds all root-stage states under the empty key.
  static constexpr uint32_t kRootConn = 0;
};

/// Optional per-state weight adjustment: returns an extra dioid value
/// combined into the state's weight, or nullopt to prune the state. Used by
/// min-weight-projection (Section 8.1) to fold the best completion of a
/// pruned branch into the retained states (Theorem 20).
template <SelectiveDioid D>
using StateWeightHook =
    std::function<std::optional<typename D::Value>(uint32_t node_idx,
                                                   uint32_t row)>;

/// Build the stage graph for `inst`, running the bottom-up phase.
///
/// `num_atoms_override` sets the paper's l used for weight lifting (defaults
/// to the instance's atom count; unions of trees pass the original query's).
///
/// `pool` parallelizes the per-stage work (state DP + FlatKeyIndex interning
/// + CSR connector scatter) across sibling subtrees: stages are processed in
/// bottom-up *waves* by height, and all stages of one wave build
/// concurrently — each touches only its own Stage / FlatKeyIndex slot and
/// reads its (already finished) children. A chain degenerates to serial
/// waves; stars and bushy trees fan out. With a pool, `hook` (if any) must
/// be thread-safe; the built graph itself is immutable afterwards either
/// way.
template <SelectiveDioid D>
StageGraph<D> BuildStageGraph(const TDPInstance& inst,
                              size_t num_atoms_override = 0,
                              const StateWeightHook<D>* hook = nullptr,
                              ThreadPool* pool = nullptr) {
  using V = typename D::Value;
  const size_t num_atoms =
      num_atoms_override == 0 ? inst.num_atoms : num_atoms_override;
  const size_t L = inst.nodes.size();

  StageGraph<D> g;
  g.instance = &inst;
  g.stages.resize(L);
  g.child_stage.assign(L, {});

  // Map join-tree node index -> serialized stage index.
  std::vector<uint32_t> stage_of_node(L);
  for (size_t k = 0; k < L; ++k) stage_of_node[inst.order[k]] = k;

  for (size_t k = 0; k < L; ++k) {
    auto& st = g.stages[k];
    st.node_idx = inst.order[k];
    const TDPNode& nd = inst.nodes[st.node_idx];
    st.col_segs.resize(nd.vars.size());
    for (size_t c = 0; c < nd.vars.size(); ++c) {
      st.col_segs[c] = nd.table->NumRows() ? nd.table->ColumnData(c) : nullptr;
    }
    if (nd.parent >= 0) {
      st.parent_stage = static_cast<int>(stage_of_node[nd.parent]);
    }
  }
  for (size_t k = 0; k < L; ++k) {
    if (g.stages[k].parent_stage >= 0) {
      auto& parent = g.stages[g.stages[k].parent_stage];
      g.stages[k].parent_slot = parent.num_slots++;
      g.child_stage[g.stages[k].parent_stage].push_back(
          static_cast<uint32_t>(k));
    }
  }

  // Per-stage key -> connector id index, alive while parents are processed.
  std::vector<FlatKeyIndex> conn_of_key(L);

  // One stage's full build: state DP + pruning, key interning, CSR connector
  // scatter, per-connector heap order. Writes only stages[kk] / conn_of_key[kk]
  // and reads its children's finished stages, so all stages of one
  // bottom-up wave can run concurrently.
  auto build_stage = [&](size_t kk) {
    auto& st = g.stages[kk];
    const TDPNode& nd = inst.nodes[st.node_idx];
    const size_t rows = nd.NumRows();
    const size_t pins = nd.NumPins();
    const double* pin_weight = nd.PinWeights();
    const uint32_t* pin_row = nd.PinRows();  // null: row r pins row r
    const size_t slots = st.num_slots;

    st.row_of_state.reserve(rows);
    st.weight.reserve(rows);
    st.pi1.reserve(rows);
    st.conn_of_state.reserve(rows * slots);

    // Scratch buffers are per stage invocation (no cross-thread sharing).
    std::vector<uint32_t> row_conns(slots);
    std::vector<double> state_count;  // subtree solutions per surviving state
    state_count.reserve(rows);

    // Pre-fill one row-major key matrix per child slot, column-strided: each
    // parent key column is one sequential read of its contiguous segment
    // (spread kernel) instead of a per-row random At() walk. The DP loop
    // below then probes with a plain span into the matrix.
    std::vector<std::vector<Value>> slot_keys(slots);
    std::vector<size_t> slot_width(slots);
    for (size_t j = 0; j < slots; ++j) {
      const uint32_t cs = g.child_stage[kk][j];
      const TDPNode& cnd = inst.nodes[g.stages[cs].node_idx];
      const size_t width = cnd.parent_key_cols.size();
      slot_width[j] = width;
      slot_keys[j].resize(rows * width);
      for (size_t c = 0; c < width; ++c) {
        SpreadToStride(nd.table->ColumnData(cnd.parent_key_cols[c]), rows,
                       slot_keys[j].data() + c, width);
      }
    }

    for (size_t r = 0; r < rows; ++r) {
      // Resolve one connector per child slot; prune if any child has no
      // matching key (dangling tuple). The solution-count DP rides along:
      // a state's count is the product of its child connectors' counts.
      bool alive = true;
      V pi1 = D::One();
      double cnt = 1.0;
      for (size_t j = 0; j < slots && alive; ++j) {
        const uint32_t cs = g.child_stage[kk][j];
        const int64_t conn = conn_of_key[cs].Find(std::span<const Value>(
            slot_keys[j].data() + r * slot_width[j], slot_width[j]));
        if (conn < 0) {
          alive = false;
        } else {
          row_conns[j] = static_cast<uint32_t>(conn);
          pi1 = D::Combine(pi1, g.stages[cs].ConnBestVal(
                                    static_cast<uint32_t>(conn)));
          cnt *= g.stages[cs].conn_count[static_cast<uint32_t>(conn)];
        }
      }
      if (!alive) continue;

      V w = D::One();
      for (size_t p = 0; p < pins; ++p) {
        const size_t i = r * pins + p;
        w = D::Combine(
            w, LiftWeight<D>(pin_weight[i], nd.pinned_atoms[p], num_atoms,
                             pin_row != nullptr ? pin_row[i]
                                                : static_cast<uint32_t>(r)));
      }
      if (hook != nullptr) {
        std::optional<V> extra = (*hook)(st.node_idx, static_cast<uint32_t>(r));
        if (!extra.has_value()) continue;  // hook prunes the state
        w = D::Combine(w, *extra);
      }
      st.row_of_state.push_back(static_cast<uint32_t>(r));
      st.weight.push_back(w);
      st.pi1.push_back(pi1);
      state_count.push_back(cnt);
      for (size_t j = 0; j < slots; ++j) st.conn_of_state.push_back(row_conns[j]);
    }

    // Group surviving states into connectors by the parent join key (root
    // stage: single connector under the empty key). Connector ids are the
    // dense interned-key ids, i.e. first-appearance order; the members are
    // laid out CSR-style in one counting scatter, with no per-group vectors.
    const size_t ns = st.NumStates();
    std::vector<uint32_t> conn_of_state_local(ns);
    if (st.parent_stage < 0) {
      conn_of_key[kk].Init(0, ns > 0 ? 1 : 0);
      if (ns > 0) {
        conn_of_key[kk].Intern({});
        for (size_t s = 0; s < ns; ++s) conn_of_state_local[s] = 0;
      }
    } else {
      // Gather each key column's surviving values straight from its segment
      // (row ids are the surviving rows) into a row-major key matrix, then
      // intern row-wise.
      const size_t width = nd.key_cols.size();
      conn_of_key[kk].Init(width,
                           DistinctKeyBound(*nd.table, nd.key_cols, ns));
      std::vector<Value> key_rows(ns * width);
      for (size_t c = 0; c < width; ++c) {
        GatherToStride(nd.table->ColumnData(nd.key_cols[c]),
                       st.row_of_state.data(), ns, key_rows.data() + c, width);
      }
      for (size_t s = 0; s < ns; ++s) {
        conn_of_state_local[s] = conn_of_key[kk].Intern(
            std::span<const Value>(key_rows.data() + s * width, width));
      }
    }

    const size_t conns = conn_of_key[kk].NumKeys();
    st.conn_begin.assign(conns + 1, 0);
    for (size_t s = 0; s < ns; ++s) ++st.conn_begin[conn_of_state_local[s] + 1];
    for (size_t c = 0; c < conns; ++c) st.conn_begin[c + 1] += st.conn_begin[c];
    st.members.resize(ns);
    st.member_val.resize(ns, D::Zero());
    // member_val is weight ⊗ pi1 per state; batch the ⊗ over the two flat
    // arrays (dioid kernel) before the scatter permutes it into CSR order.
    std::vector<V> comb(ns);
    Combine<D>(st.weight.data(), st.pi1.data(), ns, comb.data());
    std::vector<uint32_t> cursor(st.conn_begin.begin(), st.conn_begin.end() - 1);
    for (size_t s = 0; s < ns; ++s) {
      const uint32_t pos = cursor[conn_of_state_local[s]]++;
      st.members[pos] = static_cast<uint32_t>(s);
      st.member_val[pos] = comb[s];
    }
    st.FinishConnectors(state_count);
  };

  // Bottom-up waves: height h = longest downward path below the stage. All
  // stages of a wave only depend on strictly smaller heights, so each wave
  // is an independent ParallelFor (a no-op fan-out without a pool —
  // reverse-preorder already guarantees children come first serially).
  std::vector<uint32_t> height(L, 0);
  uint32_t max_height = 0;
  for (size_t kk = L; kk-- > 0;) {
    for (uint32_t cs : g.child_stage[kk]) {
      height[kk] = std::max(height[kk], height[cs] + 1);
    }
    max_height = std::max(max_height, height[kk]);
  }
  std::vector<std::vector<size_t>> waves(max_height + 1);
  for (size_t kk = 0; kk < L; ++kk) waves[height[kk]].push_back(kk);
  for (const std::vector<size_t>& wave : waves) {
    ParallelFor(pool, wave.size(),
                [&](size_t i) { build_stage(wave[i]); });
  }

  // Assign global connector ids and keep the key maps.
  uint32_t base = 0;
  for (auto& st : g.stages) {
    st.conn_global_base = base;
    base += static_cast<uint32_t>(st.NumConns());
  }
  g.total_connectors = base;
  g.conn_of_key = std::move(conn_of_key);
  return g;
}

/// Write the variable bindings of `state` in `stage` into `assignment`
/// (indexed by variable id) and the original rows into `witness` (indexed by
/// atom; pass nullptr to skip).
template <SelectiveDioid D>
void BindState(const StageGraph<D>& g, uint32_t stage, uint32_t state,
               std::vector<Value>* assignment,
               std::vector<uint32_t>* witness) {
  const auto& st = g.stages[stage];
  const TDPNode& nd = g.instance->nodes[st.node_idx];
  const uint32_t row = st.row_of_state[state];
  const Value* const* segs = st.col_segs.data();
  const uint32_t* vars = nd.vars.data();
  Value* out = assignment->data();
  for (size_t c = 0; c < nd.vars.size(); ++c) {
    out[vars[c]] = segs[c][row];
  }
  if (witness != nullptr) {
    const size_t pins = nd.NumPins();
    const uint32_t* pin_row = nd.PinRows();
    for (size_t p = 0; p < pins; ++p) {
      (*witness)[nd.pinned_atoms[p]] =
          pin_row != nullptr ? pin_row[row * pins + p] : row;
    }
  }
}

/// Batched BindState: bind `count` answers' states of one stage in a single
/// stage-wise pass. `states_base[i * stride + offset]` is answer i's state
/// id at this stage (the enumerators stash answers as L-strided state
/// matrices). Per variable column the values are gathered from the column
/// segment into `val_scratch` (one sequential write, one random read — the
/// bind-kernel layer's core move) and then scattered into each answer's
/// ResultRow; witnesses go the same way through the strided pin-row gather
/// (or straight from the row ids when the node's pins are its own rows).
///
/// Scratch is caller-owned so the enumerators can keep it in their arena
/// (zero-global-alloc enumeration): `id_scratch` holds at least 2 * count
/// uint32s, `val_scratch` at least count Values.
template <SelectiveDioid D>
void BindStateBatch(const StageGraph<D>& g, uint32_t stage,
                    const uint32_t* states_base, size_t stride, size_t offset,
                    size_t count, ResultRow<D>* rows, bool with_witness,
                    uint32_t* id_scratch, Value* val_scratch) {
  if (count == 0) return;
  const auto& st = g.stages[stage];
  const TDPNode& nd = g.instance->nodes[st.node_idx];
  uint32_t* state_ids = id_scratch;
  uint32_t* row_ids = id_scratch + count;
  CopyStridedU32(states_base, stride, offset, count, state_ids);
  GatherU32(st.row_of_state.data(), state_ids, count, row_ids);
  for (size_t c = 0; c < nd.vars.size(); ++c) {
    const uint32_t var = nd.vars[c];
    Gather(nd.table->ColumnData(c), row_ids, count, val_scratch);
    for (size_t b = 0; b < count; ++b) {
      rows[b].assignment[var] = val_scratch[b];
    }
  }
  if (with_witness) {
    const size_t pins = nd.NumPins();
    const uint32_t* pin_row = nd.PinRows();
    for (size_t p = 0; p < pins; ++p) {
      const uint32_t atom = nd.pinned_atoms[p];
      const uint32_t* witness_rows = row_ids;
      if (pin_row != nullptr) {
        // state_ids is dead past this point; reuse it as the witness scratch.
        GatherU32Strided(pin_row, pins, p, row_ids, count, state_ids);
        witness_rows = state_ids;
      }
      for (size_t b = 0; b < count; ++b) {
        rows[b].witness[atom] = witness_rows[b];
      }
    }
  }
}

/// Reusable scratch of one page of ranked answers (RankThenBind): answer
/// b's state at stage j is states[b * L + j] and its weight weights[b];
/// ids and vals are BindStateBatch's scratch. The any-k enumerators seat it
/// on their arena (`Alloc` = ArenaAllocator), so a page draws nothing from
/// the global heap.
template <SelectiveDioid D, template <class> class Alloc = std::allocator>
struct AnswerPage {
  explicit AnswerPage(const Alloc<uint32_t>& alloc = {})
      : states(alloc), weights(alloc), ids(alloc), vals(alloc) {}
  std::vector<uint32_t, Alloc<uint32_t>> states;
  std::vector<typename D::Value, Alloc<typename D::Value>> weights;
  std::vector<uint32_t, Alloc<uint32_t>> ids;
  std::vector<Value, Alloc<Value>> vals;
};

/// The rank-then-bind step every stage-graph enumerator ends in (ANYK-PART,
/// ANYK-REC, Batch): rank up to `n` answers, each by one
/// `rank(states, &weight)` call that writes the answer's state at every
/// stage into states[0..L) — its row of the page's matrix — and returns
/// false once the output or the budget is exhausted; then size each row's
/// reusable buffers and bind it. A one-answer page binds answer-major
/// (BindState stage by stage): one row has no strided extraction or
/// scratch round trip to amortize, and one-row pages are what NextInto and
/// the unions' part pulls make. Longer pages bind stage-major through
/// BindStateBatch. Returns the number of answers; short means exhausted
/// (the contract in anyk/enumerator.h).
template <SelectiveDioid D, template <class> class Alloc, class Rank>
size_t RankThenBind(const StageGraph<D>& g, bool with_witness,
                    ResultRow<D>* rows, size_t n, AnswerPage<D, Alloc>* page,
                    Rank&& rank) {
  const size_t L = g.stages.size();
  size_t count = 0;
  for (; count < n; ++count) {
    if (page->weights.size() <= count) {  // grows only, like the rows
      // An empty graph (a tree the cycle decomposition pruned) has no
      // answers: stop before the first growth, so it touches no arena.
      if (g.Empty()) break;
      page->states.resize((count + 1) * L);
      page->weights.resize(count + 1);
    }
    if (!rank(page->states.data() + count * L, &page->weights[count])) break;
  }
  for (size_t b = 0; b < count; ++b) {
    ResultRow<D>& row = rows[b];
    row.weight = page->weights[b];
    row.assignment.assign(g.instance->num_vars, 0);
    if (with_witness) {
      row.witness.assign(g.instance->num_atoms, kNoRow);
    } else {
      row.witness.clear();
    }
  }
  if (count == 1) {
    for (uint32_t j = 0; j < L; ++j) {
      BindState(g, j, page->states[j], &rows[0].assignment,
                with_witness ? &rows[0].witness : nullptr);
    }
  } else if (count > 1) {
    page->ids.resize(2 * count);
    page->vals.resize(count);
    for (uint32_t j = 0; j < L; ++j) {
      BindStateBatch(g, j, page->states.data(), L, j, count, rows,
                     with_witness, page->ids.data(), page->vals.data());
    }
  }
  return count;
}

}  // namespace anyk

#endif  // ANYK_DP_STAGE_GRAPH_H_
