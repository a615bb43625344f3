// PreparedQuery / EnumerationSession: the concurrent-serving split.
//
// Preprocessing (plan choice, decomposition, bag materialization, bottom-up
// DP — everything Theorem 15 charges to TTF) produces a PreparedQuery that
// is *immutable after construction*: relations, join-tree instances, stage
// graphs with their FlatKeyIndex connector maps, and — for the generic-join
// fallback — the fully sorted output. N threads may then each open an
// EnumerationSession against the same const PreparedQuery and enumerate
// concurrently with zero shared mutable state: every piece of
// enumeration-phase state (candidate PQ, prefix pool, lazily built strategy
// structures, suffix rankings, union slots, batch materialization) lives in
// the session's own enumerator and arena (see anyk_part.h / anyk_rec.h /
// strategies.h — all of it was moved into per-enumerator arenas in the flat
// memory layout work, which is exactly what makes this split sound; the
// concurrency_test suite and the TSan CI job enforce it).
//
// anyk-lint: allow-file(heap-hot-path): all allocations here are Prepare()
// or OpenSession() time — the enumeration loop itself allocates only from
// the session arena (invariants_test pins the zero-alloc guarantee).
//
// Construction itself can be parallelized by passing a ThreadPool: the
// per-partition DP over the cycle-decomposition union instances builds one
// stage graph per worker, and within each instance BuildStageGraph runs its
// per-stage index/CSR builds in bottom-up waves.
//
// RankedQuery (ranked_query.h) remains the single-session convenience
// wrapper: PreparedQuery + one default session.

#ifndef ANYK_ANYK_PREPARED_QUERY_H_
#define ANYK_ANYK_PREPARED_QUERY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "anyk/enumerator.h"
#include "anyk/factory.h"
#include "anyk/union_anyk.h"
#include "dioid/lift.h"
#include "dioid/tropical.h"
#include "dp/stage_graph.h"
#include "join/generic_join.h"
#include "plan/planner.h"
#include "query/cycle_decomposition.h"
#include "query/gyo.h"
#include "query/join_tree.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace anyk {

enum class QueryPlan { kAcyclicTree, kCycleUnion, kGenericJoinBatch };

/// The plan's name in reports (CLI `plan=`, server PLAN line and /statz).
inline const char* PlanName(QueryPlan plan) {
  switch (plan) {
    case QueryPlan::kAcyclicTree: return "acyclic-tree";
    case QueryPlan::kCycleUnion: return "cycle-union";
    case QueryPlan::kGenericJoinBatch: return "generic-join-batch";
  }
  return "?";
}

/// Cursor over a shared, pre-sorted result vector (the generic-join batch
/// fallback). The rows are owned by the PreparedQuery and never change;
/// each session only advances its own cursor.
template <SelectiveDioid D>
class SharedVectorEnumerator : public Enumerator<D> {
 public:
  explicit SharedVectorEnumerator(
      std::shared_ptr<const std::vector<ResultRow<D>>> rows,
      size_t k_budget = 0)
      : rows_(std::move(rows)),
        end_(k_budget == 0 ? rows_->size()
                           : std::min(k_budget, rows_->size())) {}
  std::optional<ResultRow<D>> Next() override {
    if (cursor_ >= end_) return std::nullopt;
    return (*rows_)[cursor_++];
  }
  bool NextInto(ResultRow<D>* row) override {
    if (cursor_ >= end_) return false;
    *row = (*rows_)[cursor_++];
    return true;
  }
  size_t NextBatch(ResultRow<D>* rows, size_t n) override {
    const size_t produced = std::min(n, end_ - cursor_);
    for (size_t b = 0; b < produced; ++b) rows[b] = (*rows_)[cursor_ + b];
    cursor_ += produced;
    return produced;
  }

 private:
  std::shared_ptr<const std::vector<ResultRow<D>>> rows_;
  size_t end_;  // k-budget cap (rows_->size() when unbounded)
  size_t cursor_ = 0;
};

/// One enumeration stream over a PreparedQuery. Owns all mutable state of
/// the drain (enumerators, arenas, heaps, cursors); confined to one thread
/// at a time, but any number of sessions run concurrently against the same
/// prepared query. Movable; create via PreparedQuery::NewSession.
template <SelectiveDioid D>
class EnumerationSession {
 public:
  /// Next answer in rank order, or nullopt when exhausted.
  std::optional<ResultRow<D>> Next() { return enumerator_->Next(); }

  /// Hot-path pull into a caller-owned, reused row buffer.
  bool NextInto(ResultRow<D>* row) { return enumerator_->NextInto(row); }

  /// Batched hot-path pull (see Enumerator::NextBatch): up to `n` answers
  /// into caller-owned rows; a short count means exhausted.
  size_t NextBatch(ResultRow<D>* rows, size_t n) {
    return enumerator_->NextBatch(rows, n);
  }

  Enumerator<D>* enumerator() { return enumerator_.get(); }

 private:
  template <SelectiveDioid>
  friend class PreparedQuery;
  template <SelectiveDioid>
  friend class ShardedPreparedQuery;  // anyk/sharded_query.h

  explicit EnumerationSession(std::unique_ptr<Enumerator<D>> e)
      : enumerator_(std::move(e)) {}

  std::unique_ptr<Enumerator<D>> enumerator_;
};

/// How a PreparedQuery<D> is built; no field depends on the dioid.
struct PrepareOptions {
  // Session defaults (NewSession overloads can override per session). The
  // generic-join fallback materializes witnesses according to this value
  // at prepare time, so it applies to every session of that plan. Its
  // k_budget is also the budget decision() is made for; nothing else in
  // preparation reads it, which is why QueryHandle (anyk/query_handle.h)
  // prepares with 0 and re-decides per stream budget from decision().stats.
  EnumOptions enum_opts;
  CycleDecompositionOptions cycle_opts;
  // Preprocessing parallelism (not owned; may be null = serial). Only
  // used during construction — the PreparedQuery keeps no reference.
  ThreadPool* pool = nullptr;
  // Cost-based planning (docs/PLANNER.md): when true, the prepare phase
  // also chooses the join-tree root/orientation and stage order from
  // relation cardinalities (plan::PlanTopology) instead of the fixed
  // construction order. The strategy + heap-arity decision is computed
  // either way (the statistics are free) and cached in decision();
  // NewSession(Algorithm::kAuto) applies it.
  bool auto_plan = false;
};

template <SelectiveDioid D = TropicalDioid>
class PreparedQuery {
 public:
  using Options = PrepareOptions;

  PreparedQuery(const Database& db, const ConjunctiveQuery& q,
                Options opts = {})
      : query_(q), opts_(opts) {
    ThreadPool* pool = opts.pool;
    opts_.pool = nullptr;  // construction-only; never dereferenced again
    ANYK_CHECK(q.IsFull())
        << "PreparedQuery handles full CQs; see dp/projection.h for "
           "free-connex projections";
    GyoResult gyo = GyoReduce(Hypergraph::FromQuery(q));
    if (gyo.acyclic) {
      plan_ = QueryPlan::kAcyclicTree;
      // Orientation + stage order: the planner's cardinality-driven choice
      // under auto_plan, the fixed chain re-rooting otherwise.
      const JoinTreeTopology normalized = NormalizeTopology(gyo.tree, q);
      instances_.push_back(BuildInstanceFromTopology(
          db, q,
          opts_.auto_plan ? plan::PlanTopology(db, q, normalized)
                          : RerootChains(normalized)));
      graphs_.push_back(std::make_unique<StageGraph<D>>(BuildStageGraph<D>(
          instances_.back(), /*num_atoms_override=*/0, /*hook=*/nullptr,
          pool)));
      DecideStrategy();
      return;
    }
    CycleShape shape = DetectSimpleCycle(q);
    if (shape.is_cycle && q.NumAtoms() >= 4) {
      plan_ = QueryPlan::kCycleUnion;
      instances_ = DecomposeCycle(db, q, opts_.cycle_opts);
      // Per-partition DP: the l+1 union instances are independent, so each
      // worker runs one full bottom-up build (the instances are left
      // untouched afterwards, which is what NewSession relies on).
      graphs_.resize(instances_.size());
      ParallelFor(pool, instances_.size(), [&](size_t i) {
        graphs_[i] = std::make_unique<StageGraph<D>>(BuildStageGraph<D>(
            instances_[i], /*num_atoms_override=*/0, /*hook=*/nullptr,
            /*pool=*/nullptr));
      });
      DecideStrategy();
      return;
    }
    // General cyclic query: batch fallback via worst-case optimal join,
    // sorted once here and shared read-only by every session.
    plan_ = QueryPlan::kGenericJoinBatch;
    batch_rows_ = GenericJoinFallback(db, q);
    decision_ = plan::BatchOnlyDecision(
        static_cast<double>(batch_rows_->size()));
    decision_.auto_topology = opts_.auto_plan;
  }

  /// Open an independent enumeration stream. Thread-safe on a const
  /// PreparedQuery: sessions only read the stage graphs and allocate their
  /// own arenas, so any number may be created and drained concurrently.
  ///
  /// Algorithm::kAuto resolves to the prepare-time decision() — strategy
  /// AND candidate-heap arity — here, without recomputing anything: the
  /// plan is chosen once per PreparedQuery, never per session, for the
  /// prepare-time k_budget (a session opened with another budget still
  /// runs that decision; QueryHandle resolves kAuto per budget itself).
  EnumerationSession<D> NewSession(Algorithm algo,
                                   const EnumOptions& enum_opts) const {
    EnumOptions opts = enum_opts;
    if (algo == Algorithm::kAuto) {
      algo = decision_.algorithm;
      opts.heap_arity = decision_.heap_arity;
    }
    return NewResolvedSession(algo, opts);
  }
  EnumerationSession<D> NewSession(Algorithm algo) const {
    return NewSession(algo, opts_.enum_opts);
  }

  /// Build a session's enumerator directly, without the EnumerationSession
  /// wrapper. The sharded layer (anyk/sharded_query.h) unions one of these
  /// per shard into a single merged session; the same kAuto resolution as
  /// NewSession applies. Thread-safe on a const PreparedQuery.
  std::unique_ptr<Enumerator<D>> NewSessionEnumerator(
      Algorithm algo, const EnumOptions& enum_opts) const {
    EnumOptions opts = enum_opts;
    if (algo == Algorithm::kAuto) {
      algo = decision_.algorithm;
      opts.heap_arity = decision_.heap_arity;
    }
    return MakeResolvedEnumerator(algo, opts);
  }

  QueryPlan plan() const { return plan_; }
  size_t NumTrees() const { return instances_.size(); }
  const ConjunctiveQuery& query() const { return query_; }
  /// The cached planner decision (docs/PLANNER.md): what kAuto sessions
  /// run, what EXPLAIN and the server's /statz expose. Always populated —
  /// with auto_plan=false the topology part is skipped but the strategy
  /// pick is still computed from the (free) build statistics.
  const plan::PlanDecision& decision() const { return decision_; }
  /// Session defaults from the prepare-time options (e.g. for callers that
  /// want to tweak one knob — TopK sets k_budget on a copy of these).
  const EnumOptions& default_enum_options() const { return opts_.enum_opts; }
  const std::vector<std::unique_ptr<StageGraph<D>>>& graphs() const {
    return graphs_;
  }

 private:
  EnumerationSession<D> NewResolvedSession(Algorithm algo,
                                           const EnumOptions& enum_opts) const {
    return EnumerationSession<D>(MakeResolvedEnumerator(algo, enum_opts));
  }

  std::unique_ptr<Enumerator<D>> MakeResolvedEnumerator(
      Algorithm algo, const EnumOptions& enum_opts) const {
    switch (plan_) {
      case QueryPlan::kAcyclicTree:
        return MakeEnumerator<D>(graphs_[0].get(), algo, enum_opts);
      case QueryPlan::kCycleUnion: {
        // Only trees with answers get a part. Each part keeps the full k
        // budget: a single partition may supply the entire top-k. The
        // simple-cycle decomposition is disjoint, so the union never dedups,
        // and a union with one live part is that part's stream.
        std::vector<std::unique_ptr<Enumerator<D>>> parts;
        for (const auto& g : graphs_) {
          if (!g->Empty()) {
            parts.push_back(MakeEnumerator<D>(g.get(), algo, enum_opts));
          }
        }
        if (parts.empty()) {
          return MakeEnumerator<D>(graphs_[0].get(), algo, enum_opts);
        }
        if (parts.size() == 1) return std::move(parts[0]);
        return std::make_unique<UnionEnumerator<D>>(
            std::move(parts), /*dedup=*/false, enum_opts.k_budget);
      }
      case QueryPlan::kGenericJoinBatch:
        return std::make_unique<SharedVectorEnumerator<D>>(
            batch_rows_, enum_opts.k_budget);
    }
    ANYK_CHECK(false) << "unknown plan";
    return nullptr;
  }

  /// Strategy + heap-arity decision over the built graphs, made once at
  /// prepare time against the prepare-time k_budget.
  void DecideStrategy() {
    decision_ = plan::DecideStrategy<D>(graphs_, opts_.enum_opts.k_budget);
    decision_.auto_topology = opts_.auto_plan;
  }

  std::shared_ptr<const std::vector<ResultRow<D>>> GenericJoinFallback(
      const Database& db, const ConjunctiveQuery& q) const {
    JoinResultSet join = GenericJoin(db, q);
    const size_t na = q.NumAtoms();
    std::vector<ResultRow<D>> rows;
    rows.reserve(join.size());
    for (size_t i = 0; i < join.size(); ++i) {
      ResultRow<D> row;
      row.weight = D::One();
      row.assignment.assign(q.NumVars(), 0);
      if (opts_.enum_opts.with_witness) row.witness.assign(na, kNoRow);
      for (size_t a = 0; a < na; ++a) {
        const uint32_t r = join.witness(i)[a];
        const Relation& rel = db.Get(q.atom(a).relation);
        row.weight = D::Combine(row.weight,
                                LiftWeight<D>(rel.Weight(r), a, na, r));
        const auto& vars = q.AtomVarIds(a);
        for (size_t c = 0; c < vars.size(); ++c) {
          row.assignment[vars[c]] = rel.At(r, c);
        }
        if (opts_.enum_opts.with_witness) row.witness[a] = r;
      }
      rows.push_back(std::move(row));
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const ResultRow<D>& a, const ResultRow<D>& b) {
                       return D::Less(a.weight, b.weight);
                     });
    return std::make_shared<const std::vector<ResultRow<D>>>(std::move(rows));
  }

  ConjunctiveQuery query_;
  Options opts_;
  QueryPlan plan_;
  plan::PlanDecision decision_;
  // const after construction: sessions hold pointers into these, which stay
  // stable because the vectors are never touched again (and their elements
  // live on the heap, so moving the PreparedQuery itself is also safe).
  std::vector<TDPInstance> instances_;
  std::vector<std::unique_ptr<StageGraph<D>>> graphs_;
  std::shared_ptr<const std::vector<ResultRow<D>>> batch_rows_;
};

}  // namespace anyk

#endif  // ANYK_ANYK_PREPARED_QUERY_H_
