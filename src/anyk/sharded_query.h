// ShardedPreparedQuery: S independent PreparedQueries over hash-partitioned
// data, merged per session through a k-budgeted ranked union (ROADMAP Open
// item 3 — "shard the data, not just the sessions").
//
// Prepare: a ShardedDatabase splits the query's relations on one partition
// variable (storage/sharded_database.h has the correctness argument: the S
// per-shard answer streams are a disjoint cover of the full answer set),
// then S PreparedQueries build in parallel waves on the caller's ThreadPool
// — the fan-out is one level deep (each per-shard build runs serially), per
// the pool's no-nested-waits contract.
//
// Plan: the strategy decision is made ONCE across shards — the per-shard
// stage-graph statistics merge through plan::MergeGraphStats (inside
// DecideStrategy's non-owning overload), so Algorithm::kAuto resolves to a
// single (algorithm, heap arity) pair that every shard session runs. A
// shard-local decision could disagree between shards and make the merged
// stream's cost profile incoherent; /statz and EXPLAIN show the global one.
//
// Enumerate: NewSession opens one per-shard enumerator per shard — each
// with the caller's FULL k budget, since a single shard may supply the
// entire top-k — and merges them with UnionEnumerator (dedup off: the
// streams are disjoint) under the union-level k budget. With
// Options::parallel_drain the merge instead runs through
// ParallelUnionEnumerator (shard_drain.h): same output bytes, but each
// shard session drains on its own worker thread so NextBatch pulls overlap
// across shards. Either way the zero-global-alloc invariant holds per shard
// session (their arenas are per-enumerator, unchanged).
//
// S == 1 is a true passthrough: no ShardedDatabase, no union — the single
// PreparedQuery is built on the original database, so output, witnesses and
// timings are byte-identical to the unsharded path by construction.
//
// Lifetime: a ShardedPreparedQuery must not outlive the Database it was
// built from. Its atom nodes read the source relations in place at S == 1,
// and at S > 1 every shard borrows the source's broadcast relations
// (storage/sharded_database.h); only partitioned relations are copied.
//
// Witness caveat: with S > 1, witness row ids of a partitioned relation
// refer to rows of the SHARD's copy (partitioning renumbers rows; a
// borrowed broadcast relation keeps the source's ids), and tie-breaking
// among equal-weight answers follows those ids. The answer *set* and
// its weight order are exact; within an equal-weight group the order may
// differ from the unsharded drain (differential_test's shard sweep compares
// canonically for precisely this reason).
//
// anyk-lint: allow-file(heap-hot-path): all allocations here are prepare or
// session-open time; the merged drain recycles rows by swap (union_anyk.h /
// shard_drain.h) and the per-shard enumerators keep their arena discipline.

#ifndef ANYK_ANYK_SHARDED_QUERY_H_
#define ANYK_ANYK_SHARDED_QUERY_H_

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "anyk/enumerator.h"
#include "anyk/factory.h"
#include "anyk/prepared_query.h"
#include "anyk/shard_drain.h"
#include "anyk/union_anyk.h"
#include "dioid/tropical.h"
#include "plan/planner.h"
#include "query/cq.h"
#include "storage/database.h"
#include "storage/sharded_database.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace anyk {

/// How a ShardedPreparedQuery<D> is built; no field depends on the dioid.
struct ShardedQueryOptions {
  /// Per-shard prepare options. `prepare.pool` drives BOTH the partition
  /// pass and the parallel per-shard build waves; with S > 1 the
  /// individual shard builds run serially inside the waves.
  PrepareOptions prepare;
  size_t shards = 1;
  /// Merge through ParallelUnionEnumerator: one worker thread per shard
  /// session. Same output bytes as the serial union; sessions cost S
  /// threads each while open.
  bool parallel_drain = false;
};

template <SelectiveDioid D = TropicalDioid>
class ShardedPreparedQuery {
 public:
  using Options = ShardedQueryOptions;

  ShardedPreparedQuery(const Database& db, const ConjunctiveQuery& q,
                       Options opts = {})
      : opts_(opts) {
    ThreadPool* pool = opts.prepare.pool;
    opts_.prepare.pool = nullptr;  // construction-only; never kept
    if (opts_.shards == 0) opts_.shards = 1;
    const size_t s_count = opts_.shards;
    if (s_count == 1) {
      // Passthrough: the one "shard" is the original database, built with
      // full inner parallelism.
      PrepareOptions single = opts_.prepare;
      single.pool = pool;
      shards_.push_back(std::make_unique<PreparedQuery<D>>(db, q, single));
      decision_ = shards_[0]->decision();
      return;
    }
    sharded_db_ = std::make_unique<ShardedDatabase>(db, q, s_count, pool);
    shards_.resize(s_count);
    ParallelFor(pool, s_count, [&](size_t s) {
      shards_[s] = std::make_unique<PreparedQuery<D>>(
          sharded_db_->shard(s), q, opts_.prepare);
    });
    DecideGlobal();
  }

  /// Open one merged enumeration stream across all shards. Thread-safe on a
  /// const ShardedPreparedQuery, exactly like PreparedQuery::NewSession;
  /// Algorithm::kAuto resolves to the cross-shard decision().
  EnumerationSession<D> NewSession(Algorithm algo,
                                   const EnumOptions& enum_opts) const {
    EnumOptions opts = enum_opts;
    if (algo == Algorithm::kAuto) {
      algo = decision_.algorithm;
      opts.heap_arity = decision_.heap_arity;
    }
    if (shards_.size() == 1) return shards_[0]->NewSession(algo, opts);
    // Every shard keeps the caller's full k budget (any one shard may hold
    // the whole top-k); only the union enforces the emitted-answer cap.
    // The streams are disjoint by the partition-variable argument, so the
    // union never dedups.
    std::vector<std::unique_ptr<Enumerator<D>>> parts;
    parts.reserve(shards_.size());
    for (const auto& shard : shards_) {
      parts.push_back(shard->NewSessionEnumerator(algo, opts));
    }
    if (opts_.parallel_drain) {
      return EnumerationSession<D>(
          std::make_unique<ParallelUnionEnumerator<D>>(std::move(parts),
                                                       opts.k_budget));
    }
    return EnumerationSession<D>(std::make_unique<UnionEnumerator<D>>(
        std::move(parts), /*dedup=*/false, opts.k_budget));
  }
  EnumerationSession<D> NewSession(Algorithm algo) const {
    return NewSession(algo, opts_.prepare.enum_opts);
  }

  size_t NumShards() const { return shards_.size(); }
  const PreparedQuery<D>& shard(size_t s) const { return *shards_[s]; }
  QueryPlan plan() const { return shards_[0]->plan(); }
  const ConjunctiveQuery& query() const { return shards_[0]->query(); }
  /// The cross-shard planner decision (merged statistics; what kAuto runs).
  const plan::PlanDecision& decision() const { return decision_; }
  const EnumOptions& default_enum_options() const {
    return opts_.prepare.enum_opts;
  }
  /// The partitioned data, or null for the S == 1 passthrough.
  const ShardedDatabase* sharded_db() const { return sharded_db_.get(); }

 private:
  /// One strategy decision over ALL shards' graphs: per-shard stats merge
  /// via MergeGraphStats inside DecideStrategy, so the pick reflects the
  /// whole data set, not whichever shard happened to be first.
  void DecideGlobal() {
    if (plan() == QueryPlan::kGenericJoinBatch) {
      double total_out = 0;
      for (const auto& shard : shards_) {
        total_out += shard->decision().stats.output_count;
      }
      decision_ = plan::BatchOnlyDecision(total_out);
    } else {
      std::vector<const StageGraph<D>*> all_graphs;
      for (const auto& shard : shards_) {
        for (const auto& g : shard->graphs()) all_graphs.push_back(g.get());
      }
      decision_ = plan::DecideStrategy<D>(all_graphs,
                                          opts_.prepare.enum_opts.k_budget);
    }
    decision_.auto_topology = opts_.prepare.auto_plan;
  }

  Options opts_;
  std::unique_ptr<ShardedDatabase> sharded_db_;  // null for S == 1
  // const after construction; sessions hold pointers into the shard
  // PreparedQueries, which live on the heap and never move.
  std::vector<std::unique_ptr<PreparedQuery<D>>> shards_;
  plan::PlanDecision decision_;
};

}  // namespace anyk

#endif  // ANYK_ANYK_SHARDED_QUERY_H_
