// QueryHandle: the one dioid-erased path from a parsed SQL statement to
// ranked pages, shared by the `anyk` CLI and the `anykd` server.
//
// MakeQueryHandle prepares the statement under the named selective dioid
// into a ShardedPreparedQuery<D> (a passthrough around one PreparedQuery<D>
// when S == 1; S per-shard pipelines merged per stream otherwise, see
// anyk/sharded_query.h). The handle is immutable and shared read-only: the
// server caches one per LIMIT-free normalized statement, the CLI builds one
// per run.
//
// Preparation does not depend on k (cycle decomposition, stage graphs and
// the bottom-up DP are the same for every budget), so the handle always
// prepares unbounded and the k budget belongs to each stream: Open(algo, k)
// starts a PageStream — an EnumerationSession under EnumOptions::k_budget
// = k plus its page buffer and projection / rank bookkeeping — confined to
// one thread at a time; any number of streams of one handle, at any mix of
// budgets, may run concurrently. For Algorithm::kAuto the strategy and
// heap arity are re-decided per budget from the statistics cached at
// prepare (plan::DecideStrategy's O(1) stats overload), so every stream
// runs what a prepare with k_budget = k would have chosen.
//
// anyk-lint: allow-file(heap-hot-path): the handle, its prepared query and
// each stream are allocated once, at prepare and stream-open time. FetchPage
// only reuses the stream's page buffer, which grows and never shrinks
// (invariants_test pins that mixed page sizes allocate no more than a
// constant one).

#ifndef ANYK_ANYK_QUERY_HANDLE_H_
#define ANYK_ANYK_QUERY_HANDLE_H_

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "anyk/explain.h"
#include "anyk/factory.h"
#include "anyk/prepared_query.h"
#include "anyk/sharded_query.h"
#include "dioid/max_plus.h"
#include "dioid/max_times.h"
#include "dioid/min_max.h"
#include "dioid/tropical.h"
#include "plan/planner.h"
#include "query/sql.h"
#include "storage/database.h"
#include "storage/value.h"
#include "util/logging.h"

namespace anyk {

/// Called once per answer of a page, in rank order. `rank` is 1-based and
/// global across the stream's pages; `values` follow the SELECT list (all
/// variables when there is none).
using RowFn =
    std::function<void(size_t rank, double weight, const std::vector<Value>&)>;

/// Appends one answer as a text row, `RESULT,<rank>,<weight>,<values...>\n`:
/// the one encoder of `anyk`'s text output and `anykd`'s text pages. The
/// weight prints as printf's "%.6g" does in the C locale — std::to_chars
/// with precision 6 is specified to match it — whatever the process locale.
inline void AppendResultRow(std::string* out, size_t rank, double weight,
                            const std::vector<Value>& values) {
  char buf[32];
  out->append("RESULT,");
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), rank).ptr);
  out->push_back(',');
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), weight,
                                 std::chars_format::general, 6)
                       .ptr);
  for (Value v : values) {
    out->push_back(',');
    out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  }
  out->push_back('\n');
}

/// The smallest page buffer a stream allocates: pages of up to this many
/// rows never grow it.
inline constexpr size_t kPageRows = 64;

/// One ranked answer stream, paged. Not thread-safe — the owner serializes
/// access.
class PageStream {
 public:
  virtual ~PageStream() = default;

  /// Pull up to `n` answers, invoking `fn` for each unless it is empty.
  /// Returns how many were produced; a short count means the stream is
  /// exhausted (done()), after which it returns 0.
  virtual size_t FetchPage(size_t n, const RowFn& fn) = 0;

  virtual bool done() const = 0;
  /// Answers produced so far (the rank of the last one).
  virtual size_t produced() const = 0;
};

/// A prepared statement behind a dioid-erased interface. Immutable after
/// construction; Open() may be called concurrently from any thread.
class QueryHandle {
 public:
  virtual ~QueryHandle() = default;
  /// Open an independent stream of at most `k_budget` answers (0 = all),
  /// run under EnumOptions::k_budget = k_budget. Algorithm::kAuto resolves
  /// to decision(k_budget). The stream reads the handle's prepared state:
  /// it must not outlive it.
  virtual std::unique_ptr<PageStream> Open(Algorithm algo,
                                           size_t k_budget) const = 0;
  virtual const char* plan_name() const = 0;
  /// The planner decision for a stream budget (0 = unbounded), merged
  /// across shards: what Algorithm::kAuto runs under `k_budget`.
  virtual plan::PlanDecision decision(size_t k_budget) const = 0;
  /// The EXPLAIN block (anyk/explain.h): plan shape and sizes — shard 0's,
  /// labeled, when sharded — then the cross-shard decision(k_budget).
  virtual std::string Explain(size_t k_budget) const = 0;
};

namespace internal {

template <SelectiveDioid D>
class TypedStream final : public PageStream {
 public:
  TypedStream(EnumerationSession<D> session,
              const std::vector<uint32_t>* select_vars)
      : select_vars_(select_vars), session_(std::move(session)) {}

  size_t FetchPage(size_t n, const RowFn& fn) override {
    if (done_ || n == 0) return 0;
    // Grow only: shrinking would destroy rows, and their value buffers,
    // that the next larger page then allocates again.
    if (batch_.size() < n) batch_.resize(std::max(n, kPageRows));
    const size_t got = session_.NextBatch(batch_.data(), n);
    if (got < n) done_ = true;
    const size_t first_rank = rank_ + 1;
    rank_ += got;
    if (!fn) return got;
    for (size_t b = 0; b < got; ++b) {
      const ResultRow<D>& row = batch_[b];
      const std::vector<Value>* values = &row.assignment;
      if (!select_vars_->empty()) {
        projected_.clear();
        for (uint32_t v : *select_vars_) {
          projected_.push_back(row.assignment[v]);
        }
        values = &projected_;
      }
      fn(first_rank + b, static_cast<double>(row.weight), *values);
    }
    return got;
  }

  bool done() const override { return done_; }
  size_t produced() const override { return rank_; }

 private:
  const std::vector<uint32_t>* select_vars_;  // owned by the TypedHandle
  EnumerationSession<D> session_;
  std::vector<ResultRow<D>> batch_;
  std::vector<Value> projected_;
  size_t rank_ = 0;
  bool done_ = false;
};

template <SelectiveDioid D>
class TypedHandle final : public QueryHandle {
 public:
  TypedHandle(const Database& db, SqlStatement stmt,
              const ShardedQueryOptions& opts)
      : stmt_(std::move(stmt)), pq_(db, stmt_.query, opts) {}

  std::unique_ptr<PageStream> Open(Algorithm algo,
                                   size_t k_budget) const override {
    EnumOptions opts = pq_.default_enum_options();
    opts.k_budget = k_budget;
    if (algo == Algorithm::kAuto) {
      const plan::PlanDecision d = decision(k_budget);
      algo = d.algorithm;
      opts.heap_arity = d.heap_arity;
    }
    return std::make_unique<TypedStream<D>>(pq_.NewSession(algo, opts),
                                            &stmt_.select_vars);
  }
  const char* plan_name() const override { return PlanName(pq_.plan()); }
  plan::PlanDecision decision(size_t k_budget) const override {
    // pq_ was prepared unbounded: its decision holds the merged statistics
    // and the topology flag, and is already final for the generic-join
    // fallback, which runs Batch at every budget.
    const plan::PlanDecision& unbounded = pq_.decision();
    if (pq_.plan() == QueryPlan::kGenericJoinBatch) return unbounded;
    plan::PlanDecision d =
        plan::DecideStrategy(unbounded.stats, k_budget, D::kHasInverse);
    d.auto_topology = unbounded.auto_topology;
    return d;
  }
  std::string Explain(size_t k_budget) const override {
    return anyk::Explain(pq_, decision(k_budget));
  }

 private:
  const SqlStatement stmt_;
  const ShardedPreparedQuery<D> pq_;
};

}  // namespace internal

/// Prepare `stmt` under the named dioid with `opts` (which callers fill as
/// they would for a ShardedPreparedQuery; `opts.prepare.pool` parallelizes
/// preprocessing only and is not retained). Answers never carry witnesses:
/// the handle clears EnumOptions::with_witness. It also prepares unbounded
/// (EnumOptions::k_budget = 0) — each stream brings its own budget to
/// Open(), so `stmt.limit` is not read here. CHECK-fails on an unknown
/// dioid name.
inline std::unique_ptr<QueryHandle> MakeQueryHandle(const Database& db,
                                                    SqlStatement stmt,
                                                    const std::string& dioid,
                                                    ShardedQueryOptions opts) {
  opts.prepare.enum_opts.with_witness = false;
  opts.prepare.enum_opts.k_budget = 0;
  if (dioid == "min-sum") {
    return std::make_unique<internal::TypedHandle<TropicalDioid>>(
        db, std::move(stmt), opts);
  }
  if (dioid == "max-sum") {
    return std::make_unique<internal::TypedHandle<MaxPlusDioid>>(
        db, std::move(stmt), opts);
  }
  if (dioid == "min-max") {
    return std::make_unique<internal::TypedHandle<MinMaxDioid>>(
        db, std::move(stmt), opts);
  }
  if (dioid == "max-times") {
    return std::make_unique<internal::TypedHandle<MaxTimesDioid>>(
        db, std::move(stmt), opts);
  }
  ANYK_CHECK(false) << "unknown dioid '" << dioid
                    << "' (expected min-sum|max-sum|min-max|max-times)";
  return nullptr;
}

}  // namespace anyk

#endif  // ANYK_ANYK_QUERY_HANDLE_H_
