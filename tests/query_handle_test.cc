// The dioid-erased QueryHandle (anyk/query_handle.h) that the CLI and the
// server both drain: for every dioid name, for each plan family (acyclic
// tree, cycle union, generic-join fallback), unsharded and sharded, with
// and without a SELECT list, the paged, projected, ranked stream must equal
// a drain of the typed ShardedPreparedQuery<D> it wraps. The handle
// prepares unbounded and takes the k budget per stream: one handle opened
// at any budget must decide and answer exactly like a typed query prepared
// at that budget. The text-row
// encoder both binaries share (AppendResultRow) and JsonWriter's doubles
// are swept byte for byte against the printf formats they replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "anyk/explain.h"
#include "anyk/factory.h"
#include "anyk/query_handle.h"
#include "anyk/sharded_query.h"
#include "dioid/max_plus.h"
#include "dioid/max_times.h"
#include "dioid/min_max.h"
#include "dioid/tropical.h"
#include "plan/planner.h"
#include "query/sql.h"
#include "storage/database.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/random.h"
#include "workload/generators.h"

namespace anyk {
namespace {

// Relations R1..R4, ~5-way joins, weights in 0..20 so that every dioid sees
// plenty of equal-weight answers.
const Database& TestDatabase() {
  static const Database db =
      MakePathDatabase(40, 4, 4242, {.weight_min = 0, .weight_max = 20,
                                     .fanout = 5.0});
  return db;
}

struct Case {
  const char* name;
  const char* sql;
  const char* plan;
};

constexpr Case kCases[] = {
    {"path", "SELECT * FROM R1, R2, R3 WHERE R1.A2 = R2.A1 AND R2.A2 = R3.A1",
     "acyclic-tree"},
    {"path_projected_limit",
     "SELECT R3.A2, R1.A1 FROM R1, R2, R3 WHERE R1.A2 = R2.A1 AND "
     "R2.A2 = R3.A1 ORDER BY WEIGHT DESC LIMIT 70",
     "acyclic-tree"},
    {"cycle4",
     "SELECT * FROM R1, R2, R3, R4 WHERE R1.A2 = R2.A1 AND R2.A2 = R3.A1 AND "
     "R3.A2 = R4.A1 AND R4.A2 = R1.A1",
     "cycle-union"},
    {"cycle4_projected",
     "SELECT R2.A1 FROM R1, R2, R3, R4 WHERE R1.A2 = R2.A1 AND "
     "R2.A2 = R3.A1 AND R3.A2 = R4.A1 AND R4.A2 = R1.A1 LIMIT 25",
     "cycle-union"},
    {"triangle",
     "SELECT * FROM R1, R2, R3 WHERE R1.A2 = R2.A1 AND R2.A2 = R3.A1 AND "
     "R3.A2 = R1.A1",
     "generic-join-batch"},
    {"triangle_projected",
     "SELECT R1.A1, R1.A2 FROM R1, R2, R3 WHERE R1.A2 = R2.A1 AND "
     "R2.A2 = R3.A1 AND R3.A2 = R1.A1 ORDER BY WEIGHT DESC",
     "generic-join-batch"},
};

struct Row {
  size_t rank;
  double weight;
  std::vector<Value> values;
  bool operator==(const Row& o) const = default;
};

ShardedQueryOptions ServerStyleOptions(const SqlStatement& stmt,
                                       size_t shards) {
  ShardedQueryOptions opts;
  opts.prepare.enum_opts.k_budget = stmt.limit;
  opts.prepare.auto_plan = true;
  opts.shards = shards;
  return opts;
}

/// Drain a session of a typed query row by row, projected / ranked by hand.
template <typename D>
std::vector<Row> DrainTyped(const ShardedPreparedQuery<D>& pq,
                            const SqlStatement& stmt, Algorithm algo) {
  EnumerationSession<D> sess = pq.NewSession(algo);
  std::vector<Row> out;
  ResultRow<D> row;
  while (sess.NextInto(&row)) {
    Row r{out.size() + 1, static_cast<double>(row.weight), row.assignment};
    if (!stmt.select_vars.empty()) {
      r.values.clear();
      for (uint32_t v : stmt.select_vars) {
        r.values.push_back(row.assignment[v]);
      }
    }
    out.push_back(std::move(r));
  }
  return out;
}

/// The typed reference: what the handle wraps, prepared at the statement's
/// LIMIT.
template <typename D>
std::vector<Row> TypedDrain(const SqlStatement& stmt, size_t shards,
                            Algorithm algo) {
  ShardedQueryOptions opts = ServerStyleOptions(stmt, shards);
  opts.prepare.enum_opts.with_witness = false;
  const ShardedPreparedQuery<D> pq(TestDatabase(), stmt.query, opts);
  return DrainTyped(pq, stmt, algo);
}

/// Drain a handle stream in pages of varying size (1, 2, ..., 7, 1, ...).
std::vector<Row> PagedDrain(const QueryHandle& handle, Algorithm algo,
                            size_t k_budget) {
  std::unique_ptr<PageStream> stream = handle.Open(algo, k_budget);
  std::vector<Row> out;
  const RowFn fn = [&](size_t rank, double weight,
                       const std::vector<Value>& values) {
    out.push_back({rank, weight, values});
  };
  for (size_t page = 1; !stream->done(); page = page % 7 + 1) {
    const size_t got = stream->FetchPage(page, fn);
    EXPECT_EQ(stream->produced(), out.size());
    EXPECT_EQ(got < page, stream->done());
  }
  EXPECT_EQ(stream->FetchPage(5, fn), 0u);  // exhaustion is sticky
  return out;
}

/// Sort every maximal equal-weight run by its values (ranks re-stamped in
/// order), so streams that differ only in tie order compare equal. A
/// stream cut at `limit` loses its last, possibly partial, tie group.
std::vector<Row> Canonical(std::vector<Row> rows, size_t limit) {
  if (limit != 0 && rows.size() == limit) {
    const double last = rows.back().weight;
    while (!rows.empty() && rows.back().weight == last) rows.pop_back();
  }
  size_t i = 0;
  while (i < rows.size()) {
    size_t j = i + 1;
    while (j < rows.size() && rows[j].weight == rows[i].weight) ++j;
    std::sort(rows.begin() + i, rows.begin() + j,
              [](const Row& a, const Row& b) { return a.values < b.values; });
    i = j;
  }
  for (size_t r = 0; r < rows.size(); ++r) rows[r].rank = r + 1;
  return rows;
}

template <typename D>
void ExpectHandleMatchesTyped(const char* dioid) {
  for (const Case& c : kCases) {
    const SqlStatement stmt = ParseSql(c.sql, &TestDatabase());
    for (const size_t shards : {size_t{1}, size_t{3}}) {
      const std::unique_ptr<QueryHandle> handle = MakeQueryHandle(
          TestDatabase(), stmt, dioid, ServerStyleOptions(stmt, shards));
      EXPECT_STREQ(handle->plan_name(), c.plan);
      for (const Algorithm algo :
           {Algorithm::kAuto, Algorithm::kLazy, Algorithm::kRecursive}) {
        SCOPED_TRACE(std::string(dioid) + "/" + c.name + "/S=" +
                     std::to_string(shards) + "/" + AlgorithmName(algo));
        const std::vector<Row> want = TypedDrain<D>(stmt, shards, algo);
        const std::vector<Row> got = PagedDrain(*handle, algo, stmt.limit);
        ASSERT_FALSE(want.empty());
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i].rank, i + 1);
        }
        if (shards == 1) {
          EXPECT_EQ(got, want);
        } else {
          EXPECT_EQ(Canonical(got, stmt.limit), Canonical(want, stmt.limit));
        }
      }
    }
  }
}

TEST(QueryHandleTest, MinSumMatchesTypedDrain) {
  ExpectHandleMatchesTyped<TropicalDioid>("min-sum");
}
TEST(QueryHandleTest, MaxSumMatchesTypedDrain) {
  ExpectHandleMatchesTyped<MaxPlusDioid>("max-sum");
}
TEST(QueryHandleTest, MinMaxMatchesTypedDrain) {
  ExpectHandleMatchesTyped<MinMaxDioid>("min-max");
}
TEST(QueryHandleTest, MaxTimesMatchesTypedDrain) {
  ExpectHandleMatchesTyped<MaxTimesDioid>("max-times");
}

// One unbounded handle per (case, shards, dioid), opened at budgets that
// straddle the planner's heap-arity thresholds (64/65) and the output size:
// decision(k) must be the decision of a ShardedPreparedQuery prepared with
// k_budget = k, and Open(algo, k) must page that query's answers — exactly
// at S = 1, by canonical tie groups at S = 3.
template <typename D>
void ExpectBudgetsMatchPerBudgetPrepare(const char* dioid) {
  for (const Case& c : kCases) {
    const SqlStatement stmt = ParseSql(c.sql, &TestDatabase());
    for (const size_t shards : {size_t{1}, size_t{3}}) {
      const std::unique_ptr<QueryHandle> handle = MakeQueryHandle(
          TestDatabase(), stmt, dioid, ServerStyleOptions(stmt, shards));
      const auto out =
          static_cast<size_t>(handle->decision(0).stats.output_count);
      ASSERT_GT(out, 1u) << c.name;
      for (const size_t k : {size_t{0}, size_t{1}, size_t{2}, size_t{7},
                             size_t{64}, size_t{65}, size_t{1000}, out - 1,
                             out, out + 7}) {
        ShardedQueryOptions opts = ServerStyleOptions(stmt, shards);
        opts.prepare.enum_opts.with_witness = false;
        opts.prepare.enum_opts.k_budget = k;
        const ShardedPreparedQuery<D> pq(TestDatabase(), stmt.query, opts);
        const plan::PlanDecision got = handle->decision(k);
        const plan::PlanDecision& want = pq.decision();
        SCOPED_TRACE(std::string(dioid) + "/" + c.name + "/S=" +
                     std::to_string(shards) + "/k=" + std::to_string(k));
        EXPECT_EQ(got.algorithm, want.algorithm);
        EXPECT_EQ(got.heap_arity, want.heap_arity);
        EXPECT_EQ(got.Summary(), want.Summary());
        EXPECT_EQ(got.est_cost, want.est_cost);
        EXPECT_EQ(got.est_batch, want.est_batch);
        EXPECT_EQ(handle->Explain(k), Explain(pq, want));
        for (const Algorithm algo :
             {Algorithm::kAuto, Algorithm::kLazy, Algorithm::kRecursive}) {
          SCOPED_TRACE(AlgorithmName(algo));
          const std::vector<Row> typed = DrainTyped(pq, stmt, algo);
          const std::vector<Row> paged = PagedDrain(*handle, algo, k);
          ASSERT_EQ(paged.size(), k == 0 ? out : std::min(k, out));
          if (shards == 1) {
            EXPECT_EQ(paged, typed);
          } else {
            EXPECT_EQ(Canonical(paged, k), Canonical(typed, k));
          }
        }
      }
    }
  }
}

TEST(QueryHandleTest, MinSumBudgetsMatchPerBudgetPrepare) {
  ExpectBudgetsMatchPerBudgetPrepare<TropicalDioid>("min-sum");
}
TEST(QueryHandleTest, MaxSumBudgetsMatchPerBudgetPrepare) {
  ExpectBudgetsMatchPerBudgetPrepare<MaxPlusDioid>("max-sum");
}
TEST(QueryHandleTest, MinMaxBudgetsMatchPerBudgetPrepare) {
  ExpectBudgetsMatchPerBudgetPrepare<MinMaxDioid>("min-max");
}
TEST(QueryHandleTest, MaxTimesBudgetsMatchPerBudgetPrepare) {
  ExpectBudgetsMatchPerBudgetPrepare<MaxTimesDioid>("max-times");
}

TEST(QueryHandleTest, UnknownDioidThrowsCheckError) {
  const SqlStatement stmt = ParseSql(kCases[0].sql, &TestDatabase());
  const auto prev = SetCheckFailureHandler(&ThrowingCheckHandler);
  EXPECT_THROW(MakeQueryHandle(TestDatabase(), stmt, "min-plus",
                               ServerStyleOptions(stmt, 1)),
               CheckError);
  SetCheckFailureHandler(prev);
}

TEST(QueryHandleTest, EmptyRowFnStillAdvancesTheStream) {
  const SqlStatement stmt = ParseSql(kCases[0].sql, &TestDatabase());
  const std::unique_ptr<QueryHandle> handle = MakeQueryHandle(
      TestDatabase(), stmt, "min-sum", ServerStyleOptions(stmt, 1));
  const std::vector<Row> all =
      PagedDrain(*handle, Algorithm::kLazy, stmt.limit);
  ASSERT_GT(all.size(), 10u);

  // Skip ten answers without a callback; the next page resumes at rank 11.
  std::unique_ptr<PageStream> stream =
      handle->Open(Algorithm::kLazy, stmt.limit);
  EXPECT_EQ(stream->FetchPage(4, {}), 4u);
  EXPECT_EQ(stream->FetchPage(6, RowFn()), 6u);
  EXPECT_EQ(stream->produced(), 10u);
  std::vector<Row> rest;
  stream->FetchPage(3, [&](size_t rank, double weight,
                           const std::vector<Value>& values) {
    rest.push_back({rank, weight, values});
  });
  ASSERT_EQ(rest.size(), 3u);
  EXPECT_EQ(rest[0], all[10]);
  EXPECT_EQ(rest[2], all[12]);

  // Exhaustion is detected without a callback too.
  while (stream->FetchPage(64, {}) == 64) {
  }
  EXPECT_TRUE(stream->done());
  EXPECT_EQ(stream->produced(), all.size());
}

TEST(QueryHandleTest, ExplainLabelsShardZeroAndShowsTheMergedDecision) {
  const SqlStatement stmt = ParseSql(kCases[0].sql, &TestDatabase());
  const std::unique_ptr<QueryHandle> one = MakeQueryHandle(
      TestDatabase(), stmt, "min-sum", ServerStyleOptions(stmt, 1));
  EXPECT_EQ(one->Explain(stmt.limit).rfind("plan: acyclic join tree", 0), 0u)
      << one->Explain(stmt.limit);

  const std::unique_ptr<QueryHandle> three = MakeQueryHandle(
      TestDatabase(), stmt, "min-sum", ServerStyleOptions(stmt, 3));
  const std::string text = three->Explain(stmt.limit);
  EXPECT_EQ(text.rfind("shards: 3 (plan shape and sizes below are shard 0's",
                       0),
            0u)
      << text;
  EXPECT_NE(text.find("planner: " + three->decision(stmt.limit).Summary() +
                      "\n"),
            std::string::npos)
      << text;
}

TEST(QueryHandleTest, ParseAlgorithmIsCaseInsensitiveAndStrict) {
  EXPECT_EQ(ParseAlgorithm("LaZy"), Algorithm::kLazy);
  EXPECT_EQ(ParseAlgorithm("rec"), Algorithm::kRecursive);
  EXPECT_EQ(ParseAlgorithm("AUTO"), Algorithm::kAuto);
  EXPECT_FALSE(ParseAlgorithm("lazy ").has_value());
  EXPECT_FALSE(ParseAlgorithm("").has_value());
  // Bytes >= 0x80 are negative as char; they must not reach std::tolower
  // as negative ints (undefined behavior).
  EXPECT_FALSE(ParseAlgorithm("l\xc3\xa4zy").has_value());
}

// ---- Number formatting: std::to_chars against the printf it replaced. ----

// Seeded doubles: integers up to 1e9, halves, the %g notation switches
// (1e-5, 1e16, 999999.5 rounding up to 1e+06), -0.0, and random finite
// bit patterns; every value also with its sign flipped.
std::vector<double> SweepDoubles() {
  std::vector<double> sweep = {0.0,  -0.0,       1e-5,     1e-4,  1e16,
                               1e15, 999999.5,   999999.4, 0.1,   123456.5,
                               1e9,  1e-300,     5e-324,   1e300, 2.5e17,
                               std::numeric_limits<double>::max()};
  for (int i = 0; i <= 20000; ++i) sweep.push_back(i);
  for (int i = 0; i < 20000; ++i) sweep.push_back(i + 0.5);
  Rng rng(77);
  for (int i = 0; i < 20000; ++i) {
    const auto n = static_cast<double>(rng.Below(1000000001));
    sweep.push_back(n);
    sweep.push_back(n + 0.5);
    sweep.push_back(n / 1024);
  }
  for (int i = 0; i < 100000; ++i) {
    const double d = std::bit_cast<double>(rng.Next());
    if (std::isfinite(d)) sweep.push_back(d);
  }
  const size_t n = sweep.size();
  for (size_t i = 0; i < n; ++i) sweep.push_back(-sweep[i]);
  return sweep;
}

TEST(ResultRowTest, MatchesPrintfG6ByteForByte) {
  const std::vector<Value> values = {7, -3, std::numeric_limits<Value>::min(),
                                     std::numeric_limits<Value>::max()};
  std::string row;
  char want[160];
  for (double w : SweepDoubles()) {
    row.clear();
    AppendResultRow(&row, 42, w, values);
    std::snprintf(want, sizeof(want), "RESULT,42,%.6g,7,-3,%lld,%lld\n", w,
                  static_cast<long long>(values[2]),
                  static_cast<long long>(values[3]));
    ASSERT_EQ(row, want) << "bits 0x" << std::hex
                         << std::bit_cast<uint64_t>(w);
  }
  row.clear();
  AppendResultRow(&row, std::numeric_limits<size_t>::max(), 1.5, {});
  EXPECT_EQ(row, "RESULT," +
                     std::to_string(std::numeric_limits<size_t>::max()) +
                     ",1.5\n");
}

TEST(ResultRowTest, JsonDoubleMatchesPrintfG12ByteForByte) {
  char want[64];
  for (double w : SweepDoubles()) {
    std::ostringstream got;
    JsonWriter(got).Double(w);
    std::snprintf(want, sizeof(want), "%.12g", w);
    ASSERT_EQ(got.str(), want) << "bits 0x" << std::hex
                               << std::bit_cast<uint64_t>(w);
  }
}

}  // namespace
}  // namespace anyk
