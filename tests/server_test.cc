// Serving-layer integration tests: an in-process anykd on an ephemeral port,
// driven over real sockets by the header-only HttpClient.
//
// The core property is the tentpole's acceptance bar: N concurrent clients,
// each paging a ranked stream through resumable cursors, must see exactly —
// byte for byte — the RESULT rows a serial RankedQuery drain of the same
// (query, algorithm, dioid) produces. Enumeration is deterministic per
// algorithm, so the pages concatenate to the serial transcript regardless of
// page size or interleaving. This test is tier1 and therefore also runs
// under the TSan CI job, which is what checks the server's locking for real.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "anyk/factory.h"
#include "anyk/ranked_query.h"
#include "anyk/sharded_query.h"
#include "dioid/max_plus.h"
#include "dioid/tropical.h"
#include "plan/cost_model.h"
#include "query/sql.h"
#include "server/http.h"
#include "server/http_client.h"
#include "server/server.h"
#include "storage/database.h"
#include "workload/generators.h"

namespace anyk {
namespace {

using server::AnykServer;
using server::ClientResponse;
using server::HttpClient;
using server::ServerOptions;

// Relations R1..R4 with ~6-way joins; used as a path (R1-R2-R3), as a
// 4-cycle (cycle-union plan) and with DESC/projection variants.
Database TestDatabase() { return MakePathDatabase(60, 4, 707, {.fanout = 6.0}); }

constexpr const char* kPathSql =
    "SELECT * FROM R1, R2, R3 "
    "WHERE R1.A2 = R2.A1 AND R2.A2 = R3.A1 ORDER BY WEIGHT ASC";
constexpr const char* kCycleSql =
    "SELECT * FROM R1, R2, R3, R4 "
    "WHERE R1.A2 = R2.A1 AND R2.A2 = R3.A1 AND R3.A2 = R4.A1 "
    "AND R4.A2 = R1.A1 ORDER BY WEIGHT ASC";
constexpr const char* kProjectedDescSql =
    "SELECT R1.A1, R2.A2 FROM R1, R2 WHERE R1.A2 = R2.A1 "
    "ORDER BY WEIGHT DESC LIMIT 40";

/// The serial ground truth: drain a session of the same algorithm over a
/// PreparedQuery configured exactly like the server's QueryHandle
/// (auto_plan topology, LIMIT as the budget) and format every answer
/// exactly like the server's text pages.
template <typename D>
std::string SerialDrainText(const Database& db, const std::string& sql,
                            Algorithm algo) {
  const SqlStatement stmt = ParseSql(sql, &db);
  typename PreparedQuery<D>::Options qopts;
  qopts.enum_opts.with_witness = false;
  qopts.enum_opts.k_budget = stmt.limit;
  qopts.auto_plan = true;
  const PreparedQuery<D> pq(db, stmt.query, qopts);
  EnumerationSession<D> sess = pq.NewSession(algo);
  std::ostringstream out;
  char weight_buf[32];
  size_t rank = 0;
  size_t produced = 0;
  ResultRow<D> row;
  while ((stmt.limit == 0 || produced < stmt.limit) &&
         sess.NextInto(&row)) {
    ++produced;
    std::snprintf(weight_buf, sizeof(weight_buf), "%.6g",
                  static_cast<double>(row.weight));
    out << "RESULT," << ++rank << "," << weight_buf;
    if (stmt.select_vars.empty()) {
      for (Value v : row.assignment) out << "," << v;
    } else {
      for (uint32_t var : stmt.select_vars) out << "," << row.assignment[var];
    }
    out << "\n";
  }
  return out.str();
}

/// Everything RESULT from a response body (pages also carry CACHE / PLAN /
/// CURSOR / DONE lines).
std::string ResultLines(const std::string& body) {
  std::istringstream in(body);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 7, "RESULT,") == 0) out << line << "\n";
  }
  return out.str();
}

std::string LineWithPrefix(const std::string& body, const std::string& prefix) {
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) return line;
  }
  return "";
}

std::string CursorOf(const std::string& body) {
  const std::string line = LineWithPrefix(body, "CURSOR,");
  return line.empty() ? "" : line.substr(7);
}

/// One paged drain: the first page's CACHE line and every RESULT line.
struct Drained {
  std::string cache;
  std::string results;
};

/// Page a query to exhaustion: /v1/query + /v1/next until DONE.
Drained PagedDrainWithCache(int port, const std::string& sql,
                            const std::string& algorithm, size_t page_k) {
  HttpClient client(port);
  ClientResponse resp = client.Get(
      "/v1/query?sql=" + HttpClient::Encode(sql) +
      "&algorithm=" + algorithm + "&k=" + std::to_string(page_k));
  EXPECT_EQ(resp.status, 200) << resp.body;
  Drained out{LineWithPrefix(resp.body, "CACHE,"), ResultLines(resp.body)};
  std::string cursor = CursorOf(resp.body);
  while (!cursor.empty()) {
    resp = client.Get("/v1/next?cursor=" + cursor +
                      "&k=" + std::to_string(page_k));
    EXPECT_EQ(resp.status, 200) << resp.body;
    out.results += ResultLines(resp.body);
    cursor = CursorOf(resp.body);
  }
  return out;
}

/// The concatenated RESULT lines of a paged drain.
std::string PagedDrain(int port, const std::string& sql,
                       const std::string& algorithm, size_t page_k) {
  return PagedDrainWithCache(port, sql, algorithm, page_k).results;
}

TEST(ServerTest, ConcurrentPagedDrainsMatchSerialByteForByte) {
  const Database db = TestDatabase();
  AnykServer srv(db, ServerOptions{});
  srv.Start();
  const int port = srv.bound_port();

  // Four clients, mixed algorithms and plans (one exercises the
  // cycle-union plan), deliberately tiny and unequal page sizes so pages
  // interleave heavily across the worker threads.
  struct Case {
    const char* sql;
    const char* algorithm;
    Algorithm algo;
    size_t page_k;
    bool desc;
  };
  const std::vector<Case> cases = {
      {kPathSql, "lazy", Algorithm::kLazy, 7, false},
      {kPathSql, "eager", Algorithm::kEager, 13, false},
      {kCycleSql, "take2", Algorithm::kTake2, 5, false},
      {kProjectedDescSql, "recursive", Algorithm::kRecursive, 9, true},
  };

  std::vector<std::string> expected(cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    expected[i] = cases[i].desc
                      ? SerialDrainText<MaxPlusDioid>(db, cases[i].sql,
                                                      cases[i].algo)
                      : SerialDrainText<TropicalDioid>(db, cases[i].sql,
                                                       cases[i].algo);
    ASSERT_FALSE(expected[i].empty()) << "degenerate test instance " << i;
  }

  std::vector<std::string> actual(cases.size());
  std::vector<std::thread> clients;
  clients.reserve(cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    clients.emplace_back([&, i] {
      actual[i] =
          PagedDrain(port, cases[i].sql, cases[i].algorithm, cases[i].page_k);
    });
  }
  for (std::thread& t : clients) t.join();

  for (size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "case " << i;
  }
  srv.Stop();
}

TEST(ServerTest, CacheHitSkipsRePreparationAndNormalizesKeys) {
  ServerOptions opts;
  AnykServer srv(TestDatabase(), opts);
  srv.Start();
  HttpClient client(srv.bound_port());

  ClientResponse first = client.Get("/v1/query?sql=" +
                                    HttpClient::Encode(kPathSql) + "&k=3");
  EXPECT_EQ(first.status, 200);
  EXPECT_EQ(LineWithPrefix(first.body, "CACHE,"), "CACHE,miss");

  // Same query, scrambled spelling: lowercase keywords, extra whitespace,
  // reordered conjuncts. NormalizeSql must fold it onto the cached entry.
  const std::string scrambled =
      "select  *  from R1, R2, R3 where R2.a2 = R3.a1  and  R1.a2 = R2.a1 "
      "order by weight asc";
  ClientResponse second = client.Get("/v1/query?sql=" +
                                     HttpClient::Encode(scrambled) + "&k=3");
  EXPECT_EQ(second.status, 200);
  EXPECT_EQ(LineWithPrefix(second.body, "CACHE,"), "CACHE,hit");
  EXPECT_EQ(ResultLines(first.body), ResultLines(second.body));
  srv.Stop();
}

// Preparation does not depend on the LIMIT, so every LIMIT of one join
// shares one cache entry and each cursor runs under its own LIMIT. The
// oracle, SerialDrainText, still prepares with k_budget = LIMIT: the pages
// must be exactly what a per-LIMIT prepare would serve.
TEST(ServerTest, LimitVariantsShareOnePreparedEntry) {
  const Database db = TestDatabase();
  AnykServer srv(db, ServerOptions{});
  srv.Start();
  const int port = srv.bound_port();

  const std::string base = kPathSql;
  const std::vector<std::string> variants = {
      base, base + " LIMIT 3", base + " LIMIT 70",
      "select * from R1, R2, R3 where R2.a2 = R3.a1 and R1.a2 = R2.a1 "
      "order by weight limit 005;"};
  const std::vector<size_t> limits = {0, 3, 70, 5};
  for (size_t i = 0; i < variants.size(); ++i) {
    const Drained got = PagedDrainWithCache(port, variants[i], "auto", 7);
    EXPECT_EQ(got.cache, i == 0 ? "CACHE,miss" : "CACHE,hit") << variants[i];
    const std::string want =
        SerialDrainText<TropicalDioid>(db, variants[i], Algorithm::kAuto);
    EXPECT_EQ(got.results, want) << variants[i];
    if (limits[i] > 0) {
      EXPECT_EQ(std::count(want.begin(), want.end(), '\n'),
                static_cast<std::ptrdiff_t>(limits[i]));
    }
  }
  // An explicit algorithm shares the entry too.
  const std::string lazy = base + " LIMIT 9";
  const Drained lazy_got = PagedDrainWithCache(port, lazy, "lazy", 4);
  EXPECT_EQ(lazy_got.cache, "CACHE,hit");
  EXPECT_EQ(lazy_got.results,
            SerialDrainText<TropicalDioid>(db, lazy, Algorithm::kLazy));

  // The dioid is part of the key: the DESC variant prepares its own entry.
  const std::string desc =
      "SELECT * FROM R1, R2, R3 WHERE R1.A2 = R2.A1 AND R2.A2 = R3.A1 "
      "ORDER BY WEIGHT DESC LIMIT 3";
  const Drained desc_got = PagedDrainWithCache(port, desc, "auto", 2);
  EXPECT_EQ(desc_got.cache, "CACHE,miss");
  EXPECT_EQ(desc_got.results,
            SerialDrainText<MaxPlusDioid>(db, desc, Algorithm::kAuto));

  // The one place a LIMIT is read: past size_t it is a SQL error (400 with
  // the token's offset), and it prepares nothing.
  HttpClient client(port);
  const ClientResponse huge = client.Get(
      "/v1/query?sql=" + HttpClient::Encode(base + " LIMIT 99999999999999999999"));
  EXPECT_EQ(huge.status, 400) << huge.body;
  EXPECT_NE(huge.body.find("LIMIT expects a positive integer up to "
                           "18446744073709551615"),
            std::string::npos)
      << huge.body;

  const std::string stats = client.Get("/statz").body;
  EXPECT_NE(stats.find("\"size\": 2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"misses\": 2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"hits\": 4"), std::string::npos) << stats;
  srv.Stop();
}

TEST(ServerTest, ConcurrentLimitsOfAColdStatementPrepareOnce) {
  const Database db = TestDatabase();
  AnykServer srv(db, ServerOptions{});
  srv.Start();
  const int port = srv.bound_port();

  const std::string base = kCycleSql;
  const std::vector<std::string> variants = {
      base + " LIMIT 2", base, base + " LIMIT 50", base + " LIMIT 333"};
  std::vector<std::string> expected(variants.size());
  for (size_t i = 0; i < variants.size(); ++i) {
    expected[i] =
        SerialDrainText<TropicalDioid>(db, variants[i], Algorithm::kAuto);
  }
  std::vector<Drained> actual(variants.size());
  std::vector<std::thread> clients;
  clients.reserve(variants.size());
  for (size_t i = 0; i < variants.size(); ++i) {
    clients.emplace_back([&, i] {
      actual[i] = PagedDrainWithCache(port, variants[i], "auto", 5 + i);
    });
  }
  for (std::thread& t : clients) t.join();

  size_t misses = 0;
  for (size_t i = 0; i < variants.size(); ++i) {
    EXPECT_EQ(actual[i].results, expected[i]) << variants[i];
    EXPECT_TRUE(actual[i].cache == "CACHE,miss" ||
                actual[i].cache == "CACHE,hit" ||
                actual[i].cache == "CACHE,coalesced")
        << actual[i].cache;
    misses += actual[i].cache == "CACHE,miss";
  }
  EXPECT_EQ(misses, 1u);
  HttpClient client(port);
  const std::string stats = client.Get("/statz").body;
  EXPECT_NE(stats.find("\"misses\": 1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"size\": 1"), std::string::npos) << stats;
  srv.Stop();
}

TEST(ServerTest, CursorSurvivesIdleAndEviction) {
  ServerOptions opts;
  opts.cache_capacity = 1;  // every distinct query evicts the previous one
  AnykServer srv(TestDatabase(), opts);
  srv.Start();
  HttpClient client(srv.bound_port());

  ClientResponse resp = client.Get(
      "/v1/query?sql=" + HttpClient::Encode(kPathSql) + "&algorithm=lazy&k=4");
  ASSERT_EQ(resp.status, 200) << resp.body;
  std::string results = ResultLines(resp.body);
  std::string cursor = CursorOf(resp.body);
  ASSERT_FALSE(cursor.empty());

  // Evict the path query's cache entry from under the open cursor.
  ClientResponse evictor = client.Get(
      "/v1/query?sql=" + HttpClient::Encode(kCycleSql) + "&k=2000");
  ASSERT_EQ(evictor.status, 200) << evictor.body;

  // An idle pause, then resume: the cursor pins the evicted entry, so pages
  // keep flowing and still byte-match the serial drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  while (!cursor.empty()) {
    resp = client.Get("/v1/next?cursor=" + cursor + "&k=64");
    ASSERT_EQ(resp.status, 200) << resp.body;
    results += ResultLines(resp.body);
    cursor = CursorOf(resp.body);
  }
  EXPECT_EQ(results, SerialDrainText<TropicalDioid>(TestDatabase(), kPathSql,
                                                    Algorithm::kLazy));

  // Re-asking for the evicted query re-prepares (miss, not hit).
  resp = client.Get("/v1/query?sql=" + HttpClient::Encode(kPathSql) + "&k=1");
  EXPECT_EQ(LineWithPrefix(resp.body, "CACHE,"), "CACHE,miss");
  srv.Stop();
}

TEST(ServerTest, ExpiredCursorAnswers410) {
  ServerOptions opts;
  opts.cursor_ttl_seconds = 0.05;
  AnykServer srv(TestDatabase(), opts);
  srv.Start();
  HttpClient client(srv.bound_port());

  ClientResponse resp = client.Get(
      "/v1/query?sql=" + HttpClient::Encode(kPathSql) + "&k=2");
  ASSERT_EQ(resp.status, 200);
  const std::string cursor = CursorOf(resp.body);
  ASSERT_FALSE(cursor.empty());

  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  // Any request triggers the sweep; the dead cursor then answers 410.
  client.Get("/healthz");
  resp = client.Get("/v1/next?cursor=" + cursor);
  EXPECT_EQ(resp.status, 410) << resp.body;

  // Unknown ids and double-closes are 410 too.
  EXPECT_EQ(client.Get("/v1/next?cursor=c999").status, 410);
  EXPECT_EQ(client.Get("/v1/close?cursor=c999").status, 410);
  srv.Stop();
}

TEST(ServerTest, AdmissionControlRejectsCleanly) {
  ServerOptions opts;
  opts.max_sessions = 2;
  AnykServer srv(TestDatabase(), opts);
  srv.Start();
  HttpClient client(srv.bound_port());

  // Malformed SQL is a 400 (the throwing check handler), not a dead server.
  EXPECT_EQ(client.Get("/v1/query?sql=" +
                       HttpClient::Encode(
                           "SELECT * FROM R1 ORDER BY WEIGHT ASC garbage"))
                .status,
            400);
  EXPECT_EQ(client.Get("/healthz").status, 200);

  // k=0 is the EnumOptions sentinel for "unbounded" and must not be
  // accepted as a page size anywhere.
  EXPECT_EQ(client.Get("/v1/query?sql=" + HttpClient::Encode(kPathSql) +
                       "&k=0").status, 400);
  const std::string open1 = client.Get(
      "/v1/query?sql=" + HttpClient::Encode(kPathSql) + "&k=1").body;
  const std::string c1 = CursorOf(open1);
  ASSERT_FALSE(c1.empty());
  EXPECT_EQ(client.Get("/v1/next?cursor=" + c1 + "&k=0").status, 400);

  // Oversized pages are bounded by max_page_k.
  EXPECT_EQ(client.Get("/v1/query?sql=" + HttpClient::Encode(kPathSql) +
                       "&k=1000000").status, 400);

  // Session gauge: two open cursors fill max_sessions; the third query gets
  // 429 until one closes.
  const std::string open2 = client.Get(
      "/v1/query?sql=" + HttpClient::Encode(kCycleSql) + "&k=1").body;
  const std::string c2 = CursorOf(open2);
  ASSERT_FALSE(c2.empty());
  EXPECT_EQ(client.Get("/v1/query?sql=" +
                       HttpClient::Encode(kProjectedDescSql) + "&k=1").status,
            429);
  EXPECT_EQ(client.Get("/v1/close?cursor=" + c1).status, 200);
  EXPECT_EQ(client.Get("/v1/query?sql=" +
                       HttpClient::Encode(kProjectedDescSql) + "&k=1").status,
            200);
  srv.Stop();
}

TEST(ServerTest, StatzAndFlush) {
  ServerOptions opts;
  AnykServer srv(TestDatabase(), opts);
  srv.Start();
  HttpClient client(srv.bound_port());

  client.Get("/v1/query?sql=" + HttpClient::Encode(kPathSql) + "&k=1");
  client.Get("/v1/query?sql=" + HttpClient::Encode(kPathSql) + "&k=1");
  ClientResponse stats = client.Get("/statz");
  EXPECT_EQ(stats.status, 200);
  EXPECT_NE(stats.body.find("\"hits\": 1"), std::string::npos) << stats.body;
  EXPECT_NE(stats.body.find("\"misses\": 1"), std::string::npos) << stats.body;

  // Flush bumps the epoch: the same SQL now misses (new cache key).
  EXPECT_EQ(client.Get("/v1/flush").status, 405);  // GET is rejected
  EXPECT_EQ(client.Post("/v1/flush", "").status, 200);
  ClientResponse after = client.Get(
      "/v1/query?sql=" + HttpClient::Encode(kPathSql) + "&k=1");
  EXPECT_EQ(LineWithPrefix(after.body, "CACHE,"), "CACHE,miss");
  srv.Stop();
}

TEST(ServerTest, AutoDefaultMatchesSerialAutoDrain) {
  // `auto` is the server default: a request without an algorithm parameter
  // runs the prepare-time planner decision, and its paged stream must
  // byte-match a serial auto drain (the decision is cached in the entry, so
  // every page and every client sees the same strategy).
  const Database db = TestDatabase();
  AnykServer srv(db, ServerOptions{});
  srv.Start();
  const int port = srv.bound_port();

  HttpClient client(port);
  ClientResponse untyped = client.Get(
      "/v1/query?sql=" + HttpClient::Encode(kPathSql) + "&k=5");
  ASSERT_EQ(untyped.status, 200) << untyped.body;
  EXPECT_FALSE(ResultLines(untyped.body).empty());

  const std::string paged = PagedDrain(port, kPathSql, "auto", 11);
  EXPECT_EQ(paged, SerialDrainText<TropicalDioid>(db, kPathSql,
                                                  Algorithm::kAuto));

  // /statz lists the cached plan decisions (plan + resolved algorithm).
  ClientResponse stats = client.Get("/statz");
  ASSERT_EQ(stats.status, 200);
  EXPECT_NE(stats.body.find("\"planner\""), std::string::npos) << stats.body;
  EXPECT_NE(stats.body.find("\"prepared\""), std::string::npos) << stats.body;
  EXPECT_NE(stats.body.find("\"plan\": \"acyclic-tree\""), std::string::npos)
      << stats.body;
  EXPECT_NE(stats.body.find("\"version\": " +
                            std::to_string(plan::kPlannerVersion)),
            std::string::npos)
      << stats.body;
  srv.Stop();
}

// A --shards S server: every page request merges S per-shard streams. The
// ground truth is a serial in-process drain of a ShardedPreparedQuery built
// exactly like the server's TypedHandle (same shard count, same serial
// union merge), which is byte-identical by construction — comparing against
// an UNsharded drain would be flaky, since the integer-weight fixture ties
// constantly and shard-local row ids reorder equal-weight answers.
template <typename D>
std::string SerialShardedDrainText(const Database& db, const std::string& sql,
                                   Algorithm algo, size_t shards) {
  const SqlStatement stmt = ParseSql(sql, &db);
  typename ShardedPreparedQuery<D>::Options sopts;
  sopts.prepare.enum_opts.with_witness = false;
  sopts.prepare.enum_opts.k_budget = stmt.limit;
  sopts.prepare.auto_plan = true;
  sopts.shards = shards;
  const ShardedPreparedQuery<D> pq(db, stmt.query, sopts);
  EnumerationSession<D> sess = pq.NewSession(algo);
  std::ostringstream out;
  char weight_buf[32];
  size_t rank = 0;
  size_t produced = 0;
  ResultRow<D> row;
  while ((stmt.limit == 0 || produced < stmt.limit) && sess.NextInto(&row)) {
    ++produced;
    std::snprintf(weight_buf, sizeof(weight_buf), "%.6g",
                  static_cast<double>(row.weight));
    out << "RESULT," << ++rank << "," << weight_buf;
    if (stmt.select_vars.empty()) {
      for (Value v : row.assignment) out << "," << v;
    } else {
      for (uint32_t var : stmt.select_vars) out << "," << row.assignment[var];
    }
    out << "\n";
  }
  return out.str();
}

TEST(ServerTest, ShardedServerPagedDrainsMatchSerialShardedDrains) {
  const Database db = TestDatabase();
  ServerOptions opts;
  opts.shards = 3;
  AnykServer srv(db, opts);
  srv.Start();
  const int port = srv.bound_port();

  // Concurrent sharded clients, mixed algorithms and plans (path + cycle),
  // small unequal pages so the merged cursors interleave across workers.
  struct Case {
    const char* sql;
    const char* algorithm;
    Algorithm algo;
    size_t page_k;
    bool desc;
  };
  const std::vector<Case> cases = {
      {kPathSql, "lazy", Algorithm::kLazy, 7, false},
      {kPathSql, "auto", Algorithm::kAuto, 13, false},
      {kCycleSql, "take2", Algorithm::kTake2, 5, false},
      {kProjectedDescSql, "eager", Algorithm::kEager, 9, true},
  };
  std::vector<std::string> expected(cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    expected[i] =
        cases[i].desc
            ? SerialShardedDrainText<MaxPlusDioid>(db, cases[i].sql,
                                                   cases[i].algo, opts.shards)
            : SerialShardedDrainText<TropicalDioid>(db, cases[i].sql,
                                                    cases[i].algo,
                                                    opts.shards);
    ASSERT_FALSE(expected[i].empty()) << "degenerate test instance " << i;
  }

  std::vector<std::string> actual(cases.size());
  std::vector<std::thread> clients;
  clients.reserve(cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    clients.emplace_back([&, i] {
      actual[i] =
          PagedDrain(port, cases[i].sql, cases[i].algorithm, cases[i].page_k);
    });
  }
  for (std::thread& t : clients) t.join();
  for (size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "case " << i;
  }

  // /statz reports the server-wide shard count.
  HttpClient client(port);
  ClientResponse stats = client.Get("/statz");
  ASSERT_EQ(stats.status, 200);
  EXPECT_NE(stats.body.find("\"shards\": 3"), std::string::npos)
      << stats.body;
  srv.Stop();
}

TEST(ServerTest, CacheKeyBindsPlannerVersion) {
  // The prepared-query cache key must separate planner versions: after a
  // cost-model bump (plan::kPlannerVersion), a warm cache can never serve a
  // plan decided by the old model — the new key misses by construction.
  using server::QueryCacheKey;
  const std::string sql = "SELECT * FROM R1 ORDER BY WEIGHT ASC";
  EXPECT_EQ(QueryCacheKey("min-sum", 1, 0, 1, sql),
            QueryCacheKey("min-sum", 1, 0, 1, sql));
  EXPECT_NE(QueryCacheKey("min-sum", 1, 0, 1, sql),
            QueryCacheKey("min-sum", 2, 0, 1, sql));
  EXPECT_NE(QueryCacheKey("min-sum", 1, 0, 1, sql),
            QueryCacheKey("min-sum", 1, 1, 1, sql));
  EXPECT_NE(QueryCacheKey("min-sum", 1, 0, 1, sql),
            QueryCacheKey("max-sum", 1, 0, 1, sql));
  // The shard count is a key component: a server restarted with a different
  // --shards must never revive the other layout's prepared state.
  EXPECT_NE(QueryCacheKey("min-sum", 1, 0, 1, sql),
            QueryCacheKey("min-sum", 1, 0, 4, sql));
  // Components must not bleed into each other across the separator.
  EXPECT_NE(QueryCacheKey("min-sum", 12, 3, 1, sql),
            QueryCacheKey("min-sum", 1, 23, 1, sql));
  EXPECT_NE(QueryCacheKey("min-sum", 1, 12, 3, sql),
            QueryCacheKey("min-sum", 1, 1, 23, sql));
  // The default options track the compiled-in model version, unsharded.
  EXPECT_EQ(ServerOptions{}.planner_version, plan::kPlannerVersion);
  EXPECT_EQ(ServerOptions{}.shards, 1u);
}

TEST(ServerTest, JsonFormatPagesParse) {
  AnykServer srv(TestDatabase(), ServerOptions{});
  srv.Start();
  HttpClient client(srv.bound_port());
  ClientResponse resp = client.Get(
      "/v1/query?sql=" + HttpClient::Encode(kPathSql) + "&k=3&format=json");
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"results\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"cursor\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"cache\": \"miss\""), std::string::npos)
      << resp.body;
  srv.Stop();
}

/// A bare client socket on 127.0.0.1:port, for requests HttpClient would
/// not send (partial ones); closed on destruction.
class RawClient {
 public:
  explicit RawClient(int port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
  }
  ~RawClient() { Close(); }
  RawClient(const RawClient&) = delete;
  RawClient& operator=(const RawClient&) = delete;

  void Send(const std::string& bytes) {
    EXPECT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }
  /// Everything received until the server closes, or until `timeout_ms`
  /// passes without a byte.
  std::string ReadAll(int timeout_ms) {
    timeval tv{timeout_ms / 1000, (timeout_ms % 1000) * 1000};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    std::string out;
    char chunk[4096];
    ssize_t n;
    while ((n = ::recv(fd_, chunk, sizeof(chunk), 0)) > 0) {
      out.append(chunk, static_cast<size_t>(n));
    }
    return out;
  }
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_;
};

TEST(ServerTest, StalledRequestTimesOutAndDoesNotBlockStop) {
  // One worker and a client that sends a request line and goes silent:
  // within the request deadline the worker gives up on it with a 408 and
  // serves the next client, and Stop() returns while a stalled client is
  // still connected.
  using server::kRequestDeadlineMs;
  constexpr int kSlackMs = 3000;
  ServerOptions opts;
  opts.workers = 1;
  AnykServer srv(TestDatabase(), opts);
  srv.Start();
  const int port = srv.bound_port();

  RawClient stalled(port);
  stalled.Send("GET /healthz HTTP/1.1\r\n");
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const auto asked = std::chrono::steady_clock::now();
  RawClient healthz(port);
  healthz.Send("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
  const std::string answer = healthz.ReadAll(kRequestDeadlineMs + kSlackMs);
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - asked);
  EXPECT_EQ(answer.rfind("HTTP/1.1 200 ", 0), 0u)
      << "a stalled client kept the only worker: " << answer;
  EXPECT_LT(waited.count(), kRequestDeadlineMs + kSlackMs);
  const std::string timed_out = stalled.ReadAll(1000);
  EXPECT_EQ(timed_out.rfind("HTTP/1.1 408 ", 0), 0u) << timed_out;
  EXPECT_NE(timed_out.find("Connection: close\r\n"), std::string::npos);

  // A second stalled client holds the worker inside a request read; the
  // watchdog gives Stop() 1 s, then frees the clients so a Stop() stuck on
  // them still returns and the failure is reported, not hung.
  RawClient stalled_again(port);
  stalled_again.Send("GET /healthz HTTP/1.1\r\n");
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    srv.Stop();
    stopped = true;
  });
  const auto stop_asked = std::chrono::steady_clock::now();
  while (!stopped && std::chrono::steady_clock::now() - stop_asked <
                         std::chrono::seconds(1)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(stopped) << "Stop() waited on a stalled client";
  stalled_again.Close();
  stalled.Close();
  healthz.Close();
  stopper.join();
}

}  // namespace
}  // namespace anyk
