// Sharded execution layer tests: the pinned ShardHash vector (shard
// assignment must be stable across platforms and releases — cache keys and
// witnesses depend on it), the partition/broadcast rules of ShardedDatabase,
// row conservation, empty shards, the S == 1 passthrough, and sharded-vs-
// unsharded drain equivalence including the parallel drain and kAuto's
// cross-shard decision.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "anyk/factory.h"
#include "anyk/shard_drain.h"
#include "anyk/sharded_query.h"
#include "dioid/tropical.h"
#include "query/cq.h"
#include "storage/database.h"
#include "storage/shard_hash.h"
#include "storage/sharded_database.h"
#include "util/thread_pool.h"

namespace anyk {
namespace {

using D = TropicalDioid;

// ---------------------------------------------------------------------------
// ShardHash: the pinned algorithm. These values were computed once from the
// specification in storage/shard_hash.h and MUST NEVER CHANGE — a mismatch
// means shard assignment (and every cache key embedding a shard count)
// silently moved. If you intentionally change the algorithm, bump the server
// cache epoch and regenerate this vector.
// ---------------------------------------------------------------------------

TEST(ShardHashTest, PinnedKnownHashVector) {
  struct Case {
    std::vector<Value> key;
    uint64_t hash;
  };
  const std::vector<Case> vector = {
      {{}, 0x8C2E4A15D3F7B961ULL},
      {{0}, 0xBCA976AA7B3317F2ULL},
      {{1}, 0x418CF5B9002245BAULL},
      {{2}, 0x5510C142708B9B9BULL},
      {{-1}, 0xFA3FA6CDEF97BB5AULL},
      {{42}, 0x8C92F96F1BE98219ULL},
      {{1, 2}, 0xE28C11BAF4F52DF7ULL},
      {{2, 1}, 0x5686F4E5D9127298ULL},
      {{0, 0, 0}, 0x7DC358E358129D3DULL},
      {{123456789, -987654321}, 0xB07CFBE074A9E444ULL},
      {{int64_t{1} << 62}, 0xEA906A7104AC5BDCULL},
  };
  for (const Case& c : vector) {
    EXPECT_EQ(ShardHash(std::span<const Value>(c.key)), c.hash)
        << "key size " << c.key.size();
  }
  // The single-value overload is the span of one.
  EXPECT_EQ(ShardHash(Value{42}), 0x8C92F96F1BE98219ULL);
  // Order sensitivity: [1,2] and [2,1] must differ.
  EXPECT_NE(ShardHash(std::span<const Value>(vector[6].key)),
            ShardHash(std::span<const Value>(vector[7].key)));
  // And ShardHash is deliberately NOT KeyHash (independent tuning).
  EXPECT_NE(ShardHash(Value{42}), static_cast<uint64_t>(KeyHash{}(Key{42})));
}

TEST(ShardHashTest, ShardOfRangeReduction) {
  // Pinned spot checks of the multiply-shift reduction.
  EXPECT_EQ(ShardOf(ShardHash(Value{42}), 4), 2u);
  EXPECT_EQ(ShardOf(ShardHash(Value{42}), 7), 3u);
  for (Value v = -100; v < 100; ++v) {
    EXPECT_EQ(ShardOf(ShardHash(v), 1), 0u);
    for (size_t s : {2u, 4u, 7u, 8u}) {
      EXPECT_LT(ShardOf(ShardHash(v), s), s);
    }
  }
}

// ---------------------------------------------------------------------------
// ShardedDatabase partition rules
// ---------------------------------------------------------------------------

// R1(x1,x2), R2(x2,x3) with deterministic pseudo-random values.
Database MakePathDb(size_t rows, Value domain, uint64_t seed) {
  Database db;
  Relation& r1 = db.AddRelation("R1", 2);
  Relation& r2 = db.AddRelation("R2", 2);
  uint64_t state = seed;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (size_t i = 0; i < rows; ++i) {
    r1.Add({static_cast<Value>(next() % domain),
            static_cast<Value>(next() % domain)},
           // Dyadic weights: sums are exact in binary, so re-rooted plans
           // (different add order) produce bit-identical totals.
           static_cast<double>(next() % 1000) / 8.0);
    r2.Add({static_cast<Value>(next() % domain),
            static_cast<Value>(next() % domain)},
           // Dyadic weights: sums are exact in binary, so re-rooted plans
           // (different add order) produce bit-identical totals.
           static_cast<double>(next() % 1000) / 8.0);
  }
  return db;
}

TEST(ShardedDatabaseTest, PathQueryPartitionsOnSharedVariable) {
  Database db = MakePathDb(200, 16, 1);
  auto q = ConjunctiveQuery::Path(2);  // R1(x1,x2), R2(x2,x3)
  ShardedDatabase sharded(db, q, 4);
  // x2 (id 1) touches both atoms: both relations partition, R1 on column 1,
  // R2 on column 0.
  EXPECT_EQ(sharded.partition_var(), 1);
  EXPECT_FALSE(sharded.degenerate());
  ASSERT_EQ(sharded.rules().size(), 2u);
  EXPECT_EQ(sharded.rules()[0].relation, "R1");
  EXPECT_EQ(sharded.rules()[0].partition_col, 1);
  EXPECT_EQ(sharded.rules()[1].relation, "R2");
  EXPECT_EQ(sharded.rules()[1].partition_col, 0);
  EXPECT_TRUE(sharded.IsPartitioned("R1"));
  EXPECT_TRUE(sharded.IsPartitioned("R2"));
}

TEST(ShardedDatabaseTest, RowsConservedAndRoutedByPinnedHash) {
  const size_t kShards = 4;
  Database db = MakePathDb(500, 32, 7);
  auto q = ConjunctiveQuery::Path(2);
  ShardedDatabase sharded(db, q, kShards);
  size_t total = 0;
  double weight_sum = 0;
  for (size_t s = 0; s < kShards; ++s) {
    const Relation& rel = sharded.shard(s).Get("R1");
    total += rel.NumRows();
    for (size_t r = 0; r < rel.NumRows(); ++r) {
      // Every row sits in the shard its partition column hashes to.
      EXPECT_EQ(ShardOf(ShardHash(rel.At(r, 1)), kShards), s);
      weight_sum += rel.Weight(r);
    }
  }
  EXPECT_EQ(total, db.Get("R1").NumRows());
  double orig_sum = 0;
  for (double w : db.Get("R1").Weights()) orig_sum += w;
  EXPECT_NEAR(weight_sum, orig_sum, 1e-9);
}

TEST(ShardedDatabaseTest, StarQueryBroadcastsLeafOnlyRelations) {
  // R1(x1,x2), R2(x2,x3), R3(x3,x4): no variable reaches all three atoms.
  // x2 covers R1+R2; R3 must be broadcast into every shard.
  Database db;
  db.AddRelation("R1", 2);
  db.AddRelation("R2", 2);
  db.AddRelation("R3", 2);
  for (Value i = 0; i < 30; ++i) {
    db.GetMutable("R1").Add({i, i % 5}, 1.0 + static_cast<double>(i));
    db.GetMutable("R2").Add({i % 5, i}, 2.0);
    db.GetMutable("R3").Add({i, i + 1}, 3.0);
  }
  auto q = ConjunctiveQuery::Path(3);
  ShardedDatabase sharded(db, q, 3);
  EXPECT_FALSE(sharded.degenerate());
  EXPECT_FALSE(sharded.IsPartitioned("R1") && sharded.IsPartitioned("R2") &&
               sharded.IsPartitioned("R3"));
  // The broadcast relation is fully replicated.
  for (const ShardRule& rule : sharded.rules()) {
    if (rule.partitioned()) continue;
    for (size_t s = 0; s < sharded.NumShards(); ++s) {
      EXPECT_EQ(sharded.shard(s).Get(rule.relation).NumRows(),
                db.Get(rule.relation).NumRows())
          << rule.relation << " shard " << s;
    }
  }
}

TEST(ShardedDatabaseTest, BroadcastRelationsAreBorrowedFromTheSource) {
  // R1(x1,x2), R2(x2,x3), R3(x3,x4) partitions on x2: R1 and R2 are split
  // by the pinned hash into per-shard copies, and every shard reads the
  // source's R3 itself instead of a copy of it.
  const size_t kShards = 3;
  Database db = MakePathDb(300, 24, 5);
  Relation& r3 = db.AddRelation("R3", 2);
  for (Value i = 0; i < 40; ++i) r3.Add({i % 24, i}, 0.5);
  auto q = ConjunctiveQuery::Path(3);
  ShardedDatabase sharded(db, q, kShards);
  ASSERT_EQ(sharded.partition_var(), 1);
  ASSERT_FALSE(sharded.IsPartitioned("R3"));
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(&sharded.shard(s).Get("R3"), &db.Get("R3")) << "shard " << s;
  }
  for (const ShardRule& rule : sharded.rules()) {
    if (!rule.partitioned()) continue;
    size_t rows = 0;
    for (size_t s = 0; s < kShards; ++s) {
      const Relation& part = sharded.shard(s).Get(rule.relation);
      EXPECT_NE(&part, &db.Get(rule.relation));
      rows += part.NumRows();
      for (size_t r = 0; r < part.NumRows(); ++r) {
        const Value v = part.At(r, static_cast<size_t>(rule.partition_col));
        EXPECT_EQ(ShardOf(ShardHash(v), kShards), s) << rule.relation;
      }
    }
    EXPECT_EQ(rows, db.Get(rule.relation).NumRows()) << rule.relation;
  }
}

TEST(ShardedDatabaseTest, SelfJoinColumnConflictDegenerates) {
  // R(x1,x2), R(x2,x3) over ONE physical relation: x2 binds column 1 in the
  // first atom and column 0 in the second — no consistent partition column
  // exists for any variable, so the plan degenerates to shard 0.
  Database db;
  Relation& r = db.AddRelation("R", 2);
  for (Value i = 0; i < 20; ++i) r.Add({i, (i + 1) % 20}, 1.0);
  auto q = ConjunctiveQuery::Path(2, "R", /*single_relation=*/true);
  ShardedDatabase sharded(db, q, 4);
  EXPECT_TRUE(sharded.degenerate());
  EXPECT_EQ(sharded.partition_var(), -1);
  EXPECT_EQ(sharded.shard(0).Get("R").NumRows(), 20u);
  // Shard 0 answers alone, over the source relation itself.
  EXPECT_EQ(&sharded.shard(0).Get("R"), &db.Get("R"));
  for (size_t s = 1; s < 4; ++s) {
    EXPECT_EQ(sharded.shard(s).Get("R").NumRows(), 0u);
  }
}

TEST(ShardedDatabaseTest, MoreShardsThanKeysLeavesShardsEmpty) {
  // Only 2 distinct join values but 7 shards: at least 5 shards hold no
  // partitioned rows, and the sharded layer must still be correct (the
  // drain-equivalence test below covers that; here we pin the emptiness).
  Database db = MakePathDb(100, 2, 11);
  auto q = ConjunctiveQuery::Path(2);
  ShardedDatabase sharded(db, q, 7);
  size_t empty = 0;
  for (size_t s = 0; s < 7; ++s) {
    if (sharded.shard(s).Get("R1").NumRows() == 0) ++empty;
  }
  EXPECT_GE(empty, 5u);
}

// ---------------------------------------------------------------------------
// ShardedPreparedQuery: drain equivalence
// ---------------------------------------------------------------------------

struct Row {
  double weight;
  std::vector<Value> assignment;
  bool operator==(const Row& o) const {
    return weight == o.weight && assignment == o.assignment;
  }
  bool operator<(const Row& o) const {
    if (weight != o.weight) return weight < o.weight;
    return assignment < o.assignment;
  }
};

std::vector<Row> DrainSession(EnumerationSession<D> session) {
  std::vector<Row> out;
  ResultRow<D> row;
  while (session.NextInto(&row)) {
    out.push_back(Row{row.weight, row.assignment});
  }
  return out;
}

/// Equal-weight runs may be permuted by sharding (shard-local row ids break
/// ties); canonicalize by sorting each run before comparing.
void Canonicalize(std::vector<Row>* rows) {
  size_t i = 0;
  while (i < rows->size()) {
    size_t j = i + 1;
    while (j < rows->size() && (*rows)[j].weight == (*rows)[i].weight) ++j;
    std::sort(rows->begin() + static_cast<ptrdiff_t>(i),
              rows->begin() + static_cast<ptrdiff_t>(j));
    i = j;
  }
}

TEST(ShardedQueryTest, ShardSweepMatchesUnshardedDrain) {
  Database db = MakePathDb(120, 8, 3);
  auto q = ConjunctiveQuery::Path(2);
  PreparedQuery<D> plain(db, q);
  std::vector<Row> expected =
      DrainSession(plain.NewSession(Algorithm::kLazy));
  Canonicalize(&expected);
  ASSERT_FALSE(expected.empty());
  for (size_t shards : {1u, 2u, 4u, 7u}) {
    typename ShardedPreparedQuery<D>::Options opts;
    opts.shards = shards;
    ShardedPreparedQuery<D> sharded(db, q, opts);
    EXPECT_EQ(sharded.NumShards(), shards);
    std::vector<Row> got = DrainSession(sharded.NewSession(Algorithm::kLazy));
    Canonicalize(&got);
    EXPECT_EQ(got, expected) << "shards=" << shards;
  }
}

TEST(ShardedQueryTest, DegeneratePlanStillMatches) {
  Database db;
  Relation& r = db.AddRelation("R", 2);
  for (Value i = 0; i < 15; ++i) {
    r.Add({i, (i * 3 + 1) % 15}, static_cast<double>((i * 7) % 10));
  }
  auto q = ConjunctiveQuery::Path(2, "R", /*single_relation=*/true);
  PreparedQuery<D> plain(db, q);
  std::vector<Row> expected =
      DrainSession(plain.NewSession(Algorithm::kTake2));
  Canonicalize(&expected);
  typename ShardedPreparedQuery<D>::Options opts;
  opts.shards = 4;
  ShardedPreparedQuery<D> sharded(db, q, opts);
  ASSERT_NE(sharded.sharded_db(), nullptr);
  EXPECT_TRUE(sharded.sharded_db()->degenerate());
  std::vector<Row> got = DrainSession(sharded.NewSession(Algorithm::kTake2));
  Canonicalize(&got);
  EXPECT_EQ(got, expected);
}

TEST(ShardedQueryTest, SingleShardIsPassthrough) {
  Database db = MakePathDb(60, 6, 5);
  auto q = ConjunctiveQuery::Path(2);
  PreparedQuery<D> plain(db, q);
  typename ShardedPreparedQuery<D>::Options opts;
  opts.shards = 1;
  ShardedPreparedQuery<D> sharded(db, q, opts);
  EXPECT_EQ(sharded.sharded_db(), nullptr);
  // Byte-identical including tie order and witnesses: same data, same row
  // ids, same enumerator construction.
  auto a = plain.NewSession(Algorithm::kLazy);
  auto b = sharded.NewSession(Algorithm::kLazy);
  ResultRow<D> ra, rb;
  while (true) {
    const bool ga = a.NextInto(&ra);
    const bool gb = b.NextInto(&rb);
    ASSERT_EQ(ga, gb);
    if (!ga) break;
    EXPECT_EQ(ra.weight, rb.weight);
    EXPECT_EQ(ra.assignment, rb.assignment);
    EXPECT_EQ(ra.witness, rb.witness);
  }
}

TEST(ShardedQueryTest, KBudgetedUnionReturnsTopK) {
  Database db = MakePathDb(150, 10, 9);
  auto q = ConjunctiveQuery::Path(2);
  PreparedQuery<D> plain(db, q);
  std::vector<Row> all = DrainSession(plain.NewSession(Algorithm::kLazy));
  ASSERT_GT(all.size(), 20u);
  const size_t k = 20;
  typename ShardedPreparedQuery<D>::Options opts;
  opts.shards = 4;
  opts.prepare.enum_opts.k_budget = k;
  ShardedPreparedQuery<D> sharded(db, q, opts);
  std::vector<Row> top = DrainSession(sharded.NewSession(Algorithm::kLazy));
  ASSERT_EQ(top.size(), k);
  // The k-th weight boundary is exact; within it the set matches modulo
  // equal-weight permutation, so compare weight sequences.
  for (size_t i = 0; i < k; ++i) {
    EXPECT_EQ(top[i].weight, all[i].weight) << "i=" << i;
  }
}

/// Every answer of `session`, pulled in pages of `page` rows.
std::vector<ResultRow<D>> DrainPages(EnumerationSession<D> session,
                                     size_t page) {
  std::vector<ResultRow<D>> out;
  std::vector<ResultRow<D>> rows(page);
  size_t got;
  do {
    got = session.NextBatch(rows.data(), page);
    out.insert(out.end(), rows.begin(),
               rows.begin() + static_cast<ptrdiff_t>(got));
  } while (got == page);
  return out;
}

/// The parallel drain (a ShardFeed per shard under the one union) against
/// the serial merge drained row by row: every ranked algorithm, pages of 1,
/// 5 and 64, union budgets 0 and 37 — byte-identical, witnesses included.
void ExpectParallelDrainMatchesSerial(const Database& db,
                                      const ConjunctiveQuery& q,
                                      size_t shards) {
  typename ShardedPreparedQuery<D>::Options serial_opts;
  serial_opts.shards = shards;
  ShardedPreparedQuery<D> serial(db, q, serial_opts);
  typename ShardedPreparedQuery<D>::Options par_opts = serial_opts;
  par_opts.parallel_drain = true;
  ShardedPreparedQuery<D> parallel(db, q, par_opts);
  for (Algorithm algo : AllRankedAlgorithms()) {
    for (size_t budget : {size_t{0}, size_t{37}}) {
      EnumOptions eopts;
      eopts.k_budget = budget;
      const std::vector<ResultRow<D>> want =
          DrainPages(serial.NewSession(algo, eopts), 1);
      // The full output exceeds the budget, so the budget cuts it.
      ASSERT_EQ(want.size() > 37, budget == 0) << AlgorithmName(algo);
      for (size_t page : {size_t{1}, size_t{5}, size_t{64}}) {
        const std::vector<ResultRow<D>> got =
            DrainPages(parallel.NewSession(algo, eopts), page);
        const std::string where = std::string(AlgorithmName(algo)) +
                                  " budget=" + std::to_string(budget) +
                                  " page=" + std::to_string(page);
        ASSERT_EQ(got.size(), want.size()) << where;
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i].weight, want[i].weight) << where << " row " << i;
          ASSERT_EQ(got[i].assignment, want[i].assignment)
              << where << " row " << i;
          ASSERT_EQ(got[i].witness, want[i].witness) << where << " row " << i;
        }
      }
    }
  }
}

/// A 4-cycle over R1..R4 with values in [0, domain): a cycle union per
/// shard, and with more shards than values some shards hold no rows.
Database MakeCycleDb(size_t rows, uint64_t domain, uint64_t seed) {
  Database db;
  for (int i = 1; i <= 4; ++i) {
    db.AddRelation("R" + std::to_string(i), 2);
  }
  uint64_t state = seed;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int i = 1; i <= 4; ++i) {
    Relation& r = db.GetMutable("R" + std::to_string(i));
    for (size_t j = 0; j < rows; ++j) {
      r.Add({static_cast<Value>(next() % domain),
             static_cast<Value>(next() % domain)},
            static_cast<double>(next() % 100));
    }
  }
  return db;
}

TEST(ShardedQueryTest, ParallelDrainMatchesSerialMerge) {
  ExpectParallelDrainMatchesSerial(MakePathDb(150, 8, 13),
                                   ConjunctiveQuery::Path(2), 4);
}

TEST(ShardedQueryTest, ParallelDrainMatchesSerialMergeOnCycleWithEmptyShards) {
  const Database db = MakeCycleDb(40, 5, 23);
  const auto q = ConjunctiveQuery::Cycle(4);
  // Only 5 partition values over 7 shards: at least 2 shards hold no rows
  // of a partitioned relation, so their streams are empty.
  ShardedDatabase layout(db, q, 7);
  size_t empty = 0;
  for (size_t s = 0; s < 7; ++s) {
    bool some_relation_empty = false;
    for (int i = 1; i <= 4; ++i) {
      some_relation_empty =
          some_relation_empty ||
          layout.shard(s).Get("R" + std::to_string(i)).NumRows() == 0;
    }
    if (some_relation_empty) ++empty;
  }
  ASSERT_GE(empty, 2u);
  ExpectParallelDrainMatchesSerial(db, q, 7);
}

TEST(ShardedQueryTest, ParallelSessionClosesWhileWorkersWaitOnFullRings) {
  // Every shard holds far more answers than a ring's 64 slots, so after one
  // page every worker fills its ring and waits for room. Closing the
  // session must stop and join them.
  const Database db = MakePathDb(400, 40, 31);
  const auto q = ConjunctiveQuery::Path(2);
  typename ShardedPreparedQuery<D>::Options opts;
  opts.shards = 3;
  opts.parallel_drain = true;
  ShardedPreparedQuery<D> parallel(db, q, opts);
  std::vector<ResultRow<D>> probe(100);
  for (size_t s = 0; s < 3; ++s) {
    auto shard_session = parallel.shard(s).NewSession(Algorithm::kLazy);
    ASSERT_EQ(shard_session.NextBatch(probe.data(), probe.size()),
              probe.size())
        << "shard " << s << " cannot fill its ring";
  }
  std::atomic<bool> closed{false};
  std::thread closer([&] {
    auto session = std::make_unique<EnumerationSession<D>>(
        parallel.NewSession(Algorithm::kLazy));
    std::vector<ResultRow<D>> page(5);
    EXPECT_EQ(session->NextBatch(page.data(), page.size()), page.size());
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    session.reset();
    closed = true;
  });
  const auto start = std::chrono::steady_clock::now();
  while (!closed &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!closed) {
    ADD_FAILURE() << "closing a parallel session did not return in 10 s";
    std::abort();  // the closer is stuck in a join; joining it would hang
  }
  closer.join();
}

TEST(ShardedQueryTest, ShardFeedRethrowsWhatItsSourceThrew) {
  // Ranks answers 0, 1, 2, then throws on the feed's worker thread: the
  // consumer gets the three rows first, then the exception.
  class ThrowsAfterThree final : public Enumerator<D> {
   public:
    size_t NextBatch(ResultRow<D>* rows, size_t n) override {
      for (size_t b = 0; b < n; ++b) {
        if (next_ == 3) throw std::runtime_error("source failed");
        rows[b].weight = static_cast<double>(next_++);
      }
      return n;
    }

   private:
    size_t next_ = 0;
  };
  ShardFeed<D> feed(std::make_unique<ThrowsAfterThree>());
  ResultRow<D> row;
  for (double want : {0.0, 1.0, 2.0}) {
    ASSERT_TRUE(feed.NextInto(&row));
    EXPECT_EQ(row.weight, want);
  }
  EXPECT_THROW(feed.NextInto(&row), std::runtime_error);
}

TEST(ShardedQueryTest, AutoResolvesAgainstCrossShardDecision) {
  Database db = MakePathDb(200, 12, 17);
  auto q = ConjunctiveQuery::Path(2);
  typename ShardedPreparedQuery<D>::Options opts;
  opts.shards = 4;
  opts.prepare.auto_plan = true;
  ThreadPool pool(2);
  opts.prepare.pool = &pool;
  ShardedPreparedQuery<D> sharded(db, q, opts);
  // The cross-shard decision merges per-shard stats: its input_rows must
  // reflect the whole data set, not one shard's slice.
  EXPECT_GE(sharded.decision().stats.input_rows, db.Get("R1").NumRows());
  PreparedQuery<D> plain(db, q);
  std::vector<Row> expected =
      DrainSession(plain.NewSession(Algorithm::kLazy));
  Canonicalize(&expected);
  std::vector<Row> got = DrainSession(sharded.NewSession(Algorithm::kAuto));
  Canonicalize(&got);
  EXPECT_EQ(got, expected);
}

TEST(ShardedQueryTest, CycleUnionQueryShards) {
  // 4-cycle: per-shard plans are themselves unions (cycle decomposition);
  // the shard union nests over them.
  const Database db = MakeCycleDb(40, 5, 23);
  auto q = ConjunctiveQuery::Cycle(4);
  PreparedQuery<D> plain(db, q);
  EXPECT_EQ(plain.plan(), QueryPlan::kCycleUnion);
  std::vector<Row> expected =
      DrainSession(plain.NewSession(Algorithm::kLazy));
  Canonicalize(&expected);
  for (size_t shards : {2u, 7u}) {
    typename ShardedPreparedQuery<D>::Options opts;
    opts.shards = shards;
    ShardedPreparedQuery<D> sharded(db, q, opts);
    std::vector<Row> got = DrainSession(sharded.NewSession(Algorithm::kLazy));
    Canonicalize(&got);
    EXPECT_EQ(got, expected) << "shards=" << shards;
  }
}

}  // namespace
}  // namespace anyk
