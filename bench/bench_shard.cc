// bench_shard: intra-query data sharding (--shards S). For each smoke shape
// (3-path, 3-star, worst-case 4-cycle) and S in {1, 2, 4, 8}, report the
// sharded prepare cost (hash partition + S per-shard pipelines on an
// S-worker pool) and the TT(k) series of the merged ranked-union drain.
// S = 1 is the unsharded passthrough, so the "(S=1)" series double as the
// regression anchor: the gate catches both prepare regressions at higher S
// and merged-drain overhead creeping past the union's logarithmic cost.
//
// The drain here is the serial merge (parallel_drain=false) — it is the
// deterministic path the server always uses, and keeps the TT(k) numbers
// comparable across machines regardless of core count.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "anyk/sharded_query.h"
#include "bench_common.h"
#include "query/cq.h"
#include "util/thread_pool.h"
#include "workload/generators.h"

using namespace anyk;
using namespace anyk::bench;

namespace {

// Owns the worker pool, the sharded pipeline and the merged session, so the
// whole sharded prepare (partition pass + S per-shard builds + the global
// plan decision) is charged to MeasureTT's preprocessing split.
class OwningShardedEnumerator : public Enumerator<TropicalDioid> {
 public:
  OwningShardedEnumerator(const Database& db, const ConjunctiveQuery& q,
                          size_t shards, size_t k_budget) {
    pool_ = std::make_unique<ThreadPool>(shards);
    typename ShardedPreparedQuery<TropicalDioid>::Options sopts;
    sopts.shards = shards;
    sopts.prepare.pool = pool_.get();
    sopts.prepare.enum_opts.with_witness = false;  // benches rank, not audit
    sopts.prepare.enum_opts.k_budget = k_budget;
    pq_ = std::make_unique<ShardedPreparedQuery<TropicalDioid>>(db, q, sopts);
    session_ = std::make_unique<EnumerationSession<TropicalDioid>>(
        pq_->NewSession(Algorithm::kLazy));
  }

  size_t NextBatch(ResultRow<TropicalDioid>* rows, size_t n) override {
    return session_->NextBatch(rows, n);
  }

 private:
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<ShardedPreparedQuery<TropicalDioid>> pq_;
  std::unique_ptr<EnumerationSession<TropicalDioid>> session_;
};

void RunShardSweep(const std::string& query_label, const Database& db,
                   const ConjunctiveQuery& q, size_t n, size_t max_k) {
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    auto make = [&db, &q, shards, max_k]() {
      return std::make_unique<OwningShardedEnumerator>(db, q, shards, max_k);
    };
    TTSeries series = MeasureTT<TropicalDioid>(
        make, max_k, GeometricCheckpoints(max_k));
    const std::string tag = "(S=" + std::to_string(shards) + ")";
    // Prepare row: k = 1 by convention (same as bench_serving's prepare
    // rows); the TTL the gate tracks is the prepare time itself.
    PrintRow("shard", query_label, "prepare", n, "prepare" + tag, 1,
             series.preprocessing, series.prep_allocs, series.peak_rss_kb);
    for (const auto& [k, secs] : series.points) {
      PrintRow("shard", query_label, "ranked-union", n, "Lazy" + tag, k,
               secs - series.preprocessing, series.enum_allocs,
               series.peak_rss_kb);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  InitBench(argc, argv, "shard");
  PrintHeader();

  PaperNote("shard",
            "intra-query sharding: partitioned prepare + ranked-union "
            "enumeration; S=1 is the unsharded passthrough anchor");

  {
    const size_t n = Pick(200000, 8000);
    Database db = MakePathDatabase(n, 3, 2201);
    ConjunctiveQuery q = ConjunctiveQuery::Path(3);
    RunShardSweep("3path", db, q, n, Pick(10000, 100));
  }
  {
    const size_t n = Pick(200000, 8000);
    Database db = MakeStarDatabase(n, 3, 2202);
    ConjunctiveQuery q = ConjunctiveQuery::Star(3);
    RunShardSweep("3star", db, q, n, Pick(10000, 100));
  }
  {
    const size_t n = Pick(2000, 400);
    Database db = MakeWorstCaseCycleDatabase(n, 4, 2203);
    ConjunctiveQuery q = ConjunctiveQuery::Cycle(4);
    RunShardSweep("4cycle", db, q, n, Pick(10000, 100));
  }
  return 0;
}
