// Concurrent query serving: N sessions draining ONE shared PreparedQuery.
//
// The paper's TT(k) guarantees are per query; a serving system amortizes
// the preprocessing phase across many concurrent enumeration sessions
// (PreparedQuery / EnumerationSession, see docs/ARCHITECTURE.md "Threading
// model"). This bench prepares a path query once and then drains it with
// 1 / 2 / 4 / 8 concurrent sessions, reporting
//   * one row per session   (dataset "T<threads>/s<i>"): that session's TTL
//     and its own answers/sec,
//   * one aggregate row     (dataset "T<threads>"): total answers produced
//     and aggregate answers/sec across all sessions (k / wall-clock).
// Sessions share zero mutable state, so on a machine with >= T cores the
// aggregate rate should scale ~linearly until memory bandwidth saturates.
//
// The threads / answers_per_sec columns are schema v3; the perf-regression
// gate (scripts/bench_compare.py) only judges serial TTL series and skips
// every record with threads != 1.

#include <cstddef>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "anyk/prepared_query.h"
#include "anyk/query_handle.h"
#include "dioid/tropical.h"
#include "harness.h"
#include "util/alloc_stats.h"
#include "util/timer.h"
#include "workload/generators.h"

namespace anyk {
namespace bench {
namespace {

void RunConcurrency() {
  const size_t n = Pick(20000, 2000);
  const size_t l = 4;
  const size_t max_k = Pick(500000, 50000);  // per-session drain cap
  Database db = MakePathDatabase(n, l, /*seed=*/7, {.fanout = 4.0});
  ConjunctiveQuery q = ConjunctiveQuery::Path(l);

  Timer prep_timer;
  PreparedQuery<TropicalDioid>::Options popts;
  popts.enum_opts.with_witness = false;
  PreparedQuery<TropicalDioid> pq(db, q, popts);
  PaperNote("concurrency",
            "one preprocessing pass (" +
                std::to_string(prep_timer.Seconds()) +
                "s) amortized across all sessions; per-session TTL should "
                "stay ~flat and aggregate answers/sec should rise with "
                "threads on a multi-core host");

  for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    std::vector<double> ttl(threads, 0.0);
    std::vector<size_t> produced(threads, 0);
    // Series-level alloc total, like every other bench: the delta spans
    // thread spawn + session construction + the drains, so it measures the
    // whole serving cost of the round, not just the arena-backed hot loop
    // (which invariants_test/concurrency_test already pin at zero).
    const AllocCounts allocs_at_start = CurrentAllocCounts();
    Timer wall;
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&pq, &ttl, &produced, t, max_k] {
        Timer session_timer;
        EnumerationSession<TropicalDioid> sess =
            pq.NewSession(Algorithm::kLazy);
        std::vector<ResultRow<TropicalDioid>> page(kPageRows);
        produced[t] = DrainInPages(sess.enumerator(), max_k, &page);
        ttl[t] = session_timer.Seconds();
      });
    }
    for (std::thread& w : workers) w.join();
    const double wall_seconds = wall.Seconds();
    const size_t series_allocs = static_cast<size_t>(
        AllocDelta(allocs_at_start, CurrentAllocCounts()).news);
    const size_t total =
        std::accumulate(produced.begin(), produced.end(), size_t{0});

    const std::string agg_dataset = "T" + std::to_string(threads);
    for (size_t t = 0; t < threads; ++t) {
      PrintRow("concurrency", "path4", agg_dataset + "/s" + std::to_string(t),
               n, "Lazy", produced[t], ttl[t], series_allocs, PeakRssKb(),
               threads,
               ttl[t] > 0 ? static_cast<double>(produced[t]) / ttl[t] : 0);
    }
    PrintRow("concurrency", "path4", agg_dataset, n, "Lazy", total,
             wall_seconds, series_allocs, PeakRssKb(), threads,
             wall_seconds > 0 ? static_cast<double>(total) / wall_seconds
                              : 0);
  }
}

}  // namespace
}  // namespace bench
}  // namespace anyk

int main(int argc, char** argv) {
  anyk::bench::InitBench(argc, argv, "bench_concurrency");
  anyk::bench::PrintHeader();
  anyk::bench::SectionNote(
      "concurrent sessions over one shared PreparedQuery (path-4 query)");
  anyk::bench::RunConcurrency();
  return 0;
}
