// Benchmark harness: measures TTF / TT(k) / TTL of any enumerator pipeline
// and reports through a structured Reporter that every bench target shares.
//
// Each checkpoint becomes one BenchRecord; on stdout they print as the
// legacy uniform CSV rows
//
//   RESULT,<figure>,<query>,<dataset>,<n>,<algorithm>,<k>,<seconds>
//
// and, when `--json=PATH` or `--json-dir=DIR` is passed, the run additionally
// writes a schema-versioned `BENCH_<bench>.json` holding every record plus
// the `# paper:` expectation notes (scripts/bench_compare.py consumes these
// for the perf-regression gate; see docs/CLI.md for the schema).
//
// `--smoke` switches every bench into a small-n configuration via
// `Pick(full, smoke)` so CI can run the whole suite in seconds.
//
// Preprocessing (building decompositions, stage graphs, sorting...) happens
// inside the factory closure, so it is charged to TT like in the paper.

#ifndef ANYK_BENCH_HARNESS_H_
#define ANYK_BENCH_HARNESS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "anyk/enumerator.h"
#include "util/alloc_stats.h"
#include "util/checkpoints.h"
#include "util/timer.h"

namespace anyk {
namespace bench {

struct BenchRecord {
  std::string figure;
  std::string query;
  std::string dataset;
  std::string algorithm;
  size_t n = 0;
  size_t k = 0;
  double seconds = 0;
  // Memory columns (series-level totals, attached to every row of a series):
  // global operator-new calls during the enumeration phase (after the
  // factory returned) and the process peak RSS when the series finished.
  size_t allocs = 0;
  size_t peak_rss_kb = 0;
  // Concurrency columns (schema v3, bench_concurrency): number of sessions
  // draining one PreparedQuery concurrently, and the aggregate enumeration
  // throughput across them. The perf-regression gate judges TTL of serial
  // series only; scripts/bench_compare.py skips records with threads != 1.
  size_t threads = 1;
  double answers_per_sec = 0;
};

/// Process-wide collector behind the legacy Print* helpers. Records every
/// RESULT row and paper note; Flush() (atexit-registered by InitBench)
/// writes BENCH_<bench>.json when a JSON destination was configured.
class Reporter {
 public:
  static Reporter& Get();

  /// Parse --smoke / --json=PATH / --json-dir=DIR (unknown flags are
  /// ignored, so wrappers can pass extra arguments through).
  void Init(int argc, char** argv, const std::string& bench_name);

  bool smoke() const { return smoke_; }
  const std::string& name() const { return name_; }

  void Row(const std::string& figure, const std::string& query,
           const std::string& dataset, size_t n, const std::string& algorithm,
           size_t k, double seconds, size_t allocs = 0,
           size_t peak_rss_kb = 0, size_t threads = 1,
           double answers_per_sec = 0);
  void Note(const std::string& figure, const std::string& note);
  void Section(const std::string& text);

  /// Write the JSON report if configured; idempotent.
  void Flush();

 private:
  std::string name_ = "bench";
  std::string json_path_;  // empty = no JSON output
  bool smoke_ = false;
  bool flushed_ = false;
  std::vector<BenchRecord> records_;
  std::vector<std::pair<std::string, std::string>> notes_;  // (figure, note)
};

/// Call first in every bench main(): configures the Reporter and registers
/// the JSON flush at exit.
void InitBench(int argc, char** argv, const std::string& bench_name);

/// True when the current run was started with --smoke.
bool SmokeMode();

/// Size selector: the paper-scale value normally, the reduced value under
/// --smoke (CI perf gate; see the bench-smoke CMake target).
inline size_t Pick(size_t full, size_t smoke) {
  return SmokeMode() ? smoke : full;
}

void PrintHeader();
void PrintRow(const std::string& figure, const std::string& query,
              const std::string& dataset, size_t n,
              const std::string& algorithm, size_t k, double seconds,
              size_t allocs = 0, size_t peak_rss_kb = 0, size_t threads = 1,
              double answers_per_sec = 0);
void PaperNote(const std::string& figure, const std::string& note);
void SectionNote(const std::string& text);

using ::anyk::GeometricCheckpoints;

struct TTSeries {
  std::vector<std::pair<size_t, double>> points;  // (k, seconds)
  size_t produced = 0;
  double total_seconds = 0;   // time when enumeration stopped
  double max_delay = 0;       // worst gap between consecutive results
  double preprocessing = 0;   // time spent in make() before the first Next()
  bool exhausted = false;
  size_t prep_allocs = 0;     // operator-new calls inside make()
  size_t enum_allocs = 0;     // operator-new calls during enumeration
  size_t peak_rss_kb = 0;     // process peak RSS at the end of the series
};

/// Drain up to `cap` answers the way `anyk` and `anykd` page a stream: the
/// first answer alone, then pages of `page->size()` rows (QueryHandle's
/// kPageRows). Returns the answers drained.
template <typename D>
size_t DrainInPages(Enumerator<D>* e, size_t cap,
                    std::vector<ResultRow<D>>* page) {
  size_t got = 0;
  for (size_t want = 1; got < cap; want = page->size()) {
    const size_t n = std::min(want, cap - got);
    const size_t pulled = e->NextBatch(page->data(), n);
    got += pulled;
    if (pulled < n) break;  // short return == exhausted
  }
  return got;
}

/// Run `make()` (preprocessing) + a drain until `max_k` results or
/// exhaustion, recording cumulative time at each checkpoint plus the
/// allocation counts of both phases (the preprocessing/enumeration split the
/// flat-memory work targets; see util/alloc_stats.h). The drain pulls
/// through NextBatch with checkpoint-aligned batches — the production drain
/// path (what the CLI and TopK use), which binds stage-wise through the
/// column segments; batch boundaries land exactly on the checkpoints so
/// TT(k) timestamps are unchanged. When `track_delay` is set, results are
/// instead pulled one NextInto at a time and timestamped to report the
/// maximum inter-result delay (Fig. 5's Delay(k) column, measured).
template <typename D>
TTSeries MeasureTT(
    const std::function<std::unique_ptr<Enumerator<D>>()>& make, size_t max_k,
    const std::vector<size_t>& checkpoints, bool track_delay = false) {
  TTSeries series;
  const AllocCounts at_start = CurrentAllocCounts();
  Timer timer;
  std::unique_ptr<Enumerator<D>> e = make();
  series.preprocessing = timer.Seconds();
  const AllocCounts at_enum = CurrentAllocCounts();
  series.prep_allocs = AllocDelta(at_start, at_enum).news;
  size_t next_cp = 0;
  double last = series.preprocessing;
  if (track_delay) {
    ResultRow<D> row;
    while (series.produced < max_k) {
      if (!e->NextInto(&row)) {
        series.exhausted = true;
        break;
      }
      ++series.produced;
      const double now = timer.Seconds();
      series.max_delay = std::max(series.max_delay, now - last);
      last = now;
      if (next_cp < checkpoints.size() &&
          series.produced == checkpoints[next_cp]) {
        series.points.emplace_back(series.produced, timer.Seconds());
        ++next_cp;
      }
    }
  } else {
    std::vector<ResultRow<D>> batch(64);
    while (series.produced < max_k) {
      size_t want = std::min(batch.size(), max_k - series.produced);
      if (next_cp < checkpoints.size()) {
        want = std::min(want, checkpoints[next_cp] - series.produced);
      }
      const size_t got = e->NextBatch(batch.data(), want);
      series.produced += got;
      if (next_cp < checkpoints.size() &&
          series.produced == checkpoints[next_cp]) {
        series.points.emplace_back(series.produced, timer.Seconds());
        ++next_cp;
      }
      if (got < want) {  // short return == exhausted (the NextBatch contract)
        series.exhausted = true;
        break;
      }
    }
  }
  series.total_seconds = timer.Seconds();
  series.enum_allocs = AllocDelta(at_enum, CurrentAllocCounts()).news;
  series.peak_rss_kb = PeakRssKb();
  if (series.points.empty() ||
      series.points.back().first != series.produced) {
    series.points.emplace_back(series.produced, series.total_seconds);
  }
  return series;
}

/// Measure and report all checkpoint rows.
template <typename D>
TTSeries RunAndPrint(
    const std::string& figure, const std::string& query,
    const std::string& dataset, size_t n, const std::string& algorithm,
    const std::function<std::unique_ptr<Enumerator<D>>()>& make,
    size_t max_k) {
  TTSeries series = MeasureTT<D>(make, max_k, GeometricCheckpoints(max_k));
  for (const auto& [k, secs] : series.points) {
    PrintRow(figure, query, dataset, n, algorithm, k, secs,
             series.enum_allocs, series.peak_rss_kb);
  }
  return series;
}

}  // namespace bench
}  // namespace anyk

#endif  // ANYK_BENCH_HARNESS_H_
