// Planner regret: serving TT(k) of `--algorithm auto` against the oracle
// best and worst of the six concrete strategies, over
// {path4, star4, cycle4} x k in {1, 100, unbounded}.
//
// Every (shape, k) pair prepares ONE auto-planned PreparedQuery (so the
// topology is fixed and only the strategy choice is measured) and serves
// `reps` requests per strategy: open a session, drain k answers, time the
// whole request. Three rows per pair:
//   * "auto"         — what the planner picked at prepare time,
//   * "oracle-best"  — min over the six strategies (the unbeatable bound),
//   * "oracle-worst" — max over the six (what a wrong pick would cost).
// The unbounded sweep is encoded as dataset "kinf" with k column 0.
//
// The perf gate (scripts/bench_compare.py) holds the "auto" series to the
// no-regression bar like any other series; test_bench_compare.py's
// planner-regret case additionally pins that a baseline where auto == best
// fails the gate when a current run shows auto at worst-of-6.

#include <algorithm>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "anyk/factory.h"
#include "anyk/prepared_query.h"
#include "anyk/query_handle.h"
#include "bench_common.h"
#include "query/cq.h"
#include "util/timer.h"
#include "workload/generators.h"

using namespace anyk;
using namespace anyk::bench;

namespace {

using D = TropicalDioid;

struct Shape {
  std::string name;
  Database db;
  ConjunctiveQuery q;
  size_t n;
};

size_t RepsFor(size_t k) {
  switch (k) {
    case 1: return Pick(4000, 800);
    case 100: return Pick(400, 80);
    default: return Pick(6, 2);  // unbounded full drains
  }
}

/// Cumulative TT(k) of `reps` requests against one strategy of the shared
/// auto-planned prepared query (session construction is part of the
/// request, as in serving), each drained in pages as the binaries do.
double MeasureStrategy(const PreparedQuery<D>& pq, Algorithm algo, size_t k,
                       size_t reps) {
  const size_t cap = k == 0 ? std::numeric_limits<size_t>::max() : k;
  std::vector<ResultRow<D>> page(kPageRows);
  double total = 0;
  for (size_t r = 0; r < reps; ++r) {
    Timer timer;
    EnumerationSession<D> sess = pq.NewSession(algo);
    DrainInPages(sess.enumerator(), cap, &page);
    total += timer.Seconds();
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  InitBench(argc, argv, "plan");
  PrintHeader();

  std::vector<Shape> shapes;
  {
    const size_t n = Pick(20000, 2000);
    shapes.push_back(
        {"path4", MakePathDatabase(n, 4, 3301), ConjunctiveQuery::Path(4), n});
  }
  {
    const size_t n = Pick(20000, 2000);
    shapes.push_back({"star4", MakeStarDatabase(n, 4, 3302),
                      ConjunctiveQuery::Star(4), n});
  }
  {
    const size_t n = Pick(1200, 240);
    shapes.push_back({"cycle4", MakeWorstCaseCycleDatabase(n, 4, 3303),
                      ConjunctiveQuery::Cycle(4), n});
  }

  PaperNote("plan",
            "auto should track oracle-best within 2x on every series and "
            "never approach oracle-worst (cost model: batch crossover at "
            "large k, recursive on serial chains, lazy elsewhere)");

  const std::vector<size_t> ks = {1, 100, 0};  // 0 = unbounded
  for (const Shape& s : shapes) {
    for (const size_t k : ks) {
      typename PreparedQuery<D>::Options popts;
      popts.enum_opts.with_witness = false;
      popts.enum_opts.k_budget = k;
      popts.auto_plan = true;
      const PreparedQuery<D> pq(s.db, s.q, popts);
      const size_t reps = RepsFor(k);

      MeasureStrategy(pq, Algorithm::kAuto, k, 1);  // warm-up
      const double auto_secs = MeasureStrategy(pq, Algorithm::kAuto, k, reps);
      double best = 0, worst = 0;
      bool first = true;
      std::string best_name, worst_name;
      for (Algorithm algo : AllRankedAlgorithms()) {
        MeasureStrategy(pq, algo, k, 1);  // warm-up
        const double t = MeasureStrategy(pq, algo, k, reps);
        if (first || t < best) { best = t; best_name = AlgorithmName(algo); }
        if (first || t > worst) { worst = t; worst_name = AlgorithmName(algo); }
        first = false;
      }

      const std::string dataset =
          k == 0 ? "kinf" : "k=" + std::to_string(k);
      PrintRow("plan", s.name, dataset, s.n, "auto", k, auto_secs);
      PrintRow("plan", s.name, dataset, s.n, "oracle-best", k, best);
      PrintRow("plan", s.name, dataset, s.n, "oracle-worst", k, worst);
      PaperNote("plan", s.name + " " + dataset + ": planned " +
                            pq.decision().Summary() + "; best=" + best_name +
                            " worst=" + worst_name + " regret=" +
                            std::to_string(auto_secs / best) + "x");
    }
  }
  return 0;
}
