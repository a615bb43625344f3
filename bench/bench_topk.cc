// Budget-aware top-k ablation: serving TT(k) with and without the k-budget
// fast path, over k in {1, 10, 100, 10000} x {path, star, cycle}.
//
// Measures the request-serving scenario (ROADMAP: many users asking for a
// ranked page): the PreparedQuery is built once outside the measurement;
// each repetition serves one request — open a session, drain k answers —
// and the *whole request* is timed (session construction is part of TT(k)
// in serving, unlike the paper's preprocessing accounting).
//   * "Lazy"       — the pre-PR configuration: binary-heap candidate PQ,
//                    unbounded (no budget anywhere), NextInto drain.
//   * "Lazy+topk"  — the budget-aware fast path: EnumOptions::k_budget = k
//                    (bounded O(k) candidate heap, O(1) second-best
//                    deviations off the graph's connector heaps, lazily
//                    materialized successor structures, final-answer
//                    strategy bypass) drained via NextBatch.
//
// Every (shape, k, variant) pair is reported as its own series — the k is
// encoded in the dataset column ("k=10") — so scripts/bench_compare.py
// gates each TT(k) point independently. The `seconds` of a record is the
// cumulative time of all `reps` repetitions (reps is fixed per k so runs
// are comparable); per-request TT(k) is seconds / reps.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "anyk/anyk_part.h"
#include "anyk/prepared_query.h"
#include "anyk/union_anyk.h"
#include "bench_common.h"
#include "query/cq.h"
#include "util/dary_heap.h"
#include "util/timer.h"
#include "workload/generators.h"

using namespace anyk;
using namespace anyk::bench;

namespace {

struct Shape {
  std::string name;
  Database db;
  ConjunctiveQuery q;
  size_t n;
};

size_t RepsFor(size_t k) {
  // Inverse-in-k repetition counts keep every series in measurable range
  // (sub-0.05s baselines are skipped by the perf gate) without letting the
  // k=10000 points dominate the wall clock.
  switch (k) {
    case 1: return Pick(60000, 12000);
    case 10: return Pick(30000, 6000);
    case 100: return Pick(8000, 1600);
    default: return Pick(150, 30);
  }
}

// The budgeted path is ~10-80x faster per request at small k; it runs 10x
// the repetitions so its own series also clear the perf gate's 0.05s
// measurability floor (each series' reps are fixed, so baseline and
// current runs stay comparable; ratios below normalize per request).
size_t FastRepsFor(size_t k) { return RepsFor(k) * (k <= 100 ? 10 : 1); }

using D = TropicalDioid;

/// Faithful replica of the seed LazyStrategy: an eagerly constructed
/// per-session ConnData table and heapify-always connector initialization
/// over a binary heap. The current LazyStrategy (lazy arena-backed pointer
/// table, ranks served off the graph's connector heaps) is what the
/// ablation measures against it, so it cannot stand in for the baseline.
template <SelectiveDioid DD>
class SeedLazyStrategy {
 public:
  static constexpr const char* kName = "SeedLazy";

  SeedLazyStrategy(const StageGraph<DD>* g, Arena* arena)
      : g_(g), arena_(arena), conns_(g->total_connectors) {}

  uint32_t Top(uint32_t stage, uint32_t conn) {
    Init(stage, conn);
    return 0;
  }

  uint32_t MemberPos(uint32_t stage, uint32_t conn, uint32_t choice) {
    return conns_[g_->GlobalConn(stage, conn)].sorted[choice];
  }

  template <typename Out>
  void Successors(uint32_t stage, uint32_t conn, uint32_t choice, Out* out) {
    ++stats_.succ_calls;
    ConnData& cd = conns_[g_->GlobalConn(stage, conn)];
    if (choice + 1 >= cd.sorted.size() && !cd.heap.Empty()) {
      cd.sorted.push_back(cd.heap.PopMin());
    }
    if (choice + 1 < cd.sorted.size()) {
      out->push_back(choice + 1);
      ++stats_.succ_returned;
    }
  }

  const StrategyStats& stats() const { return stats_; }

 private:
  struct Cmp {
    const StageGraph<DD>* g;
    uint32_t stage;
    bool operator()(uint32_t a, uint32_t b) const {
      return DD::Less(g->stages[stage].member_val[a],
                      g->stages[stage].member_val[b]);
    }
  };
  using ConnHeap = DAryHeap<uint32_t, Cmp, ArenaAllocator<uint32_t>, 2>;

  struct ConnData {
    bool init = false;
    ArenaVector<uint32_t> sorted;
    ConnHeap heap{Cmp{nullptr, 0}};
  };

  void Init(uint32_t stage, uint32_t conn) {
    ConnData& cd = conns_[g_->GlobalConn(stage, conn)];
    if (cd.init) return;
    cd.init = true;
    const auto& st = g_->stages[stage];
    typename ConnHeap::Container all(ArenaAllocator<uint32_t>{arena_});
    all.resize(st.ConnSize(conn));
    for (uint32_t i = 0; i < all.size(); ++i) all[i] = st.conn_begin[conn] + i;
    cd.heap = ConnHeap(Cmp{g_, stage}, ArenaAllocator<uint32_t>(arena_));
    cd.heap.BuildFrom(std::move(all));
    cd.sorted = MakeArenaVector<uint32_t>(arena_);
    cd.sorted.push_back(cd.heap.PopMin());
    if (!cd.heap.Empty()) cd.sorted.push_back(cd.heap.PopMin());
    ++stats_.conns_initialized;
    stats_.init_work += st.ConnSize(conn);
  }

  const StageGraph<DD>* g_;
  Arena* arena_;
  std::vector<ConnData> conns_;
  StrategyStats stats_;
};

// Binary-heap candidate queue; never budgeted, because OpenSeedSession
// leaves EnumOptions::k_budget at 0.
using SeedEnumerator =
    AnyKPartEnumerator<D, SeedLazyStrategy, BoundedBinaryHeap>;

/// One pre-PR-configuration request: binary-heap candidate queues,
/// unbounded enumerators, NextInto drain. Cycle-union plans replicate the
/// pre-PR union (each part unbounded).
std::unique_ptr<Enumerator<D>> OpenSeedSession(const PreparedQuery<D>& pq) {
  EnumOptions eo;
  eo.with_witness = false;
  if (pq.plan() == QueryPlan::kCycleUnion) {
    std::vector<std::unique_ptr<Enumerator<D>>> parts;
    parts.reserve(pq.graphs().size());
    for (const auto& g : pq.graphs()) {
      parts.push_back(std::make_unique<SeedEnumerator>(g.get(), eo));
    }
    return std::make_unique<UnionEnumerator<D>>(std::move(parts));
  }
  return std::make_unique<SeedEnumerator>(pq.graphs()[0].get(), eo);
}

/// Cumulative full-request TT(k) over `reps` requests: each repetition
/// opens a session and drains k answers, and both are timed.
double MeasureServing(const PreparedQuery<D>& pq, size_t k, size_t reps,
                      bool budget) {
  std::vector<ResultRow<D>> batch(64);
  ResultRow<D> row;
  double total = 0;
  for (size_t r = 0; r < reps; ++r) {
    Timer timer;
    if (budget) {
      EnumOptions eo;
      eo.with_witness = false;
      eo.k_budget = k;
      EnumerationSession<D> sess = pq.NewSession(Algorithm::kLazy, eo);
      size_t got = 0;
      while (got < k) {
        const size_t want = std::min(batch.size(), k - got);
        const size_t n = sess.NextBatch(batch.data(), want);
        got += n;
        if (n < want) break;
      }
    } else {
      std::unique_ptr<Enumerator<D>> e = OpenSeedSession(pq);
      size_t got = 0;
      while (got < k && e->NextInto(&row)) ++got;
    }
    total += timer.Seconds();
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  InitBench(argc, argv, "topk");
  PrintHeader();

  std::vector<Shape> shapes;
  {
    const size_t n = Pick(50000, 4000);
    shapes.push_back(
        {"path4", MakePathDatabase(n, 4, 2401), ConjunctiveQuery::Path(4), n});
  }
  {
    const size_t n = Pick(50000, 4000);
    shapes.push_back({"star4", MakeStarDatabase(n, 4, 2402),
                      ConjunctiveQuery::Star(4), n});
  }
  {
    const size_t n = Pick(2000, 400);
    shapes.push_back({"cycle4", MakeWorstCaseCycleDatabase(n, 4, 2403),
                      ConjunctiveQuery::Cycle(4), n});
  }

  PaperNote("topk",
            "budget-aware serving TT(k) should beat the pre-PR path by "
            ">=20% for k <= 100 on path and star (O(k) bounded heaps, O(1) "
            "second-best deviations, lazily materialized successor "
            "structures, batched binding)");

  const std::vector<size_t> ks = {1, 10, 100, 10000};
  for (const Shape& s : shapes) {
    typename PreparedQuery<TropicalDioid>::Options popts;
    popts.enum_opts.with_witness = false;
    PreparedQuery<TropicalDioid> pq(s.db, s.q, popts);
    for (const size_t k : ks) {
      const size_t reps = RepsFor(k);
      const size_t fast_reps = FastRepsFor(k);
      // Warm both paths once (lazy OS page-ins, branch predictors).
      MeasureServing(pq, k, 1, false);
      MeasureServing(pq, k, 1, true);
      const double unbounded = MeasureServing(pq, k, reps, false);
      const double budgeted = MeasureServing(pq, k, fast_reps, true);
      const std::string dataset = "k=" + std::to_string(k);
      PrintRow("topk", s.name, dataset, s.n, "Lazy", k, unbounded);
      PrintRow("topk", s.name, dataset, s.n, "Lazy+topk", k, budgeted);
      const double per_request_ratio =
          (budgeted / static_cast<double>(fast_reps)) /
          (unbounded / static_cast<double>(reps));
      PaperNote("topk", s.name + " " + dataset + ": budgeted/unbounded = " +
                            std::to_string(per_request_ratio) +
                            " per request (" + std::to_string(reps) + "/" +
                            std::to_string(fast_reps) + " reps)");
    }
  }
  return 0;
}
