// Ablation (google-benchmark): design choices of the any-k enumerators.
// Deliberately outside the Reporter/BENCH_*.json pipeline (harness.h): this
// target is statistical micro-benchmarking, and google-benchmark already
// emits machine-readable output via --benchmark_format=json.
//  * Candidate priority queue arity: the BoundedHeap arities 2, 4 and 8 the
//    planner chooses between (EnumOptions::heap_arity), on a Take2 request
//    for k answers under EnumOptions::k_budget = k, as a LIMIT k query runs.
//    The k points sit on both sides of the planner's thresholds (arity 2 at
//    k <= 64, 8 at k >= 65536, 4 between; plan/cost_model.h).
//  * Raw push-then-drain throughput of DAryHeap at the same arities.
//  * Strategy choice at fixed k (Take2 vs Lazy vs Eager vs All).

#include <benchmark/benchmark.h>
#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "anyk/anyk_part.h"
#include "anyk/enumerator.h"
#include "anyk/strategies.h"
#include "dioid/tropical.h"
#include "dp/stage_graph.h"
#include "query/cq.h"
#include "query/join_tree.h"
#include "util/dary_heap.h"
#include "util/random.h"
#include "workload/generators.h"

namespace {

using namespace anyk;

struct Shared {
  Database db;
  ConjunctiveQuery q;
  TDPInstance inst;
  StageGraph<TropicalDioid> g;
  Shared()
      : db(MakePathDatabase(100000, 4, 4242)),
        q(ConjunctiveQuery::Path(4)),
        inst(BuildAcyclicInstance(db, q)),
        g(BuildStageGraph<TropicalDioid>(inst)) {}
};

Shared& Instance() {
  static Shared s;
  return s;
}

template <template <class, class, class> class PQ>
void BM_AnyKPartCandPQ(benchmark::State& state) {
  auto& s = Instance();
  const size_t k = static_cast<size_t>(state.range(0));
  EnumOptions eo;
  eo.k_budget = k;
  for (auto _ : state) {
    AnyKPartEnumerator<TropicalDioid, Take2Strategy, PQ> e(&s.g, eo);
    size_t produced = 0;
    while (e.Next()) ++produced;
    benchmark::DoNotOptimize(produced);
  }
  state.SetItemsProcessed(state.iterations() * k);
}

void ArityThresholdArgs(benchmark::internal::Benchmark* b) {
  for (int k : {1, 10, 64, 1000, 10000, 65536, 262144}) b->Arg(k);
}
BENCHMARK_TEMPLATE(BM_AnyKPartCandPQ, BoundedBinaryHeap)
    ->Apply(ArityThresholdArgs);
BENCHMARK_TEMPLATE(BM_AnyKPartCandPQ, BoundedQuadHeap)
    ->Apply(ArityThresholdArgs);
BENCHMARK_TEMPLATE(BM_AnyKPartCandPQ, BoundedOctHeap)
    ->Apply(ArityThresholdArgs);

template <template <class> class Strategy>
void BM_Strategy(benchmark::State& state) {
  auto& s = Instance();
  const size_t k = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    AnyKPartEnumerator<TropicalDioid, Strategy> e(&s.g);
    size_t produced = 0;
    while (produced < k && e.Next()) ++produced;
    benchmark::DoNotOptimize(produced);
  }
  state.SetItemsProcessed(state.iterations() * k);
}

void BM_StrategyTake2(benchmark::State& s) { BM_Strategy<Take2Strategy>(s); }
void BM_StrategyLazy(benchmark::State& s) { BM_Strategy<LazyStrategy>(s); }
void BM_StrategyEager(benchmark::State& s) { BM_Strategy<EagerStrategy>(s); }
void BM_StrategyAll(benchmark::State& s) { BM_Strategy<AllStrategy>(s); }
BENCHMARK(BM_StrategyTake2)->Arg(10000);
BENCHMARK(BM_StrategyLazy)->Arg(10000);
BENCHMARK(BM_StrategyEager)->Arg(10000);
BENCHMARK(BM_StrategyAll)->Arg(10000);

// Group vs monoid arithmetic (Section 6.2): with the dioid inverse, T-DP
// deviation weights update in O(1); without, the open frontier is rebuilt.
struct StarShared {
  Database db;
  ConjunctiveQuery q;
  TDPInstance inst;
  StageGraph<TropicalDioid> g_inv;
  StageGraph<TropicalMonoidDioid> g_mon;
  StarShared()
      : db(MakeStarDatabase(100000, 4, 777)),
        q(ConjunctiveQuery::Star(4)),
        inst(BuildAcyclicInstance(db, q)),
        g_inv(BuildStageGraph<TropicalDioid>(inst)),
        g_mon(BuildStageGraph<TropicalMonoidDioid>(inst)) {}
};

StarShared& StarInstance() {
  static StarShared s;
  return s;
}

void BM_Take2GroupInverse(benchmark::State& state) {
  auto& s = StarInstance();
  const size_t k = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    AnyKPartEnumerator<TropicalDioid, Take2Strategy> e(&s.g_inv);
    size_t produced = 0;
    while (produced < k && e.Next()) ++produced;
    benchmark::DoNotOptimize(produced);
  }
  state.SetItemsProcessed(state.iterations() * k);
}

void BM_Take2MonoidFallback(benchmark::State& state) {
  auto& s = StarInstance();
  const size_t k = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    AnyKPartEnumerator<TropicalMonoidDioid, Take2Strategy> e(&s.g_mon);
    size_t produced = 0;
    while (produced < k && e.Next()) ++produced;
    benchmark::DoNotOptimize(produced);
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_Take2GroupInverse)->Arg(20000);
BENCHMARK(BM_Take2MonoidFallback)->Arg(20000);

template <size_t Arity>
void BM_HeapOps(benchmark::State& state) {
  Rng rng(1);
  std::vector<double> vals(1 << 16);
  for (auto& v : vals) v = static_cast<double>(rng.Uniform(0, 1 << 20));
  for (auto _ : state) {
    DAryHeap<double, std::less<double>, std::allocator<double>, Arity> h;
    for (double v : vals) h.Push(v);
    double sink = 0;
    while (!h.Empty()) sink += h.PopMin();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * vals.size());
}
BENCHMARK_TEMPLATE(BM_HeapOps, 2);
BENCHMARK_TEMPLATE(BM_HeapOps, 4);
BENCHMARK_TEMPLATE(BM_HeapOps, 8);

}  // namespace

BENCHMARK_MAIN();
