// Fig. 18 / Section 9.1.2: lexicographic orders that disagree with the
// factorization order. On R1 = {(i,1)}, R2 = {(1,i)}, a factorized
// representation restructured for the order A -> C -> B has size Θ(n^2); we
// emulate that cost with "materialize the product + sort lexicographically".
// Our any-k enumeration under the lexicographic dioid starts emitting after
// O(n) preprocessing.

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "anyk/factory.h"
#include "dioid/lex.h"
#include "dp/stage_graph.h"
#include "harness.h"
#include "query/cq.h"
#include "query/join_tree.h"
#include "util/timer.h"
#include "workload/paper_instances.h"

using namespace anyk;
using namespace anyk::bench;

int main(int argc, char** argv) {
  InitBench(argc, argv, "fig18_lexicographic");
  PrintHeader();
  PaperNote("fig18/sec9.1.2",
            "restructured factorization: Θ(n^2) preprocessing; ours: O(n) "
            "TTF, O(n^2) TTL with logarithmic delay");

  using Lex = LexDioid<4>;
  const std::vector<size_t> ns = SmokeMode()
                                     ? std::vector<size_t>{400, 800}
                                     : std::vector<size_t>{1000, 2000, 4000,
                                                           8000};
  for (size_t n : ns) {
    Database db = MakeFactorizedBadDatabase(n, 1800 + n);
    ConjunctiveQuery q = ConjunctiveQuery::Path(2);

    // Ours: TTF and TT(1000) under the lexicographic dioid.
    auto make = [&]() {
      struct Holder : public Enumerator<Lex> {
        TDPInstance inst;
        StageGraph<Lex> g;
        std::unique_ptr<Enumerator<Lex>> e;
        Holder(const Database& db, const ConjunctiveQuery& q)
            : inst(BuildAcyclicInstance(db, q)),
              g(BuildStageGraph<Lex>(inst)) {
          e = MakeEnumerator<Lex>(&g, Algorithm::kTake2);
        }
        size_t NextBatch(ResultRow<Lex>* rows, size_t n) override {
          return e->NextBatch(rows, n);
        }
      };
      return std::make_unique<Holder>(db, q);
    };
    RunAndPrint<Lex>("fig18", "2path-lex", "factorized-bad", n,
                     "anyk-Take2",
                     std::function<std::unique_ptr<Enumerator<Lex>>()>(make),
                     1000);

    // Restructuring baseline: materialize all n^2 (A, B, C) results and sort
    // them lexicographically before anything can be emitted.
    {
      Timer t;
      std::vector<std::pair<Value, Value>> rows;
      rows.reserve(n * n);
      const Relation& r1 = db.Get("R1");
      const Relation& r2 = db.Get("R2");
      for (size_t i = 0; i < r1.NumRows(); ++i) {
        for (size_t j = 0; j < r2.NumRows(); ++j) {
          rows.emplace_back(r1.At(i, 0), r2.At(j, 1));
        }
      }
      std::sort(rows.begin(), rows.end());
      PrintRow("fig18", "2path-lex", "factorized-bad", n,
               "restructure-baseline(TTF)", 1, t.Seconds());
    }
  }
  return 0;
}
