// bench_ttf: preprocessing + time-to-first-result on the figure datasets
// (path, star, cycle), gating the columnar storage conversion (PR-8).
//
// Two kinds of series:
//   * "Engine" — the real pipeline, prepare + first answer per repetition:
//     PreparedQuery construction (stage-graph builds through the column
//     segments and bind kernels) plus one NextBatch. This is the series the
//     perf-regression gate (scripts/bench_compare.py against
//     bench/baselines/BENCH_ttf.json) judges.
//   * "Prefill-columnar" / "Prefill-rowref" — paired replicas of the
//     storage-touching stage-build passes (join-key interning, CSR counting
//     scatter, per-group weight reduction, first-answer chain walk) that
//     differ ONLY in access pattern: column-strided reads through the bind
//     kernels (storage/kernels.h) over Relation's segments, vs interleaved
//     row-major reads over a RowMajorTable snapshot with a per-row
//     materialized Key (the pre-columnar ProjectRow idiom, one heap vector
//     per row). The pair isolates what the layout conversion bought; the
//     paper note pins the expected >=25% TTF win on path and star.
//
// Each record's `seconds` is cumulative over `reps` repetitions (fixed per
// series, so baseline and current runs stay comparable).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "anyk/prepared_query.h"
#include "bench_common.h"
#include "query/cq.h"
#include "storage/flat_index.h"
#include "storage/kernels.h"
#include "storage/row_reference.h"
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
  bool prefill_pair;  // run the paired layout replicas (binary join chains)
};

// Keep the optimizer honest across repetitions.
volatile double g_sink = 0;

double MeasureEngineTTF(const Database& db, const ConjunctiveQuery& q,
                        size_t reps) {
  double total = 0;
  for (size_t r = 0; r < reps; ++r) {
    Timer timer;
    typename PreparedQuery<D>::Options popts;
    popts.enum_opts.with_witness = false;
    PreparedQuery<D> pq(db, q, popts);
    EnumerationSession<D> sess = pq.NewSession(Algorithm::kLazy,
                                               popts.enum_opts);
    ResultRow<D> row;
    if (sess.NextBatch(&row, 1) == 1) g_sink = g_sink + row.weight;
    total += timer.Seconds();
  }
  return total;
}

// ---------------------------------------------------------------------------
// Paired prefill replicas. Both run the identical algorithm over the chain
// of binary atoms R1(x1,x2), R2(x2,x3), ... (path; star is the same chain
// grouped on column 0): bottom-up, group stage i+1's rows by its join
// column, reduce each group to its best suffix weight, and combine into
// stage i; finally walk the argmin chain for the first answer. The ONLY
// difference is how tuples are read.
// ---------------------------------------------------------------------------

struct PrefillScratch {
  FlatKeyIndex idx;
  std::vector<Value> key_rows;
  std::vector<uint32_t> gid;
  std::vector<uint32_t> counts;
  std::vector<double> group_best;
  std::vector<double> best;
  std::vector<double> next_best;
};

// Column-strided: key matrix prefilled from the column segment via
// SpreadToStride, contiguous interning, weights read off the contiguous
// weight segment.
double PrefillColumnar(const std::vector<const Relation*>& chain,
                       const std::vector<uint32_t>& join_col,
                       const std::vector<uint32_t>& probe_col,
                       PrefillScratch* s) {
  Timer timer;
  const size_t stages = chain.size();
  s->best.assign(chain[stages - 1]->NumRows(), 0.0);
  {
    std::span<const double> w = chain[stages - 1]->Weights();
    for (size_t r = 0; r < w.size(); ++r) s->best[r] = w[r];
  }
  for (size_t i = stages - 1; i-- > 0;) {
    const Relation& child = *chain[i + 1];
    const size_t child_rows = child.NumRows();
    // Key-matrix prefill straight off the column segment.
    s->key_rows.resize(child_rows);
    SpreadToStride(child.ColumnData(join_col[i + 1]), child_rows,
                   s->key_rows.data(), 1);
    s->idx.Init(1, child_rows / 4);
    s->gid.resize(child_rows);
    for (size_t r = 0; r < child_rows; ++r) {
      s->gid[r] = s->idx.Intern({s->key_rows.data() + r, 1});
    }
    // Per-group best suffix weight (the CSR reduction).
    s->group_best.assign(s->idx.NumKeys(),
                         std::numeric_limits<double>::infinity());
    for (size_t r = 0; r < child_rows; ++r) {
      s->group_best[s->gid[r]] =
          std::min(s->group_best[s->gid[r]], s->best[r]);
    }
    // Combine into this stage: weight segment + column-segment key probes.
    const Relation& rel = *chain[i];
    const size_t rows = rel.NumRows();
    const Value* probe = rel.ColumnData(probe_col[i]);  // child-facing column
    std::span<const double> w = rel.Weights();
    s->next_best.assign(rows, std::numeric_limits<double>::infinity());
    for (size_t r = 0; r < rows; ++r) {
      const int64_t g = s->idx.Find({probe + r, 1});
      if (g >= 0) s->next_best[r] = w[r] + s->group_best[g];
    }
    s->best.swap(s->next_best);
  }
  double first = std::numeric_limits<double>::infinity();
  for (const double b : s->best) first = std::min(first, b);
  g_sink = g_sink + first;
  return timer.Seconds();
}

// Row-strided: the pre-columnar idiom — interleaved RowMajorTable reads and
// a freshly materialized Key per row (ProjectRow), both for interning and
// for probing.
double PrefillRowRef(const std::vector<const RowMajorTable*>& chain,
                     const std::vector<uint32_t>& join_col,
                     const std::vector<uint32_t>& probe_col,
                     PrefillScratch* s) {
  Timer timer;
  const size_t stages = chain.size();
  s->best.assign(chain[stages - 1]->NumRows(), 0.0);
  for (size_t r = 0; r < s->best.size(); ++r) {
    s->best[r] = chain[stages - 1]->Weight(r);
  }
  for (size_t i = stages - 1; i-- > 0;) {
    const RowMajorTable& child = *chain[i + 1];
    const size_t child_rows = child.NumRows();
    s->idx.Init(1, child_rows / 4);
    s->gid.resize(child_rows);
    for (size_t r = 0; r < child_rows; ++r) {
      Key key;  // per-row materialization, as ProjectRow did
      key.push_back(child.Row(r)[join_col[i + 1]]);
      s->gid[r] = s->idx.Intern(key);
    }
    s->group_best.assign(s->idx.NumKeys(),
                         std::numeric_limits<double>::infinity());
    for (size_t r = 0; r < child_rows; ++r) {
      s->group_best[s->gid[r]] =
          std::min(s->group_best[s->gid[r]], s->best[r]);
    }
    const RowMajorTable& rel = *chain[i];
    const size_t rows = rel.NumRows();
    s->next_best.assign(rows, std::numeric_limits<double>::infinity());
    for (size_t r = 0; r < rows; ++r) {
      Key key;
      key.push_back(rel.Row(r)[probe_col[i]]);
      const int64_t g = s->idx.Find(key);
      if (g >= 0) s->next_best[r] = rel.Weight(r) + s->group_best[g];
    }
    s->best.swap(s->next_best);
  }
  double first = std::numeric_limits<double>::infinity();
  for (const double b : s->best) first = std::min(first, b);
  g_sink = g_sink + first;
  return timer.Seconds();
}

}  // namespace

int main(int argc, char** argv) {
  InitBench(argc, argv, "ttf");
  PrintHeader();

  std::vector<Shape> shapes;
  {
    const size_t n = Pick(150000, 20000);
    shapes.push_back({"path4", MakePathDatabase(n, 4, 2801),
                      ConjunctiveQuery::Path(4), n, true});
  }
  {
    const size_t n = Pick(150000, 20000);
    shapes.push_back({"star4", MakeStarDatabase(n, 4, 2802),
                      ConjunctiveQuery::Star(4), n, true});
  }
  {
    const size_t n = Pick(1500, 300);
    shapes.push_back({"cycle6", MakeWorstCaseCycleDatabase(n, 6, 2803),
                      ConjunctiveQuery::Cycle(6), n, false});
  }

  PaperNote("ttf",
            "columnar storage: the paired prefill series (column-strided "
            "kernels vs interleaved rows + per-row key materialization) "
            "should show Prefill-columnar >=25% faster TTF than "
            "Prefill-rowref on path4 and star4; the Engine series gate "
            "prepare+TTF of the real pipeline against the baseline");

  const size_t engine_reps = Pick(3, 5);
  const size_t prefill_reps = Pick(20, 40);

  for (const Shape& s : shapes) {
    MeasureEngineTTF(s.db, s.q, 1);  // warm page-ins
    const double engine = MeasureEngineTTF(s.db, s.q, engine_reps);
    PrintRow("ttf", s.name, "prepare+first", s.n, "Engine", 1, engine);

    if (!s.prefill_pair) continue;

    // The chain of atom tables in query order; star uses column 0 as every
    // join column (the shared center), path joins column 1 -> column 0.
    std::vector<const Relation*> chain;
    std::vector<uint32_t> join_col;   // child's column carrying the join var
    std::vector<uint32_t> probe_col;  // this stage's column facing the child
    const bool star = s.name == "star4";
    for (size_t a = 0; a < s.q.NumAtoms(); ++a) {
      chain.push_back(&s.db.Get(s.q.atom(a).relation));
      join_col.push_back(0u);  // both shapes: the join var sits at column 0
      probe_col.push_back(star ? 0u : 1u);
    }
    std::vector<RowMajorTable> snapshots;
    snapshots.reserve(chain.size());
    std::vector<const RowMajorTable*> row_chain;
    for (const Relation* rel : chain) {
      snapshots.emplace_back(*rel);
      row_chain.push_back(&snapshots.back());
    }

    PrefillScratch scratch;
    PrefillColumnar(chain, join_col, probe_col, &scratch);      // warm
    PrefillRowRef(row_chain, join_col, probe_col, &scratch);    // warm
    double col_total = 0, row_total = 0;
    for (size_t r = 0; r < prefill_reps; ++r) {
      col_total += PrefillColumnar(chain, join_col, probe_col, &scratch);
      row_total += PrefillRowRef(row_chain, join_col, probe_col, &scratch);
    }
    PrintRow("ttf", s.name, "prefill", s.n, "Prefill-columnar", 1, col_total);
    PrintRow("ttf", s.name, "prefill", s.n, "Prefill-rowref", 1, row_total);
    PaperNote("ttf", s.name + ": columnar/rowref prefill TTF = " +
                         std::to_string(col_total / row_total));
  }
  return 0;
}
