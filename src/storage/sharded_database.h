// ShardedDatabase: hash-partition a database's relations on a query's join
// keys into S independent shards (ROADMAP Open item 3, in-process stage).
//
// Partitioning scheme — chosen for *correctness under ranked union*, not
// just balance. One join variable v (the "partition variable") is selected
// per (query, S): every answer binds v to exactly one value, so routing all
// rows that can participate in an answer with v = val into shard
// ShardOf(ShardHash(val), S) makes the S per-shard answer streams a DISJOINT
// cover of the full answer set. Concretely, per physical relation:
//
//  * PARTITIONED — every atom referencing the relation contains v, and all
//    of them bind v at the same column c: rows are routed by ShardHash of
//    column c. (First occurrence of v within an atom decides c; a repeated
//    variable like R(v,v) only ever matches rows whose columns agree, so any
//    occurrence routes identically for rows that can match.)
//  * BROADCAST — some referencing atom lacks v, or two atoms disagree on
//    the column (self-joins like R(v,y), R(y,v)): every shard needs all of
//    the relation, so every shard BORROWS the source relation
//    (Database::Borrow) instead of copying it. Its rows join against
//    partitioned rows, which carry the shard assignment, and a borrowed
//    relation keeps the source's row order, so witnesses and tie order are
//    those of the source.
//
// The partition variable is the one maximizing the number of partitioned
// input rows (tie-break: more covering atoms, then lowest variable id — the
// choice is deterministic, which keeps witnesses and bench numbers stable
// for a fixed (query, S)). If no variable partitions anything (e.g. a pure
// self-join chain over one physical relation where every column choice
// conflicts), the plan DEGENERATES: shard 0 borrows every relation and
// shards 1..S-1 hold empty ones — still disjoint, no speedup, never wrong.
//
// Shard construction copies only the partitioned relations, since each
// shard holds a subset of their rows. It reuses the CSV loader's staging
// idiom: rows are staged column-major per shard and flushed through
// Relation::AppendColumnChunk in kStageRows blocks, so the partition pass
// is one sequential sweep per source column with bulk segment inserts on
// the shard side. Partitioned relations are split in parallel on the
// caller's ThreadPool (each (relation, shard) target is a distinct Relation
// object; the catalog entries, owned and borrowed, are created serially
// before the fan-out).
//
// Lifetime: shards borrow from the source database, so a ShardedDatabase
// must not outlive the Database it was built from.
//
// Only relations referenced by the query are sharded — the shards are
// query-scoped execution artifacts (ShardedPreparedQuery owns one), not a
// general-purpose copy of the catalog.

#ifndef ANYK_STORAGE_SHARDED_DATABASE_H_
#define ANYK_STORAGE_SHARDED_DATABASE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "query/cq.h"
#include "storage/database.h"
#include "storage/relation.h"
#include "storage/shard_hash.h"
#include "storage/value.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace anyk {

/// How one physical relation is distributed across the shards.
struct ShardRule {
  std::string relation;
  /// Column whose value routes the row (>= 0), or -1 for broadcast.
  int partition_col = -1;
  bool partitioned() const { return partition_col >= 0; }
};

class ShardedDatabase {
 public:
  /// Partition `db`'s query-referenced relations into `num_shards` shards.
  /// `pool` (optional) parallelizes the per-relation partition passes; it is
  /// only used during construction.
  ShardedDatabase(const Database& db, const ConjunctiveQuery& q,
                  size_t num_shards, ThreadPool* pool = nullptr)
      : shards_(num_shards == 0 ? 1 : num_shards) {
    ChoosePlan(db, q);
    // Fill the catalogs serially (Database's catalog map is not safe to
    // mutate concurrently): broadcast relations are borrowed, partitioned
    // ones get an empty Relation per shard, which the parallel pass fills.
    std::vector<std::vector<Relation*>> targets(rules_.size());
    for (size_t i = 0; i < rules_.size(); ++i) {
      const Relation& src = db.Get(rules_[i].relation);
      for (size_t s = 0; s < shards_.size(); ++s) {
        if (rules_[i].partitioned()) {
          targets[i].push_back(
              &shards_[s].AddRelation(src.name(), src.arity()));
        } else if (s == 0 || !degenerate()) {
          shards_[s].Borrow(src);
        } else {
          // A degenerate plan answers from shard 0 alone.
          shards_[s].AddRelation(src.name(), src.arity());
        }
      }
    }
    ParallelFor(pool, rules_.size(), [&](size_t i) {
      if (!rules_[i].partitioned()) return;
      Partition(db.Get(rules_[i].relation), rules_[i].partition_col,
                targets[i]);
    });
  }

  size_t NumShards() const { return shards_.size(); }
  const Database& shard(size_t s) const { return shards_[s]; }

  /// The chosen partition variable (dense id), or -1 when the plan is
  /// degenerate (everything lives in shard 0).
  int partition_var() const { return partition_var_; }
  bool degenerate() const { return partition_var_ < 0; }

  /// Per-relation distribution rules, in first-reference query order.
  const std::vector<ShardRule>& rules() const { return rules_; }

  bool IsPartitioned(const std::string& relation) const {
    for (const ShardRule& r : rules_) {
      if (r.relation == relation) return r.partitioned();
    }
    return false;
  }

 private:
  /// Rows staged column-major per shard before a bulk AppendColumnChunk —
  /// the same block size the CSV loader flushes at.
  static constexpr size_t kStageRows = 4096;

  /// Pick the partition variable and derive the per-relation rules.
  void ChoosePlan(const Database& db, const ConjunctiveQuery& q) {
    // Unique physical relations in first-reference order, with the atoms
    // referencing each (self-joins reference one relation repeatedly).
    std::vector<std::string> names;
    std::vector<std::vector<size_t>> ref_atoms;
    for (size_t a = 0; a < q.NumAtoms(); ++a) {
      const std::string& rel = q.atom(a).relation;
      size_t idx = names.size();
      for (size_t i = 0; i < names.size(); ++i) {
        if (names[i] == rel) { idx = i; break; }
      }
      if (idx == names.size()) {
        names.push_back(rel);
        ref_atoms.emplace_back();
      }
      ref_atoms[idx].push_back(a);
    }

    size_t best_rows = 0;
    size_t best_atoms = 0;
    std::vector<int> best_cols;  // per unique relation; -1 = broadcast
    for (uint32_t v = 0; v < q.NumVars(); ++v) {
      std::vector<int> cols(names.size(), -1);
      size_t rows = 0;
      size_t atoms = 0;
      for (size_t i = 0; i < names.size(); ++i) {
        int col = -1;
        bool ok = true;
        for (size_t a : ref_atoms[i]) {
          const std::vector<uint32_t>& vars = q.AtomVarIds(a);
          int c = -1;
          for (size_t j = 0; j < vars.size(); ++j) {
            if (vars[j] == v) { c = static_cast<int>(j); break; }
          }
          if (c < 0 || (col >= 0 && c != col)) { ok = false; break; }
          col = c;
        }
        if (ok && col >= 0) {
          cols[i] = col;
          rows += db.Get(names[i]).NumRows();
          atoms += ref_atoms[i].size();
        }
      }
      const bool better =
          partition_var_ < 0 ? rows > 0
                             : (rows > best_rows ||
                                (rows == best_rows && atoms > best_atoms));
      if (better) {
        partition_var_ = static_cast<int>(v);
        best_rows = rows;
        best_atoms = atoms;
        best_cols = std::move(cols);
      }
    }

    rules_.reserve(names.size());
    for (size_t i = 0; i < names.size(); ++i) {
      ShardRule rule;
      rule.relation = names[i];
      rule.partition_col = partition_var_ < 0 ? -1 : best_cols[i];
      rules_.push_back(std::move(rule));
    }
  }

  /// Route `src`'s rows into the per-shard targets by the hash of column
  /// `partition_col`.
  static void Partition(const Relation& src, int partition_col,
                        const std::vector<Relation*>& dst) {
    const size_t arity = src.arity();
    const size_t rows = src.NumRows();
    const Value* route = src.ColumnData(static_cast<size_t>(partition_col));
    std::vector<const Value*> cols(arity);
    for (size_t c = 0; c < arity; ++c) cols[c] = src.ColumnData(c);
    std::span<const double> weights = src.Weights();

    struct Stage {
      std::vector<std::vector<Value>> cols;
      std::vector<double> weights;
      std::vector<const Value*> ptrs;
    };
    std::vector<Stage> stages(dst.size());
    for (Stage& st : stages) {
      st.cols.resize(arity);
      st.ptrs.resize(arity);
    }
    auto flush = [&](size_t s) {
      Stage& st = stages[s];
      if (st.weights.empty()) return;
      for (size_t c = 0; c < arity; ++c) st.ptrs[c] = st.cols[c].data();
      dst[s]->AppendColumnChunk(st.ptrs, st.weights);
      for (size_t c = 0; c < arity; ++c) st.cols[c].clear();
      st.weights.clear();
    };
    for (size_t r = 0; r < rows; ++r) {
      const size_t s = ShardOf(ShardHash(route[r]), dst.size());
      Stage& st = stages[s];
      for (size_t c = 0; c < arity; ++c) st.cols[c].push_back(cols[c][r]);
      st.weights.push_back(weights[r]);
      if (st.weights.size() >= kStageRows) flush(s);
    }
    for (size_t s = 0; s < dst.size(); ++s) flush(s);
  }

  std::vector<Database> shards_;
  std::vector<ShardRule> rules_;
  int partition_var_ = -1;
};

}  // namespace anyk

#endif  // ANYK_STORAGE_SHARDED_DATABASE_H_
