// CSV import/export for relations.
//
// Values are 64-bit integers (dictionary-encode strings upstream); one
// column may be designated as the tuple weight. This is the practical entry
// point for loading edge lists like the paper's Bitcoin OTC snapshot
// (source,target,rating,...).

#ifndef ANYK_STORAGE_CSV_H_
#define ANYK_STORAGE_CSV_H_

#include <cstddef>
#include <string>
#include <vector>

#include "storage/database.h"

namespace anyk {

class ThreadPool;

struct CsvOptions {
  char delimiter = ',';
  bool has_header = false;
  // Index of the weight column (zero-based), or -1 for weightless tuples
  // (weight 0).
  int weight_column = -1;
  // Use the last column of every row as the weight. Resolved once the first
  // data row determines the column count. Mutually exclusive with an
  // explicit weight_column (>= 0): the loader rejects the combination
  // rather than silently preferring one.
  bool weight_last = false;
  // Maximum rows to load (0 = all).
  size_t limit = 0;
};

/// Bytes the loader reads per block into its one reused buffer. A line that
/// straddles two blocks is carried over; one longer than a block grows the
/// buffer.
inline constexpr size_t kCsvReadBlock = size_t{64} << 10;

/// Load `path` into a new relation `name`; arity is the number of non-weight
/// columns of the first row. CHECK-fails on malformed input; messages carry
/// `path:line` so CLI users can locate the offending row. Rows parse in
/// place from block reads, so a load allocates O(columns + log rows) times,
/// not per row.
Relation& LoadRelationCsv(Database* db, const std::string& name,
                          const std::string& path, const CsvOptions& opts = {});

/// One `NAME=FILE.csv` relation source.
struct CsvRelation {
  std::string name;
  std::string path;
};

/// The usage error for the first relation name `sources` declares twice,
/// naming both of its files; empty when every name is distinct. Loading a
/// repeat would keep only the later file under that name, so `anyk` and
/// `anykd` reject it (exit 2) and LoadRelationsCsv CHECK-fails on it.
std::string RepeatedRelationError(const std::vector<CsvRelation>& sources);

/// Load every source as its own relation of `db` (the recipe both `anyk`
/// and `anykd` use). On a multi-threaded `pool` the files parse in
/// parallel, each into a private database; they then merge into `db`
/// serially in declaration order, so diagnostics and relation order stay
/// deterministic. The first CHECK failure propagates (ParallelFor rethrows
/// it). `pool` may be null (serial). A repeated name CHECK-fails before any
/// file is read (RepeatedRelationError).
void LoadRelationsCsv(Database* db, const std::vector<CsvRelation>& sources,
                      const CsvOptions& opts, ThreadPool* pool);

/// Write a relation as CSV with the weight as the last column. Numbers take
/// the shortest form that reads back bit-identical (std::to_chars), in the C
/// locale.
void SaveRelationCsv(const Relation& rel, const std::string& path,
                     char delimiter = ',');

}  // namespace anyk

#endif  // ANYK_STORAGE_CSV_H_
