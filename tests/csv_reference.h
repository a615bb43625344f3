// Reference CSV reader for the loader's differential fuzz (csv_test): the
// line-at-a-time loader that src/storage/csv.cc replaced (one std::getline
// string per line, one std::string per field), kept verbatim except that its
// functions are inline for a header. It defines the accepted inputs and the
// diagnostics the block parser must reproduce byte for byte; nothing in the
// library links against it.

#ifndef ANYK_TESTS_CSV_REFERENCE_H_
#define ANYK_TESTS_CSV_REFERENCE_H_

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "storage/csv.h"
#include "storage/database.h"
#include "util/logging.h"

namespace anyk {
namespace csv_reference {

// Manual split: istringstream+getline would drop a trailing empty field
// ("1,2," must be three fields so the ragged-row check can fire).
inline std::vector<std::string> SplitLine(const std::string& line,
                                          char delim) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    const size_t end = line.find(delim, start);
    if (end == std::string::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, end - start));
    start = end + 1;
  }
}

// "path:line" prefix for loader diagnostics.
inline std::string At(const std::string& path, size_t line) {
  return path + ":" + std::to_string(line);
}

inline int64_t ParseInt(const std::string& s, const std::string& path,
                        size_t line) {
  int64_t v = 0;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  while (begin < end && (*begin == ' ' || *begin == '\t')) ++begin;
  auto [ptr, ec] = std::from_chars(begin, end, v);
  while (ptr < end && (*ptr == ' ' || *ptr == '\t')) ++ptr;
  ANYK_CHECK(ec == std::errc() && ptr == end)
      << At(path, line) << ": bad integer '" << s << "'";
  return v;
}

// std::from_chars, not std::stod: stod honors the process locale, so under
// a comma-decimal locale (de_DE style) it silently truncates "3.5" to 3.
// from_chars always parses the C locale ("." radix) regardless of any
// setlocale() the embedding process performed.
inline double ParseDouble(const std::string& s, const std::string& path,
                          size_t line) {
  double v = 0;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  while (begin < end && (*begin == ' ' || *begin == '\t')) ++begin;
  // from_chars rejects an explicit leading '+' (stod accepted it, and CSVs
  // in the wild carry it); skip it when a digit or '.' follows.
  if (begin + 1 < end && *begin == '+' &&
      ((begin[1] >= '0' && begin[1] <= '9') || begin[1] == '.')) {
    ++begin;
  }
  auto [ptr, ec] = std::from_chars(begin, end, v);
  while (ptr < end && (*ptr == ' ' || *ptr == '\t')) ++ptr;
  ANYK_CHECK(ec == std::errc() && ptr == end)
      << At(path, line) << ": bad weight '" << s << "'";
  // NaN is incomparable and ±∞ absorbs ⊗, so either breaks the total order
  // a selective dioid needs (Section 2.2); reject at the boundary.
  ANYK_CHECK(std::isfinite(v))
      << At(path, line) << ": non-finite weight '" << s << "'";
  return v;
}

inline Relation& LoadRelationCsv(Database* db, const std::string& name,
                                 const std::string& path,
                                 const CsvOptions& opts) {
  // An explicit weight_column and weight_last are mutually exclusive: with
  // weight_last the column is recomputed from the first data row's width,
  // silently overriding a weight_column that may well be valid for the
  // data. Reject the ambiguity instead of guessing which one was meant.
  ANYK_CHECK(!(opts.weight_last && opts.weight_column >= 0))
      << path << ": CsvOptions sets both weight_column ("
      << opts.weight_column
      << ") and weight_last; pick one";
  std::ifstream in(path);
  ANYK_CHECK(in.good()) << "cannot open " << path;
  std::string line;
  size_t lineno = 0;
  if (opts.has_header && std::getline(in, line)) ++lineno;

  size_t arity = 0;
  int weight_column = opts.weight_column;
  Relation* rel = nullptr;
  // Parsed rows are staged column-major into fixed-size shards and appended
  // with one contiguous insert per column segment (AppendColumnChunk)
  // instead of a per-row push into every column.
  constexpr size_t kShardRows = 4096;
  std::vector<std::vector<Value>> shard_cols;
  std::vector<double> shard_weights;
  std::vector<const Value*> shard_ptrs;
  const auto flush_shard = [&] {
    if (shard_weights.empty()) return;
    shard_ptrs.clear();
    for (const auto& col : shard_cols) shard_ptrs.push_back(col.data());
    rel->AppendColumnChunk(shard_ptrs, shard_weights);
    for (auto& col : shard_cols) col.clear();
    shard_weights.clear();
  };
  size_t loaded = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    auto fields = SplitLine(line, opts.delimiter);
    if (rel == nullptr) {
      const size_t cols = fields.size();
      if (opts.weight_last) weight_column = static_cast<int>(cols) - 1;
      ANYK_CHECK(weight_column < static_cast<int>(cols))
          << At(path, lineno) << ": weight column " << weight_column
          << " out of range (row has " << cols << " columns)";
      arity = cols - (weight_column >= 0 ? 1 : 0);
      ANYK_CHECK(arity >= 1)
          << At(path, lineno) << ": no value columns";
      rel = &db->AddRelation(name, arity);
      shard_cols.resize(arity);
      for (auto& col : shard_cols) col.reserve(kShardRows);
      shard_weights.reserve(kShardRows);
    }
    const size_t expected_cols = arity + (weight_column >= 0 ? 1 : 0);
    ANYK_CHECK(fields.size() == expected_cols)
        << At(path, lineno) << ": ragged row (expected " << expected_cols
        << " columns, got " << fields.size() << ")";
    double weight = 0;
    size_t out_c = 0;
    for (size_t c = 0; c < fields.size(); ++c) {
      if (static_cast<int>(c) == weight_column) {
        weight = ParseDouble(fields[c], path, lineno);
      } else {
        shard_cols[out_c++].push_back(ParseInt(fields[c], path, lineno));
      }
    }
    shard_weights.push_back(weight);
    if (shard_weights.size() >= kShardRows) flush_shard();
    if (opts.limit > 0 && ++loaded >= opts.limit) break;
  }
  if (rel != nullptr) flush_shard();
  // Header-only files land here too: the header was consumed above, so
  // "empty" would mislead — the file exists and may even be non-empty, it
  // just has no data rows to infer the arity (and load anything) from.
  ANYK_CHECK(rel != nullptr) << "no data rows in " << path;
  return *rel;
}

}  // namespace csv_reference
}  // namespace anyk

#endif  // ANYK_TESTS_CSV_REFERENCE_H_
