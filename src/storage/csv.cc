#include "storage/csv.h"

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace anyk {

namespace {

// Reads a file one '\n'-terminated line at a time through one reused
// buffer, kCsvReadBlock bytes per std::fread, with std::getline's framing:
// a final line without '\n' is still a line, and a trailing '\n' ends the
// last line rather than starting an empty one. Plain reads, not mmap: a
// file truncated mid-load then reads short instead of raising SIGBUS.
class LineReader {
 public:
  explicit LineReader(const std::string& path)
      : path_(path), file_(std::fopen(path.c_str(), "rb")) {
    ANYK_CHECK(file_ != nullptr) << "cannot open " << path;
  }
  ~LineReader() { std::fclose(file_); }
  LineReader(const LineReader&) = delete;
  LineReader& operator=(const LineReader&) = delete;

  /// The next line without its '\n', viewing the buffer until the next
  /// call; false at end of file.
  bool Next(std::string_view* line) {
    while (true) {
      const char* begin = buf_.data() + pos_;
      const size_t avail = end_ - pos_;
      if (const void* nl = std::memchr(begin, '\n', avail)) {
        const size_t len = static_cast<const char*>(nl) - begin;
        *line = std::string_view(begin, len);
        pos_ += len + 1;
        return true;
      }
      if (eof_) {
        if (avail == 0) return false;
        *line = std::string_view(begin, avail);
        pos_ = end_;
        return true;
      }
      Refill();
    }
  }

 private:
  // Carries the unfinished line to the front of the buffer (doubling the
  // buffer when that line already fills it) and reads behind it.
  void Refill() {
    const size_t carry = end_ - pos_;
    std::memmove(buf_.data(), buf_.data() + pos_, carry);
    pos_ = 0;
    end_ = carry;
    if (end_ == buf_.size()) buf_.resize(2 * buf_.size());
    const size_t want = buf_.size() - end_;
    const size_t got = std::fread(buf_.data() + end_, 1, want, file_);
    end_ += got;
    if (got < want) {
      ANYK_CHECK(!std::ferror(file_)) << "cannot read " << path_;
      eof_ = true;
    }
  }

  const std::string& path_;
  std::vector<char> buf_ = std::vector<char>(kCsvReadBlock);
  std::FILE* file_;  // opened after buf_ is allocated, so nothing leaks it
  size_t pos_ = 0;  // start of the unread bytes
  size_t end_ = 0;  // end of the bytes read so far
  bool eof_ = false;
};

// Manual split: istringstream+getline would drop a trailing empty field
// ("1,2," must be three fields so the ragged-row check can fire). The
// fields view `line`; `fields` keeps its capacity from row to row.
void SplitLine(std::string_view line, char delim,
               std::vector<std::string_view>* fields) {
  fields->clear();
  while (true) {
    const void* hit = std::memchr(line.data(), delim, line.size());
    if (hit == nullptr) {
      fields->push_back(line);
      return;
    }
    const size_t len = static_cast<const char*>(hit) - line.data();
    fields->push_back(line.substr(0, len));
    line.remove_prefix(len + 1);
  }
}

// "path:line" prefix for loader diagnostics.
std::string At(const std::string& path, size_t line) {
  return path + ":" + std::to_string(line);
}

int64_t ParseInt(std::string_view s, const std::string& path, size_t line) {
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
double ParseDouble(std::string_view s, const std::string& path, size_t line) {
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

// Appends `v` in its shortest round-trip form (std::to_chars: C locale).
template <typename T>
void AppendNumber(std::string* out, T v) {
  char buf[32];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

}  // namespace

Relation& LoadRelationCsv(Database* db, const std::string& name,
                          const std::string& path, const CsvOptions& opts) {
  // An explicit weight_column and weight_last are mutually exclusive: with
  // weight_last the column is recomputed from the first data row's width,
  // silently overriding a weight_column that may well be valid for the
  // data. Reject the ambiguity instead of guessing which one was meant.
  ANYK_CHECK(!(opts.weight_last && opts.weight_column >= 0))
      << path << ": CsvOptions sets both weight_column ("
      << opts.weight_column
      << ") and weight_last; pick one";
  LineReader in(path);
  std::string_view line;
  size_t lineno = 0;
  if (opts.has_header && in.Next(&line)) ++lineno;

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
  std::vector<std::string_view> fields;
  size_t loaded = 0;
  while (in.Next(&line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    SplitLine(line, opts.delimiter, &fields);
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

std::string RepeatedRelationError(const std::vector<CsvRelation>& sources) {
  for (size_t i = 0; i < sources.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (sources[j].name == sources[i].name) {
        return "relation " + sources[i].name + " is given twice: " +
               sources[j].path + " and " + sources[i].path;
      }
    }
  }
  return "";
}

void LoadRelationsCsv(Database* db, const std::vector<CsvRelation>& sources,
                      const CsvOptions& opts, ThreadPool* pool) {
  const std::string repeated = RepeatedRelationError(sources);
  ANYK_CHECK(repeated.empty()) << repeated;
  std::vector<Database> parsed(sources.size());
  ParallelFor(pool, sources.size(), [&](size_t i) {
    LoadRelationCsv(&parsed[i], sources[i].name, sources[i].path, opts);
  });
  for (size_t i = 0; i < sources.size(); ++i) {
    db->AddRelation(std::move(parsed[i].GetMutable(sources[i].name)));
  }
}

void SaveRelationCsv(const Relation& rel, const std::string& path,
                     char delimiter) {
  std::ofstream out(path);
  ANYK_CHECK(out.good()) << "cannot write " << path;
  std::string row;
  for (size_t r = 0; r < rel.NumRows(); ++r) {
    row.clear();
    for (size_t c = 0; c < rel.arity(); ++c) {
      AppendNumber(&row, rel.At(r, c));
      row += delimiter;
    }
    AppendNumber(&row, rel.Weight(r));
    row += '\n';
    out.write(row.data(), static_cast<std::streamsize>(row.size()));
  }
}

}  // namespace anyk
