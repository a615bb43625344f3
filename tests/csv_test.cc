// CsvLoader tests: options (header, delimiter, weight column, row limit),
// save/load roundtrip, and — the part the CLI depends on for diagnosable
// failures — error messages that carry the file name and line number. The
// block parser is pinned two more ways: an allocation bound (rows parse in
// place, not through the allocator) and a seeded mutation fuzz against the
// line-at-a-time reference reader (tests/csv_reference.h).

#include <bit>
#include <clocale>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <limits>
#include <string>
#include <vector>
#include <gtest/gtest.h>

#include "csv_reference.h"
#include "storage/csv.h"
#include "storage/database.h"
#include "util/alloc_stats.h"
#include "util/logging.h"
#include "util/random.h"

namespace anyk {
namespace {

std::string WriteTemp(const std::string& name, const std::string& content) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << content;
  return path;
}

TEST(CsvTest, LoadsRowsAndExplicitWeightColumn) {
  const std::string path =
      WriteTemp("basic.csv", "1,7,2.5\n3,8,0.25\n\n4,9,1\n");
  Database db;
  CsvOptions opts;
  opts.weight_column = 2;
  const Relation& rel = LoadRelationCsv(&db, "R", path, opts);
  EXPECT_EQ(rel.arity(), 2u);
  ASSERT_EQ(rel.NumRows(), 3u);  // blank line skipped
  EXPECT_EQ(rel.At(0, 0), 1);
  EXPECT_EQ(rel.At(0, 1), 7);
  EXPECT_DOUBLE_EQ(rel.Weight(0), 2.5);
  EXPECT_DOUBLE_EQ(rel.Weight(1), 0.25);
}

TEST(CsvTest, WeightLastHeaderAndRowLimit) {
  const std::string path = WriteTemp(
      "header.csv", "src,dst,w\n1,2,10\n3,4,20\n5,6,30\n");
  Database db;
  CsvOptions opts;
  opts.has_header = true;
  opts.weight_last = true;
  opts.limit = 2;
  const Relation& rel = LoadRelationCsv(&db, "E", path, opts);
  EXPECT_EQ(rel.arity(), 2u);
  ASSERT_EQ(rel.NumRows(), 2u);
  EXPECT_DOUBLE_EQ(rel.Weight(1), 20.0);
}

TEST(CsvTest, WeightlessRowsDefaultToZero) {
  const std::string path = WriteTemp("noweight.csv", "1,2\n3,4\n");
  Database db;
  const Relation& rel = LoadRelationCsv(&db, "R", path, CsvOptions{});
  EXPECT_EQ(rel.arity(), 2u);
  EXPECT_DOUBLE_EQ(rel.Weight(0), 0.0);
}

TEST(CsvTest, SaveLoadRoundtrip) {
  Database db;
  Relation& rel = db.AddRelation("R", 2);
  rel.Add({1, 2}, 0.5);
  rel.Add({3, 4}, 1.5);
  const std::string path = ::testing::TempDir() + "roundtrip.csv";
  SaveRelationCsv(rel, path);

  Database db2;
  CsvOptions opts;
  opts.weight_last = true;
  const Relation& back = LoadRelationCsv(&db2, "R", path, opts);
  ASSERT_EQ(back.NumRows(), 2u);
  EXPECT_EQ(back.At(1, 0), 3);
  EXPECT_EQ(back.At(1, 1), 4);
  EXPECT_DOUBLE_EQ(back.Weight(1), 1.5);
}

// ---- Error reporting: messages must carry file name and line number. ----

TEST(CsvTest, BadIntegerReportsFileAndLine) {
  const std::string path = WriteTemp("bad_int.csv", "1,2,1\n2,x,3\n");
  Database db;
  CsvOptions opts;
  opts.weight_last = true;
  EXPECT_DEATH(LoadRelationCsv(&db, "R", path, opts),
               "bad_int\\.csv:2: bad integer 'x'");
}

TEST(CsvTest, BadWeightReportsFileAndLine) {
  const std::string path = WriteTemp("bad_weight.csv", "1,2,1\n3,4,oops\n");
  Database db;
  CsvOptions opts;
  opts.weight_last = true;
  EXPECT_DEATH(LoadRelationCsv(&db, "R", path, opts),
               "bad_weight\\.csv:2: bad weight 'oops'");
}

TEST(CsvTest, RaggedRowReportsFileAndLine) {
  // Second row is short by one field; with weight-last this must not be
  // silently read as "two values, default weight".
  const std::string path = WriteTemp("ragged.csv", "1,2,1\n3,4\n");
  Database db;
  CsvOptions opts;
  opts.weight_last = true;
  EXPECT_DEATH(LoadRelationCsv(&db, "R", path, opts),
               "ragged\\.csv:2: ragged row \\(expected 3 columns, got 2\\)");
}

TEST(CsvTest, EmptyTrailingWeightFieldIsDiagnosed) {
  // "1,2," must parse as three fields (empty weight), not silently collapse
  // to a binary row with a value column promoted to the weight.
  const std::string path = WriteTemp("trailing.csv", "1,2,\n3,4,\n");
  Database db;
  CsvOptions opts;
  opts.weight_last = true;
  EXPECT_DEATH(LoadRelationCsv(&db, "R", path, opts),
               "trailing\\.csv:1: bad weight ''");
}

TEST(CsvTest, HeaderCountsTowardLineNumbers) {
  const std::string path =
      WriteTemp("hdr_lines.csv", "a,b,w\n1,2,1\nx,2,1\n");
  Database db;
  CsvOptions opts;
  opts.has_header = true;
  opts.weight_last = true;
  EXPECT_DEATH(LoadRelationCsv(&db, "R", path, opts),
               "hdr_lines\\.csv:3: bad integer 'x'");
}

TEST(CsvTest, MissingFileReportsPath) {
  Database db;
  EXPECT_DEATH(
      LoadRelationCsv(&db, "R", "/nonexistent/missing.csv", CsvOptions{}),
      "cannot open /nonexistent/missing\\.csv");
}

TEST(CsvTest, ReadErrorReportsPath) {
  // A directory opens but every read fails (EISDIR): that is a read error,
  // not an empty file.
  const std::string dir = ::testing::TempDir();
  Database db;
  EXPECT_DEATH(LoadRelationCsv(&db, "R", dir, CsvOptions{}),
               "cannot read " + dir);
}

TEST(CsvTest, HeaderOnlyFileSaysNoDataRows) {
  // A file holding only its header is not "empty"; the diagnosis must say
  // that no data rows were found (and where), not imply a zero-byte file.
  const std::string path = WriteTemp("header_only.csv", "src,dst,w\n");
  Database db;
  CsvOptions opts;
  opts.has_header = true;
  opts.weight_last = true;
  EXPECT_DEATH(LoadRelationCsv(&db, "R", path, opts),
               "no data rows in .*header_only\\.csv");
}

TEST(CsvTest, TrulyEmptyFileAlsoSaysNoDataRows) {
  const std::string path = WriteTemp("zero_rows.csv", "");
  Database db;
  EXPECT_DEATH(LoadRelationCsv(&db, "R", path, CsvOptions{}),
               "no data rows in .*zero_rows\\.csv");
}

TEST(CsvTest, WeightColumnPlusWeightLastIsRejected) {
  // weight_column = 2 is perfectly valid for these rows, but weight_last
  // would recompute (and here happen to agree with) it; the loader must
  // reject the ambiguous combination instead of silently picking one.
  const std::string path = WriteTemp("conflict.csv", "1,2,0.5\n3,4,1.5\n");
  Database db;
  CsvOptions opts;
  opts.weight_column = 2;
  opts.weight_last = true;
  EXPECT_DEATH(LoadRelationCsv(&db, "R", path, opts),
               "conflict\\.csv: CsvOptions sets both weight_column \\(2\\) "
               "and weight_last");
}

// ---- Weight parsing: locale independence and dioid-safe values. ----

TEST(CsvTest, WeightParsingIsLocaleIndependent) {
  // Under a comma-decimal locale, std::stod would have parsed "2.5" as 2
  // (stopping at the '.') or accepted "2,5"; the loader now uses
  // std::from_chars, which is locale-blind. Skip if the locale is absent
  // from the image.
  const char* prev = std::setlocale(LC_NUMERIC, "de_DE.UTF-8");
  if (prev == nullptr) {
    GTEST_SKIP() << "de_DE.UTF-8 locale not installed";
  }
  const std::string path = WriteTemp("locale.csv", "1,2,2.5\n3,4,0.125\n");
  Database db;
  CsvOptions opts;
  opts.weight_last = true;
  const Relation& rel = LoadRelationCsv(&db, "R", path, opts);
  std::setlocale(LC_NUMERIC, "C");
  ASSERT_EQ(rel.NumRows(), 2u);
  EXPECT_DOUBLE_EQ(rel.Weight(0), 2.5);
  EXPECT_DOUBLE_EQ(rel.Weight(1), 0.125);
}

TEST(CsvTest, ScientificAndSignedWeightsParse) {
  const std::string path =
      WriteTemp("sci.csv", "1,2,1e-3\n3,4,-2.5E2\n5,6,+0.5\n");
  Database db;
  CsvOptions opts;
  opts.weight_last = true;
  const Relation& rel = LoadRelationCsv(&db, "R", path, opts);
  ASSERT_EQ(rel.NumRows(), 3u);
  EXPECT_DOUBLE_EQ(rel.Weight(0), 1e-3);
  EXPECT_DOUBLE_EQ(rel.Weight(1), -250.0);
  EXPECT_DOUBLE_EQ(rel.Weight(2), 0.5);
}

TEST(CsvTest, NanWeightIsRejectedWithFileAndLine) {
  // NaN breaks the dioids' total order (every comparison is false), so a
  // NaN weight must be a load-time diagnostic, not a silent heap poison.
  const std::string path = WriteTemp("nan.csv", "1,2,1\n3,4,nan\n");
  Database db;
  CsvOptions opts;
  opts.weight_last = true;
  EXPECT_DEATH(LoadRelationCsv(&db, "R", path, opts),
               "nan\\.csv:2: non-finite weight 'nan'");
}

TEST(CsvTest, InfiniteWeightIsRejectedWithFileAndLine) {
  // ±∞ collides with the dioids' Zero() sentinels.
  const std::string path = WriteTemp("inf.csv", "1,2,inf\n");
  Database db;
  CsvOptions opts;
  opts.weight_last = true;
  EXPECT_DEATH(LoadRelationCsv(&db, "R", path, opts),
               "inf\\.csv:1: non-finite weight 'inf'");
}

TEST(CsvTest, TrailingGarbageAfterWeightIsRejected) {
  // from_chars reports where parsing stopped; "1.5x" must not load as 1.5.
  const std::string path = WriteTemp("garbage.csv", "1,2,1.5x\n");
  Database db;
  CsvOptions opts;
  opts.weight_last = true;
  EXPECT_DEATH(LoadRelationCsv(&db, "R", path, opts),
               "garbage\\.csv:1: bad weight '1\\.5x'");
}

// ---- Columnar shard staging: loads larger than one shard stay exact. ----

TEST(CsvTest, MultiShardLoadMatchesRowByRowAppend) {
  // The loader stages rows column-major in 4096-row shards before flushing
  // via AppendColumnChunk; a file crossing several shard boundaries must
  // load byte-identically to row-at-a-time appends.
  constexpr size_t kRows = 10000;  // 2 full shards + a partial tail
  std::string content;
  content.reserve(kRows * 16);
  for (size_t i = 0; i < kRows; ++i) {
    content += std::to_string(i) + "," + std::to_string(i * 7 % 911) + "," +
               std::to_string(i % 13) + ".5\n";
  }
  const std::string path = WriteTemp("shards.csv", content);
  Database db;
  CsvOptions opts;
  opts.weight_last = true;
  const Relation& rel = LoadRelationCsv(&db, "R", path, opts);
  ASSERT_EQ(rel.NumRows(), kRows);
  for (size_t i = 0; i < kRows; ++i) {
    ASSERT_EQ(rel.At(i, 0), static_cast<Value>(i));
    ASSERT_EQ(rel.At(i, 1), static_cast<Value>(i * 7 % 911));
    ASSERT_DOUBLE_EQ(rel.Weight(i), static_cast<double>(i % 13) + 0.5);
  }
}

// ---- The throwing check handler (what the CLI installs). ----

TEST(CsvTest, ThrowingHandlerTurnsCheckFailuresIntoExceptions) {
  auto prev = SetCheckFailureHandler(&ThrowingCheckHandler);
  Database db;
  CsvOptions opts;
  opts.weight_last = true;
  const std::string path = WriteTemp("throwing.csv", "1,2,1\n2,x,3\n");
  try {
    LoadRelationCsv(&db, "R", path, opts);
    SetCheckFailureHandler(prev);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    SetCheckFailureHandler(prev);
    EXPECT_NE(std::string(e.what()).find("throwing.csv:2"),
              std::string::npos);
  }
}

// ---- Saving: numbers survive a save/load round trip bit for bit. ----

TEST(CsvTest, SaveReloadKeepsWeightsBitIdentical) {
  // Six significant digits (an ofstream's default) would save 123456789 as
  // 1.23457e+08, which reloads as 123457000.
  const double weights[] = {1234567.5, 123456789, 0.1, -2.5e17, 1e-300};
  const Value values[] = {0, -1, std::numeric_limits<Value>::min(),
                          std::numeric_limits<Value>::max(), 1234567890123};
  Database db;
  Relation& rel = db.AddRelation("R", 2);
  for (size_t i = 0; i < 5; ++i) {
    rel.Add({values[i], values[4 - i]}, weights[i]);
  }
  const std::string path = ::testing::TempDir() + "precision.csv";
  SaveRelationCsv(rel, path);

  Database db2;
  CsvOptions opts;
  opts.weight_last = true;
  const Relation& back = LoadRelationCsv(&db2, "R", path, opts);
  ASSERT_EQ(back.NumRows(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(back.At(i, 0), values[i]);
    EXPECT_EQ(back.At(i, 1), values[4 - i]);
    EXPECT_EQ(std::bit_cast<uint64_t>(back.Weight(i)),
              std::bit_cast<uint64_t>(weights[i]))
        << "row " << i << ": saved " << weights[i] << ", reloaded "
        << back.Weight(i);
  }
}

// ---- Repeated relation names: a usage error, never a silent replace. ----

TEST(CsvTest, RepeatedRelationNameNamesBothFiles) {
  EXPECT_EQ(RepeatedRelationError({{"R", "a.csv"}, {"S", "b.csv"}}), "");
  EXPECT_EQ(RepeatedRelationError(
                {{"R", "a.csv"}, {"S", "b.csv"}, {"R", "c.csv"}}),
            "relation R is given twice: a.csv and c.csv");
}

TEST(CsvTest, LoadRelationsRejectsARepeatBeforeReadingAnyFile) {
  auto prev = SetCheckFailureHandler(&ThrowingCheckHandler);
  Database db;
  std::string error;
  try {
    LoadRelationsCsv(&db, {{"R", "/nonexistent/a.csv"},
                           {"R", "/nonexistent/b.csv"}},
                     CsvOptions{}, nullptr);
  } catch (const CheckError& e) {
    error = e.what();
  }
  SetCheckFailureHandler(prev);
  EXPECT_EQ(error,
            "relation R is given twice: /nonexistent/a.csv and "
            "/nonexistent/b.csv");
}

// ---- The block parser: allocation bound. ----

TEST(CsvTest, LoadAllocatesPerBlockNotPerRow) {
  // 100k rows (~1.6 MB, 26 read blocks, 25 staging shards). A
  // line-at-a-time loader makes 3 operator-new calls per row (a getline
  // string plus a vector of field strings): 300k here. What may remain is
  // the read buffer, the staging columns and the relation's geometric
  // growth.
  constexpr size_t kRows = 100000;
  std::string content;
  for (size_t i = 0; i < kRows; ++i) {
    content += std::to_string(i * 7919 % 50000) + "," +
               std::to_string(i % 50000) + "," + std::to_string(i % 10001) +
               "\n";
  }
  const std::string path = WriteTemp("alloc.csv", content);
  Database db;
  CsvOptions opts;
  opts.weight_last = true;
  const AllocCounts before = CurrentAllocCounts();
  const Relation& rel = LoadRelationCsv(&db, "R", path, opts);
  const uint64_t news = AllocDelta(before, CurrentAllocCounts()).news;
  ASSERT_EQ(rel.NumRows(), kRows);
  EXPECT_LE(news, 200u) << "operator new calls for a " << kRows
                        << "-row load";
}

// ---- The block parser: seeded mutation fuzz against the reference. ----

// What one load produced: the relation (values row-major, weights as bit
// patterns so -0.0 and every last ulp count) or the CheckError message.
struct LoadOutcome {
  std::string error;
  size_t arity = 0;
  std::vector<Value> values;
  std::vector<uint64_t> weight_bits;

  bool operator==(const LoadOutcome&) const = default;
};

template <typename LoadFn>
LoadOutcome Load(LoadFn load, const std::string& path,
                 const CsvOptions& opts) {
  LoadOutcome out;
  Database db;
  try {
    const Relation& rel = load(&db, "R", path, opts);
    out.arity = rel.arity();
    for (size_t r = 0; r < rel.NumRows(); ++r) {
      for (size_t c = 0; c < rel.arity(); ++c) {
        out.values.push_back(rel.At(r, c));
      }
      out.weight_bits.push_back(std::bit_cast<uint64_t>(rel.Weight(r)));
    }
  } catch (const CheckError& e) {
    out.error = e.what();
  }
  return out;
}

// Printable form of a (possibly binary) CSV text for failure messages.
std::string Escaped(const std::string& text) {
  std::string out;
  for (size_t i = 0; i < text.size() && i < 400; ++i) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\t') {
      out += "\\t";
    } else if (c < 0x20 || c >= 0x7f) {
      out += "\\x" + std::to_string(c);
    } else {
      out += static_cast<char>(c);
    }
  }
  if (text.size() > 400) {
    out += "...(" + std::to_string(text.size()) + " bytes)";
  }
  return out;
}

std::string Describe(const LoadOutcome& o) {
  if (!o.error.empty()) return "CheckError '" + Escaped(o.error) + "'";
  return "relation arity=" + std::to_string(o.arity) +
         " rows=" + std::to_string(o.weight_bits.size());
}

// Loads `text` with both readers under `opts`; they must agree exactly.
::testing::AssertionResult SameAsReference(const std::string& path,
                                           const std::string& text,
                                           const CsvOptions& opts) {
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
  }
  const LoadOutcome got = Load(&LoadRelationCsv, path, opts);
  const LoadOutcome want = Load(&csv_reference::LoadRelationCsv, path, opts);
  if (got == want) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "block parser: " << Describe(got)
         << "\nreference:    " << Describe(want) << "\noptions: delimiter="
         << (opts.delimiter == '\t' ? "\\t" : ",")
         << " header=" << opts.has_header
         << " weight_column=" << opts.weight_column
         << " weight_last=" << opts.weight_last << " limit=" << opts.limit
         << "\nfile: " << Escaped(text);
}

// Every option combination the fuzz sweeps for one file: header on and off;
// weight last, explicit (`explicit_weight`, which may be out of range) or
// none; row limit 0, 1 and 7.
std::vector<CsvOptions> OptionSweep(char delim, int explicit_weight) {
  std::vector<CsvOptions> sweep;
  for (bool header : {false, true}) {
    for (int weight : {-1, explicit_weight, -2}) {  // -2: weight_last
      for (size_t limit : {0, 1, 7}) {
        CsvOptions opts;
        opts.delimiter = delim;
        opts.has_header = header;
        opts.weight_last = weight == -2;
        opts.weight_column = weight == -2 ? -1 : weight;
        opts.limit = limit;
        sweep.push_back(opts);
      }
    }
  }
  return sweep;
}

// One field in a shape the loader accepts: a signed integer, maybe padded
// with blanks; as a `weight` also with a '+', a fraction or an exponent.
std::string ValidField(Rng* rng, bool weight) {
  const std::string digits = std::to_string(rng->Below(100000));
  switch (rng->Below(weight ? 7 : 4)) {
    case 0: return "-" + digits;
    case 1: return " " + digits + "  ";
    case 4: return "+" + digits;
    case 5: return digits + "." + std::to_string(rng->Below(1000));
    case 6: return digits + "e" + std::to_string(rng->Uniform(-5, 5));
    default: return digits;
  }
}

// A well-formed CSV text: `rows` rows of `cols` fields (the last one
// weight-shaped), with LF or CRLF endings, the odd blank line, and a header
// line when `header` is set.
std::string ValidCsv(Rng* rng, char delim, size_t cols, size_t rows,
                     bool header) {
  std::string text;
  if (header) {
    for (size_t c = 0; c < cols; ++c) {
      if (c > 0) text += delim;
      text += "col" + std::to_string(c);
    }
    text += '\n';
  }
  for (size_t r = 0; r < rows; ++r) {
    if (rng->Bernoulli(0.05)) text += rng->Bernoulli(0.5) ? "\n" : "\r\n";
    for (size_t c = 0; c < cols; ++c) {
      if (c > 0) text += delim;
      text += ValidField(rng, c + 1 == cols);
    }
    text += rng->Bernoulli(0.2) ? "\r\n" : "\n";
  }
  return text;
}

// Applies one seeded mutation: byte insert/delete/replace, an inserted
// CR, LF, NUL, delimiter, space, '+', '-', '.' or 'e', truncation, two
// lines joined, a line duplicated, or the final newline dropped.
void Mutate(Rng* rng, char delim, std::string* text) {
  const size_t pos = text->empty() ? 0 : rng->Below(text->size());
  const char specials[] = {'\r', '\n', '\0', delim, ' ', '+', '-', '.', 'e'};
  switch (rng->Below(9)) {
    case 0:
      text->insert(pos, 1, static_cast<char>(rng->Below(256)));
      break;
    case 1:
      if (!text->empty()) text->erase(pos, 1);
      break;
    case 2:
      if (!text->empty()) (*text)[pos] = static_cast<char>(rng->Below(256));
      break;
    case 3:
    case 4:  // the specials are where the parser's branches are
      text->insert(pos, 1, specials[rng->Below(sizeof(specials))]);
      break;
    case 5:
      text->resize(pos);
      break;
    case 6: {  // join: drop the line break after `pos`
      const size_t nl = text->find('\n', pos);
      if (nl != std::string::npos) text->erase(nl, 1);
      break;
    }
    case 7: {  // duplicate the line holding `pos`
      const size_t begin = text->rfind('\n', pos);
      const size_t from = begin == std::string::npos ? 0 : begin + 1;
      const size_t nl = text->find('\n', pos);
      const size_t to = nl == std::string::npos ? text->size() : nl + 1;
      text->insert(from, text->substr(from, to - from));
      break;
    }
    default:
      if (!text->empty() && text->back() == '\n') text->pop_back();
      break;
  }
}

// Installs the throwing CHECK handler for one test: a loader failure must
// surface as CheckError in both readers, never as an abort.
class CsvFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prev_ = SetCheckFailureHandler(&ThrowingCheckHandler);
  }
  void TearDown() override { SetCheckFailureHandler(prev_); }

 private:
  internal::CheckFailureHandler prev_ = nullptr;
};

TEST_F(CsvFuzzTest, MutatedSmallFilesMatchTheReferenceReader) {
  const std::string path = ::testing::TempDir() + "fuzz_small.csv";
  Rng rng(20201017);
  size_t compared = 0;
  for (char delim : {',', '\t'}) {
    for (int file = 0; file < 150; ++file) {
      const size_t cols = 1 + rng.Below(4);
      std::string text =
          ValidCsv(&rng, delim, cols, rng.Below(12), rng.Bernoulli(0.3));
      const size_t mutations = file % 10 == 0 ? 0 : 1 + rng.Below(3);
      for (size_t m = 0; m < mutations; ++m) Mutate(&rng, delim, &text);
      const int explicit_weight = static_cast<int>(rng.Below(cols + 1));
      for (const CsvOptions& opts : OptionSweep(delim, explicit_weight)) {
        ASSERT_TRUE(SameAsReference(path, text, opts));
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, 2u * 150u * 18u);
}

TEST_F(CsvFuzzTest, MultiBlockFilesMatchTheReferenceReader) {
  // ~4.5 read blocks of rows, so lines straddle every block boundary; each
  // variant also gets mutations aimed at the boundaries themselves.
  const std::string path = ::testing::TempDir() + "fuzz_blocks.csv";
  Rng rng(4242);
  const std::string base = ValidCsv(&rng, ',', 3, 24000, /*header=*/false);
  ASSERT_GT(base.size(), 4 * kCsvReadBlock);
  // One line longer than a block: a value padded with blanks (accepted),
  // and a field of garbage (diagnosed with the whole field quoted).
  const std::string pad(kCsvReadBlock + 17, ' ');
  const std::string garbage(kCsvReadBlock + 5, 'x');
  std::vector<std::string> variants = {
      base,
      "7,8," + pad + "9\n" + base,            // first line > one block
      base + "1," + pad + "2,3",              // last line, no '\n'
      base.substr(0, 3 * kCsvReadBlock + 1) + "\n5," + pad + "6,7\n" +
          base.substr(3 * kCsvReadBlock + 1),  // mid-file, blank line first
      "1,2,3\n4," + garbage + ",6\n" + base,
  };
  for (size_t k = 1; k <= 4; ++k) {  // around each block boundary
    for (size_t at : {k * kCsvReadBlock - 1, k * kCsvReadBlock}) {
      for (char c : {'\r', '\n', '\0', 'x'}) {
        std::string v = base;
        v.insert(at, 1, c);
        variants.push_back(std::move(v));
      }
      std::string crlf = base;  // a CRLF split across the boundary
      crlf.insert(at, "\r\n");
      variants.push_back(std::move(crlf));
      std::string cut = base;
      cut.erase(at, 1);
      variants.push_back(std::move(cut));
    }
  }
  for (int i = 0; i < 8; ++i) {
    std::string v = base;
    for (int m = 0; m < 3; ++m) Mutate(&rng, ',', &v);
    variants.push_back(std::move(v));
  }
  for (const std::string& text : variants) {
    for (bool header : {false, true}) {
      for (int weight : {-1, 1, -2}) {  // none, explicit, weight_last
        CsvOptions opts;
        opts.has_header = header;
        opts.weight_last = weight == -2;
        opts.weight_column = weight == -2 ? -1 : weight;
        ASSERT_TRUE(SameAsReference(path, text, opts));
      }
    }
    CsvOptions limited;  // stops the read two blocks in
    limited.weight_last = true;
    limited.limit = 10000;
    ASSERT_TRUE(SameAsReference(path, text, limited));
  }
}

}  // namespace
}  // namespace anyk
