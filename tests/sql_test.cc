// SQL front-end tests: parsing to conjunctive queries, ORDER BY/LIMIT,
// self-join aliases, DESC ranking, projection with all-weight semantics
// (Section 8.1, option 1), oracle agreement, and a seeded mutation fuzz of
// NormalizeSql / ParseSql.

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <vector>
#include <gtest/gtest.h>

#include "dioid/tropical.h"
#include "query/sql.h"
#include "test_util.h"
#include "util/logging.h"
#include "util/random.h"
#include "workload/generators.h"

namespace anyk {
namespace {

TEST(SqlParseTest, PathQueryShape) {
  auto stmt = ParseSql(
      "SELECT * FROM R1, R2, R3 "
      "WHERE R1.A2 = R2.A1 AND R2.A2 = R3.A1 ORDER BY WEIGHT ASC LIMIT 10");
  EXPECT_EQ(stmt.query.NumAtoms(), 3u);
  EXPECT_EQ(stmt.query.NumVars(), 4u);  // path: x1..x4
  EXPECT_TRUE(stmt.ascending);
  EXPECT_EQ(stmt.limit, 10u);
  EXPECT_TRUE(stmt.query.IsFull());
  // Join structure: R1.A2 and R2.A1 are the same variable.
  EXPECT_EQ(stmt.query.AtomVarIds(0)[1], stmt.query.AtomVarIds(1)[0]);
  EXPECT_EQ(stmt.query.AtomVarIds(1)[1], stmt.query.AtomVarIds(2)[0]);
}

TEST(SqlParseTest, CycleWithDescAndAliases) {
  auto stmt = ParseSql(
      "SELECT * FROM E e1, E e2, E e3, E e4 "
      "WHERE e1.A2 = e2.A1 AND e2.A2 = e3.A1 AND e3.A2 = e4.A1 "
      "AND e4.A2 = e1.A1 ORDER BY WEIGHT DESC");
  EXPECT_EQ(stmt.query.NumAtoms(), 4u);
  EXPECT_EQ(stmt.query.NumVars(), 4u);  // closed cycle
  EXPECT_FALSE(stmt.ascending);
  EXPECT_EQ(stmt.limit, 0u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(stmt.query.atom(i).relation, "E");
  }
}

TEST(SqlParseTest, SelectListBecomesProjection) {
  auto stmt = ParseSql(
      "SELECT R1.A1, R2.A2 FROM R1, R2 WHERE R1.A2 = R2.A1");
  ASSERT_EQ(stmt.select_vars.size(), 2u);
  EXPECT_EQ(stmt.select_vars[0], stmt.query.AtomVarIds(0)[0]);
  EXPECT_EQ(stmt.select_vars[1], stmt.query.AtomVarIds(1)[1]);
}

TEST(SqlParseTest, RejectsBadSyntax) {
  EXPECT_DEATH({ ParseSql("SELECT FROM R1"); }, "SQL");
  EXPECT_DEATH({ ParseSql("SELECT * FROM"); }, "SQL");
  EXPECT_DEATH({ ParseSql("SELECT * FROM R1 WHERE R1.A1 = R9.A1"); },
               "unknown table alias");
  EXPECT_DEATH({ ParseSql("SELECT * FROM R1, R1"); }, "duplicate table");
}

TEST(SqlParseTest, RejectsTrailingGarbageWithOffset) {
  // A complete statement followed by junk must not parse. The error carries
  // the byte offset of the first unconsumed token so server clients can
  // point at the problem. Note `FROM R1 garbage` alone is legal (alias
  // syntax); only input after a complete statement is trailing.
  EXPECT_DEATH(
      { ParseSql("SELECT * FROM R1 ORDER BY WEIGHT ASC garbage"); },
      "SQL:37: trailing input");
  EXPECT_DEATH({ ParseSql("SELECT * FROM R1 LIMIT 3 x"); },
               "SQL:[0-9]+: trailing input");
  EXPECT_DEATH({ ParseSql("SELECT * FROM R1; SELECT * FROM R1"); },
               "SQL:[0-9]+: trailing input");
}

TEST(SqlParseTest, RejectsBadLimit) {
  EXPECT_DEATH({ ParseSql("SELECT * FROM R1 LIMIT ten"); },
               "LIMIT expects a positive integer");
  // LIMIT 0 must never reach the engine, where a 0 budget is the
  // "unbounded" sentinel (EnumOptions::k_budget) and would drain everything.
  EXPECT_DEATH({ ParseSql("SELECT * FROM R1 LIMIT 0"); },
               "LIMIT 0 is not a query");
}

TEST(SqlParseTest, RejectsLimitAboveSizeMaxWithOffset) {
  // The largest size_t is a legal LIMIT; one more is a SQL error carrying
  // the token's offset, like every other syntax error — never an exception
  // from outside the CHECK path.
  EXPECT_EQ(ParseSql("SELECT * FROM R1 LIMIT 18446744073709551615").limit,
            SIZE_MAX);
  EXPECT_EQ(ParseSql("SELECT * FROM R1 LIMIT 007").limit, 7u);
  EXPECT_DEATH({ ParseSql("SELECT * FROM R1 LIMIT 18446744073709551616"); },
               "SQL:23: LIMIT expects a positive integer up to "
               "18446744073709551615, got '18446744073709551616'");
  EXPECT_DEATH({ NormalizeSql("SELECT * FROM R1 LIMIT 99999999999999999999"); },
               "SQL:23: LIMIT expects a positive integer up to "
               "18446744073709551615, got '99999999999999999999'");
}

// Installs the throwing CHECK handler: a rejected statement must surface
// as CheckError (the server's 400, the CLI's exit 1), never as an abort or
// another exception.
class SqlCheckErrorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prev_ = SetCheckFailureHandler(&ThrowingCheckHandler);
  }
  void TearDown() override { SetCheckFailureHandler(prev_); }

 private:
  internal::CheckFailureHandler prev_ = nullptr;
};

// The CheckError message `fn` throws; empty if it returns.
template <typename Fn>
std::string CheckErrorOf(Fn fn) {
  try {
    fn();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

// NormalizeSql's CheckError message for `sql`, which ParseSql (without a
// database) must match.
std::string ColumnError(const std::string& sql) {
  const std::string error = CheckErrorOf([&] { NormalizeSql(sql); });
  EXPECT_EQ(CheckErrorOf([&] { ParseSql(sql); }), error) << sql;
  return error;
}

TEST_F(SqlCheckErrorTest, ColumnNumbersAreDigitsOnly) {
  // A suffix after the digits is part of the column token, not ignored: if
  // it were, NormalizeSql would map `R1.A2x` onto R1.A2's cache key.
  EXPECT_EQ(ColumnError("SELECT * FROM R1, R2 WHERE R1.A2x = R2.A1"),
            "SQL:30: bad column 'A2x'; columns are addressed as A1..A4096");
  EXPECT_EQ(ColumnError("SELECT * FROM R1, R2 WHERE R1.A2_7 = R2.A1"),
            "SQL:30: bad column 'A2_7'; columns are addressed as A1..A4096");
  EXPECT_EQ(ColumnError("SELECT R1.A0 FROM R1"),
            "SQL:10: bad column 'A0'; columns are addressed as A1..A4096");
  EXPECT_EQ(ColumnError("SELECT R1.A FROM R1"),
            "SQL:10: bad column 'A'; columns are addressed as A1..A4096");
  EXPECT_EQ(ColumnError("SELECT R1.B2 FROM R1"),
            "SQL:10: bad column 'B2'; columns are addressed as A1..A4096");
  // Leading zeros are digits; the canonical spelling drops them.
  EXPECT_EQ(NormalizeSql("SELECT R1.a002 FROM R1"),
            "SELECT R1.A2 FROM R1 ORDER BY WEIGHT ASC");
  EXPECT_EQ(ParseSql("SELECT R1.A4096 FROM R1").query.AtomVarIds(0).size(),
            4096u);
}

TEST_F(SqlCheckErrorTest, ColumnNumberOverflowIsRejectedWithOffset) {
  // Saturating the number would rename the column (A9223372036854775807),
  // and lowering it without a database would ask for that many slots.
  const std::string sql =
      "SELECT * FROM R1, R2 WHERE R1.A99999999999999999999 = R2.A1";
  EXPECT_EQ(ColumnError(sql),
            "SQL:30: bad column 'A99999999999999999999'; columns are "
            "addressed as A1..A4096");
  EXPECT_EQ(ColumnError("SELECT R1.A4097 FROM R1"),
            "SQL:10: bad column 'A4097'; columns are addressed as A1..A4096");
  EXPECT_EQ(ColumnError("SELECT R1.A18446744073709551615 FROM R1, R2"),
            "SQL:10: bad column 'A18446744073709551615'; columns are "
            "addressed as A1..A4096");
}

TEST_F(SqlCheckErrorTest, ColumnOutOfRangeForTheDatabaseCarriesOffset) {
  Database db;
  db.AddRelation("R1", 2);
  db.AddRelation("R2", 3);
  EXPECT_EQ(ParseSql("SELECT * FROM R1, R2 WHERE R1.A2 = R2.A3", &db)
                .query.NumVars(),
            4u);
  EXPECT_EQ(CheckErrorOf([&] {
              ParseSql("SELECT * FROM R1, R2 WHERE R1.A3 = R2.A1", &db);
            }),
            "SQL:30: column out of range for R1: A3 of 2");
  EXPECT_EQ(CheckErrorOf([&] { ParseSql("SELECT R2.A4 FROM R1, R2", &db); }),
            "SQL:10: column out of range for R2: A4 of 3");
}

TEST(SqlNormalizeTest, CanonicalizesSpellingVariants) {
  const std::string canonical = NormalizeSql(
      "SELECT * FROM R1, R2 WHERE R1.A2 = R2.A1 ORDER BY WEIGHT ASC");
  // Keyword case, whitespace, implicit ASC, lowercase columns, swapped
  // equality sides, and a trailing semicolon all normalize to the same
  // cache key. (Table aliases stay case-sensitive, like the parser.)
  EXPECT_EQ(NormalizeSql("select  *  from R1 ,R2 where R2.a1=R1.a2;"),
            canonical);
  EXPECT_EQ(NormalizeSql(
                "SELECT * FROM R1, R2 WHERE R2.A1 = R1.A2 ORDER BY WEIGHT"),
            canonical);
  // Conjunct order is sorted, so permuted WHERE clauses agree too.
  EXPECT_EQ(
      NormalizeSql("SELECT * FROM R1, R2, R3 "
                   "WHERE R2.A2 = R3.A1 AND R1.A2 = R2.A1"),
      NormalizeSql("SELECT * FROM R1, R2, R3 "
                   "WHERE R1.A2 = R2.A1 AND R2.A2 = R3.A1"));
}

TEST(SqlNormalizeTest, PreservesFromOrderAndReparses) {
  // FROM order determines the SELECT * column order, so it must survive
  // normalization (R2 before R1 here is semantically distinct output).
  const std::string n1 =
      NormalizeSql("SELECT * FROM R2, R1 WHERE R1.A2 = R2.A1");
  const std::string n2 =
      NormalizeSql("SELECT * FROM R1, R2 WHERE R1.A2 = R2.A1");
  EXPECT_NE(n1, n2);
  EXPECT_NE(n1.find("FROM R2, R1"), std::string::npos) << n1;
  // Normalization is idempotent and its output reparses to the same shape.
  EXPECT_EQ(NormalizeSql(n1), n1);
  auto stmt = ParseSql(n2);
  EXPECT_EQ(stmt.query.NumAtoms(), 2u);
  EXPECT_TRUE(stmt.ascending);
}

TEST(SqlNormalizeTest, SplitsTheLimitOffTheCacheKey) {
  // Every LIMIT of one statement shares the LIMIT-free text; the limit
  // comes back separately, and the two rebuild NormalizeSql's result.
  const NormalizedSql none = NormalizeSqlParts(
      "select * from R1, R2 where R2.a1 = R1.a2");
  const NormalizedSql five = NormalizeSqlParts(
      "SELECT * FROM R1, R2 WHERE R1.A2 = R2.A1 ORDER BY WEIGHT LIMIT 05;");
  EXPECT_EQ(none.text, five.text);
  EXPECT_EQ(none.text,
            "SELECT * FROM R1, R2 WHERE R1.A2 = R2.A1 ORDER BY WEIGHT ASC");
  EXPECT_EQ(none.limit, 0u);
  EXPECT_EQ(five.limit, 5u);
  EXPECT_EQ(none.WithLimit(), none.text);
  EXPECT_EQ(five.WithLimit(), five.text + " LIMIT 5");
  EXPECT_EQ(five.WithLimit(), NormalizeSql(
      "SELECT * FROM R1, R2 WHERE R1.A2 = R2.A1 ORDER BY WEIGHT LIMIT 05;"));
  EXPECT_EQ(ParseSql(five.text).limit, 0u);
}

TEST(SqlExecuteTest, MatchesOracleAscending) {
  Database db = MakePathDatabase(40, 3, 501, {.fanout = 6.0});
  auto results = ExecuteSql(
      db,
      "SELECT * FROM R1, R2, R3 "
      "WHERE R1.A2 = R2.A1 AND R2.A2 = R3.A1 ORDER BY WEIGHT ASC");
  auto oracle =
      testing::Oracle<TropicalDioid>(db, ConjunctiveQuery::Path(3));
  ASSERT_EQ(results.size(), oracle.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_DOUBLE_EQ(results[i].weight, oracle[i].weight) << i;
  }
}

TEST(SqlExecuteTest, DescendingIsReverseExtreme) {
  Database db = MakePathDatabase(30, 2, 502, {.fanout = 5.0});
  auto asc = ExecuteSql(
      db, "SELECT * FROM R1, R2 WHERE R1.A2 = R2.A1 ORDER BY WEIGHT ASC");
  auto desc = ExecuteSql(
      db, "SELECT * FROM R1, R2 WHERE R1.A2 = R2.A1 ORDER BY WEIGHT DESC");
  ASSERT_EQ(asc.size(), desc.size());
  ASSERT_FALSE(asc.empty());
  EXPECT_DOUBLE_EQ(asc.front().weight, desc.back().weight);
  EXPECT_DOUBLE_EQ(asc.back().weight, desc.front().weight);
}

TEST(SqlExecuteTest, LimitAndProjection) {
  Database db = MakePathDatabase(40, 2, 503, {.fanout = 6.0});
  auto results = ExecuteSql(
      db,
      "SELECT R1.A1, R2.A2 FROM R1, R2 WHERE R1.A2 = R2.A1 "
      "ORDER BY WEIGHT ASC LIMIT 7");
  ASSERT_LE(results.size(), 7u);
  for (const auto& r : results) {
    EXPECT_EQ(r.values.size(), 2u);  // projected columns only
  }
  // All-weight-projection semantics: duplicates of the projection may
  // appear; weights are the full query's, non-decreasing.
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i].weight, results[i - 1].weight);
  }
}

TEST(SqlExecuteTest, PaperExample1FourCycle) {
  // Example 1's SQL, modulo column naming: the 4-cycle with summed weights.
  Database db = MakeWorstCaseCycleDatabase(14, 4, 504);
  auto results = ExecuteSql(
      db,
      "SELECT R1.A1, R2.A1, R3.A1, R4.A1 FROM R1, R2, R3, R4 "
      "WHERE R1.A2 = R2.A1 AND R2.A2 = R3.A1 AND R3.A2 = R4.A1 "
      "AND R4.A2 = R1.A1 ORDER BY WEIGHT ASC LIMIT 5");
  auto oracle =
      testing::Oracle<TropicalDioid>(db, ConjunctiveQuery::Cycle(4));
  ASSERT_EQ(results.size(), std::min<size_t>(5, oracle.size()));
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_DOUBLE_EQ(results[i].weight, oracle[i].weight);
  }
}

// ---- Seeded mutation fuzz: NormalizeSql / ParseSql on hostile input. ----

// Seed statements: the repo benchmark's (perfbench/run.py), the
// query_handle_test cases, and this file's own.
const std::vector<std::string>& FuzzSeeds() {
  static const std::vector<std::string> seeds = {
      // perfbench/run.py
      "SELECT * FROM R1, R2, R3, R4 WHERE R1.A2 = R2.A1 AND R2.A2 = R3.A1 "
      "AND R3.A2 = R4.A1 ORDER BY WEIGHT ASC",
      "SELECT * FROM R1, R2, R3, R4 WHERE R1.A2 = R2.A1 AND R2.A2 = R3.A1 "
      "AND R3.A2 = R4.A1 ORDER BY WEIGHT ASC LIMIT 1000",
      "SELECT * FROM R1, R2, R3 WHERE R1.A2 = R2.A1 AND R2.A2 = R3.A1 "
      "ORDER BY WEIGHT DESC",
      "SELECT * FROM C1, C2, C3, C4 WHERE C1.A2 = C2.A1 AND C2.A2 = C3.A1 "
      "AND C3.A2 = C4.A1 AND C4.A2 = C1.A1 ORDER BY WEIGHT ASC LIMIT 100",
      // query_handle_test
      "SELECT R3.A2, R1.A1 FROM R1, R2, R3 WHERE R1.A2 = R2.A1 AND "
      "R2.A2 = R3.A1 ORDER BY WEIGHT DESC LIMIT 70",
      "SELECT R2.A1 FROM R1, R2, R3, R4 WHERE R1.A2 = R2.A1 AND "
      "R2.A2 = R3.A1 AND R3.A2 = R4.A1 AND R4.A2 = R1.A1 LIMIT 25",
      "SELECT R1.A1, R1.A2 FROM R1, R2, R3 WHERE R1.A2 = R2.A1 AND "
      "R2.A2 = R3.A1 AND R3.A2 = R1.A1 ORDER BY WEIGHT DESC",
      // this file
      "SELECT * FROM E e1, E e2, E e3, E e4 WHERE e1.A2 = e2.A1 AND "
      "e2.A2 = e3.A1 AND e3.A2 = e4.A1 AND e4.A2 = e1.A1 "
      "ORDER BY WEIGHT DESC",
      "SELECT R1.A1, R2.A2 FROM R1, R2 WHERE R1.A2 = R2.A1",
      "select  *  from R1 ,R2 where R2.a1=R1.a2;",
      "SELECT * FROM R1 LIMIT 3",
      "SELECT * FROM R1; SELECT * FROM R1",
      "SELECT * FROM R1 LIMIT 18446744073709551615",
  };
  return seeds;
}

// A run of 1-25 decimal digits, sometimes zero-padded.
std::string DigitRun(Rng* rng) {
  std::string digits(rng->Below(4) == 0 ? rng->Below(4) + 1 : 0, '0');
  const size_t n = 1 + rng->Below(25);
  while (digits.size() < n) {
    digits.push_back(static_cast<char>('0' + rng->Below(10)));
  }
  return digits;
}

// Applies one seeded mutation: a byte inserted, deleted or replaced; an
// inserted LIMIT / ORDER / AND / ',' / ';'; a LIMIT with a digit run
// replacing the statement's LIMIT or appended; a column number after `.A`
// replaced by a digit run or given an alphanumeric suffix; a run of letters
// case-flipped; a whitespace run; truncation.
void MutateSql(Rng* rng, std::string* sql) {
  const size_t pos = rng->Below(sql->size() + 1);
  static const char* const kTokens[] = {" LIMIT ", "LIMIT", " ORDER ",
                                        " AND ", "AND", ",", ";"};
  switch (rng->Below(10)) {
    case 0:
      sql->insert(pos, 1, static_cast<char>(rng->Below(256)));
      break;
    case 1:
      if (pos < sql->size()) sql->erase(pos, 1);
      break;
    case 2:
      if (pos < sql->size()) (*sql)[pos] = static_cast<char>(rng->Below(256));
      break;
    case 3:
    case 4:
      sql->insert(pos, kTokens[rng->Below(std::size(kTokens))]);
      break;
    case 5: {  // LIMIT <digit run>
      const std::string digits = DigitRun(rng);
      const size_t at = sql->rfind(" LIMIT ");
      if (at != std::string::npos && rng->Bernoulli(0.7)) {
        size_t end = at + 7;
        while (end < sql->size() &&
               std::isdigit(static_cast<unsigned char>((*sql)[end]))) {
          ++end;
        }
        sql->replace(at + 7, end - at - 7, digits);
      } else {
        sql->append(" LIMIT " + digits);
      }
      break;
    }
    case 6:  // flip the case of a run of letters
      for (size_t i = pos, n = rng->Below(12); i < sql->size() && n > 0;
           ++i, --n) {
        const auto c = static_cast<unsigned char>((*sql)[i]);
        (*sql)[i] = static_cast<char>(std::isupper(c) ? std::tolower(c)
                                                      : std::toupper(c));
      }
      break;
    case 7: {
      static const char kSpace[] = {' ', '\t', '\n', '\r', '\f', '\v'};
      for (size_t n = 1 + rng->Below(5); n > 0; --n) {
        sql->insert(pos, 1, kSpace[rng->Below(sizeof(kSpace))]);
      }
      break;
    }
    case 8: {  // .A<digit run>, or .A<n><suffix>
      size_t at = sql->find(".A", pos);
      if (at == std::string::npos) at = sql->find(".A");
      if (at == std::string::npos) break;
      size_t end = at + 2;
      while (end < sql->size() &&
             std::isdigit(static_cast<unsigned char>((*sql)[end]))) {
        ++end;
      }
      static const char* const kSuffixes[] = {"x", "_7", "2x", "_", "A1", "0"};
      if (rng->Bernoulli(0.5)) {
        sql->replace(at + 2, end - at - 2, DigitRun(rng));
      } else {
        sql->insert(end, kSuffixes[rng->Below(std::size(kSuffixes))]);
      }
      break;
    }
    default:
      sql->resize(pos);
      break;
  }
}

// A parsed statement rendered for comparison: atoms with their variable
// ids, the variable count, the SELECT list, the direction and the limit.
std::string Shape(const SqlStatement& stmt) {
  std::ostringstream out;
  for (size_t a = 0; a < stmt.query.NumAtoms(); ++a) {
    out << stmt.query.atom(a).relation << "(";
    for (uint32_t v : stmt.query.AtomVarIds(a)) out << v << ",";
    out << ") ";
  }
  out << "vars=" << stmt.query.NumVars() << " select=";
  for (uint32_t v : stmt.select_vars) out << v << ",";
  out << (stmt.ascending ? " ASC" : " DESC") << " limit=" << stmt.limit;
  return out.str();
}

// Printable form of a mutated statement for failure messages.
std::string Printable(const std::string& sql) {
  std::ostringstream out;
  for (unsigned char c : sql) {
    if (std::isprint(c)) {
      out << c;
    } else {
      out << "\\x" << std::hex << static_cast<int>(c) << std::dec;
    }
  }
  return out.str();
}

// Runs `fn`; a CheckError is an accepted outcome (nullopt), any other
// exception fails the test.
template <typename Fn>
auto CheckedOrNullopt(const std::string& sql, Fn fn)
    -> std::optional<decltype(fn())> {
  try {
    return fn();
  } catch (const CheckError&) {
    return std::nullopt;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "non-CheckError exception '" << e.what() << "' for '"
                  << Printable(sql) << "'";
    return std::nullopt;
  }
}

class SqlFuzzTest : public SqlCheckErrorTest {};

TEST_F(SqlFuzzTest, MutatedStatementsParseOrFailWithCheckError) {
  Rng rng(20260419);
  size_t accepted = 0;
  size_t rejected = 0;
  for (const std::string& seed : FuzzSeeds()) {
    for (int variant = 0; variant < 1000; ++variant) {
      std::string sql = seed;
      const size_t mutations = variant == 0 ? 0 : 1 + rng.Below(3);
      for (size_t m = 0; m < mutations; ++m) MutateSql(&rng, &sql);
      SCOPED_TRACE("'" + Printable(sql) + "'");

      const auto normalized =
          CheckedOrNullopt(sql, [&] { return NormalizeSql(sql); });
      const auto stmt = CheckedOrNullopt(sql, [&] { return ParseSql(sql); });
      // NormalizeSql and ParseSql share one syntax pass: they accept the
      // same statements.
      ASSERT_EQ(normalized.has_value(), stmt.has_value());
      if (!normalized.has_value()) {
        ++rejected;
        continue;
      }
      ++accepted;
      EXPECT_EQ(NormalizeSql(*normalized), *normalized);
      EXPECT_EQ(Shape(ParseSql(*normalized)), Shape(*stmt)) << *normalized;
      const NormalizedSql parts = NormalizeSqlParts(sql);
      EXPECT_EQ(parts.WithLimit(), *normalized);
      EXPECT_EQ(parts.limit, stmt->limit);
      SqlStatement unlimited = *stmt;
      unlimited.limit = 0;
      EXPECT_EQ(Shape(ParseSql(parts.text)), Shape(unlimited)) << parts.text;
    }
  }
  // Both outcomes must be well represented for the sweep to mean anything.
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(rejected, 1000u);
}

}  // namespace
}  // namespace anyk
