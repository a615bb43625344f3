// Minimal SQL front-end for the query dialect the paper uses in its
// examples (Example 1, Section 8.1):
//
//   SELECT *                       -- or a list of columns
//   FROM R1, R2 [, Edge e1, Edge e2 ...]        -- aliases enable self-joins
//   WHERE R1.A2 = R2.A1 [AND ...]               -- conjunctive equi-joins
//   ORDER BY WEIGHT [ASC|DESC]                  -- sum of tuple weights
//   LIMIT k                                     -- optional
//
// Columns are addressed positionally as A1..A<arity> (decimal digits only,
// at most A4096). The statement compiles
// to a ConjunctiveQuery: every (atom, column) slot gets a variable, WHERE
// equalities merge variables (union-find), and a non-* SELECT list becomes
// the free variables. Execution uses the tropical (ASC) or arctic (DESC)
// dioid; projections follow the paper's all-weight-projection semantics
// (Section 8.1, option 1) — use MinWeightProjection for option 2.

#ifndef ANYK_QUERY_SQL_H_
#define ANYK_QUERY_SQL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "query/cq.h"
#include "storage/database.h"
#include "storage/value.h"

namespace anyk {

struct SqlStatement {
  ConjunctiveQuery query;
  bool ascending = true;  // ORDER BY WEIGHT ASC (lightest first)
  // 0 = no LIMIT clause (unlimited) — the same "0 means unbounded" sentinel
  // as EnumOptions::k_budget. An explicit `LIMIT 0` is rejected at parse
  // time so the sentinel can never be spelled by accident.
  size_t limit = 0;
  // Variable ids of the SELECT list (empty for SELECT *).
  std::vector<uint32_t> select_vars;
};

/// Parse the SQL dialect above; CHECK-fails on syntax errors with a
/// `SQL:<byte offset>:` prefix locating the offending token. With a
/// database, relation arities are taken from it, and a column past its
/// table's arity fails the same way (otherwise every table defaults to the
/// largest referenced column, at least binary).
SqlStatement ParseSql(const std::string& sql, const Database* db = nullptr);

/// Canonical form of a statement, for use as a cache key: keywords
/// uppercased, whitespace collapsed to single spaces, the implicit ASC made
/// explicit, the trailing semicolon dropped, column names canonicalized
/// (a3 -> A3), each WHERE equality ordered smaller-side-first and the
/// conjunct list sorted — so case/whitespace/conjunct-order variants of the
/// same query map to one key. FROM order is preserved: it determines the
/// SELECT * column order, so reordering it would change results. The
/// normalized text re-parses to an equivalent statement (sql_test pins
/// this); CHECK-fails like ParseSql on syntax errors.
std::string NormalizeSql(const std::string& sql);

/// NormalizeSql's result split at its LIMIT clause. Preparation does not
/// depend on the LIMIT, so anykd keys its prepared-query cache on `text`
/// and opens each request's stream with `limit`; `text` parses to a
/// statement without LIMIT.
struct NormalizedSql {
  std::string text;  // the canonical statement, LIMIT clause dropped
  size_t limit = 0;  // its LIMIT; 0 = none, as in SqlStatement::limit
  /// `text` with the LIMIT clause put back: NormalizeSql's result.
  std::string WithLimit() const;
};

/// NormalizeSql, returning the canonical text and the LIMIT separately;
/// CHECK-fails like ParseSql on syntax errors.
NormalizedSql NormalizeSqlParts(const std::string& sql);

struct SqlResult {
  double weight;
  std::vector<Value> values;  // SELECT-list order (all variables for *)
};

/// Parse and execute: ranked enumeration honoring ORDER BY/LIMIT, with
/// all-weight-projection semantics for column lists.
std::vector<SqlResult> ExecuteSql(const Database& db, const std::string& sql);

}  // namespace anyk

#endif  // ANYK_QUERY_SQL_H_
