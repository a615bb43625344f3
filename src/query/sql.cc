#include "query/sql.h"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "anyk/ranked_query.h"
#include "dioid/max_plus.h"
#include "dioid/tropical.h"
#include "util/logging.h"
#include "util/parse.h"

namespace anyk {

namespace {

struct Token {
  std::string text;   // original spelling (keywords match case-insensitively)
  std::string upper;
  size_t offset = 0;  // byte offset into the statement, for diagnostics
};

std::vector<Token> Tokenize(const std::string& sql) {
  std::vector<Token> tokens;
  size_t i = 0;
  auto push = [&](std::string t, size_t offset) {
    Token tok;
    tok.text = std::move(t);
    tok.upper = tok.text;
    for (char& c : tok.upper) c = static_cast<char>(std::toupper(c));
    tok.offset = offset;
    tokens.push_back(std::move(tok));
  };
  while (i < sql.size()) {
    const char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
    } else if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < sql.size() &&
             (std::isalnum(static_cast<unsigned char>(sql[i])) ||
              sql[i] == '_')) {
        ++i;
      }
      push(sql.substr(start, i - start), start);
    } else if (c == '.' || c == ',' || c == '=' || c == '*' || c == ';') {
      push(std::string(1, c), i);
      ++i;
    } else {
      ANYK_CHECK(false) << "SQL:" << i << ": unexpected character '" << c
                        << "'";
    }
  }
  return tokens;
}

struct Cursor {
  const std::vector<Token>& toks;
  size_t end_offset = 0;  // statement length, for end-of-input diagnostics
  size_t pos = 0;

  bool AtEnd() const { return pos >= toks.size(); }
  size_t Offset() const { return AtEnd() ? end_offset : toks[pos].offset; }
  const Token& Peek() const {
    ANYK_CHECK(!AtEnd()) << "SQL:" << end_offset
                         << ": unexpected end of statement";
    return toks[pos];
  }
  Token Take() {
    Token t = Peek();
    ++pos;
    return t;
  }
  bool TryKeyword(const std::string& kw) {
    if (!AtEnd() && toks[pos].upper == kw) {
      ++pos;
      return true;
    }
    return false;
  }
  void Expect(const std::string& kw) {
    ANYK_CHECK(TryKeyword(kw))
        << "SQL:" << Offset() << ": expected " << kw << " near '"
        << (AtEnd() ? "<end>" : Peek().text) << "'";
  }
};

struct ColumnRef {
  std::string table;  // alias
  size_t column;      // zero-based
  size_t offset;      // of the column token, for diagnostics
};

// Canonical rendering: alias spelled as written, column always `A<n>`.
std::string RenderColumnRef(const ColumnRef& ref) {
  return ref.table + ".A" + std::to_string(ref.column + 1);
}

// `A<n>` or `a<n>`: n is decimal digits only, 1 <= n <= kMaxColumn. The
// cap bounds a statement before any arity is known: without a database,
// ParseSql gives each table as many variable slots as its largest
// referenced column.
constexpr size_t kMaxColumn = 4096;

size_t ParseColumnNumber(const Token& col) {
  const std::string_view s = col.text;
  size_t n = 0;
  const bool ok = s.size() >= 2 && (s[0] == 'A' || s[0] == 'a') &&
                  ParseSize(s.substr(1), &n) && n >= 1 && n <= kMaxColumn;
  ANYK_CHECK(ok) << "SQL:" << col.offset << ": bad column '" << col.text
                 << "'; columns are addressed as A1..A" << kMaxColumn;
  return n - 1;
}

// alias.A<k>
ColumnRef ParseColumnRef(Cursor* cur) {
  std::string table = cur->Take().text;
  cur->Expect(".");
  const Token col = cur->Take();
  return {std::move(table), ParseColumnNumber(col), col.offset};
}

/// The statement at the syntax level: what was written, before any
/// variable/arity resolution. ParseSql lowers this to a ConjunctiveQuery;
/// NormalizeSql renders it back out canonically.
struct ParsedSyntax {
  bool select_all = false;
  std::vector<ColumnRef> select_refs;
  std::vector<std::pair<std::string, std::string>> tables;  // (relation, alias)
  std::unordered_map<std::string, size_t> alias_idx;
  std::vector<std::pair<ColumnRef, ColumnRef>> equalities;
  bool ascending = true;
  size_t limit = 0;  // 0 = no LIMIT clause
};

ParsedSyntax ParseSyntax(const std::string& sql) {
  const std::vector<Token> toks = Tokenize(sql);
  Cursor cur{toks, sql.size()};
  ParsedSyntax syn;
  cur.Expect("SELECT");

  // SELECT list (alias existence checked after FROM).
  std::vector<std::pair<Token, Token>> select_raw;  // (table, column) tokens
  if (cur.TryKeyword("*")) {
    syn.select_all = true;
  } else {
    do {
      Token tbl = cur.Take();
      cur.Expect(".");
      select_raw.emplace_back(std::move(tbl), cur.Take());
    } while (cur.TryKeyword(","));
  }

  cur.Expect("FROM");
  do {
    const Token rel = cur.Take();
    std::string alias = rel.text;
    if (!cur.AtEnd() && cur.Peek().upper != "WHERE" &&
        cur.Peek().upper != "ORDER" && cur.Peek().upper != "LIMIT" &&
        cur.Peek().upper != "," && cur.Peek().upper != ";") {
      alias = cur.Take().text;
    }
    ANYK_CHECK(syn.alias_idx.emplace(alias, syn.tables.size()).second)
        << "SQL:" << rel.offset << ": duplicate table alias '" << alias << "'";
    syn.tables.emplace_back(rel.text, alias);
  } while (cur.TryKeyword(","));
  ANYK_CHECK(!syn.tables.empty())
      << "SQL:" << cur.Offset() << ": empty FROM clause";

  auto check_alias = [&](const std::string& alias, size_t offset) {
    ANYK_CHECK(syn.alias_idx.count(alias) > 0)
        << "SQL:" << offset << ": unknown table alias '" << alias << "'";
  };
  for (const auto& [tbl, col] : select_raw) {
    check_alias(tbl.text, tbl.offset);
    syn.select_refs.push_back({tbl.text, ParseColumnNumber(col), col.offset});
  }

  if (cur.TryKeyword("WHERE")) {
    do {
      const size_t lhs_offset = cur.Offset();
      ColumnRef lhs = ParseColumnRef(&cur);
      check_alias(lhs.table, lhs_offset);
      cur.Expect("=");
      const size_t rhs_offset = cur.Offset();
      ColumnRef rhs = ParseColumnRef(&cur);
      check_alias(rhs.table, rhs_offset);
      syn.equalities.emplace_back(std::move(lhs), std::move(rhs));
    } while (cur.TryKeyword("AND"));
  }

  if (cur.TryKeyword("ORDER")) {
    cur.Expect("BY");
    cur.Expect("WEIGHT");
    if (cur.TryKeyword("DESC")) {
      syn.ascending = false;
    } else {
      cur.TryKeyword("ASC");
    }
  }
  if (cur.TryKeyword("LIMIT")) {
    const Token k = cur.Take();
    ANYK_CHECK(ParseSize(k.text, &syn.limit))
        << "SQL:" << k.offset << ": LIMIT expects a positive integer up to "
        << std::numeric_limits<size_t>::max() << ", got '" << k.text << "'";
    // LIMIT 0 would silently mean "unlimited" downstream (the k_budget
    // sentinel); reject it so "no answers" can never be misread as "all".
    ANYK_CHECK(syn.limit > 0)
        << "SQL:" << k.offset
        << ": LIMIT 0 is not a query; omit LIMIT to enumerate everything";
  }
  cur.TryKeyword(";");
  ANYK_CHECK(cur.AtEnd()) << "SQL:" << cur.Offset()
                          << ": trailing input near '" << cur.Peek().text
                          << "'";
  return syn;
}

// Union-find over (table, column) slots.
struct Slots {
  std::vector<int> parent;
  int Find(int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  }
  void Union(int a, int b) { parent[Find(a)] = Find(b); }
};

}  // namespace

SqlStatement ParseSql(const std::string& sql, const Database* db) {
  const ParsedSyntax syn = ParseSyntax(sql);

  // Build the CQ: one variable slot per (table, column); equalities merge
  // slots. First find how many columns each table has: with a database the
  // true arities, which every reference must respect; otherwise binary
  // unless more columns were referenced.
  std::vector<size_t> max_col(syn.tables.size(), 2);
  if (db != nullptr) {
    for (size_t t = 0; t < syn.tables.size(); ++t) {
      max_col[t] = db->Get(syn.tables[t].first).arity();
    }
  }
  auto touch = [&](const ColumnRef& ref) {
    const size_t t = syn.alias_idx.at(ref.table);
    if (db == nullptr) {
      max_col[t] = std::max(max_col[t], ref.column + 1);
    } else {
      ANYK_CHECK(ref.column < max_col[t])
          << "SQL:" << ref.offset << ": column out of range for "
          << syn.tables[t].first << ": A" << ref.column + 1 << " of "
          << max_col[t];
    }
  };
  for (const auto& [lhs, rhs] : syn.equalities) {
    touch(lhs);
    touch(rhs);
  }
  for (const ColumnRef& ref : syn.select_refs) touch(ref);

  // Slot ids: prefix sums.
  std::vector<size_t> slot_base(syn.tables.size() + 1, 0);
  for (size_t t = 0; t < syn.tables.size(); ++t) {
    slot_base[t + 1] = slot_base[t] + max_col[t];
  }
  Slots slots;
  slots.parent.resize(slot_base.back());
  std::iota(slots.parent.begin(), slots.parent.end(), 0);
  auto slot_of = [&](const ColumnRef& ref) {
    return static_cast<int>(slot_base[syn.alias_idx.at(ref.table)] +
                            ref.column);
  };
  for (const auto& [lhs, rhs] : syn.equalities) {
    slots.Union(slot_of(lhs), slot_of(rhs));
  }

  // Variable name per slot class.
  std::unordered_map<int, std::string> class_name;
  auto var_name = [&](int slot) {
    const int root = slots.Find(slot);
    auto [it, inserted] =
        class_name.emplace(root, "v" + std::to_string(class_name.size()));
    return it->second;
  };
  SqlStatement stmt;
  stmt.ascending = syn.ascending;
  stmt.limit = syn.limit;
  for (size_t t = 0; t < syn.tables.size(); ++t) {
    std::vector<std::string> vars;
    for (size_t c = 0; c < max_col[t]; ++c) {
      vars.push_back(var_name(static_cast<int>(slot_base[t] + c)));
    }
    stmt.query.AddAtom(syn.tables[t].first, vars);
  }

  if (!syn.select_all) {
    for (const ColumnRef& ref : syn.select_refs) {
      const std::string name = var_name(slot_of(ref));
      stmt.select_vars.push_back(
          static_cast<uint32_t>(stmt.query.FindVar(name)));
    }
    // Note: we do NOT call SetFreeVars — SQL projection uses all-weight
    // semantics (enumerate the full query, project each result), so the CQ
    // stays full and select_vars drives the projection at output time.
  }
  return stmt;
}

std::string NormalizedSql::WithLimit() const {
  return limit > 0 ? text + " LIMIT " + std::to_string(limit) : text;
}

std::string NormalizeSql(const std::string& sql) {
  return NormalizeSqlParts(sql).WithLimit();
}

NormalizedSql NormalizeSqlParts(const std::string& sql) {
  ParsedSyntax syn = ParseSyntax(sql);
  std::string out = "SELECT ";
  if (syn.select_all) {
    out += "*";
  } else {
    for (size_t i = 0; i < syn.select_refs.size(); ++i) {
      if (i > 0) out += ", ";
      out += RenderColumnRef(syn.select_refs[i]);
    }
  }
  out += " FROM ";
  for (size_t t = 0; t < syn.tables.size(); ++t) {
    if (t > 0) out += ", ";
    out += syn.tables[t].first;
    if (syn.tables[t].second != syn.tables[t].first) {
      out += " " + syn.tables[t].second;
    }
  }
  if (!syn.equalities.empty()) {
    // Equality is symmetric and AND commutes, so both the side order within
    // a conjunct and the conjunct order are canonicalized. (Union-find makes
    // the resulting variable classes — and the variable ids, which follow
    // table/column order — independent of either order.)
    std::vector<std::pair<std::string, std::string>> conjuncts;
    conjuncts.reserve(syn.equalities.size());
    for (const auto& [lhs, rhs] : syn.equalities) {
      std::string a = RenderColumnRef(lhs);
      std::string b = RenderColumnRef(rhs);
      if (b < a) std::swap(a, b);
      conjuncts.emplace_back(std::move(a), std::move(b));
    }
    std::sort(conjuncts.begin(), conjuncts.end());
    out += " WHERE ";
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (i > 0) out += " AND ";
      out += conjuncts[i].first + " = " + conjuncts[i].second;
    }
  }
  // Always explicit, so "ORDER BY WEIGHT ASC", "ORDER BY WEIGHT" and no
  // ORDER BY at all (ascending is the default) share one spelling.
  out += syn.ascending ? " ORDER BY WEIGHT ASC" : " ORDER BY WEIGHT DESC";
  return {std::move(out), syn.limit};
}

namespace {

template <typename D>
std::vector<SqlResult> Run(const Database& db, const SqlStatement& stmt) {
  typename RankedQuery<D>::Options opts;
  opts.algorithm = Algorithm::kLazy;
  opts.enum_opts.with_witness = false;
  opts.enum_opts.k_budget = stmt.limit;
  RankedQuery<D> rq(db, stmt.query, opts);
  std::vector<SqlResult> out;
  // The budget ends the stream after LIMIT answers; pages reuse their rows.
  constexpr size_t kPage = 1024;
  std::vector<ResultRow<D>> page(
      stmt.limit == 0 ? kPage : std::min<size_t>(stmt.limit, kPage));
  size_t got;
  do {
    got = rq.enumerator()->NextBatch(page.data(), page.size());
    for (size_t b = 0; b < got; ++b) {
      SqlResult res;
      res.weight = page[b].weight;
      if (stmt.select_vars.empty()) {
        res.values = page[b].assignment;
      } else {
        for (uint32_t v : stmt.select_vars) {
          res.values.push_back(page[b].assignment[v]);
        }
      }
      out.push_back(std::move(res));
    }
  } while (got == page.size());
  return out;
}

}  // namespace

std::vector<SqlResult> ExecuteSql(const Database& db, const std::string& sql) {
  SqlStatement stmt = ParseSql(sql, &db);
  // Validate arities against the database.
  for (size_t a = 0; a < stmt.query.NumAtoms(); ++a) {
    const Relation& rel = db.Get(stmt.query.atom(a).relation);
    ANYK_CHECK_EQ(rel.arity(), stmt.query.AtomVarIds(a).size())
        << "SQL: relation " << rel.name() << " has arity " << rel.arity();
  }
  return stmt.ascending ? Run<TropicalDioid>(db, stmt)
                        : Run<MaxPlusDioid>(db, stmt);
}

}  // namespace anyk
