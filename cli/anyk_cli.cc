#include "anyk_cli.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "anyk/factory.h"
#include "anyk/query_handle.h"
#include "plan/planner.h"
#include "query/sql.h"
#include "storage/database.h"
#include "util/alloc_stats.h"
#include "util/checkpoints.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/parse.h"
#include "util/thread_pool.h"
#include "util/timer.h"

#ifndef ANYK_VERSION
#define ANYK_VERSION "dev"
#endif

namespace anyk {
namespace cli {

namespace {

// v2 added the memory section (enumeration allocs, peak RSS) to `timings`;
// v3 adds the concurrent-drain fields (threads, and — with --sessions N —
// timings.sessions[] plus timings.aggregate_answers_per_sec); v4 adds the
// planner section (resolved_algorithm + planner{} always, explain with
// --explain); v5 adds the sharding field (`shards`, --shards N).
constexpr int kSchemaVersion = 5;

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

struct LoadedRelation {
  std::string name;
  std::string path;
  size_t rows = 0;
  size_t arity = 0;
};

struct CliResult {
  double weight;
  std::vector<Value> values;
};

// One concurrent drain thread's view (--sessions N): its own TTF/TTL
// measured from the moment the shared query handle was ready.
struct SessionReport {
  size_t produced = 0;
  double ttf_seconds = 0;
  // TT(k) of this session: when the drain is budgeted (--k / SQL LIMIT),
  // the moment the k-th answer arrived; equal to ttl_seconds when the
  // stream exhausted first or no budget was set. Tracked with an explicit
  // flag, not a 0.0 sentinel: a legitimately stamped 0.0 (coarse clock,
  // instant answer) must not get overwritten with the TTL.
  double ttk_seconds = 0;
  bool has_ttk = false;
  double ttl_seconds = 0;
  bool exhausted = false;
};

struct RunReport {
  std::string plan;
  double preprocessing_seconds = 0;
  double ttf_seconds = 0;
  double ttl_seconds = 0;
  double max_delay_seconds = 0;
  size_t produced = 0;
  bool exhausted = false;
  std::vector<std::pair<size_t, double>> checkpoints;  // (k, seconds)
  // Memory profile of the run (util/alloc_stats.h): operator-new calls per
  // phase plus the process peak RSS. With the arena-backed hot path
  // enumeration_allocs stays 0 for the tree/cycle plans once the arena is
  // warm (see docs/ARCHITECTURE.md, "Memory layout").
  size_t preprocessing_allocs = 0;
  size_t enumeration_allocs = 0;
  size_t peak_rss_kb = 0;
  // Concurrent-drain mode: one entry per session; aggregate throughput is
  // total answers / wall-clock of the slowest session. Empty when the run
  // was a single serial session.
  std::vector<SessionReport> sessions;
  double aggregate_answers_per_sec = 0;
  // Planner section (schema v4): what ran (identical to the request except
  // for `auto`, where the planner's decision for the limit substitutes),
  // the one-line planner summary, and — on request — the full EXPLAIN text.
  std::string resolved_algorithm;
  std::string planner_summary;
  std::string explain_text;
};

/// Serial drain: pull `stream` until `limit` answers (0 = all) or
/// exhaustion, timing TTF / TT(k) / max delay. The first page is a single
/// row so TTF stays exact; later pages take up to kPageRows rows but never
/// cross the next TT(k) checkpoint or the limit, so checkpoint timestamps
/// stay exact at their k. The clock is read once per page, after its rows
/// arrive and before `sink` formats them, so max_delay is measured at page
/// granularity (the gap between consecutive page arrivals).
void DrainSerial(PageStream* stream, size_t limit,
                 const std::vector<size_t>& cps, const RowFn& sink,
                 const Timer& timer, RunReport* rep) {
  // A page's arrival is stamped by its first row, before `sink` formats it.
  // The wrapper captures one reference, which keeps it inside
  // std::function's inline storage: building it allocates nothing.
  struct Arrival {
    const Timer& timer;
    const RowFn& sink;
    double now = 0;
    bool stamped = false;
  } page{timer, sink};
  RowFn fn;
  if (sink) {
    fn = [&page](size_t rank, double weight, const std::vector<Value>& values) {
      if (!page.stamped) {
        page.now = page.timer.Seconds();
        page.stamped = true;
      }
      page.sink(rank, weight, values);
    };
  }
  size_t next_cp = 0;
  double last = rep->preprocessing_seconds;
  while (!stream->done() && (limit == 0 || rep->produced < limit)) {
    size_t want = rep->produced == 0 ? 1 : kPageRows;
    if (limit != 0) want = std::min(want, limit - rep->produced);
    while (next_cp < cps.size() && cps[next_cp] <= rep->produced) ++next_cp;
    if (next_cp < cps.size()) {
      want = std::min(want, cps[next_cp] - rep->produced);
    }
    page.stamped = false;
    const size_t got = stream->FetchPage(want, fn);
    if (got == 0) break;
    if (!page.stamped) page.now = timer.Seconds();
    const double now = page.now;
    rep->max_delay_seconds = std::max(rep->max_delay_seconds, now - last);
    last = now;
    if (rep->produced == 0) rep->ttf_seconds = now;
    rep->produced += got;
    if (next_cp < cps.size() && cps[next_cp] == rep->produced) {
      rep->checkpoints.emplace_back(rep->produced, now);
      ++next_cp;
    }
  }
  rep->exhausted = stream->done();
  rep->ttl_seconds = timer.Seconds();
}

/// Concurrent drain (--sessions N): N threads each open their own stream of
/// the one handle — inside the thread, so opening counts toward that
/// session's TTF — and pull the full (limited) stream in pages, with no
/// per-answer sink. Per-session TTF / TT(k) / TTL land in rep->sessions.
void DrainSessions(const QueryHandle& handle, Algorithm algo, size_t limit,
                   size_t num_sessions, const Timer& timer, RunReport* rep) {
  rep->sessions.assign(num_sessions, {});
  std::vector<std::thread> workers;
  workers.reserve(num_sessions);
  for (SessionReport& session : rep->sessions) {
    workers.emplace_back([&handle, &timer, algo, limit, sr = &session] {
      const std::unique_ptr<PageStream> stream = handle.Open(algo, limit);
      while (!stream->done() && (limit == 0 || sr->produced < limit)) {
        // A first page of one row keeps the per-session TTF exact.
        size_t want = sr->produced == 0 ? 1 : kPageRows;
        if (limit != 0) want = std::min(want, limit - sr->produced);
        const size_t got = stream->FetchPage(want, {});
        if (got == 0) break;
        sr->produced += got;
        if (sr->produced == got) sr->ttf_seconds = timer.Seconds();
        if (limit != 0 && sr->produced >= limit) {
          sr->ttk_seconds = timer.Seconds();
          sr->has_ttk = true;
        }
      }
      sr->exhausted = stream->done();
      sr->ttl_seconds = timer.Seconds();
      if (!sr->has_ttk) sr->ttk_seconds = sr->ttl_seconds;
    });
  }
  for (std::thread& w : workers) w.join();
  rep->exhausted = true;
  bool have_ttf = false;
  for (const SessionReport& sr : rep->sessions) {
    rep->produced += sr.produced;
    rep->exhausted = rep->exhausted && sr.exhausted;
    // A session that produced nothing never stamped a TTF; folding its 0.0
    // into the min would report a first answer that never arrived.
    if (sr.produced > 0) {
      rep->ttf_seconds =
          have_ttf ? std::min(rep->ttf_seconds, sr.ttf_seconds)
                   : sr.ttf_seconds;
      have_ttf = true;
    }
    rep->ttl_seconds = std::max(rep->ttl_seconds, sr.ttl_seconds);
  }
  const double enum_wall = rep->ttl_seconds - rep->preprocessing_seconds;
  rep->aggregate_answers_per_sec =
      enum_wall > 0 ? static_cast<double>(rep->produced) / enum_wall : 0;
}

/// Prepare the statement into a query handle (charged to preprocessing, as
/// in the paper) and drain it: serially through `sink`, or with
/// `num_sessions` > 1 through that many concurrent streams. Every stream
/// runs under `limit` (--k or the SQL LIMIT; 0 = all) as its k budget.
RunReport RunQuery(const Database& db, SqlStatement stmt,
                   const std::string& dioid, Algorithm algo, size_t limit,
                   const ShardedQueryOptions& qopts,
                   const std::vector<size_t>& cps, const RowFn& sink,
                   size_t num_sessions, bool want_explain) {
  RunReport rep;
  const AllocCounts at_start = CurrentAllocCounts();
  Timer timer;
  const std::unique_ptr<QueryHandle> handle =
      MakeQueryHandle(db, std::move(stmt), dioid, qopts);
  rep.plan = handle->plan_name();
  const plan::PlanDecision decision = handle->decision(limit);
  rep.resolved_algorithm = AlgorithmName(
      algo == Algorithm::kAuto ? decision.algorithm : algo);
  rep.planner_summary = decision.Summary();
  if (want_explain) rep.explain_text = handle->Explain(limit);

  if (num_sessions > 1) {
    rep.preprocessing_seconds = timer.Seconds();
    const AllocCounts at_enum = CurrentAllocCounts();
    rep.preprocessing_allocs = AllocDelta(at_start, at_enum).news;
    DrainSessions(*handle, algo, limit, num_sessions, timer, &rep);
    rep.enumeration_allocs = AllocDelta(at_enum, CurrentAllocCounts()).news;
    rep.peak_rss_kb = PeakRssKb();
    return rep;
  }

  // Serial path: opening the stream (enumerator, arena reserve) counts as
  // preprocessing, like the paper charges it, so enumeration_allocs keeps
  // meaning "allocations while answers stream" and stays 0 for the
  // arena-backed plans.
  const std::unique_ptr<PageStream> stream = handle->Open(algo, limit);
  rep.preprocessing_seconds = timer.Seconds();
  const AllocCounts at_enum = CurrentAllocCounts();
  rep.preprocessing_allocs = AllocDelta(at_start, at_enum).news;
  DrainSerial(stream.get(), limit, cps, sink, timer, &rep);
  rep.enumeration_allocs = AllocDelta(at_enum, CurrentAllocCounts()).news;
  rep.peak_rss_kb = PeakRssKb();
  if (rep.produced > 0 && (rep.checkpoints.empty() ||
                           rep.checkpoints.back().first != rep.produced)) {
    rep.checkpoints.emplace_back(rep.produced, rep.ttl_seconds);
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

std::vector<std::string> ColumnNames(const SqlStatement& stmt) {
  std::vector<std::string> names;
  if (stmt.select_vars.empty()) {
    for (uint32_t v = 0; v < stmt.query.NumVars(); ++v) {
      names.push_back(stmt.query.VarName(v));
    }
  } else {
    for (uint32_t v : stmt.select_vars) {
      names.push_back(stmt.query.VarName(v));
    }
  }
  return names;
}

// Emit a multi-line block as text-mode comment lines ("# " prefix), so the
// RESULT/TIMING stream stays machine-parseable around the EXPLAIN output.
void WriteCommented(std::ostream& out, const std::string& block) {
  std::istringstream in(block);
  std::string line;
  while (std::getline(in, line)) out << "# " << line << "\n";
}

void WriteTextReport(std::ostream& out, const RunReport& rep) {
  out << "TIMING,preprocessing,0," << rep.preprocessing_seconds << "\n";
  if (rep.produced > 0) out << "TIMING,ttf,1," << rep.ttf_seconds << "\n";
  for (const auto& [k, secs] : rep.checkpoints) {
    out << "TIMING,ttk," << k << "," << secs << "\n";
  }
  out << "TIMING,ttl," << rep.produced << "," << rep.ttl_seconds << "\n";
  out << "TIMING,max_delay,0," << rep.max_delay_seconds << "\n";
  for (size_t s = 0; s < rep.sessions.size(); ++s) {
    const SessionReport& sr = rep.sessions[s];
    out << "SESSION," << s << "," << sr.produced << "," << sr.ttf_seconds
        << "," << sr.ttk_seconds << "," << sr.ttl_seconds << ","
        << (sr.exhausted ? "exhausted" : "capped") << "\n";
  }
  if (!rep.sessions.empty()) {
    out << "CONCURRENCY,sessions," << rep.sessions.size() << ","
        << rep.aggregate_answers_per_sec << "\n";
  }
  out << "MEMORY,preprocessing_allocs," << rep.preprocessing_allocs << "\n";
  out << "MEMORY,enumeration_allocs," << rep.enumeration_allocs << "\n";
  out << "MEMORY,peak_rss_kb," << rep.peak_rss_kb << "\n";
  out << "# produced=" << rep.produced
      << " exhausted=" << (rep.exhausted ? "yes" : "no") << "\n";
}

void WriteJsonReport(std::ostream& out, const CliOptions& opt,
                     bool print_results,
                     const std::vector<LoadedRelation>& rels,
                     const std::vector<std::string>& columns,
                     const std::string& algorithm,
                     const std::string& dioid, size_t limit,
                     const std::vector<CliResult>& results,
                     const RunReport& rep) {
  JsonWriter w(out);
  w.BeginObject();
  w.KV("schema_version", static_cast<int64_t>(kSchemaVersion));
  w.KV("tool", "anyk");
  w.KV("version", ANYK_VERSION);
  w.KV("sql", opt.query);
  w.KV("plan", rep.plan);
  w.KV("algorithm", algorithm);
  w.KV("resolved_algorithm", rep.resolved_algorithm);
  w.Key("planner").BeginObject();
  w.KV("summary", rep.planner_summary);
  if (!rep.explain_text.empty()) w.KV("explain", rep.explain_text);
  w.EndObject();
  w.KV("dioid", dioid);
  w.KV("limit", static_cast<uint64_t>(limit));
  w.KV("threads", static_cast<uint64_t>(opt.threads));
  w.KV("sessions", static_cast<uint64_t>(opt.sessions));
  w.KV("shards", static_cast<uint64_t>(opt.shards));
  w.Key("relations").BeginArray();
  for (const LoadedRelation& r : rels) {
    w.BeginObject();
    w.KV("name", r.name);
    w.KV("path", r.path);
    w.KV("rows", static_cast<uint64_t>(r.rows));
    w.KV("arity", static_cast<uint64_t>(r.arity));
    w.EndObject();
  }
  w.EndArray();
  w.Key("columns").BeginArray();
  for (const std::string& c : columns) w.String(c);
  w.EndArray();
  if (print_results) {
    w.Key("results").BeginArray();
    for (size_t i = 0; i < results.size(); ++i) {
      w.BeginObject();
      w.KV("k", static_cast<uint64_t>(i + 1));
      w.KV("weight", results[i].weight);
      w.Key("values").BeginArray();
      for (Value v : results[i].values) w.Int(v);
      w.EndArray();
      w.EndObject();
    }
    w.EndArray();
  }
  w.Key("timings").BeginObject();
  w.KV("preprocessing_seconds", rep.preprocessing_seconds);
  w.KV("ttf_seconds", rep.ttf_seconds);
  w.KV("ttl_seconds", rep.ttl_seconds);
  w.KV("max_delay_seconds", rep.max_delay_seconds);
  w.KV("produced", static_cast<uint64_t>(rep.produced));
  w.KV("exhausted", rep.exhausted);
  if (!rep.sessions.empty()) {
    w.KV("aggregate_answers_per_sec", rep.aggregate_answers_per_sec);
    w.Key("sessions").BeginArray();
    for (const SessionReport& sr : rep.sessions) {
      w.BeginObject();
      w.KV("produced", static_cast<uint64_t>(sr.produced));
      w.KV("ttf_seconds", sr.ttf_seconds);
      w.KV("ttk_seconds", sr.ttk_seconds);
      w.KV("ttl_seconds", sr.ttl_seconds);
      w.KV("exhausted", sr.exhausted);
      w.EndObject();
    }
    w.EndArray();
  }
  w.KV("preprocessing_allocs",
       static_cast<uint64_t>(rep.preprocessing_allocs));
  w.KV("enumeration_allocs", static_cast<uint64_t>(rep.enumeration_allocs));
  w.KV("peak_rss_kb", static_cast<uint64_t>(rep.peak_rss_kb));
  w.Key("checkpoints").BeginArray();
  for (const auto& [k, secs] : rep.checkpoints) {
    w.BeginObject();
    w.KV("k", static_cast<uint64_t>(k));
    w.KV("seconds", secs);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();  // timings
  w.EndObject();
  w.Finish();
}

}  // namespace

const char* UsageText() {
  return
      "anyk " ANYK_VERSION
      " - ranked enumeration of conjunctive-query answers (any-k)\n"
      "\n"
      "Usage:\n"
      "  anyk --relation NAME=FILE.csv [--relation ...] --query SQL "
      "[options]\n"
      "\n"
      "Query:\n"
      "  --query SQL           SQL in the paper dialect (see docs/CLI.md):\n"
      "                        SELECT */cols FROM R [alias], ... WHERE\n"
      "                        a.A2 = b.A1 [AND ...] ORDER BY WEIGHT "
      "[ASC|DESC] [LIMIT k]\n"
      "  --query-file FILE     read the SQL text from FILE\n"
      "  --algorithm NAME      recursive | take2 | lazy (default) | eager | "
      "all | batch\n"
      "                        | auto (cost-based planner picks strategy,\n"
      "                        heap arity and join-tree orientation; see\n"
      "                        docs/PLANNER.md)\n"
      "  --explain             print the EXPLAIN block (plan shape + "
      "planner\n"
      "                        decision) with the report\n"
      "  --dioid NAME          min-sum | max-sum | min-max | max-times\n"
      "                        (default: min-sum for ASC, max-sum for DESC)\n"
      "  --k N                 top-k budget (N >= 1): propagated to the "
      "enumerators\n"
      "                        (O(k) candidate heaps, batch partial sort) "
      "and stops\n"
      "                        the drain after N answers (overrides the SQL "
      "LIMIT;\n"
      "                        omit --k to enumerate everything)\n"
      "\n"
      "Concurrency (see docs/CLI.md, docs/ARCHITECTURE.md 'Threading "
      "model'):\n"
      "  --threads N           preprocessing workers: parallel CSV loading "
      "and\n"
      "                        parallel stage-graph builds (default 1)\n"
      "  --sessions N          drain the prepared query with N concurrent\n"
      "                        sessions; implies --no-results and reports "
      "per-\n"
      "                        session TTL + aggregate answers/sec "
      "(default 1)\n"
      "  --shards S            hash-partition the data into S shards, "
      "prepare S\n"
      "                        per-shard pipelines in parallel (uses "
      "--threads\n"
      "                        workers) and merge their ranked streams per\n"
      "                        session; with --threads > 1 each shard "
      "session\n"
      "                        drains on its own worker (default 1 = "
      "unsharded;\n"
      "                        docs/ARCHITECTURE.md 'Sharding')\n"
      "\n"
      "CSV loading (applies to every --relation):\n"
      "  --delimiter C         field delimiter (default ',')\n"
      "  --header              skip the first line of each file\n"
      "  --weight-column SPEC  1-based weight column, 'last' (default) or "
      "'none'\n"
      "  --row-limit N         load at most N rows per relation (0 = all)\n"
      "\n"
      "Output:\n"
      "  --format text|json    default text; the JSON schema is documented "
      "in docs/CLI.md\n"
      "  --output FILE         write the report to FILE instead of stdout\n"
      "  --no-results          suppress per-answer rows, report timings "
      "only\n"
      "  --checkpoints LIST    comma-separated TT(k) checkpoints (default "
      "1,2,5,10,20,...)\n"
      "\n"
      "  --help                show this help\n"
      "  --version             print version and exit\n"
      "\n"
      "Exit codes: 0 success, 1 runtime error (bad CSV/SQL/data), 2 usage "
      "error.\n";
}

bool ParseCliArgs(int argc, char** argv, CliOptions* opt, std::string* error) {
  opt->csv.weight_last = true;  // CLI default: last column is the weight
  std::vector<std::string> args(argv + 1, argv + argc);
  auto value_of = [&](size_t* i, const std::string& flag,
                      std::string* out) -> bool {
    const std::string& a = args[*i];
    const std::string eq = flag + "=";
    if (a.compare(0, eq.size(), eq) == 0) {
      *out = a.substr(eq.size());
      return true;
    }
    if (a == flag) {
      if (*i + 1 >= args.size()) {
        *error = "missing value for " + flag;
        return false;
      }
      *out = args[++*i];
      return true;
    }
    *error = "internal flag mismatch for " + flag;
    return false;
  };
  auto is_flag = [&](const std::string& a, const std::string& flag) {
    return a == flag || a.compare(0, flag.size() + 1, flag + "=") == 0;
  };

  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    std::string v;
    if (a == "--help" || a == "-h") {
      opt->show_help = true;
    } else if (a == "--version") {
      opt->show_version = true;
    } else if (a == "--header") {
      opt->csv.has_header = true;
    } else if (a == "--no-results") {
      opt->print_results = false;
    } else if (a == "--explain") {
      opt->explain = true;
    } else if (is_flag(a, "--relation")) {
      if (!value_of(&i, "--relation", &v)) return false;
      const size_t eq = v.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= v.size()) {
        *error = "--relation expects NAME=FILE.csv, got '" + v + "'";
        return false;
      }
      opt->relations.push_back({v.substr(0, eq), v.substr(eq + 1)});
    } else if (is_flag(a, "--query")) {
      if (!value_of(&i, "--query", &v)) return false;
      opt->query = v;
    } else if (is_flag(a, "--query-file")) {
      if (!value_of(&i, "--query-file", &v)) return false;
      std::ifstream in(v);
      if (!in.good()) {
        *error = "cannot open query file " + v;
        return false;
      }
      std::ostringstream text;
      text << in.rdbuf();
      opt->query = text.str();
    } else if (is_flag(a, "--algorithm")) {
      if (!value_of(&i, "--algorithm", &v)) return false;
      if (!ParseAlgorithm(v)) {
        *error = "unknown algorithm '" + v +
                 "' (expected recursive|take2|lazy|eager|all|batch|auto)";
        return false;
      }
      opt->algorithm = v;
    } else if (is_flag(a, "--dioid")) {
      if (!value_of(&i, "--dioid", &v)) return false;
      if (v != "min-sum" && v != "max-sum" && v != "min-max" &&
          v != "max-times") {
        *error = "unknown dioid '" + v +
                 "' (expected min-sum|max-sum|min-max|max-times)";
        return false;
      }
      opt->dioid = v;
    } else if (is_flag(a, "--k")) {
      if (!value_of(&i, "--k", &v)) return false;
      // 0 is rejected, not passed through: internally k_budget == 0 means
      // "unbounded" (see EnumOptions), so `--k 0` would silently drain
      // everything instead of producing nothing.
      if (!ParseSize(v, &opt->k) || opt->k == 0) {
        *error = "--k expects a positive integer, got '" + v +
                 "' (omit --k to enumerate everything)";
        return false;
      }
      opt->has_k = true;
    } else if (is_flag(a, "--format")) {
      if (!value_of(&i, "--format", &v)) return false;
      if (v != "text" && v != "json") {
        *error = "unknown format '" + v + "' (expected text|json)";
        return false;
      }
      opt->format = v;
    } else if (is_flag(a, "--output")) {
      if (!value_of(&i, "--output", &v)) return false;
      opt->output_path = v;
    } else if (is_flag(a, "--checkpoints")) {
      if (!value_of(&i, "--checkpoints", &v)) return false;
      std::istringstream in(v);
      std::string item;
      while (std::getline(in, item, ',')) {
        size_t k = 0;
        if (!ParseSize(item, &k) || k == 0) {
          *error = "--checkpoints expects positive integers, got '" + item +
                   "'";
          return false;
        }
        opt->checkpoints.push_back(k);
      }
      std::sort(opt->checkpoints.begin(), opt->checkpoints.end());
      opt->checkpoints.erase(
          std::unique(opt->checkpoints.begin(), opt->checkpoints.end()),
          opt->checkpoints.end());
    } else if (is_flag(a, "--delimiter")) {
      if (!value_of(&i, "--delimiter", &v)) return false;
      if (v.size() != 1) {
        *error = "--delimiter expects a single character, got '" + v + "'";
        return false;
      }
      opt->csv.delimiter = v[0];
    } else if (is_flag(a, "--weight-column")) {
      if (!value_of(&i, "--weight-column", &v)) return false;
      if (v == "last") {
        opt->csv.weight_last = true;
        opt->csv.weight_column = -1;
      } else if (v == "none") {
        opt->csv.weight_last = false;
        opt->csv.weight_column = -1;
      } else {
        size_t col = 0;
        if (!ParseSize(v, &col) || col == 0) {
          *error = "--weight-column expects a 1-based index, 'last' or "
                   "'none', got '" + v + "'";
          return false;
        }
        opt->csv.weight_last = false;
        opt->csv.weight_column = static_cast<int>(col) - 1;
      }
    } else if (is_flag(a, "--threads")) {
      if (!value_of(&i, "--threads", &v)) return false;
      if (!ParseSize(v, &opt->threads) || opt->threads == 0) {
        *error = "--threads expects a positive integer, got '" + v + "'";
        return false;
      }
    } else if (is_flag(a, "--sessions")) {
      if (!value_of(&i, "--sessions", &v)) return false;
      if (!ParseSize(v, &opt->sessions) || opt->sessions == 0) {
        *error = "--sessions expects a positive integer, got '" + v + "'";
        return false;
      }
    } else if (is_flag(a, "--shards")) {
      if (!value_of(&i, "--shards", &v)) return false;
      if (!ParseSize(v, &opt->shards) || opt->shards == 0) {
        *error = "--shards expects a positive integer, got '" + v + "'";
        return false;
      }
    } else if (is_flag(a, "--row-limit")) {
      if (!value_of(&i, "--row-limit", &v)) return false;
      if (!ParseSize(v, &opt->csv.limit)) {
        *error = "--row-limit expects a non-negative integer, got '" + v +
                 "'";
        return false;
      }
    } else {
      *error = "unknown flag '" + a + "'";
      return false;
    }
  }

  if (opt->show_help || opt->show_version) return true;
  if (opt->relations.empty()) {
    *error = "no relations given; pass at least one --relation NAME=FILE.csv";
    return false;
  }
  *error = RepeatedRelationError(opt->relations);
  if (!error->empty()) return false;
  if (opt->query.empty()) {
    *error = "no query given; pass --query SQL or --query-file FILE";
    return false;
  }
  return true;
}

int RunCli(const CliOptions& opt) {
  // Output stream: stdout or --output.
  std::ofstream file_out;
  if (!opt.output_path.empty()) {
    file_out.open(opt.output_path);
    ANYK_CHECK(file_out.good()) << "cannot write " << opt.output_path;
  }
  std::ostream& out = opt.output_path.empty() ? std::cout : file_out;

  // Preprocessing worker pool (--threads); null-equivalent when 1.
  ThreadPool pool(opt.threads);

  // Load relations — in parallel with --threads > 1 (storage/csv.h).
  Database db;
  LoadRelationsCsv(&db, opt.relations, opt.csv, &pool);
  std::vector<LoadedRelation> rels;
  for (const CsvRelation& r : opt.relations) {
    const Relation& rel = db.Get(r.name);
    rels.push_back({r.name, r.path, rel.NumRows(), rel.arity()});
  }

  // Parse the SQL against the database (arities become known).
  SqlStatement stmt = ParseSql(opt.query, &db);
  const size_t limit = opt.has_k ? opt.k : stmt.limit;
  const Algorithm algo = *ParseAlgorithm(opt.algorithm);
  std::string dioid = opt.dioid;
  if (dioid.empty()) dioid = stmt.ascending ? "min-sum" : "max-sum";
  const std::vector<std::string> columns = ColumnNames(stmt);

  const std::vector<size_t> cps =
      opt.checkpoints.empty()
          ? GeometricCheckpoints(limit == 0 ? SIZE_MAX : limit)
          : opt.checkpoints;

  const bool text = opt.format == "text";
  if (text) {
    out << "# anyk " << ANYK_VERSION << "\n";
    for (const LoadedRelation& r : rels) {
      out << "# loaded " << r.name << ": " << r.path << " (rows=" << r.rows
          << ", arity=" << r.arity << ")\n";
    }
    out << "# algorithm=" << AlgorithmName(algo) << " dioid=" << dioid
        << " limit=" << limit << " threads=" << opt.threads << " sessions="
        << opt.sessions << " shards=" << opt.shards << "\n";
    out << "# columns: k,weight";
    for (const std::string& c : columns) out << "," << c;
    out << "\n";
  }

  // Text mode streams answers as they are produced; JSON collects them.
  // Concurrent-drain mode never streams per-answer rows (N interleaved
  // ranked streams are noise; the mode measures serving throughput).
  const bool print_results = opt.print_results && opt.sessions <= 1;
  std::vector<CliResult> results;
  // One encoded RESULT line, handed to `out` before the next row arrives.
  // Reserved for the widest row (rank, %.6g weight and every value at full
  // width), so streaming answers allocates nothing.
  std::string row;
  row.reserve(64 + 21 * columns.size());
  RowFn sink;
  if (print_results && text) {
    sink = [&](size_t k, double weight, const std::vector<Value>& values) {
      row.clear();
      AppendResultRow(&row, k, weight, values);
      out.write(row.data(), static_cast<std::streamsize>(row.size()));
    };
  } else if (print_results) {
    sink = [&](size_t, double weight, const std::vector<Value>& values) {
      results.push_back({weight, values});
    };
  }

  ShardedQueryOptions qopts;
  qopts.prepare.pool = &pool;
  // `auto` also unlocks the planner's topology choice (join-tree root /
  // stage order), not just the strategy pick.
  qopts.prepare.auto_plan = algo == Algorithm::kAuto;
  // shards > 1 hash-partitions the data into S per-shard pipelines whose
  // streams merge through a ranked union (anyk/sharded_query.h); with
  // worker threads too, each shard session drains on its own worker (same
  // output bytes as the serial merge).
  qopts.shards = opt.shards;
  qopts.parallel_drain = opt.threads > 1 && opt.shards > 1;

  // Budget-aware top-k fast path: --k / SQL LIMIT reaches every enumerator
  // as EnumOptions::k_budget (bounded O(k) candidate heaps, batch partial
  // sort) through the stream it opens, instead of merely truncating the
  // drain loop.
  const RunReport rep = RunQuery(db, std::move(stmt), dioid, algo, limit,
                                 qopts, cps, sink, opt.sessions, opt.explain);

  if (text) {
    out << "# plan=" << rep.plan << "\n";
    out << "# planner: " << rep.planner_summary << "\n";
    out << "# resolved_algorithm=" << rep.resolved_algorithm << "\n";
    if (!rep.explain_text.empty()) WriteCommented(out, rep.explain_text);
    WriteTextReport(out, rep);
  } else {
    WriteJsonReport(out, opt, print_results, rels, columns,
                    AlgorithmName(algo), dioid, limit, results, rep);
  }
  return 0;
}

int CliMain(int argc, char** argv) {
  CliOptions opt;
  std::string error;
  if (!ParseCliArgs(argc, argv, &opt, &error)) {
    std::fprintf(stderr, "anyk: %s\n(usage: try 'anyk --help')\n",
                 error.c_str());
    return 2;
  }
  if (opt.show_help) {
    std::fputs(UsageText(), stdout);
    return 0;
  }
  if (opt.show_version) {
    std::printf("anyk %s\n", ANYK_VERSION);
    return 0;
  }
  SetCheckFailureHandler(&ThrowingCheckHandler);
  try {
    return RunCli(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "anyk: error: %s\n", e.what());
    return 1;
  }
}

}  // namespace cli
}  // namespace anyk
