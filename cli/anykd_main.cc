// anykd — daemon entry point: load the database once, then serve ranked
// enumeration over HTTP until SIGINT/SIGTERM (see docs/SERVER.md and
// scripts/anyk_client.py for the matching client).

#include <charconv>
#include <csignal>
#include <cstdio>
#include <ctime>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "server/server.h"
#include "storage/csv.h"
#include "storage/database.h"
#include "util/logging.h"
#include "util/parse.h"
#include "util/thread_pool.h"

#ifndef ANYK_VERSION
#define ANYK_VERSION "dev"
#endif

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;

void OnSignal(int) { g_stop_requested = 1; }

const char* UsageText() {
  return
      "anykd " ANYK_VERSION " - any-k ranked-enumeration server\n"
      "\n"
      "Usage:\n"
      "  anykd --relation NAME=FILE.csv [--relation ...] [options]\n"
      "\n"
      "Serving (defaults in parentheses; protocol in docs/SERVER.md):\n"
      "  --port N              listen port on 127.0.0.1 (0 = ephemeral; the\n"
      "                        bound port is printed on startup)\n"
      "  --workers N           connection worker threads (4)\n"
      "  --threads N           preprocessing workers per preparation (1)\n"
      "  --shards S            hash-partition every prepared query's data "
      "into S\n"
      "                        per-shard pipelines merged per cursor (1 =\n"
      "                        unsharded; also a prepared-query cache-key\n"
      "                        component — docs/SERVER.md)\n"
      "  --cache-capacity N    prepared queries kept, LRU beyond it (16)\n"
      "  --max-sessions N      open cursors / concurrent first pages (64)\n"
      "  --max-page-k N        largest accepted k= page size (10000)\n"
      "  --default-page-k N    page size when k= is absent (100)\n"
      "  --cursor-ttl SECONDS  idle cursors reclaimed after this (300; 0 =\n"
      "                        never)\n"
      "  --qps N               token-bucket requests/second (0 = unlimited)\n"
      "\n"
      "CSV loading (applies to every --relation):\n"
      "  --delimiter C         field delimiter (default ',')\n"
      "  --header              skip the first line of each file\n"
      "  --weight-column SPEC  1-based weight column, 'last' (default) or "
      "'none'\n"
      "  --row-limit N         load at most N rows per relation (0 = all)\n"
      "\n"
      "  --help                show this help\n"
      "  --version             print version and exit\n"
      "\n"
      "Exit codes: 0 clean shutdown, 1 runtime error, 2 usage error.\n";
}

// from_chars, not strtod: strtod honors the process locale, so a daemon
// started under e.g. LC_NUMERIC=de_DE would silently misread "--qps 0.5".
// Same policy as the CSV weight parser (src/storage/csv.cc).
bool ParseNonNegativeDouble(const std::string& s, double* out) {
  const char* begin = s.c_str();
  const char* end = begin + s.size();
  double v = 0;
  auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc() || ptr != end || v < 0) return false;
  *out = v;
  return true;
}

struct DaemonOptions {
  std::vector<anyk::CsvRelation> relations;
  anyk::CsvOptions csv;
  anyk::server::ServerOptions server;
  bool show_help = false;
  bool show_version = false;
};

bool ParseArgs(int argc, char** argv, DaemonOptions* opt, std::string* error) {
  opt->csv.weight_last = true;
  std::vector<std::string> args(argv + 1, argv + argc);
  auto value_of = [&](size_t* i, const std::string& flag,
                      std::string* out) -> bool {
    const std::string& a = args[*i];
    const std::string eq = flag + "=";
    if (a.compare(0, eq.size(), eq) == 0) {
      *out = a.substr(eq.size());
      return true;
    }
    if (*i + 1 >= args.size()) {
      *error = "missing value for " + flag;
      return false;
    }
    *out = args[++*i];
    return true;
  };
  auto is_flag = [&](const std::string& a, const std::string& flag) {
    return a == flag || a.compare(0, flag.size() + 1, flag + "=") == 0;
  };
  auto size_flag = [&](size_t* i, const std::string& flag, size_t* out) {
    std::string v;
    if (!value_of(i, flag, &v)) return false;
    if (!anyk::ParseSize(v, out)) {
      *error = flag + " expects a non-negative integer, got '" + v + "'";
      return false;
    }
    return true;
  };

  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    std::string v;
    size_t n = 0;
    if (a == "--help" || a == "-h") {
      opt->show_help = true;
    } else if (a == "--version") {
      opt->show_version = true;
    } else if (a == "--header") {
      opt->csv.has_header = true;
    } else if (is_flag(a, "--relation")) {
      if (!value_of(&i, "--relation", &v)) return false;
      const size_t eq = v.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= v.size()) {
        *error = "--relation expects NAME=FILE.csv, got '" + v + "'";
        return false;
      }
      opt->relations.push_back({v.substr(0, eq), v.substr(eq + 1)});
    } else if (is_flag(a, "--port")) {
      if (!size_flag(&i, "--port", &n)) return false;
      if (n > 65535) {
        *error = "--port expects 0..65535";
        return false;
      }
      opt->server.port = static_cast<int>(n);
    } else if (is_flag(a, "--workers")) {
      if (!size_flag(&i, "--workers", &n) || n == 0) {
        if (error->empty()) *error = "--workers expects a positive integer";
        return false;
      }
      opt->server.workers = n;
    } else if (is_flag(a, "--threads")) {
      if (!size_flag(&i, "--threads", &n) || n == 0) {
        if (error->empty()) *error = "--threads expects a positive integer";
        return false;
      }
      opt->server.prepare_threads = n;
    } else if (is_flag(a, "--shards")) {
      if (!size_flag(&i, "--shards", &n) || n == 0) {
        if (error->empty()) *error = "--shards expects a positive integer";
        return false;
      }
      opt->server.shards = n;
    } else if (is_flag(a, "--cache-capacity")) {
      if (!size_flag(&i, "--cache-capacity", &n) || n == 0) {
        if (error->empty()) {
          *error = "--cache-capacity expects a positive integer";
        }
        return false;
      }
      opt->server.cache_capacity = n;
    } else if (is_flag(a, "--max-sessions")) {
      if (!size_flag(&i, "--max-sessions", &n) || n == 0) {
        if (error->empty()) *error = "--max-sessions expects a positive integer";
        return false;
      }
      opt->server.max_sessions = n;
    } else if (is_flag(a, "--max-page-k")) {
      if (!size_flag(&i, "--max-page-k", &n) || n == 0) {
        if (error->empty()) *error = "--max-page-k expects a positive integer";
        return false;
      }
      opt->server.max_page_k = n;
    } else if (is_flag(a, "--default-page-k")) {
      if (!size_flag(&i, "--default-page-k", &n) || n == 0) {
        if (error->empty()) {
          *error = "--default-page-k expects a positive integer";
        }
        return false;
      }
      opt->server.default_page_k = n;
    } else if (is_flag(a, "--cursor-ttl")) {
      if (!value_of(&i, "--cursor-ttl", &v)) return false;
      double secs = 0;
      if (!ParseNonNegativeDouble(v, &secs)) {
        *error = "--cursor-ttl expects seconds >= 0, got '" + v + "'";
        return false;
      }
      opt->server.cursor_ttl_seconds = secs;
    } else if (is_flag(a, "--qps")) {
      if (!value_of(&i, "--qps", &v)) return false;
      double qps = 0;
      if (!ParseNonNegativeDouble(v, &qps)) {
        *error = "--qps expects a rate >= 0, got '" + v + "'";
        return false;
      }
      opt->server.qps = qps;
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
        if (!anyk::ParseSize(v, &col) || col == 0) {
          *error = "--weight-column expects a 1-based index, 'last' or "
                   "'none', got '" + v + "'";
          return false;
        }
        opt->csv.weight_last = false;
        opt->csv.weight_column = static_cast<int>(col) - 1;
      }
    } else if (is_flag(a, "--row-limit")) {
      if (!size_flag(&i, "--row-limit", &opt->csv.limit)) return false;
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
  *error = anyk::RepeatedRelationError(opt->relations);
  if (!error->empty()) return false;
  return true;
}

int RunDaemon(const DaemonOptions& opt) {
  // The CLI's load recipe (storage/csv.h), so both tools agree on what a
  // dataset means.
  anyk::Database db;
  {
    anyk::ThreadPool pool(opt.server.prepare_threads);
    anyk::LoadRelationsCsv(&db, opt.relations, opt.csv, &pool);
  }
  for (const anyk::CsvRelation& r : opt.relations) {
    const anyk::Relation& rel = db.Get(r.name);
    std::fprintf(stderr, "anykd: loaded %s: %s (rows=%zu, arity=%zu)\n",
                 r.name.c_str(), r.path.c_str(), rel.NumRows(), rel.arity());
  }

  anyk::server::AnykServer srv(std::move(db), opt.server);
  srv.Start();
  // The startup line is the daemon's readiness signal: tests and the CI
  // smoke job block on it to learn the (possibly ephemeral) port.
  std::printf("anykd listening on %d\n", srv.bound_port());
  std::fflush(stdout);

  std::signal(SIGINT, &OnSignal);
  std::signal(SIGTERM, &OnSignal);
  while (!g_stop_requested) {
    struct timespec ts = {0, 100 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  std::fprintf(stderr, "anykd: shutting down\n");
  srv.Stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  DaemonOptions opt;
  std::string error;
  if (!ParseArgs(argc, argv, &opt, &error)) {
    std::fprintf(stderr, "anykd: %s\n(usage: try 'anykd --help')\n",
                 error.c_str());
    return 2;
  }
  if (opt.show_help) {
    std::fputs(UsageText(), stdout);
    return 0;
  }
  if (opt.show_version) {
    std::printf("anykd %s\n", ANYK_VERSION);
    return 0;
  }
  anyk::SetCheckFailureHandler(&anyk::ThrowingCheckHandler);
  try {
    return RunDaemon(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "anykd: error: %s\n", e.what());
    return 1;
  }
}
