// The `anyk` command-line driver: load CSV relations into a Database, parse
// the paper-dialect SQL (src/query/sql.h), pick an any-k algorithm
// (Eager/Lazy/All/Take2/Recursive/Batch, or `auto` for the cost-based
// planner) and a selective dioid, and stream ranked answers with TTF /
// TT(k) / TTL timings in text or JSON. Statement to ranked pages goes
// through the library's dioid-erased QueryHandle (src/anyk/query_handle.h),
// the same one anykd serves from. --explain prints the plan and the planner
// decision (src/anyk/explain.h) before the timings.
//
// Split from main() so the option parser and runner are linkable from tests;
// the binary itself is cli/anyk_main.cc.

#ifndef ANYK_CLI_ANYK_CLI_H_
#define ANYK_CLI_ANYK_CLI_H_

#include <cstddef>
#include <string>
#include <vector>

#include "storage/csv.h"

namespace anyk {
namespace cli {

struct CliOptions {
  std::vector<CsvRelation> relations;  // --relation NAME=FILE.csv
  std::string query;            // SQL text (from --query or --query-file)
  std::string algorithm = "lazy";
  std::string dioid;            // empty: derived from ORDER BY direction
  bool has_k = false;
  size_t k = 0;                 // with has_k: overrides the SQL LIMIT (0 = all)
  std::string format = "text";  // "text" | "json"
  std::string output_path;      // empty = stdout
  bool print_results = true;
  std::vector<size_t> checkpoints;  // empty = geometric 1,2,5,10,...
  CsvOptions csv;               // --delimiter / --header / --weight-column
  // Preprocessing worker threads (--threads): parallel per-relation CSV
  // loading plus parallel stage-graph builds. 1 = fully serial.
  size_t threads = 1;
  // Concurrent enumeration sessions (--sessions): N threads each drain an
  // independent EnumerationSession of the same PreparedQuery; implies
  // --no-results and reports per-session TTL + aggregate answers/sec.
  size_t sessions = 1;
  // Intra-query data shards (--shards): hash-partition the relations on the
  // query's partition variable and prepare S independent per-shard
  // pipelines, merged per session through a ranked union
  // (src/anyk/sharded_query.h). 1 = unsharded passthrough.
  size_t shards = 1;
  // Print the EXPLAIN block (plan shape + planner decision) before running.
  bool explain = false;
  bool show_help = false;
  bool show_version = false;
};

/// Full --help text.
const char* UsageText();

/// Parse argv into `opt`. Returns false (with `error` set) on usage errors.
bool ParseCliArgs(int argc, char** argv, CliOptions* opt, std::string* error);

/// Load, plan, enumerate, report. Assumes a throwing check handler is
/// installed; propagates CheckError on runtime failures, and
/// std::runtime_error ("cannot write results to ...") at the first page or
/// final report whose output fails. Returns exit code 0.
int RunCli(const CliOptions& opt);

/// The complete driver: parse flags, install the throwing check handler, run,
/// and map failures to exit codes (0 success, 1 runtime error, 2 usage).
int CliMain(int argc, char** argv);

}  // namespace cli
}  // namespace anyk

#endif  // ANYK_CLI_ANYK_CLI_H_
