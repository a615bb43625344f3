// Golden-file tests for the `anyk` CLI binary: --help, ranked SQL queries
// over the checked-in CSVs in tests/data/, the JSON report schema, and the
// documented exit codes for malformed input and failed output (0 success,
// 1 runtime, 2 usage).
// The usage checks both binaries share also run against `anykd`.
//
// The binary paths and data directory come from CMake via ANYK_CLI_BIN /
// ANYKD_BIN / ANYK_TEST_DATA_DIR compile definitions.

#include <sys/wait.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>
#include <gtest/gtest.h>

namespace {

struct CliRun {
  int exit_code = -1;
  std::string output;  // stdout + stderr combined
};

CliRun RunBinary(const std::string& binary, const std::string& args) {
  const std::string cmd = binary + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "popen failed for: " << cmd;
  CliRun run;
  char buf[4096];
  size_t n = 0;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) {
    run.output.append(buf, n);
  }
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

CliRun RunCli(const std::string& args) { return RunBinary(ANYK_CLI_BIN, args); }

std::string Data(const std::string& file) {
  return std::string(ANYK_TEST_DATA_DIR) + "/" + file;
}

std::vector<std::string> ResultLines(const std::string& output) {
  std::vector<std::string> lines;
  std::istringstream in(output);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("RESULT,", 0) == 0) lines.push_back(line);
  }
  return lines;
}

std::string TwoRelationArgs() {
  return "--relation R=" + Data("r.csv") + " --relation S=" + Data("s.csv");
}

// ---- Help / version ----

TEST(CliTest, HelpExitsZeroAndListsFlags) {
  CliRun run = RunCli("--help");
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.output.find("Usage:"), std::string::npos);
  EXPECT_NE(run.output.find("--relation"), std::string::npos);
  EXPECT_NE(run.output.find("--algorithm"), std::string::npos);
  EXPECT_NE(run.output.find("--dioid"), std::string::npos);
  EXPECT_NE(run.output.find("Exit codes"), std::string::npos);
}

TEST(CliTest, VersionExitsZero) {
  CliRun run = RunCli("--version");
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.output.find("anyk"), std::string::npos);
}

// ---- Ranked SQL end-to-end (golden) ----

TEST(CliTest, RankedJoinGoldenOutput) {
  CliRun run = RunCli(
      TwoRelationArgs() +
      " --query \"SELECT * FROM R, S WHERE R.A2 = S.A1"
      " ORDER BY WEIGHT ASC LIMIT 3\"");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  const std::vector<std::string> results = ResultLines(run.output);
  ASSERT_EQ(results.size(), 3u) << run.output;
  EXPECT_EQ(results[0], "RESULT,1,2,1,10,100");
  EXPECT_EQ(results[1], "RESULT,2,3,2,10,100");
  EXPECT_EQ(results[2], "RESULT,3,5,1,10,200");
  EXPECT_NE(run.output.find("# plan=acyclic-tree"), std::string::npos);
  EXPECT_NE(run.output.find("TIMING,ttf,1,"), std::string::npos);
  EXPECT_NE(run.output.find("TIMING,ttl,3,"), std::string::npos);
}

// `--k 0` used to silently mean "enumerate everything" because 0 is the
// internal EnumOptions::k_budget sentinel for unbounded; the flag now
// rejects it at the usage boundary so a zero request can never become a
// full drain. Omitting --k (or the SQL LIMIT) is the way to ask for all
// answers — the next test pins that still works.
TEST(CliTest, KZeroIsAUsageError) {
  CliRun run = RunCli(
      TwoRelationArgs() +
      " --k 0 --query \"SELECT * FROM R, S WHERE R.A2 = S.A1"
      " ORDER BY WEIGHT ASC LIMIT 3\"");
  ASSERT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("--k expects a positive integer"),
            std::string::npos)
      << run.output;
  EXPECT_TRUE(ResultLines(run.output).empty());
}

TEST(CliTest, OmittingKEnumeratesEverything) {
  CliRun run = RunCli(
      TwoRelationArgs() +
      " --query \"SELECT * FROM R, S WHERE R.A2 = S.A1"
      " ORDER BY WEIGHT ASC\"");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(ResultLines(run.output).size(), 5u) << run.output;
  EXPECT_NE(run.output.find("exhausted=yes"), std::string::npos);
}

TEST(CliTest, DescRanksHeaviestFirst) {
  CliRun run = RunCli(
      TwoRelationArgs() +
      " --query \"SELECT * FROM R, S WHERE R.A2 = S.A1"
      " ORDER BY WEIGHT DESC LIMIT 1\"");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  const std::vector<std::string> results = ResultLines(run.output);
  ASSERT_EQ(results.size(), 1u);
  // Two answers tie at weight 6; only the weight is deterministic.
  EXPECT_EQ(results[0].substr(0, 10), "RESULT,1,6");
  EXPECT_NE(run.output.find("dioid=max-sum"), std::string::npos);
}

TEST(CliTest, ProjectionUsesSelectList) {
  CliRun run = RunCli(
      TwoRelationArgs() +
      " --query \"SELECT S.A2 FROM R, S WHERE R.A2 = S.A1"
      " ORDER BY WEIGHT ASC LIMIT 1\"");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  const std::vector<std::string> results = ResultLines(run.output);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], "RESULT,1,2,100");
}

TEST(CliTest, FourPathSelfJoinOverEdgeList) {
  CliRun run = RunCli(
      "--relation E=" + Data("edges.csv") +
      " --header --query \"SELECT * FROM E e1, E e2, E e3, E e4"
      " WHERE e1.A2 = e2.A1 AND e2.A2 = e3.A1 AND e3.A2 = e4.A1"
      " ORDER BY WEIGHT ASC LIMIT 5\" --algorithm take2");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  const std::vector<std::string> results = ResultLines(run.output);
  ASSERT_EQ(results.size(), 5u) << run.output;
  // Several 4-edge paths tie at the cheapest weight 4 (e.g. 1->2->3->4->5),
  // so only the weight sequence is deterministic: nondecreasing from 4.
  double prev = 0;
  std::vector<double> weights;
  for (const std::string& r : results) {
    // RESULT,<k>,<weight>,...
    const size_t w_begin = r.find(',', 7) + 1;
    const double w = std::stod(r.substr(w_begin));
    EXPECT_GE(w, prev) << r;
    prev = w;
    weights.push_back(w);
  }
  EXPECT_DOUBLE_EQ(weights[0], 4.0);  // cheapest 4-edge path costs 4
  EXPECT_NE(run.output.find("# plan=acyclic-tree"), std::string::npos);
}

TEST(CliTest, FourCycleUsesCycleUnionPlan) {
  CliRun run = RunCli(
      "--relation E=" + Data("edges.csv") +
      " --header --query \"SELECT * FROM E e1, E e2, E e3, E e4"
      " WHERE e1.A2 = e2.A1 AND e2.A2 = e3.A1 AND e3.A2 = e4.A1"
      " AND e4.A2 = e1.A1 ORDER BY WEIGHT ASC\"");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  // The fixture has exactly one 4-cycle (1->2->3->4->1, weight 5), seen
  // once per rotation of the variable assignment.
  const std::vector<std::string> results = ResultLines(run.output);
  ASSERT_EQ(results.size(), 4u) << run.output;
  for (size_t i = 0; i < results.size(); ++i) {
    // RESULT,<k>,<weight>,...: every rotation weighs 5.
    const std::string prefix = "RESULT," + std::to_string(i + 1) + ",5,";
    EXPECT_EQ(results[i].substr(0, prefix.size()), prefix) << results[i];
  }
  EXPECT_NE(run.output.find("# plan=cycle-union"), std::string::npos);
}

// ---- JSON report ----

TEST(CliTest, JsonReportHasDocumentedSchema) {
  CliRun run = RunCli(
      TwoRelationArgs() +
      " --format json --query \"SELECT * FROM R, S WHERE R.A2 = S.A1"
      " ORDER BY WEIGHT ASC LIMIT 3\"");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("\"schema_version\": 5"), std::string::npos);
  EXPECT_NE(run.output.find("\"tool\": \"anyk\""), std::string::npos);
  EXPECT_NE(run.output.find("\"threads\": 1"), std::string::npos);
  EXPECT_NE(run.output.find("\"sessions\": 1"), std::string::npos);
  EXPECT_NE(run.output.find("\"shards\": 1"), std::string::npos);
  EXPECT_NE(run.output.find("\"plan\": \"acyclic-tree\""), std::string::npos);
  EXPECT_NE(run.output.find("\"algorithm\": \"Lazy\""), std::string::npos);
  // v4: the planner section is always present; a pinned --algorithm
  // resolves to itself.
  EXPECT_NE(run.output.find("\"resolved_algorithm\": \"Lazy\""),
            std::string::npos);
  EXPECT_NE(run.output.find("\"planner\""), std::string::npos);
  EXPECT_NE(run.output.find("\"summary\""), std::string::npos);
  EXPECT_NE(run.output.find("\"dioid\": \"min-sum\""), std::string::npos);
  EXPECT_NE(run.output.find("\"results\""), std::string::npos);
  EXPECT_NE(run.output.find("\"weight\": 2"), std::string::npos);
  EXPECT_NE(run.output.find("\"ttf_seconds\""), std::string::npos);
  EXPECT_NE(run.output.find("\"ttl_seconds\""), std::string::npos);
  EXPECT_NE(run.output.find("\"checkpoints\""), std::string::npos);
  EXPECT_NE(run.output.find("\"produced\": 3"), std::string::npos);
}

// ---- Planner (--algorithm auto / --explain) ----

TEST(CliTest, AutoAlgorithmMatchesExplicitResults) {
  const std::string query =
      " --query \"SELECT * FROM R, S WHERE R.A2 = S.A1"
      " ORDER BY WEIGHT ASC LIMIT 3\"";
  CliRun pinned = RunCli(TwoRelationArgs() + query);
  CliRun autorun = RunCli(TwoRelationArgs() + " --algorithm auto" + query);
  ASSERT_EQ(autorun.exit_code, 0) << autorun.output;
  // The planner picks a strategy, but the ranked answers are identical.
  EXPECT_EQ(ResultLines(autorun.output), ResultLines(pinned.output));
  EXPECT_NE(autorun.output.find("# planner: v"), std::string::npos)
      << autorun.output;
  EXPECT_NE(autorun.output.find("# resolved_algorithm="), std::string::npos)
      << autorun.output;
  // auto never reaches the sink as a literal algorithm name.
  EXPECT_EQ(autorun.output.find("# resolved_algorithm=Auto"),
            std::string::npos)
      << autorun.output;
}

TEST(CliTest, ExplainPrintsPlanAndDecision) {
  CliRun run = RunCli(
      TwoRelationArgs() +
      " --algorithm auto --explain --query \"SELECT * FROM R, S"
      " WHERE R.A2 = S.A1 ORDER BY WEIGHT ASC LIMIT 3\"");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("# plan: acyclic join tree"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("topology: planner-chosen (auto)"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("stats: output="), std::string::npos)
      << run.output;
  // EXPLAIN is diagnostic only: results still stream.
  EXPECT_EQ(ResultLines(run.output).size(), 3u) << run.output;
}

TEST(CliTest, AutoJsonCarriesPlannerExplain) {
  CliRun run = RunCli(
      TwoRelationArgs() +
      " --algorithm auto --explain --format json --query \"SELECT * FROM"
      " R, S WHERE R.A2 = S.A1 ORDER BY WEIGHT ASC LIMIT 3\"");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("\"algorithm\": \"Auto\""), std::string::npos);
  EXPECT_NE(run.output.find("\"resolved_algorithm\""), std::string::npos);
  EXPECT_EQ(run.output.find("\"resolved_algorithm\": \"Auto\""),
            std::string::npos);
  EXPECT_NE(run.output.find("\"planner\""), std::string::npos);
  EXPECT_NE(run.output.find("\"explain\""), std::string::npos);
}

TEST(CliTest, NoResultsSuppressesRows) {
  CliRun run = RunCli(
      TwoRelationArgs() +
      " --no-results --query \"SELECT * FROM R, S WHERE R.A2 = S.A1"
      " ORDER BY WEIGHT ASC LIMIT 3\"");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  EXPECT_TRUE(ResultLines(run.output).empty());
  EXPECT_NE(run.output.find("TIMING,ttl"), std::string::npos);
}

// ---- Concurrency flags (--threads / --sessions) ----

TEST(CliTest, ThreadsFlagLoadsInParallelWithSameResults) {
  const std::string query =
      " --query \"SELECT * FROM R, S WHERE R.A2 = S.A1"
      " ORDER BY WEIGHT ASC LIMIT 3\"";
  CliRun serial = RunCli(TwoRelationArgs() + query);
  CliRun parallel = RunCli(TwoRelationArgs() + " --threads 4" + query);
  ASSERT_EQ(parallel.exit_code, 0) << parallel.output;
  // Same ranked answers regardless of how the CSVs were loaded.
  EXPECT_EQ(ResultLines(parallel.output), ResultLines(serial.output));
  EXPECT_NE(parallel.output.find("threads=4"), std::string::npos);
}

// ---- Sharding (--shards) ----

TEST(CliTest, ShardsFlagKeepsRankedWeightsAndReportsShards) {
  const std::string query =
      " --query \"SELECT * FROM R, S WHERE R.A2 = S.A1"
      " ORDER BY WEIGHT ASC\"";
  CliRun unsharded = RunCli(TwoRelationArgs() + query);
  // --threads 2 --shards 3 exercises the parallel merged drain; equal-weight
  // answers may reorder across shard boundaries, so compare the weight
  // column, not the whole RESULT lines.
  CliRun sharded =
      RunCli(TwoRelationArgs() + " --threads 2 --shards 3" + query);
  ASSERT_EQ(sharded.exit_code, 0) << sharded.output;
  auto weights = [](const CliRun& run) {
    std::vector<std::string> out;
    for (const std::string& r : ResultLines(run.output)) {
      // RESULT,<k>,<weight>,...
      const size_t w_begin = r.find(',', 7) + 1;
      out.push_back(r.substr(w_begin, r.find(',', w_begin) - w_begin));
    }
    return out;
  };
  EXPECT_EQ(weights(sharded), weights(unsharded)) << sharded.output;
  EXPECT_NE(sharded.output.find(" shards=3"), std::string::npos)
      << sharded.output;
  EXPECT_NE(sharded.output.find("exhausted=yes"), std::string::npos);
}

// With --shards the EXPLAIN block shows shard 0's plan shape, but its
// planner line must be the cross-shard decision the header reports — not
// shard 0's local one (whose stats count only shard 0's answers).
TEST(CliTest, ShardedExplainShowsTheMergedPlannerDecision) {
  CliRun run = RunCli(
      TwoRelationArgs() +
      " --shards 3 --explain --algorithm auto --query \"SELECT * FROM R, S"
      " WHERE R.A2 = S.A1 ORDER BY WEIGHT ASC\"");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  std::vector<std::string> planner_lines;
  std::istringstream in(run.output);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("# planner: ", 0) == 0) planner_lines.push_back(line);
  }
  ASSERT_EQ(planner_lines.size(), 2u) << run.output;
  EXPECT_EQ(planner_lines[0], planner_lines[1]) << run.output;
  EXPECT_NE(planner_lines[0].find("out=5"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("# shards: 3 (plan shape and sizes below are "
                            "shard 0's"),
            std::string::npos)
      << run.output;
}

TEST(CliTest, ShardsZeroIsAUsageError) {
  CliRun run = RunCli(
      TwoRelationArgs() +
      " --shards 0 --query \"SELECT * FROM R, S WHERE R.A2 = S.A1"
      " ORDER BY WEIGHT ASC\"");
  ASSERT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("--shards expects a positive integer"),
            std::string::npos)
      << run.output;
}

TEST(CliTest, SessionsFlagReportsPerSessionAndAggregate) {
  CliRun run = RunCli(
      TwoRelationArgs() +
      " --sessions 3 --query \"SELECT * FROM R, S WHERE R.A2 = S.A1"
      " ORDER BY WEIGHT ASC\"");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  // Concurrent drains never stream per-answer rows...
  EXPECT_TRUE(ResultLines(run.output).empty()) << run.output;
  // ...but report one SESSION line each (5 answers per session: every
  // session drains the full stream independently) plus the aggregate.
  for (int s = 0; s < 3; ++s) {
    const std::string prefix = "SESSION," + std::to_string(s) + ",5,";
    EXPECT_NE(run.output.find(prefix), std::string::npos) << run.output;
  }
  EXPECT_NE(run.output.find("CONCURRENCY,sessions,3,"), std::string::npos);
  EXPECT_NE(run.output.find("# produced=15"), std::string::npos);
}

TEST(CliTest, SessionsJsonHasSessionArrayAndAggregateRate) {
  CliRun run = RunCli(
      TwoRelationArgs() +
      " --sessions 2 --format json --query \"SELECT * FROM R, S WHERE"
      " R.A2 = S.A1 ORDER BY WEIGHT ASC\"");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("\"sessions\": 2"), std::string::npos);
  EXPECT_NE(run.output.find("\"aggregate_answers_per_sec\""),
            std::string::npos);
  EXPECT_NE(run.output.find("\"produced\": 10"), std::string::npos);
  // No results array in concurrent-drain mode.
  EXPECT_EQ(run.output.find("\"results\""), std::string::npos);
}

TEST(CliTest, BadThreadsValueExitsTwo) {
  CliRun run = RunCli(TwoRelationArgs() +
                      " --threads 0 --query \"SELECT * FROM R\"");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.output.find("--threads expects a positive integer"),
            std::string::npos);
}

// ---- Malformed input: exit codes and diagnostics ----

TEST(CliTest, MalformedSqlExitsOneWithMessage) {
  CliRun run = RunCli(TwoRelationArgs() + " --query \"SELECT FROM R\"");
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.output.find("anyk: error:"), std::string::npos);
  EXPECT_NE(run.output.find("SQL"), std::string::npos);
}

TEST(CliTest, LimitAboveSizeMaxExitsOneWithSqlOffset) {
  CliRun run = RunCli(TwoRelationArgs() +
                      " --query \"SELECT * FROM R, S WHERE R.A2 = S.A1 "
                      "LIMIT 99999999999999999999\"");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("anyk: error: SQL:43: LIMIT expects a positive "
                            "integer up to 18446744073709551615, got "
                            "'99999999999999999999'"),
            std::string::npos)
      << run.output;
}

TEST(CliTest, MissingCsvExitsOneWithPath) {
  CliRun run = RunCli(
      "--relation R=/nonexistent/r.csv --query \"SELECT * FROM R\"");
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.output.find("cannot open /nonexistent/r.csv"),
            std::string::npos);
}

TEST(CliTest, MalformedCsvExitsOneWithFileAndLine) {
  CliRun run = RunCli("--relation R=" + Data("malformed.csv") +
                      " --query \"SELECT * FROM R\"");
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.output.find("malformed.csv:2: bad integer 'x'"),
            std::string::npos)
      << run.output;
}

TEST(CliTest, UnknownRelationInQueryExitsOne) {
  CliRun run = RunCli(TwoRelationArgs() +
                      " --query \"SELECT * FROM Missing\"");
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.output.find("unknown relation"), std::string::npos);
}

TEST(CliTest, FailedOutputFileExitsOne) {
  // /dev/full takes the open and fails every write. The five answers fit in
  // the stream buffer, so this failure surfaces at the final flush.
  CliRun run = RunCli(TwoRelationArgs() +
                      " --output /dev/full --query \"SELECT * FROM R, S "
                      "WHERE R.A2 = S.A1 ORDER BY WEIGHT ASC\"");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("anyk: error: cannot write results to /dev/full"),
            std::string::npos)
      << run.output;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(CliTest, ClosedStdoutStopsTheDrain) {
  // R(i, 0) and S(0, j) over 4000 rows each: 1.6e7 answers. The reader
  // takes one byte and exits; with SIGPIPE ignored (an inherited
  // disposition), every later write fails with EPIPE, and anyk must stop
  // at the next page instead of formatting the remaining answers.
  const std::string dir = ::testing::TempDir();
  const std::string r = dir + "cli_wide_r.csv";
  const std::string s = dir + "cli_wide_s.csv";
  {
    std::ofstream rf(r), sf(s);
    for (int i = 0; i < 4000; ++i) {
      rf << i << ",0," << i % 7 << "\n";
      sf << "0," << i << "," << i % 5 << "\n";
    }
  }
  const std::string code_file = dir + "cli_wide.code";
  const std::string err_file = dir + "cli_wide.err";
  std::remove(code_file.c_str());
  // `timeout`: an anyk that ignored the failed writes would drain all 1.6e7
  // answers; the bound keeps even that from hanging the suite.
  const std::string cmd =
      "(trap '' PIPE; timeout 120 " + std::string(ANYK_CLI_BIN) +
      " --relation R=" + r + " --relation S=" + s +
      " --query 'SELECT * FROM R, S WHERE R.A2 = S.A1 ORDER BY WEIGHT ASC'"
      " 2>" + err_file + "; echo $? >" + code_file + ") | head -c 1 >/dev/null";
  const auto start = std::chrono::steady_clock::now();
  ASSERT_NE(std::system(cmd.c_str()), -1);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_EQ(ReadFile(code_file), "1\n");
  EXPECT_NE(ReadFile(err_file).find(
                "anyk: error: cannot write results to stdout"),
            std::string::npos)
      << ReadFile(err_file);
  EXPECT_LT(seconds, 30.0);
}

TEST(CliTest, UnknownFlagExitsTwo) {
  // The bind kernels have one implementation, so no flag picks one.
  for (const std::string& args :
       {std::string("--definitely-not-a-flag"),
        TwoRelationArgs() + " --kernels scalar --query \"SELECT * FROM R\""}) {
    SCOPED_TRACE(args);
    CliRun run = RunCli(args);
    EXPECT_EQ(run.exit_code, 2);
    EXPECT_NE(run.output.find("unknown flag"), std::string::npos);
    EXPECT_NE(run.output.find("--help"), std::string::npos);
  }
}

TEST(CliTest, MissingQueryExitsTwo) {
  CliRun run = RunCli("--relation R=" + Data("r.csv"));
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.output.find("no query"), std::string::npos);
}

TEST(CliTest, BadAlgorithmExitsTwo) {
  CliRun run = RunCli(TwoRelationArgs() +
                      " --algorithm quantum --query \"SELECT * FROM R\"");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.output.find("unknown algorithm"), std::string::npos);
}

TEST(CliTest, RepeatedRelationNameExitsTwoNamingBothFiles) {
  // Loading both would keep only the second file under R while the report
  // named the first.
  const std::string args = "--relation R=" + Data("r.csv") +
                           " --relation R=" + Data("s.csv");
  const std::string message = "relation R is given twice: " + Data("r.csv") +
                              " and " + Data("s.csv");
  CliRun run = RunCli(args + " --query \"SELECT * FROM R\"");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find(message), std::string::npos) << run.output;

  // `timeout`: a daemon that accepted the flags would otherwise serve
  // forever instead of failing this test.
  CliRun daemon =
      RunBinary(std::string("timeout 20 ") + ANYKD_BIN, args + " --port 0");
  EXPECT_EQ(daemon.exit_code, 2) << daemon.output;
  EXPECT_NE(daemon.output.find(message), std::string::npos) << daemon.output;
}

}  // namespace
