// pbtrace — traced in-process replay of a workload's library calls.
//
// Replays, through the library's public functions, the calls `anyk` and
// `anykd` make for one workload: LoadRelationCsv (weight_last, as both
// binaries load), NormalizeSql / ParseSql, the ShardedPreparedQuery
// constructor with the binaries' options, NewSession and NextBatch pages.
// Each call is wrapped in a span (name, start, end, parent, session id);
// spans stay in memory and are written out at exit. The steps that
// PreparedQuery runs internally (ShardedDatabase partitioning, cycle
// decomposition, BuildStageGraph) are replayed once more standalone on the
// same inputs so their cost can be named; the program itself is untouched.
//
// Enumeration counters (pops, pushes, connectors initialized) live in the
// concrete enumerators, so a second, untimed session per statement is
// composed from the same public parts NewSession uses (one enumerator per
// stage graph, merged through UnionEnumerator) and its counters read after
// a drain of the same length; its open bytes and enumeration allocations
// are the (count) metrics too.
//
//   pbtrace --relation NAME=FILE ... --query SQL [--query SQL ...]
//           [--k N] [--shards S] [--threads T] [--sessions N]
//           [--answers A] [--normalize]
//           [--spans 0|1] [--probe-cap SECONDS] [--probe-reps R]
//           --out FILE
//
// Sessions pull pages of kPage answers, the daemon's default page size.
// --answers 0 drains each session to its budget (--k, else the LIMIT) or
// to exhaustion. With --probe-cap > 0 no spans are taken and the standalone
// steps are not replayed; instead every explicit algorithm and `auto` are
// timed on each prepared statement (session open + pages to the session's
// answer count), each probe capped.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "anyk/enumerator.h"
#include "anyk/factory.h"
#include "anyk/prepared_query.h"
#include "anyk/sharded_query.h"
#include "anyk/union_anyk.h"
#include "dioid/max_plus.h"
#include "dioid/tropical.h"
#include "plan/planner.h"
#include "query/cycle_decomposition.h"
#include "query/gyo.h"
#include "query/hypergraph.h"
#include "query/join_tree.h"
#include "query/sql.h"
#include "storage/csv.h"
#include "storage/database.h"
#include "storage/sharded_database.h"
#include "util/alloc_stats.h"
#include "util/thread_pool.h"

namespace {

using anyk::Algorithm;
using anyk::Enumerator;
using anyk::ResultRow;
using Clock = std::chrono::steady_clock;

constexpr size_t kPage = 100;

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
  int32_t session;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {
    if (on_) {
      spans_.reserve(1 << 16);
      stack_.reserve(16);
    }
  }

  int Begin(const char* name, int32_t session) {
    if (!on_) return -1;
    spans_.push_back({name, Now(), 0, stack_.empty() ? -1 : stack_.back(),
                      session});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void End(int id) {
    if (!on_) return;
    spans_[static_cast<size_t>(id)].end_ns = Now();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(Tracer* t, const char* name, int32_t session = 0)
      : t_(t), id_(t->Begin(name, session)) {}
  ~Scope() { t_->End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int id_;
};

// ---------------------------------------------------------------------------
// Options and output
// ---------------------------------------------------------------------------

struct Options {
  std::vector<std::pair<std::string, std::string>> relations;
  std::vector<std::string> queries;
  size_t k = 0;
  size_t shards = 1;
  size_t threads = 1;
  size_t sessions = 1;
  size_t answers = 0;
  bool normalize = false;
  bool spans = false;
  double probe_cap = 0;
  size_t probe_reps = 1;
  std::string out;
};

[[noreturn]] void Usage(const std::string& msg) {
  std::fprintf(stderr, "pbtrace: %s\n", msg.c_str());
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value for " + a);
      return argv[++i];
    };
    auto number = [&]() -> size_t {
      const std::string v = value();
      size_t n = 0;
      const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), n);
      if (ec != std::errc() || end != v.data() + v.size()) {
        Usage("not a number: " + v);
      }
      return n;
    };
    if (a == "--relation") {
      const std::string v = value();
      const size_t eq = v.find('=');
      if (eq == std::string::npos) Usage("expected NAME=FILE: " + v);
      o.relations.emplace_back(v.substr(0, eq), v.substr(eq + 1));
    } else if (a == "--query") {
      o.queries.push_back(value());
    } else if (a == "--k") {
      o.k = number();
    } else if (a == "--shards") {
      o.shards = number();
    } else if (a == "--threads") {
      o.threads = number();
    } else if (a == "--sessions") {
      o.sessions = number();
    } else if (a == "--answers") {
      o.answers = number();
    } else if (a == "--normalize") {
      o.normalize = true;
    } else if (a == "--spans") {
      o.spans = number() != 0;
    } else if (a == "--probe-cap") {
      const std::string v = value();
      const auto [end, ec] =
          std::from_chars(v.data(), v.data() + v.size(), o.probe_cap);
      if (ec != std::errc() || end != v.data() + v.size()) {
        Usage("not a number: " + v);
      }
    } else if (a == "--probe-reps") {
      o.probe_reps = std::max<size_t>(1, number());
    } else if (a == "--out") {
      o.out = value();
    } else {
      Usage("unknown flag " + a);
    }
  }
  if (o.relations.empty() || o.queries.empty() || o.out.empty()) {
    Usage("need --relation, --query and --out");
  }
  return o;
}

// Per-statement results, written as JSON.
struct StatementResult {
  std::string algorithm;
  double output_count = 0;
  size_t answers = 0;  // answers of the first session
  size_t pulled = 0;   // answers of all replayed sessions
  uint64_t digest = 0;
  struct Probe {
    std::string algorithm;
    double seconds = 0;
    bool capped = false;
    bool skipped = false;
  };
  std::vector<Probe> probes;
};

struct Counts {
  uint64_t bag_rows = 0;
  uint64_t states = 0;
  uint64_t connectors = 0;
  // Of the counter sessions (one per statement):
  uint64_t session_opens = 0;
  uint64_t session_open_bytes = 0;
  uint64_t enum_allocs = 0;
  uint64_t answers = 0;
  uint64_t pops = 0;
  uint64_t pushes = 0;
  uint64_t conns_initialized = 0;
};

// FNV-1a over the integral answer weights (the same digest pbtool prints).
uint64_t DigestWeight(uint64_t h, double w) {
  const int64_t v = std::llround(w);
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<uint64_t>(v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}
constexpr uint64_t kDigestSeed = 0xcbf29ce484222325ULL;

// ---------------------------------------------------------------------------
// Counters of the concrete enumerators
// ---------------------------------------------------------------------------

template <class D, template <class> class S>
bool AddPartCounters(Enumerator<D>* e, Counts* c) {
  auto add = [&](const auto* p) {
    c->pops += p->stats().pops;
    c->pushes += p->stats().pushes;
    c->conns_initialized += p->strategy_stats().conns_initialized;
    return true;
  };
  if (auto* p = dynamic_cast<
          anyk::AnyKPartEnumerator<D, S, anyk::BoundedBinaryHeap>*>(e)) {
    return add(p);
  }
  if (auto* p = dynamic_cast<
          anyk::AnyKPartEnumerator<D, S, anyk::BoundedQuadHeap>*>(e)) {
    return add(p);
  }
  if (auto* p = dynamic_cast<
          anyk::AnyKPartEnumerator<D, S, anyk::BoundedOctHeap>*>(e)) {
    return add(p);
  }
  return false;
}

template <class D>
void AddCounters(Enumerator<D>* e, Counts* c) {
  if (auto* r = dynamic_cast<anyk::RecursiveEnumerator<D>*>(e)) {
    c->pops += r->stats().heap_pops;
    c->pushes += r->stats().heap_pushes;
    c->conns_initialized += r->stats().conns_initialized;
    return;
  }
  // Batch keeps no candidate heap: it contributes no pops or pushes.
  AddPartCounters<D, anyk::Take2Strategy>(e, c) ||
      AddPartCounters<D, anyk::LazyStrategy>(e, c) ||
      AddPartCounters<D, anyk::EagerStrategy>(e, c) ||
      AddPartCounters<D, anyk::AllStrategy>(e, c);
}

// The session NewSession builds, composed from the same public parts so
// the concrete enumerators stay reachable: per shard either the prepared
// query's own session enumerator (one join tree) or one enumerator per
// cycle-decomposition graph merged by a union; S > 1 shards merged by a
// serial union, each part with the full budget.
template <class D>
struct CounterSession {
  std::unique_ptr<Enumerator<D>> top;
  std::vector<Enumerator<D>*> leaves;
};

template <class D>
CounterSession<D> OpenCounterSession(const anyk::ShardedPreparedQuery<D>& pq,
                                     size_t k_budget) {
  anyk::EnumOptions opts = pq.default_enum_options();
  opts.k_budget = k_budget;
  const Algorithm algo = pq.decision().algorithm;
  opts.heap_arity = pq.decision().heap_arity;
  CounterSession<D> cs;
  std::vector<std::unique_ptr<Enumerator<D>>> per_shard;
  for (size_t s = 0; s < pq.NumShards(); ++s) {
    const anyk::PreparedQuery<D>& p = pq.shard(s);
    if (p.plan() == anyk::QueryPlan::kCycleUnion) {
      std::vector<std::unique_ptr<Enumerator<D>>> parts;
      for (const auto& g : p.graphs()) {
        parts.push_back(anyk::MakeEnumerator<D>(g.get(), algo, opts));
        cs.leaves.push_back(parts.back().get());
      }
      per_shard.push_back(std::make_unique<anyk::UnionEnumerator<D>>(
          std::move(parts), /*dedup=*/false, k_budget));
    } else {
      per_shard.push_back(p.NewSessionEnumerator(algo, opts));
      cs.leaves.push_back(per_shard.back().get());
    }
  }
  if (per_shard.size() == 1) {
    cs.top = std::move(per_shard[0]);
  } else {
    cs.top = std::make_unique<anyk::UnionEnumerator<D>>(
        std::move(per_shard), /*dedup=*/false, k_budget);
  }
  return cs;
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

class Replay {
 public:
  explicit Replay(const Options& o) : o_(o), tracer_(o.spans) {}

  void Run() {
    const Clock::time_point t0 = Clock::now();
    {
      Scope run(&tracer_, "run");
      anyk::CsvOptions csv;
      csv.weight_last = true;  // as anyk and anykd load (their default)
      for (const auto& [name, path] : o_.relations) {
        Scope s(&tracer_, "storage.csv_load");
        anyk::LoadRelationCsv(&db_, name, path, csv);
      }
      for (const std::string& sql : o_.queries) {
        std::string text = sql;
        if (o_.normalize) {
          Scope s(&tracer_, "query.normalize");
          text = anyk::NormalizeSql(sql);
        }
        anyk::SqlStatement stmt;
        {
          Scope s(&tracer_, "query.parse");
          stmt = anyk::ParseSql(text, &db_);
        }
        StatementResult res;
        if (stmt.ascending) {
          RunStatement<anyk::TropicalDioid>(stmt, sql, &res);
        } else {
          RunStatement<anyk::MaxPlusDioid>(stmt, sql, &res);
        }
        results_.push_back(std::move(res));
      }
    }
    wall_s_ = std::chrono::duration<double>(Clock::now() - t0).count();
  }

  void Write() const {
    FILE* f = std::fopen(o_.out.c_str(), "w");
    if (f == nullptr) Usage("cannot write " + o_.out);
    std::fprintf(f, "{\"wall_s\": %.9f,\n\"counts\": {", wall_s_);
    std::fprintf(
        f,
        "\"query.bag_rows\": %llu, \"dp.states\": %llu, "
        "\"dp.connectors\": %llu, \"anyk.session_opens\": %llu, "
        "\"anyk.session_open_bytes\": %llu, \"anyk.enum_allocs\": %llu, "
        "\"anyk.answers\": %llu, \"anyk.pops\": %llu, \"anyk.pushes\": %llu, "
        "\"anyk.conns_initialized\": %llu},\n",
        U(c_.bag_rows), U(c_.states), U(c_.connectors), U(c_.session_opens),
        U(c_.session_open_bytes), U(c_.enum_allocs), U(c_.answers),
        U(c_.pops), U(c_.pushes), U(c_.conns_initialized));
    std::fprintf(f, "\"statements\": [");
    for (size_t i = 0; i < results_.size(); ++i) {
      const StatementResult& r = results_[i];
      std::fprintf(f,
                   "%s\n {\"index\": %zu, \"algorithm\": \"%s\", "
                   "\"output_count\": %.17g, \"answers\": %zu, "
                   "\"pulled\": %zu, \"digest\": \"%016llx\", "
                   "\"probes\": [",
                   i ? "," : "", i, r.algorithm.c_str(), r.output_count,
                   r.answers, r.pulled, U(r.digest));
      for (size_t p = 0; p < r.probes.size(); ++p) {
        const auto& pr = r.probes[p];
        std::fprintf(f,
                     "%s{\"algorithm\": \"%s\", \"seconds\": %.9f, "
                     "\"capped\": %s, \"skipped\": %s}",
                     p ? ", " : "", pr.algorithm.c_str(), pr.seconds,
                     pr.capped ? "true" : "false",
                     pr.skipped ? "true" : "false");
      }
      std::fprintf(f, "]}");
    }
    std::fprintf(f, "],\n\"spans\": [");
    const auto& spans = tracer_.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%s\n[\"%s\", %lld, %lld, %d, %d]", i ? "," : "",
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent, s.session);
    }
    std::fprintf(f, "]}\n");
    if (std::fclose(f) != 0) Usage("write failed: " + o_.out);
  }

 private:
  static unsigned long long U(uint64_t v) {
    return static_cast<unsigned long long>(v);
  }

  // The budget the binaries give a session: --k if set, else the LIMIT.
  size_t Budget(const anyk::SqlStatement& stmt) const {
    return o_.k != 0 ? o_.k : stmt.limit;
  }
  // Pulls pages of at most kPage answers until `want` answers or a short
  // page; pull(n, pulled_so_far) makes one NextBatch call. Returns the
  // answers pulled.
  template <class Pull>
  size_t Drain(size_t want, Pull pull) const {
    size_t total = 0;
    while (total < want) {
      const size_t n = std::min(kPage, want - total);
      const size_t got = pull(n, total);
      total += got;
      if (got < n) break;
    }
    return total;
  }

  // How many answers a replayed session pulls.
  size_t Want(size_t budget) const {
    if (o_.answers != 0) {
      return budget != 0 ? std::min(o_.answers, budget) : o_.answers;
    }
    return budget != 0 ? budget : SIZE_MAX;
  }

  template <class D>
  void RunStatement(const anyk::SqlStatement& stmt, const std::string& sql,
                    StatementResult* res) {
    const anyk::ConjunctiveQuery& q = stmt.query;
    anyk::ThreadPool pool(o_.threads);
    // The probe times sessions on the prepared query only.
    if (o_.probe_cap == 0) ReplayLayers<D>(q, &pool);

    // The binaries' prepare options (cli/anyk_cli.cc RunRanked and
    // src/server/query_handle.h TypedHandle).
    typename anyk::ShardedPreparedQuery<D>::Options sopts;
    sopts.prepare.enum_opts.with_witness = false;
    sopts.prepare.enum_opts.k_budget = Budget(stmt);
    sopts.prepare.pool = &pool;
    sopts.prepare.auto_plan = true;
    sopts.shards = o_.shards;
    sopts.parallel_drain = o_.threads > 1 && o_.shards > 1;
    std::unique_ptr<anyk::ShardedPreparedQuery<D>> pq;
    {
      Scope s(&tracer_, "anyk.prepare");
      pq = std::make_unique<anyk::ShardedPreparedQuery<D>>(db_, q, sopts);
    }
    res->algorithm = anyk::AlgorithmName(pq->decision().algorithm);
    res->output_count = pq->decision().stats.output_count;
    c_.states += pq->decision().stats.states;
    c_.connectors += pq->decision().stats.connectors;

    const size_t want = Want(Budget(stmt));
    std::vector<ResultRow<D>> page(kPage);
    if (o_.probe_cap > 0) {
      Probe<D>(*pq, Budget(stmt), want, &page, res);
      return;
    }
    for (size_t i = 0; i < o_.sessions; ++i) {
      const int32_t sid = static_cast<int32_t>(++session_ids_);
      Scope session(&tracer_, "anyk.session", sid);
      if (o_.normalize && i > 0) {
        // Every /v1/query normalizes its SQL for the cache lookup.
        Scope s(&tracer_, "query.normalize", sid);
        anyk::NormalizeSql(sql);
      }
      std::optional<anyk::EnumerationSession<D>> sess;
      {
        Scope s(&tracer_, "anyk.session_open", sid);
        sess.emplace(pq->NewSession(Algorithm::kAuto));
      }
      uint64_t digest = kDigestSeed;
      const size_t got = Drain(want, [&](size_t n, size_t pulled) {
        size_t got_now = 0;
        {
          Scope s(&tracer_, pulled == 0 ? "anyk.first_page" : "anyk.next_page",
                  sid);
          got_now = sess->NextBatch(page.data(), n);
        }
        for (size_t r = 0; r < got_now; ++r) {
          digest = DigestWeight(digest, static_cast<double>(page[r].weight));
        }
        return got_now;
      });
      res->pulled += got;
      if (i == 0) {
        res->answers = got;
        res->digest = digest;
      }
    }

    // Counters: one composed, single-threaded session per statement,
    // drained as far, so every count repeats exactly for a seed (the
    // global allocation counters would also see a parallel drain's
    // producer threads).
    const anyk::AllocCounts before_open = anyk::CurrentAllocCounts();
    CounterSession<D> cs = OpenCounterSession(*pq, Budget(stmt));
    const anyk::AllocCounts after_open = anyk::CurrentAllocCounts();
    c_.session_opens += 1;
    c_.session_open_bytes += after_open.bytes - before_open.bytes;
    c_.answers += Drain(want, [&](size_t n, size_t) {
      return cs.top->NextBatch(page.data(), n);
    });
    c_.enum_allocs += anyk::CurrentAllocCounts().news - after_open.news;
    for (Enumerator<D>* e : cs.leaves) AddCounters(e, &c_);
  }

  // The steps the prepared-query constructor runs, replayed standalone on
  // the same inputs: shard partitioning, join-tree instance or cycle
  // decomposition, and the stage-graph build of every instance.
  template <class D>
  void ReplayLayers(const anyk::ConjunctiveQuery& q, anyk::ThreadPool* pool) {
    if (o_.shards > 1) {
      Scope s(&tracer_, "storage.shard_partition");
      anyk::ShardedDatabase sharded(db_, q, o_.shards, pool);
    }
    std::vector<anyk::TDPInstance> instances;
    const anyk::GyoResult gyo =
        anyk::GyoReduce(anyk::Hypergraph::FromQuery(q));
    if (gyo.acyclic) {
      Scope s(&tracer_, "query.join_tree");
      instances.push_back(anyk::BuildInstanceFromTopology(
          db_, q,
          anyk::plan::PlanTopology(db_, q,
                                   anyk::NormalizeTopology(gyo.tree, q))));
    } else if (anyk::DetectSimpleCycle(q).is_cycle) {
      Scope s(&tracer_, "query.cycle_decompose");
      instances = anyk::DecomposeCycle(db_, q);
    }
    for (const anyk::TDPInstance& inst : instances) {
      if (!gyo.acyclic) {
        for (const anyk::TDPNode& node : inst.nodes) {
          c_.bag_rows += node.NumRows();
        }
      }
      Scope s(&tracer_, "dp.stage_graph_build");
      anyk::StageGraph<D> g = anyk::BuildStageGraph<D>(inst);
    }
  }

  // Planner-regret probe: `auto` and every explicit algorithm on the same
  // prepared query, each timed from session open to `want` answers and
  // capped at o_.probe_cap seconds (min over o_.probe_reps). Batch is
  // skipped when materializing the exact output would not fit in memory.
  template <class D>
  void Probe(const anyk::ShardedPreparedQuery<D>& pq, size_t budget,
             size_t want, std::vector<ResultRow<D>>* page,
             StatementResult* res) {
    constexpr double kBatchBudgetBytes = 2.0 * (1ull << 30);
    const double row_bytes =
        64.0 + 8.0 * static_cast<double>(pq.query().NumVars());
    const std::vector<Algorithm> algos = {
        Algorithm::kAuto,  Algorithm::kRecursive, Algorithm::kTake2,
        Algorithm::kLazy,  Algorithm::kEager,     Algorithm::kAll,
        Algorithm::kBatch};
    for (Algorithm algo : algos) {
      StatementResult::Probe pr;
      pr.algorithm = algo == Algorithm::kAuto ? "auto" : anyk::AlgorithmName(algo);
      if (algo == Algorithm::kBatch &&
          pq.decision().stats.output_count * row_bytes > kBatchBudgetBytes) {
        pr.skipped = true;
        res->probes.push_back(pr);
        continue;
      }
      double best = 0;
      for (size_t rep = 0; rep < o_.probe_reps && !pr.capped; ++rep) {
        anyk::EnumOptions opts = pq.default_enum_options();
        opts.k_budget = budget;
        const Clock::time_point t0 = Clock::now();
        anyk::EnumerationSession<D> sess = pq.NewSession(algo, opts);
        double secs = 0;
        Drain(want, [&](size_t n, size_t) -> size_t {
          const size_t got = sess.NextBatch(page->data(), n);
          secs = std::chrono::duration<double>(Clock::now() - t0).count();
          pr.capped = secs > o_.probe_cap;
          return pr.capped ? 0 : got;  // 0 ends the drain
        });
        best = rep == 0 ? secs : std::min(best, secs);
      }
      pr.seconds = pr.capped ? o_.probe_cap : best;
      res->probes.push_back(pr);
    }
  }

  const Options& o_;
  Tracer tracer_;
  anyk::Database db_;
  Counts c_;
  std::vector<StatementResult> results_;
  size_t session_ids_ = 0;
  double wall_s_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const Options o = ParseArgs(argc, argv);
  try {
    Replay replay(o);
    replay.Run();
    replay.Write();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pbtrace: %s\n", e.what());
    return 1;
  }
  return 0;
}
