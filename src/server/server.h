// anykd — the any-k serving daemon.
//
// AnykServer owns one immutable Database and serves ranked enumeration over
// it via a line-oriented HTTP/1.1 protocol (docs/SERVER.md):
//
//   GET /healthz                      liveness probe
//   GET /statz                        JSON stats (cache, sessions, cursors)
//   GET|POST /v1/query?sql=..&k=..&algorithm=..&dioid=..&format=text|json
//       prepare (LRU-cached, single-flight) + stream the first page; when
//       more answers remain the response ends with a resumable cursor id
//   GET /v1/next?cursor=ID&k=N        next page of an open cursor
//   GET /v1/close?cursor=ID           drop a cursor early
//   POST /v1/flush                    bump the database epoch + clear cache
//
// Prepared queries are cached by (dioid, planner version, epoch, shards,
// the LIMIT-free NormalizeSqlParts(sql).text) and shared by all sessions,
// whatever their LIMIT: each cursor opens under its own LIMIT as the k
// budget. Every page request drains the cursor's own EnumerationSession,
// so concurrent clients never share mutable state (tests/server_test.cc
// byte-matches concurrent paged drains against serial drains prepared at
// the LIMIT, also under TSan). The planner version
// component means a cost-model change can never revive a plan decision
// cached under the old model (see docs/PLANNER.md).

#ifndef ANYK_SERVER_SERVER_H_
#define ANYK_SERVER_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "plan/cost_model.h"
#include "storage/database.h"

namespace anyk {
namespace server {

/// The prepared-query cache key. Exposed so tests can assert its exact
/// composition — in particular that two planner versions can never share an
/// entry. Components are joined with \x1f (US), which NormalizeSql can never
/// emit, so no component can masquerade as another. `shards` is a component
/// because the partitioned per-shard pipelines of a --shards S server differ
/// physically from the unsharded ones (same answers, different prepared
/// state) — a restart with a different shard count must never revive them.
inline std::string QueryCacheKey(const std::string& dioid, int planner_version,
                                 uint64_t epoch, size_t shards,
                                 const std::string& normalized_sql) {
  return dioid + "\x1f" + std::to_string(planner_version) + "\x1f" +
         std::to_string(epoch) + "\x1f" + std::to_string(shards) + "\x1f" +
         normalized_sql;
}

struct ServerOptions {
  int port = 0;               // 0 = pick an ephemeral port (see bound_port())
  size_t workers = 4;         // connection-serving threads
  size_t prepare_threads = 1; // preprocessing parallelism per preparation
  size_t cache_capacity = 16; // prepared queries kept (LRU beyond this)
  size_t max_sessions = 64;   // open cursors + in-flight first pages
  size_t max_page_k = 10000;  // largest accepted k= page size
  size_t default_page_k = 100;
  double cursor_ttl_seconds = 300;  // idle cursors reclaimed after this
  double qps = 0;                   // token-bucket rate limit (0 = off)
  double burst = 100;               // token-bucket burst allowance
  // Cache-key component: bumping the cost model (plan::kPlannerVersion)
  // invalidates every cached plan decision. Overridable so tests can force
  // a key mismatch without recompiling.
  int planner_version = plan::kPlannerVersion;
  // Intra-query data shards (--shards): every prepared query hash-partitions
  // its relations into S per-shard pipelines whose sessions merge through a
  // ranked union (src/anyk/sharded_query.h). Also a cache-key component.
  // 1 = unsharded passthrough.
  size_t shards = 1;
};

class AnykServer {
 public:
  /// Takes a copy of the database; it never changes while serving (use
  /// /v1/flush + restart-with-new-data for updates — the epoch exists so a
  /// future mutable path invalidates cache keys, see docs/SERVER.md).
  AnykServer(Database db, ServerOptions opts);
  ~AnykServer();
  AnykServer(const AnykServer&) = delete;
  AnykServer& operator=(const AnykServer&) = delete;

  /// Bind, listen and start the accept + worker threads. CHECK-fails if the
  /// port cannot be bound. Also installs the throwing check-failure handler
  /// (process-global) so bad requests surface as 400s instead of aborts.
  void Start();

  /// Stop accepting, drain the worker threads, close the listener.
  /// Idempotent; also called by the destructor.
  void Stop();

  /// The actual listening port (== options.port unless that was 0).
  int bound_port() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace server
}  // namespace anyk

#endif  // ANYK_SERVER_SERVER_H_
