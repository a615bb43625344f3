#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <deque>
#include <exception>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "anyk/factory.h"
#include "anyk/query_handle.h"
#include "plan/planner.h"
#include "query/sql.h"
#include "server/cursor_manager.h"
#include "server/http.h"
#include "server/lru_cache.h"
#include "server/rate_limiter.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/parse.h"
#include "util/sync.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace anyk {
namespace server {
namespace {

// A prepared query as cached + shared by all sessions, whatever their
// LIMIT. Immutable once the single-flight factory returns it; the handle
// works out `algorithm=auto` per cursor from the statistics it cached at
// prepare, so /statz can list a decision without touching the templated
// stack.
struct CacheEntry {
  std::unique_ptr<QueryHandle> handle;
  double prepare_seconds = 0;
};

using QueryCache = LruCache<CacheEntry>;

const char* CacheOutcomeName(QueryCache::Outcome o) {
  switch (o) {
    case QueryCache::Outcome::kHit: return "hit";
    case QueryCache::Outcome::kMiss: return "miss";
    case QueryCache::Outcome::kCoalesced: return "coalesced";
  }
  return "?";
}

HttpResponse TextError(int status, const std::string& message) {
  HttpResponse resp;
  resp.status = status;
  resp.body = "ERROR," + std::to_string(status) + "," + message + "\n";
  return resp;
}

// Renders one page of answers in either wire format. Text pages are the
// exact RESULT rows of the CLI (AppendResultRow, anyk/query_handle.h),
// which is what makes the server byte-comparable to a serial drain.
class PageWriter {
 public:
  PageWriter(bool json, const char* cache, const char* plan)
      : json_(json) {
    if (json_) {
      writer_.emplace(json_stream_);
      writer_->BeginObject();
      if (cache != nullptr) writer_->KV("cache", cache);
      if (plan != nullptr) writer_->KV("plan", plan);
      writer_->Key("results").BeginArray();
    } else {
      if (cache != nullptr) body_.append("CACHE,").append(cache) += '\n';
      if (plan != nullptr) body_.append("PLAN,").append(plan) += '\n';
    }
  }

  RowFn Sink() {
    return [this](size_t rank, double weight, const std::vector<Value>& values) {
      if (json_) {
        writer_->BeginObject();
        writer_->KV("k", static_cast<uint64_t>(rank));
        writer_->KV("weight", weight);
        writer_->Key("values").BeginArray();
        for (Value v : values) writer_->Int(v);
        writer_->EndArray();
        writer_->EndObject();
        return;
      }
      AppendResultRow(&body_, rank, weight, values);
    };
  }

  /// Close the page: either a cursor to resume from or a DONE marker with
  /// the cursor's total answer count.
  HttpResponse Finish(const std::string& cursor, size_t produced_total) {
    HttpResponse resp;
    if (json_) {
      writer_->EndArray();
      writer_->KV("done", cursor.empty());
      if (!cursor.empty()) writer_->KV("cursor", cursor);
      writer_->KV("produced", static_cast<uint64_t>(produced_total));
      writer_->EndObject();
      writer_->Finish();
      resp.content_type = "application/json";
      resp.body = json_stream_.str();
      return resp;
    }
    if (cursor.empty()) {
      body_.append("DONE,").append(std::to_string(produced_total)) += '\n';
    } else {
      body_.append("CURSOR,").append(cursor) += '\n';
    }
    resp.body = std::move(body_);
    return resp;
  }

 private:
  bool json_;
  std::string body_;                // text pages
  std::ostringstream json_stream_;  // JSON pages, through writer_
  std::optional<JsonWriter> writer_;
};

}  // namespace

struct AnykServer::Impl {
  Impl(Database db_in, ServerOptions opts_in)
      : db(std::move(db_in)),
        opts(opts_in),
        prepare_pool(opts_in.prepare_threads),
        cache(opts_in.cache_capacity),
        limiter(opts_in.qps, opts_in.burst),
        gauge(opts_in.max_sessions),
        cursors(opts_in.cursor_ttl_seconds) {}

  const Database db;
  const ServerOptions opts;
  ThreadPool prepare_pool;
  QueryCache cache;
  RateLimiter limiter;
  SessionGauge gauge;
  CursorManager cursors;
  std::atomic<uint64_t> epoch{0};
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> rejected{0};

  std::atomic<bool> stop{false};
  // Lifecycle state below is confined to the thread that drives Start/Stop
  // (the daemon's main thread); worker threads only read `stop` (atomic).
  bool started = false;
  int listen_fd = -1;
  int port = 0;
  std::thread accept_thread;
  std::vector<std::thread> workers;
  // queue_mu is a leaf lock: connections are served with no lock held.
  Mutex queue_mu;
  CondVar queue_cv;
  std::deque<int> conn_queue ANYK_GUARDED_BY(queue_mu);

  void AcceptLoop();
  void WorkerLoop();
  void ServeConnection(int fd);
  HttpResponse Handle(const HttpRequest& req);
  HttpResponse HandleQuery(const HttpRequest& req);
  HttpResponse HandleNext(const HttpRequest& req);
  HttpResponse HandleClose(const HttpRequest& req);
  HttpResponse HandleFlush();
  HttpResponse HandleStatz();

  /// Parse-and-bound a `k=` page size; nullopt (with `*err` filled) when
  /// out of range. Absent -> the server default.
  std::optional<size_t> PageK(const HttpRequest& req, HttpResponse* err) {
    if (!req.HasParam("k")) return opts.default_page_k;
    const std::string v = req.Param("k", "");
    size_t k = 0;
    if (!ParseSize(v, &k) || k == 0) {
      // k=0 must not fall through: EnumOptions::k_budget treats 0 as the
      // "unbounded" sentinel, so an accepted 0 would mean "everything".
      *err = TextError(400, "k must be a positive integer (a page cannot be "
                            "empty; omit k for the default page size)");
      return std::nullopt;
    }
    if (k > opts.max_page_k) {
      *err = TextError(400, "k exceeds the per-request cap of " +
                                std::to_string(opts.max_page_k));
      return std::nullopt;
    }
    return k;
  }
};

void AnykServer::Impl::AcceptLoop() {
  while (!stop.load(std::memory_order_relaxed)) {
    struct pollfd pfd;
    pfd.fd = listen_fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    if (::poll(&pfd, 1, 100) <= 0) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    // Request/response pages are small; without TCP_NODELAY every response
    // can stall ~40ms behind the client's delayed ACK.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    {
      MutexLock lock(&queue_mu);
      conn_queue.push_back(fd);
    }
    queue_cv.NotifyOne();
  }
}

void AnykServer::Impl::WorkerLoop() {
  for (;;) {
    int fd = -1;
    {
      MutexLock lock(&queue_mu);
      while (!stop.load(std::memory_order_relaxed) && conn_queue.empty()) {
        queue_cv.Wait(queue_mu);
      }
      if (conn_queue.empty()) return;  // stop requested, queue drained
      fd = conn_queue.front();
      conn_queue.pop_front();
    }
    ServeConnection(fd);
  }
}

void AnykServer::Impl::ServeConnection(int fd) {
  HttpConnection conn(fd);
  // Keep-alive loop: serve requests until the client closes, asks to close,
  // or idles for ~30s (a stuck client must not pin a worker forever).
  int idle_polls = 0;
  while (!stop.load(std::memory_order_relaxed) && idle_polls < 300) {
    if (!conn.Poll(100)) {
      ++idle_polls;
      continue;
    }
    idle_polls = 0;
    std::optional<HttpRequest> req = conn.ReadRequest();
    if (!req.has_value()) return;
    requests.fetch_add(1, std::memory_order_relaxed);
    cursors.SweepExpired();
    HttpResponse resp;
    try {
      resp = Handle(*req);
    } catch (const std::exception& e) {
      // ANYK_CHECK failures (bad SQL, unknown dioid, missing relation...)
      // arrive here via the throwing handler — they are client errors.
      resp = TextError(400, e.what());
    }
    if (resp.status >= 400) rejected.fetch_add(1, std::memory_order_relaxed);
    resp.close_connection = resp.close_connection || !req->keep_alive;
    if (!conn.WriteResponse(resp)) return;
    if (resp.close_connection) return;
  }
}

HttpResponse AnykServer::Impl::Handle(const HttpRequest& req) {
  if (req.path == "/healthz") {
    HttpResponse resp;
    resp.body = "ok\n";
    return resp;
  }
  if (req.path == "/statz") return HandleStatz();
  if (req.path == "/v1/query") return HandleQuery(req);
  if (req.path == "/v1/next") return HandleNext(req);
  if (req.path == "/v1/close") return HandleClose(req);
  if (req.path == "/v1/flush") {
    if (req.method != "POST") {
      return TextError(405, "flush requires POST");
    }
    return HandleFlush();
  }
  return TextError(404, "no such endpoint");
}

HttpResponse AnykServer::Impl::HandleQuery(const HttpRequest& req) {
  const std::string sql = req.Param("sql", "");
  if (sql.empty()) return TextError(400, "missing sql parameter");

  HttpResponse err;
  const std::optional<size_t> page_k = PageK(req, &err);
  if (!page_k.has_value()) return err;

  // Default: the cost-based planner, decided for this request's LIMIT from
  // the statistics cached in the entry (O(1), no pass over the graphs).
  const std::string algo_name = req.Param("algorithm", "auto");
  const std::optional<Algorithm> algo = ParseAlgorithm(algo_name);
  if (!algo.has_value()) {
    return TextError(400, "unknown algorithm '" + algo_name +
                              "' (expected recursive|take2|lazy|eager|all|"
                              "batch|auto)");
  }
  const bool json = req.Param("format", "text") == "json";

  // Admission: cheap checks before any preparation work.
  if (!limiter.Admit()) {
    return TextError(429, "rate limited; retry later");
  }
  if (!gauge.TryAcquire()) {
    return TextError(429, "session limit reached (" +
                              std::to_string(gauge.max()) +
                              "); close or drain cursors first");
  }
  SessionTicket ticket(&gauge);

  // Normalization both validates the SQL (throws -> 400 above) and produces
  // the cache key, so equivalent spellings share one prepared query. The
  // key leaves the LIMIT out: preparation does not depend on it, so every
  // LIMIT of one join shares one entry and the LIMIT becomes this cursor's
  // k budget.
  const NormalizedSql normalized = NormalizeSqlParts(sql);
  std::string dioid = req.Param("dioid", "");
  if (dioid.empty()) {
    // Same default rule as the CLI: lightest-first queries rank by min-sum,
    // heaviest-first by max-sum. NormalizeSql always renders the direction.
    dioid = normalized.text.find(" ORDER BY WEIGHT DESC") != std::string::npos
                ? "max-sum"
                : "min-sum";
  }
  const std::string key =
      QueryCacheKey(dioid, opts.planner_version,
                    epoch.load(std::memory_order_relaxed), opts.shards,
                    normalized.text);

  QueryCache::Outcome outcome = QueryCache::Outcome::kMiss;
  std::shared_ptr<CacheEntry> entry = cache.GetOrCreate(
      key,
      [&]() -> std::shared_ptr<CacheEntry> {
        auto e = std::make_shared<CacheEntry>();
        Timer timer;
        SqlStatement stmt = ParseSql(normalized.text, &db);
        ShardedQueryOptions qopts;
        qopts.prepare.pool = &prepare_pool;
        qopts.prepare.auto_plan = true;
        qopts.shards = opts.shards;
        // Cursors stay on the serial merge: a paged session may sit idle
        // between requests, and parking S worker threads per open cursor
        // would let max_sessions cursors pin S * max_sessions threads.
        qopts.parallel_drain = false;
        e->handle = MakeQueryHandle(db, std::move(stmt), dioid, qopts);
        e->prepare_seconds = timer.Seconds();
        return e;
      },
      &outcome);
  if (entry == nullptr) {
    // Coalesced onto a preparation that failed; the owner got the error.
    return TextError(500, "query preparation failed; retry");
  }

  std::unique_ptr<PageStream> stream =
      entry->handle->Open(*algo, normalized.limit);
  PageWriter page(json, CacheOutcomeName(outcome), entry->handle->plan_name());
  stream->FetchPage(*page_k, page.Sink());
  std::string cursor_id;
  const size_t produced = stream->produced();
  if (!stream->done()) {
    cursor_id = cursors.Open(std::move(stream), entry, std::move(ticket),
                             algo_name);
  }
  return page.Finish(cursor_id, produced);
}

HttpResponse AnykServer::Impl::HandleNext(const HttpRequest& req) {
  const std::string id = req.Param("cursor", "");
  if (id.empty()) return TextError(400, "missing cursor parameter");
  HttpResponse err;
  const std::optional<size_t> page_k = PageK(req, &err);
  if (!page_k.has_value()) return err;
  const bool json = req.Param("format", "text") == "json";

  std::shared_ptr<Cursor> cursor = cursors.Find(id);
  if (cursor == nullptr) {
    return TextError(410, "unknown or expired cursor '" + id + "'");
  }
  if (!cursor->mu.TryLock()) {
    return TextError(409, "cursor '" + id + "' is busy in another request");
  }

  PageWriter page(json, nullptr, nullptr);
  size_t produced = 0;
  bool done = false;
  {
    // Adopt the TryLock success so an exception inside FetchPage (surfaced
    // as a 400 by ServeConnection) cannot leave the cursor locked forever.
    MutexLock lock(&cursor->mu, AdoptLock());
    cursor->stream->FetchPage(*page_k, page.Sink());
    cursor->Touch();
    produced = cursor->stream->produced();
    done = cursor->stream->done();
  }
  // Cursor lock released before taking the manager lock (see the lock order
  // note in cursor_manager.h).
  if (done) cursors.Close(id);
  return page.Finish(done ? "" : id, produced);
}

HttpResponse AnykServer::Impl::HandleClose(const HttpRequest& req) {
  const std::string id = req.Param("cursor", "");
  if (id.empty()) return TextError(400, "missing cursor parameter");
  if (!cursors.Close(id)) {
    return TextError(410, "unknown or expired cursor '" + id + "'");
  }
  HttpResponse resp;
  resp.body = "CLOSED," + id + "\n";
  return resp;
}

HttpResponse AnykServer::Impl::HandleFlush() {
  const uint64_t e = epoch.fetch_add(1, std::memory_order_relaxed) + 1;
  cache.Clear();
  HttpResponse resp;
  resp.body = "FLUSHED," + std::to_string(e) + "\n";
  return resp;
}

HttpResponse AnykServer::Impl::HandleStatz() {
  const CacheStats cs = cache.stats();
  const CursorStats curs = cursors.stats();
  std::ostringstream body;
  JsonWriter w(body);
  w.BeginObject();
  w.KV("epoch", epoch.load(std::memory_order_relaxed));
  w.KV("requests", requests.load(std::memory_order_relaxed));
  w.KV("rejected", rejected.load(std::memory_order_relaxed));
  w.Key("cache").BeginObject();
  w.KV("hits", static_cast<uint64_t>(cs.hits));
  w.KV("misses", static_cast<uint64_t>(cs.misses));
  w.KV("coalesced", static_cast<uint64_t>(cs.coalesced));
  w.KV("evictions", static_cast<uint64_t>(cs.evictions));
  w.KV("size", static_cast<uint64_t>(cs.size));
  w.KV("capacity", static_cast<uint64_t>(opts.cache_capacity));
  w.EndObject();
  w.Key("sessions").BeginObject();
  w.KV("live", static_cast<uint64_t>(gauge.live()));
  w.KV("peak", static_cast<uint64_t>(gauge.peak()));
  w.KV("max", static_cast<uint64_t>(gauge.max()));
  w.EndObject();
  w.Key("cursors").BeginObject();
  w.KV("live", static_cast<uint64_t>(curs.live));
  w.KV("opened", static_cast<uint64_t>(curs.opened));
  w.KV("closed", static_cast<uint64_t>(curs.closed));
  w.KV("expired", static_cast<uint64_t>(curs.expired));
  w.EndObject();
  // The planner decisions currently cached: one entry per ready prepared
  // query, LRU -> MRU, each with the algorithm `auto` resolves to for an
  // unbounded cursor (a LIMIT re-decides per cursor, see HandleQuery).
  w.Key("planner").BeginObject();
  w.KV("version", static_cast<int64_t>(opts.planner_version));
  w.KV("shards", static_cast<uint64_t>(opts.shards));
  w.Key("prepared").BeginArray();
  cache.ForEachReady(
      [&](const std::string&, const std::shared_ptr<CacheEntry>& e) {
        w.BeginObject();
        const plan::PlanDecision unbounded = e->handle->decision(0);
        w.KV("plan", e->handle->plan_name());
        w.KV("algorithm", AlgorithmName(unbounded.algorithm));
        w.KV("summary", unbounded.Summary());
        w.KV("prepare_seconds", e->prepare_seconds);
        w.EndObject();
      });
  w.EndArray();
  w.EndObject();
  w.EndObject();
  w.Finish();
  HttpResponse resp;
  resp.content_type = "application/json";
  resp.body = body.str();
  return resp;
}

AnykServer::AnykServer(Database db, ServerOptions opts)
    : impl_(std::make_unique<Impl>(std::move(db), opts)) {}

AnykServer::~AnykServer() { Stop(); }

void AnykServer::Start() {
  ANYK_CHECK(!impl_->started) << "AnykServer::Start called twice";
  SetCheckFailureHandler(&ThrowingCheckHandler);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ANYK_CHECK_GE(fd, 0) << "socket() failed";
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(impl_->opts.port));
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    ANYK_CHECK(false) << "cannot bind 127.0.0.1:" << impl_->opts.port;
  }
  ANYK_CHECK_EQ(::listen(fd, 128), 0) << "listen() failed";
  socklen_t len = sizeof(addr);
  ANYK_CHECK_EQ(::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr),
                              &len), 0)
      << "getsockname() failed";
  impl_->listen_fd = fd;
  impl_->port = ntohs(addr.sin_port);

  impl_->started = true;
  impl_->accept_thread = std::thread([this] { impl_->AcceptLoop(); });
  const size_t workers = impl_->opts.workers == 0 ? 1 : impl_->opts.workers;
  impl_->workers.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    impl_->workers.emplace_back([this] { impl_->WorkerLoop(); });
  }
}

void AnykServer::Stop() {
  if (!impl_->started) return;
  if (!impl_->stop.exchange(true)) {
    impl_->queue_cv.NotifyAll();
    impl_->accept_thread.join();
    for (std::thread& w : impl_->workers) w.join();
    impl_->workers.clear();
    // Connections still queued but never served: close them outright. All
    // threads are joined, but the lock keeps the annotation contract honest
    // (and is free — nobody contends it anymore).
    {
      MutexLock lock(&impl_->queue_mu);
      for (int fd : impl_->conn_queue) ::close(fd);
      impl_->conn_queue.clear();
    }
    ::close(impl_->listen_fd);
    impl_->listen_fd = -1;
  }
}

int AnykServer::bound_port() const { return impl_->port; }

}  // namespace server
}  // namespace anyk
