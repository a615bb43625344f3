// Resumable cursors: the server-side registry mapping cursor ids to live
// enumeration streams.
//
// A cursor owns the per-stream mutable state (the PageStream and its
// session arenas), *pins* the cache entry it streams from (a shared_ptr —
// LRU eviction can drop the entry from the cache without invalidating open
// cursors) and holds one SessionTicket of the admission gauge. Each cursor
// has its own mutex: a request pages from a cursor under TryLock, so two
// concurrent requests on the same cursor never interleave — the loser gets
// 409 instead of blocking a worker thread.
//
// Cursors idle longer than the TTL are reclaimed by SweepExpired(), which
// the server calls on every request; a reclaimed or unknown id answers 410.
//
// Locking (compile-checked via src/util/sync.h annotations): Cursor::mu
// guards the stream; the manager's mu_ guards the id map and stats. A page
// request holds Cursor::mu and only takes the manager mutex (Close) after
// releasing it; SweepExpired holds the manager mutex and *probes* Cursor::mu
// with TryLock, which never blocks, so the reversed order cannot deadlock.

#ifndef ANYK_SERVER_CURSOR_MANAGER_H_
#define ANYK_SERVER_CURSOR_MANAGER_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "anyk/query_handle.h"
#include "server/rate_limiter.h"
#include "util/sync.h"

namespace anyk {
namespace server {

struct Cursor {
  /// `pin`, `ticket` and `algorithm` are immutable after construction (set
  /// before the cursor is published into the manager's map), so only the
  /// stream needs the mutex.
  Cursor(std::unique_ptr<PageStream> stream_in, std::shared_ptr<void> pin_in,
         SessionTicket ticket_in, std::string algorithm_in)
      : stream(std::move(stream_in)),
        pin(std::move(pin_in)),
        ticket(std::move(ticket_in)),
        algorithm(std::move(algorithm_in)) {
    Touch();
  }

  Mutex mu;  // held for the duration of one page request
  std::unique_ptr<PageStream> stream ANYK_GUARDED_BY(mu);
  const std::shared_ptr<void> pin;  // keeps the cache entry alive past eviction
  const SessionTicket ticket;
  const std::string algorithm;  // for /statz and re-open diagnostics
  // Atomic, not mu-guarded: requests refresh it under mu, but SweepExpired
  // reads it from other workers without taking mu (taking every cursor's
  // mutex per sweep would serialize sweeps against paging).
  std::atomic<std::chrono::steady_clock::rep> last_used_ns{0};

  void Touch() {
    last_used_ns.store(
        std::chrono::steady_clock::now().time_since_epoch().count(),
        std::memory_order_relaxed);
  }
  double IdleSeconds(std::chrono::steady_clock::time_point now) const {
    const std::chrono::steady_clock::duration idle =
        now.time_since_epoch() -
        std::chrono::steady_clock::duration(
            last_used_ns.load(std::memory_order_relaxed));
    return std::chrono::duration<double>(idle).count();
  }
};

struct CursorStats {
  size_t live = 0;
  size_t opened = 0;
  size_t closed = 0;
  size_t expired = 0;
};

class CursorManager {
 public:
  /// ttl_seconds == 0 disables expiry.
  explicit CursorManager(double ttl_seconds) : ttl_seconds_(ttl_seconds) {}

  /// Register a stream and return its id ("c1", "c2", ...).
  std::string Open(std::unique_ptr<PageStream> stream,
                   std::shared_ptr<void> pin, SessionTicket ticket,
                   std::string algorithm) ANYK_EXCLUDES(mu_) {
    auto cursor = std::make_shared<Cursor>(std::move(stream), std::move(pin),
                                           std::move(ticket),
                                           std::move(algorithm));
    MutexLock lock(&mu_);
    const std::string id = "c" + std::to_string(++next_id_);
    map_.emplace(id, std::move(cursor));
    ++stats_.opened;
    return id;
  }

  /// nullptr when the id is unknown (never existed, closed, or expired).
  std::shared_ptr<Cursor> Find(const std::string& id) ANYK_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    auto it = map_.find(id);
    return it == map_.end() ? nullptr : it->second;
  }

  /// Drop the id; the Cursor object dies once the last in-flight request
  /// releases its shared_ptr. False when the id is unknown.
  bool Close(const std::string& id) ANYK_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    const bool found = map_.erase(id) > 0;
    if (found) ++stats_.closed;
    return found;
  }

  /// Reclaim cursors idle past the TTL. Only cursors with no in-flight
  /// request are taken (sole shared_ptr owner and an uncontended mutex);
  /// busy ones are retried on a later sweep.
  size_t SweepExpired() ANYK_EXCLUDES(mu_) {
    if (ttl_seconds_ <= 0) return 0;
    const auto now = std::chrono::steady_clock::now();
    MutexLock lock(&mu_);
    std::vector<std::string> victims;
    for (const auto& kv : map_) {
      const std::shared_ptr<Cursor>& cursor = kv.second;
      if (cursor.use_count() != 1) continue;  // a request holds it
      if (cursor->IdleSeconds(now) <= ttl_seconds_) continue;
      if (!cursor->mu.TryLock()) continue;
      cursor->mu.Unlock();
      victims.push_back(kv.first);
    }
    for (const std::string& id : victims) map_.erase(id);
    stats_.expired += victims.size();
    return victims.size();
  }

  CursorStats stats() const ANYK_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    CursorStats s = stats_;
    s.live = map_.size();
    return s;
  }

 private:
  const double ttl_seconds_;
  mutable Mutex mu_;
  // anyk-lint: allow(unordered-map): cold control plane — bounded by
  // the session gauge (max_sessions open cursors), touched once per page
  // request (decision recorded in docs/STATIC_ANALYSIS.md).
  std::unordered_map<std::string, std::shared_ptr<Cursor>> map_
      ANYK_GUARDED_BY(mu_);
  uint64_t next_id_ ANYK_GUARDED_BY(mu_) = 0;
  CursorStats stats_ ANYK_GUARDED_BY(mu_);
};

}  // namespace server
}  // namespace anyk

#endif  // ANYK_SERVER_CURSOR_MANAGER_H_
