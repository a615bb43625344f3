// Minimal HTTP/1.1 support for anykd: a buffered socket reader, request
// parsing (request line, headers, Content-Length bodies, URL decoding of
// query parameters) and response writing. Line-oriented and deliberately
// small — no chunked encoding, no TLS, no pipelining beyond sequential
// keep-alive — because the wire format is a handful of GET/POST endpoints
// streaming text or JSON pages (docs/SERVER.md).
//
// Threading: one HttpConnection is confined to the worker thread that
// services it; nothing here is shared.

#ifndef ANYK_SERVER_HTTP_H_
#define ANYK_SERVER_HTTP_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <map>
#include <optional>
#include <string>

namespace anyk {
namespace server {

struct HttpRequest {
  std::string method;  // "GET", "POST", ...
  std::string path;    // decoded path without the query string
  std::map<std::string, std::string> params;   // decoded query parameters
  std::map<std::string, std::string> headers;  // keys lowercased
  std::string body;
  bool keep_alive = true;

  /// Decoded query parameter, or `fallback` when absent. Returns by value:
  /// callers routinely pass a temporary fallback and bind the result to a
  /// local, which a reference return would leave dangling.
  std::string Param(const std::string& key, const std::string& fallback) const {
    auto it = params.find(key);
    return it == params.end() ? fallback : it->second;
  }
  bool HasParam(const std::string& key) const {
    return params.count(key) > 0;
  }
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  bool close_connection = false;
};

/// Percent-decode a URL component ('+' becomes a space). Malformed escapes
/// are passed through verbatim rather than rejected.
std::string UrlDecode(const std::string& s);

/// Reason phrase for the status codes the server uses.
const char* StatusReason(int status);

/// A request must arrive whole within this long of ReadRequest's start (the
/// first byte seen); a client that stalls mid-request gets a 408 with
/// Connection: close instead of pinning the worker that reads it.
inline constexpr int kRequestDeadlineMs = 5000;

/// Buffered reader/writer over one accepted connection. Reads are bounded
/// (64 KiB per request line/header block, 1 MiB bodies, kRequestDeadlineMs
/// per request) so a misbehaving client can neither balloon memory nor
/// hold a worker.
class HttpConnection {
 public:
  /// Takes ownership of `fd` (closed on destruction).
  explicit HttpConnection(int fd);
  ~HttpConnection();
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  /// Wait up to `timeout_ms` for request bytes. Returns true when readable,
  /// false on timeout (caller typically re-checks a stop flag and tries
  /// again) — buffered leftover bytes count as readable.
  bool Poll(int timeout_ms);

  /// Parse the next request. nullopt on clean EOF, on a malformed/oversized
  /// request (after best-effort writing a 400), past kRequestDeadlineMs
  /// (after a 408), or once `*stop` is set, which is checked at least every
  /// 100 ms while waiting for bytes; the connection is then dead.
  std::optional<HttpRequest> ReadRequest(
      const std::atomic<bool>* stop = nullptr);

  /// Serialize and send a response. False on write error (connection dead).
  bool WriteResponse(const HttpResponse& resp);

 private:
  /// One request or header line without its line end. False on EOF, and
  /// also once 64 KiB arrive without a line end — then after writing a 400.
  bool ReadLine(std::string* line);
  bool ReadExact(size_t n, std::string* out);
  /// Append the next bytes received. Calls recv first (an arrived request
  /// costs no poll), then waits in polls of at most 100 ms; false on EOF,
  /// error, stop, or the request deadline — the last after a 408.
  bool FillBuffer();
  /// Best-effort `status` with `body` and Connection: close.
  void WriteError(int status, const char* body);
  bool WriteAll(const char* data, size_t n);

  int fd_;
  std::string buf_;   // bytes received but not yet consumed
  size_t buf_pos_ = 0;
  // The request being read: its deadline and the caller's stop flag.
  std::chrono::steady_clock::time_point deadline_;
  const std::atomic<bool>* stop_ = nullptr;
};

}  // namespace server
}  // namespace anyk

#endif  // ANYK_SERVER_HTTP_H_
