#include "server/http.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "util/parse.h"

namespace anyk {
namespace server {
namespace {

constexpr size_t kMaxHeaderBytes = 64 * 1024;
constexpr size_t kMaxBodyBytes = 1024 * 1024;
// kRequestDeadlineMs (http.h) bounds the whole read; waits for bytes come in
// slices of this length so a stop request is seen within one.
constexpr int kWaitSliceMs = 100;
constexpr const char* kHeaderTooLarge =
    "ERROR,400,request header section over 64 KiB\n";

int HexVal(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::string ToLower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

std::string Trim(const std::string& s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

void ParseQueryString(const std::string& qs,
                      std::map<std::string, std::string>* params) {
  size_t pos = 0;
  while (pos < qs.size()) {
    size_t amp = qs.find('&', pos);
    if (amp == std::string::npos) amp = qs.size();
    const std::string pair = qs.substr(pos, amp - pos);
    if (!pair.empty()) {
      size_t eq = pair.find('=');
      if (eq == std::string::npos) {
        (*params)[UrlDecode(pair)] = "";
      } else {
        (*params)[UrlDecode(pair.substr(0, eq))] = UrlDecode(pair.substr(eq + 1));
      }
    }
    pos = amp + 1;
  }
}

}  // namespace

std::string UrlDecode(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out.push_back(' ');
    } else if (s[i] == '%' && i + 2 < s.size()) {
      const int hi = HexVal(s[i + 1]), lo = HexVal(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
      } else {
        out.push_back(s[i]);
      }
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

const char* StatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 410: return "Gone";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

HttpConnection::HttpConnection(int fd) : fd_(fd) {}

HttpConnection::~HttpConnection() {
  if (fd_ >= 0) ::close(fd_);
}

bool HttpConnection::Poll(int timeout_ms) {
  if (buf_pos_ < buf_.size()) return true;
  struct pollfd pfd;
  pfd.fd = fd_;
  pfd.events = POLLIN;
  pfd.revents = 0;
  const int rc = ::poll(&pfd, 1, timeout_ms);
  return rc > 0;
}

bool HttpConnection::FillBuffer() {
  if (buf_pos_ > 0) {
    buf_.erase(0, buf_pos_);
    buf_pos_ = 0;
  }
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) {
      buf_.append(chunk, static_cast<size_t>(n));
      return true;
    }
    if (n == 0) return false;  // EOF
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return false;
    if (stop_ != nullptr && stop_->load(std::memory_order_relaxed)) {
      return false;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline_ - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      const std::string body = "ERROR,408,request not complete within " +
                               std::to_string(kRequestDeadlineMs / 1000) +
                               " s\n";
      WriteError(408, body.c_str());
      return false;
    }
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    ::poll(&pfd, 1,
           static_cast<int>(std::min<int64_t>(left.count(), kWaitSliceMs)));
  }
}

bool HttpConnection::ReadLine(std::string* line) {
  for (;;) {
    const size_t nl = buf_.find('\n', buf_pos_);
    if (nl != std::string::npos) {
      size_t end = nl;
      if (end > buf_pos_ && buf_[end - 1] == '\r') --end;
      line->assign(buf_, buf_pos_, end - buf_pos_);
      buf_pos_ = nl + 1;
      return true;
    }
    if (buf_.size() - buf_pos_ > kMaxHeaderBytes) {
      WriteError(400, kHeaderTooLarge);
      return false;
    }
    if (!FillBuffer()) return false;
  }
}

bool HttpConnection::ReadExact(size_t n, std::string* out) {
  while (buf_.size() - buf_pos_ < n) {
    if (!FillBuffer()) return false;
  }
  out->assign(buf_, buf_pos_, n);
  buf_pos_ += n;
  return true;
}

std::optional<HttpRequest> HttpConnection::ReadRequest(
    const std::atomic<bool>* stop) {
  deadline_ = std::chrono::steady_clock::now() +
              std::chrono::milliseconds(kRequestDeadlineMs);
  stop_ = stop;
  std::string line;
  if (!ReadLine(&line)) return std::nullopt;
  // Request line: METHOD SP target SP HTTP/1.x
  const size_t sp1 = line.find(' ');
  const size_t sp2 = line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1) {
    WriteError(400, "ERROR,400,malformed request line\n");
    return std::nullopt;
  }
  HttpRequest req;
  req.method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string version = line.substr(sp2 + 1);
  req.keep_alive = version != "HTTP/1.0";

  const size_t qmark = target.find('?');
  if (qmark == std::string::npos) {
    req.path = UrlDecode(target);
  } else {
    req.path = UrlDecode(target.substr(0, qmark));
    ParseQueryString(target.substr(qmark + 1), &req.params);
  }

  // Headers until the blank line.
  size_t header_bytes = 0;
  for (;;) {
    if (!ReadLine(&line)) return std::nullopt;
    if (line.empty()) break;
    header_bytes += line.size();
    if (header_bytes > kMaxHeaderBytes) {
      WriteError(400, kHeaderTooLarge);
      return std::nullopt;
    }
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    req.headers[ToLower(Trim(line.substr(0, colon)))] =
        Trim(line.substr(colon + 1));
  }

  auto conn = req.headers.find("connection");
  if (conn != req.headers.end()) {
    const std::string v = ToLower(conn->second);
    if (v == "close") req.keep_alive = false;
    if (v == "keep-alive") req.keep_alive = true;
  }

  auto clen = req.headers.find("content-length");
  if (clen != req.headers.end()) {
    // RFC 9110: Content-Length = 1*DIGIT. No sign, no trailing bytes: with
    // `-0` accepted, the body would be left unread and parsed as the next
    // request on a keep-alive connection.
    size_t n = 0;
    if (!ParseSize(clen->second, &n) || n > kMaxBodyBytes) {
      WriteError(400, "ERROR,400,bad content-length\n");
      return std::nullopt;
    }
    if (!ReadExact(n, &req.body)) return std::nullopt;
    // A POST body in form encoding carries parameters too (curl -d idiom).
    auto ctype = req.headers.find("content-type");
    if (ctype == req.headers.end() ||
        ctype->second.find("application/x-www-form-urlencoded") !=
            std::string::npos) {
      ParseQueryString(req.body, &req.params);
    }
  }
  return req;
}

void HttpConnection::WriteError(int status, const char* body) {
  HttpResponse err;
  err.status = status;
  err.body = body;
  err.close_connection = true;
  WriteResponse(err);
}

bool HttpConnection::WriteAll(const char* data, size_t n) {
  size_t sent = 0;
  while (sent < n) {
    ssize_t w;
    do {
      w = ::send(fd_, data + sent, n - sent, 0);
    } while (w < 0 && errno == EINTR);
    if (w <= 0) return false;
    sent += static_cast<size_t>(w);
  }
  return true;
}

bool HttpConnection::WriteResponse(const HttpResponse& resp) {
  char head[256];
  const int head_len = std::snprintf(
      head, sizeof(head),
      "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
      "Connection: %s\r\n\r\n",
      resp.status, StatusReason(resp.status), resp.content_type.c_str(),
      resp.body.size(), resp.close_connection ? "close" : "keep-alive");
  if (head_len <= 0) return false;
  // One send() for header + body: two small writes on a Nagle-enabled
  // socket serialize against the peer's delayed ACK (~40ms per response).
  std::string wire;
  wire.reserve(static_cast<size_t>(head_len) + resp.body.size());
  wire.append(head, static_cast<size_t>(head_len));
  wire.append(resp.body);
  return WriteAll(wire.data(), wire.size());
}

}  // namespace server
}  // namespace anyk
