// Tiny blocking HTTP/1.1 client for tests and benchmarks talking to anykd.
// One connection, sequential request/response, keep-alive; just enough to
// drive the server's line-oriented protocol from C++ without a dependency.
// Header-only; not part of the server's own request path.

#ifndef ANYK_SERVER_HTTP_CLIENT_H_
#define ANYK_SERVER_HTTP_CLIENT_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstddef>
#include <cstring>
#include <string>
#include <string_view>
#include <system_error>

#include "util/logging.h"
#include "util/parse.h"

namespace anyk {
namespace server {

struct ClientResponse {
  int status = 0;
  std::string body;
};

class HttpClient {
 public:
  /// Connects to 127.0.0.1:port; CHECK-fails if the server is not there.
  explicit HttpClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    ANYK_CHECK_GE(fd_, 0) << "socket() failed";
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ANYK_CHECK_EQ(
        ::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)),
        0)
        << "cannot connect to 127.0.0.1:" << port;
    // Requests are tiny; let them leave immediately instead of pooling
    // behind Nagle waiting for the previous response's ACK.
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~HttpClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// GET `target` (path + query string, already percent-encoded where
  /// needed) and read the full response.
  ClientResponse Get(const std::string& target) {
    return RoundTrip("GET", target, "");
  }
  ClientResponse Post(const std::string& target, const std::string& body) {
    return RoundTrip("POST", target, body);
  }

  /// Percent-encode one query-parameter value.
  static std::string Encode(const std::string& s) {
    static const char* hex = "0123456789ABCDEF";
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      const unsigned char u = static_cast<unsigned char>(c);
      const bool plain = (u >= 'a' && u <= 'z') || (u >= 'A' && u <= 'Z') ||
                         (u >= '0' && u <= '9') || u == '-' || u == '_' ||
                         u == '.' || u == '~';
      if (plain) {
        out.push_back(c);
      } else {
        out.push_back('%');
        out.push_back(hex[u >> 4]);
        out.push_back(hex[u & 15]);
      }
    }
    return out;
  }

 private:
  ClientResponse RoundTrip(const char* method, const std::string& target,
                           const std::string& body) {
    std::string req = std::string(method) + " " + target + " HTTP/1.1\r\n" +
                      "Host: localhost\r\n";
    if (!body.empty() || std::strcmp(method, "POST") == 0) {
      req += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    }
    req += "\r\n" + body;
    WriteAll(req.data(), req.size());

    // Status line.
    ClientResponse resp;
    const std::string status_line = ReadLine();
    const size_t sp = status_line.find(' ');
    ANYK_CHECK(sp != std::string::npos) << "bad status line: " << status_line;
    const std::errc code_ec =
        std::from_chars(status_line.data() + sp + 1,
                        status_line.data() + status_line.size(), resp.status)
            .ec;
    ANYK_CHECK(code_ec == std::errc()) << "bad status line: " << status_line;

    // Headers; we rely on Content-Length (the server always sends it).
    size_t content_length = 0;
    for (;;) {
      const std::string line = ReadLine();
      if (line.empty()) break;
      if (line.size() > 15 &&
          strncasecmp(line.c_str(), "content-length:", 15) == 0) {
        const size_t digits = line.find_first_not_of(" \t", 15);
        ANYK_CHECK(digits != std::string::npos &&
                   ParseSize(std::string_view(line).substr(digits),
                             &content_length))
            << "bad Content-Length: " << line;
      }
    }
    resp.body = ReadExact(content_length);
    return resp;
  }

  void WriteAll(const char* data, size_t n) {
    size_t sent = 0;
    while (sent < n) {
      ssize_t w;
      do {
        w = ::send(fd_, data + sent, n - sent, 0);
      } while (w < 0 && errno == EINTR);
      ANYK_CHECK_GT(w, 0) << "send() failed";
      sent += static_cast<size_t>(w);
    }
  }

  void Fill() {
    char chunk[4096];
    ssize_t n;
    do {
      n = ::recv(fd_, chunk, sizeof(chunk), 0);
    } while (n < 0 && errno == EINTR);
    ANYK_CHECK_GT(n, 0) << "connection closed mid-response";
    buf_.append(chunk, static_cast<size_t>(n));
  }

  std::string ReadLine() {
    for (;;) {
      const size_t nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        size_t end = nl;
        if (end > pos_ && buf_[end - 1] == '\r') --end;
        std::string line = buf_.substr(pos_, end - pos_);
        pos_ = nl + 1;
        Compact();
        return line;
      }
      Fill();
    }
  }

  std::string ReadExact(size_t n) {
    while (buf_.size() - pos_ < n) Fill();
    std::string out = buf_.substr(pos_, n);
    pos_ += n;
    Compact();
    return out;
  }

  void Compact() {
    if (pos_ > 4096) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
  }

  int fd_ = -1;
  std::string buf_;
  size_t pos_ = 0;
};

}  // namespace server
}  // namespace anyk

#endif  // ANYK_SERVER_HTTP_CLIENT_H_
