// HTTP framing tests: HttpConnection::ReadRequest driven over a socketpair,
// with the test playing the client. Covers Content-Length validation
// (RFC 9110: 1*DIGIT, at most 1 MiB), truncated bodies, oversized request
// and header lines and header blocks (a 400, not a silent close), malformed
// request lines and pipelined keep-alive requests.

#include <sys/socket.h>
#include <unistd.h>

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

#include "server/http.h"

namespace anyk {
namespace server {
namespace {

// A server-side HttpConnection over one end of a socketpair; the test
// writes the client's bytes into the other end.
class HttpPair {
 public:
  HttpPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    conn_ = std::make_unique<HttpConnection>(fds[0]);
    peer_ = fds[1];
  }
  ~HttpPair() {
    conn_.reset();
    if (writer_.joinable()) writer_.join();
    ::close(peer_);
  }
  HttpPair(const HttpPair&) = delete;
  HttpPair& operator=(const HttpPair&) = delete;

  // Sends `bytes` from a background thread (a large header block may not
  // fit the socket buffer), then half-closes the client side: the server
  // sees EOF after them.
  void Send(std::string bytes) {
    writer_ = std::thread([this, bytes = std::move(bytes)] {
      size_t sent = 0;
      while (sent < bytes.size()) {
        const ssize_t w = ::send(peer_, bytes.data() + sent,
                                 bytes.size() - sent, MSG_NOSIGNAL);
        if (w <= 0) break;  // the server closed first
        sent += static_cast<size_t>(w);
      }
      ::shutdown(peer_, SHUT_WR);
    });
  }

  std::optional<HttpRequest> Read() { return conn_->ReadRequest(); }

  // Closes the server side and returns everything it wrote.
  std::string Received() {
    conn_.reset();
    if (writer_.joinable()) writer_.join();
    std::string out;
    char chunk[4096];
    ssize_t n;
    while ((n = ::recv(peer_, chunk, sizeof(chunk), 0)) > 0) {
      out.append(chunk, static_cast<size_t>(n));
    }
    return out;
  }

 private:
  std::unique_ptr<HttpConnection> conn_;
  int peer_ = -1;
  std::thread writer_;
};

bool IsCloseWith400(const std::string& wire) {
  return wire.rfind("HTTP/1.1 400 ", 0) == 0 &&
         wire.find("Connection: close\r\n") != std::string::npos;
}

TEST(HttpFramingTest, BadContentLengthGets400AndClose) {
  // Each of these is not 1*DIGIT or exceeds the 1 MiB body cap. A request
  // after the body must never be read: the connection is dead.
  for (const std::string value :
       {"+5", "-0", "5x", "-1", " 5 5", "0x5", "", "99999999999999999999",
        "18446744073709551621", "1048577"}) {
    SCOPED_TRACE("Content-Length: '" + value + "'");
    HttpPair pair;
    pair.Send("POST /query HTTP/1.1\r\nContent-Length: " + value +
              "\r\n\r\nhello"
              "GET /healthz HTTP/1.1\r\n\r\n");
    EXPECT_FALSE(pair.Read().has_value());
    const std::string wire = pair.Received();
    EXPECT_TRUE(IsCloseWith400(wire)) << wire;
    EXPECT_NE(wire.find("bad content-length"), std::string::npos) << wire;
  }
}

TEST(HttpFramingTest, ContentLengthReadsExactlyTheBody) {
  HttpPair pair;
  pair.Send(
      "POST /query?k=3 HTTP/1.1\r\nContent-Length:  5 \r\n"
      "Content-Type: text/plain\r\n\r\nhello");
  const std::optional<HttpRequest> req = pair.Read();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->method, "POST");
  EXPECT_EQ(req->path, "/query");
  EXPECT_EQ(req->Param("k", ""), "3");
  EXPECT_EQ(req->body, "hello");
  // Then a clean EOF: no request, nothing written.
  EXPECT_FALSE(pair.Read().has_value());
  EXPECT_EQ(pair.Received(), "");
}

TEST(HttpFramingTest, BodyTruncatedByEofIsNotARequest) {
  HttpPair pair;
  pair.Send("POST /query HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc");
  EXPECT_FALSE(pair.Read().has_value());
}

bool IsHeaderTooLarge(const std::string& wire) {
  return IsCloseWith400(wire) &&
         wire.find("request header section over 64 KiB") != std::string::npos;
}

TEST(HttpFramingTest, HeaderBlockOver64KiBIsNotARequest) {
  std::string request = "GET /healthz HTTP/1.1\r\n";
  const std::string header = "X-Pad: " + std::string(1000, 'a') + "\r\n";
  while (request.size() <= 70 * 1024) request += header;
  request += "\r\n";
  HttpPair pair;
  pair.Send(request);
  EXPECT_FALSE(pair.Read().has_value());
  const std::string wire = pair.Received();
  EXPECT_TRUE(IsHeaderTooLarge(wire)) << wire;
}

TEST(HttpFramingTest, HeaderLineOver64KiBIsNotARequest) {
  // One header line, or the request line itself, with no line end in the
  // first 64 KiB.
  for (const std::string& request :
       {"GET /healthz HTTP/1.1\r\nX-Pad: " + std::string(70 * 1024, 'a'),
        "GET /" + std::string(70 * 1024, 'a') + " HTTP/1.1\r\n\r\n"}) {
    SCOPED_TRACE(request.substr(0, 40));
    HttpPair pair;
    pair.Send(request);
    EXPECT_FALSE(pair.Read().has_value());
    const std::string wire = pair.Received();
    EXPECT_TRUE(IsHeaderTooLarge(wire)) << wire;
  }
}

TEST(HttpFramingTest, RequestLineWithOneSpaceGets400AndClose) {
  HttpPair pair;
  pair.Send("GET /healthz\r\n\r\n");
  EXPECT_FALSE(pair.Read().has_value());
  const std::string wire = pair.Received();
  EXPECT_TRUE(IsCloseWith400(wire)) << wire;
  EXPECT_NE(wire.find("malformed request line"), std::string::npos) << wire;
}

TEST(HttpFramingTest, PipelinedKeepAliveRequestsParseInOrder) {
  HttpPair pair;
  pair.Send(
      "POST /open HTTP/1.1\r\nContent-Length: 9\r\n\r\nsql=a%2Bb"
      "GET /next?session=7&k=2 HTTP/1.1\r\nConnection: close\r\n\r\n");
  const std::optional<HttpRequest> first = pair.Read();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->path, "/open");
  EXPECT_EQ(first->body, "sql=a%2Bb");
  EXPECT_EQ(first->Param("sql", ""), "a+b");
  EXPECT_TRUE(first->keep_alive);

  const std::optional<HttpRequest> second = pair.Read();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->method, "GET");
  EXPECT_EQ(second->path, "/next");
  EXPECT_EQ(second->Param("session", ""), "7");
  EXPECT_EQ(second->Param("k", ""), "2");
  EXPECT_TRUE(second->body.empty());
  EXPECT_FALSE(second->keep_alive);

  EXPECT_FALSE(pair.Read().has_value());
  EXPECT_EQ(pair.Received(), "");
}

}  // namespace
}  // namespace server
}  // namespace anyk
