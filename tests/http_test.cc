// HTTP framing tests: HttpConnection::ReadRequest driven over a socketpair,
// with the test playing the client. Covers Content-Length validation
// (RFC 9110: 1*DIGIT, at most 1 MiB), truncated bodies, oversized request
// and header lines and header blocks (a 400, not a silent close), malformed
// request lines and pipelined keep-alive requests, plus a seeded mutation
// fuzz of ReadRequest over well-formed seed requests.

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "server/http.h"
#include "util/parse.h"
#include "util/random.h"

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

// ---------------------------------------------------------------------------
// Seeded mutation fuzz
// ---------------------------------------------------------------------------

// Well-formed requests the mutations start from: GETs with and without query
// strings, POSTs with Content-Length bodies (plain and form-encoded),
// HTTP/1.0, keep-alive and close, LF-only line ends, and pipelined pairs.
std::vector<std::string> FuzzSeeds() {
  const std::string form = "sql=SELECT+*+FROM+R&k=2&x=%41";
  return {
      "GET /healthz HTTP/1.1\r\n\r\n",
      "GET /v1/query?sql=SELECT%20*%20FROM%20R&k=3 HTTP/1.1\r\n"
      "Host: localhost\r\n\r\n",
      "POST /open HTTP/1.1\r\nContent-Length: 9\r\n\r\nsql=a%2Bb",
      "POST /query?k=3 HTTP/1.1\r\nContent-Type: text/plain\r\n"
      "Content-Length: 5\r\n\r\nhello",
      "POST /v1/query HTTP/1.1\r\n"
      "Content-Type: application/x-www-form-urlencoded\r\n"
      "Content-Length: " + std::to_string(form.size()) + "\r\n\r\n" + form,
      "GET /next?session=7&k=2 HTTP/1.1\r\nConnection: keep-alive\r\n\r\n",
      "GET /statz HTTP/1.0\r\n\r\n",
      "POST /close?session=7 HTTP/1.1\r\nConnection: close\r\n"
      "Content-Length: 0\r\n\r\n",
      "GET /healthz HTTP/1.1\nHost: a\n\n",
      "GET / HTTP/1.1\r\nHost: a\r\nAccept: */*\r\nUser-Agent: t\r\n"
      "X-Trace: 1\r\n\r\n",
      "POST /open HTTP/1.1\r\nContent-Length: 9\r\n\r\nsql=a%2Bb"
      "GET /next?session=7&k=2 HTTP/1.1\r\nConnection: close\r\n\r\n",
      "GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 3\r\n"
      "\r\nabc",
  };
}

// One random edit: a bit flip, an inserted byte (biased towards the bytes
// HTTP framing splits on), a deleted run, a truncation, a repeated header
// line, or a Content-Length value made oversized or malformed.
void MutateRequest(Rng* rng, std::string* req) {
  static const char kSpecial[] = {'\r', '\n', ':', ' ', '0', '9', '%', '?',
                                  '&',  '=',  '\0', '\t', '-', '+'};
  switch (rng->Below(6)) {
    case 0:
      if (!req->empty()) {
        (*req)[rng->Below(req->size())] ^=
            static_cast<char>(1u << rng->Below(8));
      }
      break;
    case 1: {
      const char c = rng->Bernoulli(0.5)
                         ? kSpecial[rng->Below(sizeof(kSpecial))]
                         : static_cast<char>(rng->Below(256));
      req->insert(req->begin() + static_cast<std::ptrdiff_t>(
                                     rng->Below(req->size() + 1)),
                  c);
      break;
    }
    case 2:
      if (!req->empty()) {
        const size_t at = rng->Below(req->size());
        req->erase(at, 1 + rng->Below(4));
      }
      break;
    case 3:
      req->resize(rng->Below(req->size() + 1));
      break;
    case 4: {
      // Repeat one header line (the request line when there is none), or
      // add a second, conflicting Content-Length.
      const size_t first = req->find('\n');
      if (first == std::string::npos) break;
      const size_t end = req->find('\n', first + 1);
      if (rng->Bernoulli(0.5) && end != std::string::npos &&
          end > first + 2) {
        req->insert(first + 1, req->substr(first + 1, end - first));
      } else {
        req->insert(first + 1, "Content-Length: " +
                                   std::to_string(rng->Below(16)) + "\r\n");
      }
      break;
    }
    default: {
      static const char* const kLengths[] = {
          "1048576", "1048577", "99999999999999999999", "18446744073709551616",
          "4294967296", "-1", "0x10", "7 7", ""};
      const std::string value =
          kLengths[rng->Below(sizeof(kLengths) / sizeof(kLengths[0]))];
      const size_t at = req->find("Content-Length:");
      if (at == std::string::npos) {
        const size_t first = req->find('\n');
        if (first == std::string::npos) break;
        req->insert(first + 1, "Content-Length: " + value + "\r\n");
      } else {
        const size_t begin = at + 15;
        size_t end = req->find('\r', begin);
        if (end == std::string::npos) end = req->size();
        req->replace(begin, end - begin, " " + value);
      }
      break;
    }
  }
}

constexpr int kFuzzReadTimeoutMs = 2000;

// Writes `bytes` as the client, half-closes, and reads every request the
// server side parses until ReadRequest returns nullopt. Returns false (with
// a gtest failure) when an outcome is none of the three allowed ones: a
// parsed request whose body has exactly its declared length, nullopt after
// a 400 with Connection: close, or nullopt on a clean EOF with nothing
// written.
bool FuzzOneRequest(const std::string& bytes, size_t* parsed, size_t* bad,
                    size_t* eof) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    ADD_FAILURE() << "socketpair failed";
    return false;
  }
  // A read that outlives the timeout fails instead of hanging the suite;
  // the elapsed-time check below reports it.
  timeval tv{kFuzzReadTimeoutMs / 1000, 0};
  ::setsockopt(fds[0], SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  auto conn = std::make_unique<HttpConnection>(fds[0]);
  const int peer = fds[1];
  // Mutated seeds stay far below the socket buffer, so one blocking send
  // delivers them all before the server reads.
  if (!bytes.empty() &&
      ::send(peer, bytes.data(), bytes.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(bytes.size())) {
    ADD_FAILURE() << "short send";
  }
  ::shutdown(peer, SHUT_WR);

  const auto start = std::chrono::steady_clock::now();
  bool ok = true;
  size_t requests = 0;
  while (std::optional<HttpRequest> req = conn->ReadRequest()) {
    ++requests;
    size_t declared = 0;
    const auto clen = req->headers.find("content-length");
    if (clen != req->headers.end() && !ParseSize(clen->second, &declared)) {
      ADD_FAILURE() << "accepted Content-Length '" << clen->second << "'";
      ok = false;
    }
    if (req->body.size() != declared) {
      ADD_FAILURE() << "body of " << req->body.size() << " bytes, declared "
                    << declared;
      ok = false;
    }
    if (requests > bytes.size()) {
      ADD_FAILURE() << "more requests than input bytes";
      ok = false;
      break;
    }
  }
  *parsed += requests;
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  if (ms >= kFuzzReadTimeoutMs) {
    ADD_FAILURE() << "ReadRequest blocked for " << ms << " ms";
    ok = false;
  }

  conn.reset();
  std::string wire;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(peer, chunk, sizeof(chunk), 0)) > 0) {
    wire.append(chunk, static_cast<size_t>(n));
  }
  ::close(peer);
  // Parsed requests get no responses here; only a failed parse writes.
  if (wire.empty()) {
    ++*eof;
  } else if (IsCloseWith400(wire) &&
             wire.find("HTTP/1.1 ", 1) == std::string::npos) {
    ++*bad;
  } else {
    ADD_FAILURE() << "unexpected bytes written: " << wire;
    ok = false;
  }
  return ok;
}

TEST(HttpFuzzTest, MutatedRequestsParseOr400OrEof) {
  Rng rng(20261021);
  size_t cases = 0, parsed = 0, bad = 0, eof = 0;
  for (const std::string& seed : FuzzSeeds()) {
    for (int i = 0; i < 1000; ++i) {
      std::string req = seed;
      const size_t mutations = i % 25 == 0 ? 0 : 1 + rng.Below(3);
      for (size_t m = 0; m < mutations; ++m) MutateRequest(&rng, &req);
      ++cases;
      ASSERT_TRUE(FuzzOneRequest(req, &parsed, &bad, &eof))
          << "seed '" << seed << "', case " << i << ": '" << req << "'";
    }
  }
  EXPECT_EQ(cases, 12000u);
  // Every outcome class occurs, so the mutations reach each one.
  EXPECT_GT(parsed, 1000u);
  EXPECT_GT(bad, 100u);
  EXPECT_GT(eof, 100u);
}

}  // namespace
}  // namespace server
}  // namespace anyk
