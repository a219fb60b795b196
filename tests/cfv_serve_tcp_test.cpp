//===- tests/cfv_serve_tcp_test.cpp - event-loop server e2e tests ---------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
//
// Drives the cfv_serve binary (CFV_SERVE_BIN) in TCP mode end to end:
// the epoll front-end under many concurrent NDJSON clients with
// pipelining (exactly one reply per request id, order free), HTTP/1.1
// keep-alive scrapes on the same port, SIGTERM graceful drain with an
// admitted request still in flight, connection-limit accept gating
// (CFV_MAX_CONNS), and survival of injected mid-response connection
// drops (serve.conn_drop).  Servers bind port 0; the ephemeral port is
// parsed from the startup banner on stderr.
//
//===----------------------------------------------------------------------===//

#if defined(__linux__)

#include "resilience/Fault.h" // CFV_FAULTS: the conn_drop test adapts

#include "gtest/gtest.h"

#include <arpa/inet.h>
#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <map>
#include <netinet/in.h>
#include <poll.h>
#include <string>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

namespace {

#ifndef CFV_SERVE_BIN
#error "CFV_SERVE_BIN must be defined to the cfv_serve binary path"
#endif

bool contains(const std::string &S, const std::string &Needle) {
  return S.find(Needle) != std::string::npos;
}

/// A cfv_serve child in TCP mode.  stdin/stdout go to /dev/null; stderr
/// is piped so the ephemeral-port banner can be parsed.
class TcpServe {
public:
  explicit TcpServe(const std::vector<std::string> &ExtraArgs = {}) {
    int ErrPipe[2];
    if (::pipe(ErrPipe) != 0)
      return;
    Pid = ::fork();
    if (Pid == 0) {
      const int DevNull = ::open("/dev/null", O_RDWR);
      ::dup2(DevNull, 0);
      ::dup2(DevNull, 1);
      ::dup2(ErrPipe[1], 2);
      ::close(ErrPipe[0]);
      ::close(ErrPipe[1]);
      std::vector<std::string> Args = {"--port", "0"};
      Args.insert(Args.end(), ExtraArgs.begin(), ExtraArgs.end());
      std::vector<const char *> Argv = {CFV_SERVE_BIN};
      for (const std::string &A : Args)
        Argv.push_back(A.c_str());
      Argv.push_back(nullptr);
      ::execv(CFV_SERVE_BIN, const_cast<char *const *>(Argv.data()));
      std::_Exit(127);
    }
    ::close(ErrPipe[1]);
    Err = ::fdopen(ErrPipe[0], "r");
    // First banner line: "cfv_serve: listening on 127.0.0.1:<port>".
    char Line[256];
    while (Err && std::fgets(Line, sizeof(Line), Err)) {
      const char *At = std::strstr(Line, "listening on 127.0.0.1:");
      if (At) {
        Port = std::atoi(At + std::strlen("listening on 127.0.0.1:"));
        break;
      }
    }
  }

  ~TcpServe() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      int St = 0;
      ::waitpid(Pid, &St, 0);
    }
    if (Err)
      std::fclose(Err);
  }

  bool alive() const { return Pid > 0 && Port > 0; }
  int port() const { return Port; }
  pid_t pid() const { return Pid; }

  /// Reaps the child (blocking) and returns its exit code.
  int waitExit() {
    int St = 0;
    ::waitpid(Pid, &St, 0);
    Pid = -1;
    return WIFEXITED(St) ? WEXITSTATUS(St) : -1;
  }

private:
  pid_t Pid = -1;
  int Port = 0;
  std::FILE *Err = nullptr;
};

/// A blocking TCP client with a buffered line reader.
class Client {
public:
  explicit Client(int Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in Addr = {};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(static_cast<uint16_t>(Port));
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
        0) {
      ::close(Fd);
      Fd = -1;
    }
  }
  ~Client() { close(); }

  bool connected() const { return Fd >= 0; }
  void close() {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
  }

  bool sendLine(const std::string &L) { return sendRaw(L + "\n"); }

  bool sendRaw(const std::string &Bytes) {
    std::size_t Off = 0;
    while (Off < Bytes.size()) {
      const ssize_t N = ::send(Fd, Bytes.data() + Off, Bytes.size() - Off,
                               MSG_NOSIGNAL);
      if (N <= 0)
        return false;
      Off += static_cast<std::size_t>(N);
    }
    return true;
  }

  /// Next '\n'-terminated line, waiting up to \p TimeoutMs; "" on
  /// timeout or peer close.
  std::string recvLine(int TimeoutMs = 20000) {
    for (;;) {
      const std::size_t Nl = Buf.find('\n');
      if (Nl != std::string::npos) {
        std::string L = Buf.substr(0, Nl);
        Buf.erase(0, Nl + 1);
        return L;
      }
      if (!fill(TimeoutMs))
        return "";
    }
  }

  /// True when the peer sends nothing within \p TimeoutMs (the
  /// negative-space assertion for accept gating).
  bool quietFor(int TimeoutMs) {
    return Buf.empty() && !fill(TimeoutMs) && Buf.empty();
  }

  /// Reads until the peer closes; returns everything (HTTP with
  /// Connection: close).
  std::string recvUntilClose(int TimeoutMs = 20000) {
    while (fill(TimeoutMs))
      ;
    std::string All;
    All.swap(Buf);
    return All;
  }

  /// One HTTP response framed by Content-Length (keep-alive safe).
  std::string recvHttp(int TimeoutMs = 20000) {
    std::size_t HdrEnd;
    while ((HdrEnd = Buf.find("\r\n\r\n")) == std::string::npos)
      if (!fill(TimeoutMs))
        return "";
    const std::string Hdr = Buf.substr(0, HdrEnd + 4);
    std::size_t BodyLen = 0;
    // Case-insensitive scan for the Content-Length header.
    std::string Lower = Hdr;
    for (auto &C : Lower)
      C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
    const std::size_t Cl = Lower.find("content-length:");
    if (Cl != std::string::npos)
      BodyLen = static_cast<std::size_t>(
          std::atol(Hdr.c_str() + Cl + std::strlen("content-length:")));
    while (Buf.size() < HdrEnd + 4 + BodyLen)
      if (!fill(TimeoutMs))
        return "";
    std::string Resp = Buf.substr(0, HdrEnd + 4 + BodyLen);
    Buf.erase(0, HdrEnd + 4 + BodyLen);
    return Resp;
  }

private:
  /// Pulls more bytes into Buf; false on timeout or EOF.
  bool fill(int TimeoutMs) {
    pollfd P = {Fd, POLLIN, 0};
    if (::poll(&P, 1, TimeoutMs) <= 0)
      return false;
    char Tmp[4096];
    const ssize_t N = ::recv(Fd, Tmp, sizeof(Tmp), 0);
    if (N <= 0)
      return false;
    Buf.append(Tmp, static_cast<std::size_t>(N));
    return true;
  }

  int Fd = -1;
  std::string Buf;
};

// Small synthetic dataset, shared by every client so concurrent bursts
// hit one cache entry.
std::string request(const std::string &Id) {
  return "{\"app\":\"pagerank\",\"dataset\":\"higgs-twitter-sim\","
         "\"scale\":0.05,\"iters\":2,\"id\":\"" +
         Id + "\"}";
}

std::string extractId(const std::string &Line) {
  const std::size_t At = Line.find("\"id\":\"");
  if (At == std::string::npos)
    return "";
  const std::size_t Start = At + 6;
  const std::size_t End = Line.find('"', Start);
  return End == std::string::npos ? "" : Line.substr(Start, End - Start);
}

TEST(CfvServeTcp, ConcurrentClientsGetExactlyOneReplyPerId) {
  TcpServe S;
  ASSERT_TRUE(S.alive());
  constexpr int NumClients = 8;
  constexpr int PerClient = 4;

  std::vector<std::map<std::string, int>> Books(NumClients);
  std::vector<int> Failures(NumClients, 0);
  std::vector<std::thread> Threads;
  for (int C = 0; C < NumClients; ++C)
    Threads.emplace_back([&, C] {
      Client Cl(S.port());
      if (!Cl.connected()) {
        ++Failures[C];
        return;
      }
      // Pipeline the whole burst before reading anything: replies may
      // come back out of order (batching, per-request completion), and
      // the id is the only correlation.
      for (int I = 0; I < PerClient; ++I)
        if (!Cl.sendLine(request("c" + std::to_string(C) + "-" +
                                 std::to_string(I))))
          ++Failures[C];
      for (int I = 0; I < PerClient; ++I) {
        const std::string L = Cl.recvLine();
        if (L.empty()) {
          ++Failures[C];
          return;
        }
        ++Books[C][extractId(L)];
        if (!contains(L, "\"ok\":true"))
          ++Failures[C];
      }
    });
  for (auto &T : Threads)
    T.join();

  for (int C = 0; C < NumClients; ++C) {
    EXPECT_EQ(0, Failures[C]) << "client " << C;
    EXPECT_EQ(static_cast<std::size_t>(PerClient), Books[C].size())
        << "client " << C;
    for (int I = 0; I < PerClient; ++I) {
      const std::string Id =
          "c" + std::to_string(C) + "-" + std::to_string(I);
      EXPECT_EQ(1, Books[C][Id]) << "id " << Id;
    }
  }

  // Shutdown over the wire: bye on this connection, then server exit.
  Client Cl(S.port());
  ASSERT_TRUE(Cl.connected());
  ASSERT_TRUE(Cl.sendLine("{\"cmd\":\"shutdown\"}"));
  EXPECT_TRUE(contains(Cl.recvLine(), "\"bye\":true"));
  EXPECT_EQ(0, S.waitExit());
}

TEST(CfvServeTcp, HttpKeepAliveScrapes) {
  TcpServe S;
  ASSERT_TRUE(S.alive());
  Client Cl(S.port());
  ASSERT_TRUE(Cl.connected());

  // Three requests down one keep-alive connection.
  ASSERT_TRUE(Cl.sendRaw("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"));
  const std::string Health = Cl.recvHttp();
  EXPECT_TRUE(contains(Health, "HTTP/1.1 200")) << Health;
  EXPECT_TRUE(contains(Health, "\"ok\":true")) << Health;
  EXPECT_TRUE(contains(Health, "\"draining\":false")) << Health;

  ASSERT_TRUE(Cl.sendRaw("GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n"));
  const std::string Metrics = Cl.recvHttp();
  EXPECT_TRUE(contains(Metrics, "HTTP/1.1 200")) << Metrics;
  EXPECT_TRUE(contains(Metrics, "text/plain; version=0.0.4")) << Metrics;
  EXPECT_TRUE(contains(Metrics, "cfv_net_accepted_total")) << Metrics;

  ASSERT_TRUE(Cl.sendRaw("GET /nope HTTP/1.1\r\nHost: t\r\n\r\n"));
  EXPECT_TRUE(contains(Cl.recvHttp(), "HTTP/1.1 404")) << "404 expected";

  // Connection: close tears the connection down after the reply.
  ASSERT_TRUE(Cl.sendRaw("GET /healthz HTTP/1.1\r\nHost: t\r\n"
                         "Connection: close\r\n\r\n"));
  const std::string Last = Cl.recvUntilClose();
  EXPECT_TRUE(contains(Last, "HTTP/1.1 200")) << Last;

  Client Bye(S.port());
  ASSERT_TRUE(Bye.connected());
  ASSERT_TRUE(Bye.sendLine("{\"cmd\":\"shutdown\"}"));
  EXPECT_TRUE(contains(Bye.recvLine(), "\"bye\":true"));
  EXPECT_EQ(0, S.waitExit());
}

TEST(CfvServeTcp, SigtermDrainsAnsweringInFlight) {
  TcpServe S;
  ASSERT_TRUE(S.alive());
  Client Cl(S.port());
  ASSERT_TRUE(Cl.connected());
  // Warm round trip proves the server is fully up before the signal.
  ASSERT_TRUE(Cl.sendLine(request("warm")));
  ASSERT_TRUE(contains(Cl.recvLine(), "\"id\":\"warm\""));
  // A heavier cold load holds a worker while SIGTERM lands.
  ASSERT_TRUE(Cl.sendLine("{\"app\":\"pagerank\",\"dataset\":"
                          "\"higgs-twitter-sim\",\"scale\":0.4,"
                          "\"iters\":2,\"id\":\"inflight\"}"));
  ::usleep(100 * 1000); // let the loop admit it before the signal
  ASSERT_EQ(0, ::kill(S.pid(), SIGTERM));
  // The admitted request still gets its one structured reply.
  const std::string R = Cl.recvLine();
  EXPECT_TRUE(contains(R, "\"id\":\"inflight\"")) << R;
  EXPECT_TRUE(contains(R, "\"ok\":")) << R;
  // Then the drained server closes the connection and exits cleanly.
  EXPECT_EQ("", Cl.recvLine());
  EXPECT_EQ(0, S.waitExit());
}

TEST(CfvServeTcp, MaxConnsGatesAccept) {
  // With a one-connection limit the second client completes the TCP
  // handshake (kernel backlog) but is not serviced until the first
  // leaves -- admission by accept gating, not by reset.
  ::setenv("CFV_MAX_CONNS", "1", 1);
  TcpServe S;
  ::unsetenv("CFV_MAX_CONNS");
  ASSERT_TRUE(S.alive());

  Client A(S.port());
  ASSERT_TRUE(A.connected());
  ASSERT_TRUE(A.sendLine(request("a")));
  EXPECT_TRUE(contains(A.recvLine(), "\"id\":\"a\""));

  Client B(S.port());
  ASSERT_TRUE(B.connected());
  ASSERT_TRUE(B.sendLine(request("b")));
  // B waits in the backlog while A holds the one slot.
  EXPECT_TRUE(B.quietFor(300));

  A.close();
  // A's slot frees, B gets accepted and its buffered request answered.
  const std::string R = B.recvLine();
  EXPECT_TRUE(contains(R, "\"id\":\"b\"")) << R;
  EXPECT_TRUE(contains(R, "\"ok\":true")) << R;

  ASSERT_TRUE(B.sendLine("{\"cmd\":\"shutdown\"}"));
  EXPECT_TRUE(contains(B.recvLine(), "\"bye\":true"));
  EXPECT_EQ(0, S.waitExit());
}

TEST(CfvServeTcp, SurvivesInjectedConnDrop) {
  // serve.conn_drop:nth=2 severs the connection at the second reply
  // write; the server must shrug it off and keep serving new clients.
  TcpServe S({"--faults", "serve.conn_drop:nth=2"});
  ASSERT_TRUE(S.alive());

  Client A(S.port());
  ASSERT_TRUE(A.connected());
  ASSERT_TRUE(A.sendLine(request("d1")));
  EXPECT_TRUE(contains(A.recvLine(), "\"id\":\"d1\""));
  ASSERT_TRUE(A.sendLine(request("d2")));
#if CFV_FAULTS
  // The second reply's write fires the fault: connection gone.
  EXPECT_EQ("", A.recvLine(5000));
#else
  EXPECT_TRUE(contains(A.recvLine(), "\"id\":\"d2\""));
#endif

  Client B(S.port());
  ASSERT_TRUE(B.connected());
  ASSERT_TRUE(B.sendLine(request("after")));
  const std::string R = B.recvLine();
  EXPECT_TRUE(contains(R, "\"id\":\"after\"")) << R;
  EXPECT_TRUE(contains(R, "\"ok\":true")) << R;

  ASSERT_TRUE(B.sendLine("{\"cmd\":\"shutdown\"}"));
  EXPECT_TRUE(contains(B.recvLine(), "\"bye\":true"));
  EXPECT_EQ(0, S.waitExit());
}

} // namespace

#else
#include "gtest/gtest.h"
TEST(CfvServeTcp, SkippedOffLinux) { GTEST_SKIP(); }
#endif // __linux__
