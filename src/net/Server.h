//===- net/Server.h - the cfv_serve protocol engine -------------*- C++ -*-===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one protocol engine of cfv_serve: NDJSON clients over one epoll
/// loop (net::EventLoop), framed by service::classifyLine.  Its
/// connections come from a TCP listener (--port, many concurrent
/// clients) or from serveStream (stdin/stdout).  Per connection:
///
///  - Pipelining: every request line goes straight to
///    Service::submitAsync.  A TCP connection gets each reply when it
///    completes, identified by the echoed "id" -- a slow request never
///    blocks the fast one behind it.  A stream connection gets replies
///    in submission order; its introspection verbs (stats, metrics,
///    backends) and HTTP answers still go out at once.
///  - Admission control before parsing on TCP: when the scheduler's
///    overload watermarks (queue depth, latency EWMA -- see
///    RequestScheduler) would shed, a request line is answered
///    {"error":"overloaded","retry_after_ms":...} from a cheap id scan
///    without JSON parsing.
///    Control verbs ({"cmd":...}) and HTTP lines are exempt: operators
///    must be able to observe an overloaded server.
///  - Connection limits (CFV_MAX_CONNS) enforced by accept gating: at
///    the cap the listener's EPOLLIN interest is dropped, so new
///    clients queue in the (CFV_LISTEN_BACKLOG-deep) accept queue
///    instead of being churned through accept+close.
///  - Write backpressure: responses buffer per connection, flush as far
///    as the socket allows (net::writeSome), and EPOLLOUT continues
///    partial writes; past a buffer cap the connection's read interest
///    is shed until the client drains what it owes.
///  - Idle timeouts for TCP (CFV_IDLE_TIMEOUT_MS), the serve.conn_drop
///    fault point on the write path, and SIGTERM graceful drain: stop
///    accepting, stop reading, answer everything in flight, then close.
///  - A minimal real HTTP/1.1 GET surface on every connection: /metrics
///    (Prometheus text exposition) and /healthz, keep-alive honored, so
///    `curl http://127.0.0.1:<port>/metrics` scrapes a serving process.
///
/// Single-threaded by construction: every connection mutation happens on
/// the loop thread; scheduler workers hand completions back via
/// EventLoop::post.  Linux-only, like EventLoop.
///
//===----------------------------------------------------------------------===//

#ifndef CFV_NET_SERVER_H
#define CFV_NET_SERVER_H

#include "net/EventLoop.h"
#include "service/Service.h"
#include "util/Env.h"

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>

namespace cfv {
namespace net {

class Server {
public:
  struct Config {
    /// Listen port on 127.0.0.1; 0 picks an ephemeral port (tests/bench
    /// read it back from boundPort()).
    int Port = 0;
    /// accept(2) backlog.  The old front-end hardcoded 4, which under a
    /// connect burst overflows the SYN queue and (listen_overflows)
    /// stalls clients in retransmit; default now comes from
    /// CFV_LISTEN_BACKLOG.
    int Backlog = static_cast<int>(
        env::intVar("CFV_LISTEN_BACKLOG", 128, 1, 65535));
    /// Concurrent-connection cap (accept gating past it).
    int MaxConns = static_cast<int>(env::intVar("CFV_MAX_CONNS", 256, 1,
                                                1 << 20));
    /// Close connections idle (no bytes, nothing in flight) longer than
    /// this; 0 disables.
    int64_t IdleTimeoutMs = env::intVar("CFV_IDLE_TIMEOUT_MS", 0, 0,
                                        24 * 3600 * 1000);
    /// Per-connection write-buffer cap before read interest is shed.
    std::size_t MaxWriteBuffer = 4 << 20;
    /// Polled every tick; true triggers a graceful drain (the SIGTERM
    /// flag in cfv_serve).
    std::function<bool()> ShouldDrain;
  };

  Server(service::Service &Svc, Config C);
  ~Server();

  /// Binds and listens; on success boundPort() is the concrete port.
  Status listen();
  int boundPort() const { return BoundPort; }

  /// Serves one already-open byte stream as an in-order connection:
  /// requests are read from \p InFd (pollable; made non-blocking and
  /// closed with the connection), replies are written to \p OutFd (used
  /// as the caller set it up and never closed) in submission order.
  /// cfv_serve serves stdin/stdout this way.  Without a listener, run()
  /// returns once the stream has closed and its requests have finished.
  Status serveStream(int InFd, int OutFd);

  /// Serves until a shutdown verb, ShouldDrain, or (without a listener)
  /// the close of the last connection, then drains: admitted
  /// work answers, buffers flush, connections close.  Returns 0 on a
  /// clean exit.
  int run();

  struct Stats {
    int64_t Accepted = 0;
    int64_t Closed = 0;
    int64_t IdleClosed = 0;
    int64_t PreparseShed = 0;
    int64_t HttpRequests = 0;
    int64_t RepliesDropped = 0; ///< completions whose connection vanished
    /// Requests submitted to the Service, each counted once in both
    /// fields: the mean "batch" size FlushedBatchRequests /
    /// FlushedBatches is 1 by construction (perfbench reports it).
    int64_t FlushedBatches = 0;
    int64_t FlushedBatchRequests = 0;
  };
  Stats stats() const;

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

private:
  struct Conn {
    uint64_t Id = 0;
    int Fd = -1;    ///< polled for requests; closed with the connection
    int OutFd = -1; ///< replies go here: Fd, or a stream's output fd
    bool InOrder = false; ///< a serveStream: replies in submission order
    /// InOrder replies from the oldest unanswered request on; "" marks a
    /// request still running.  Owed.front() is that request whenever
    /// Owed is non-empty.
    std::deque<std::string> Owed;
    uint64_t OwedBase = 0; ///< submission number of Owed.front()
    std::string RdBuf;
    std::string WrBuf;
    std::size_t WrOff = 0; ///< flushed prefix of WrBuf
    int InFlight = 0;      ///< admitted requests not yet answered
    double LastActivity = 0.0;
    bool ReadShed = false;   ///< EPOLLIN dropped for write backpressure
    bool ReadClosed = false; ///< client half-closed; replies may still owe
    bool Http = false;       ///< switched to HTTP request framing
    bool CloseAfterFlush = false;
    std::string HttpReqLine; ///< request line awaiting its blank line
    bool HttpClose = false;  ///< Connection: close (or HTTP/1.0) seen
  };

  /// Registers \p Fd for reading; null (errno set) when epoll refuses it.
  Conn *addConn(int Fd);
  void acceptReady();
  void connReady(uint64_t Id, uint32_t Events);
  void onReadable(Conn &C);
  void onWritable(Conn &C);
  /// Processes complete lines sitting in C.RdBuf; \p Eof additionally
  /// flushes a trailing unterminated line.
  void consumeLines(Conn &C, bool Eof);
  void handleLine(Conn &C, const std::string &Line);
  void handleHttp(Conn &C);
  void answer(Conn &C, const std::string &Json);
  void sendLine(Conn &C, const std::string &Json);
  void sendBytes(Conn &C, const std::string &Bytes);
  void flushWrites(Conn &C);
  void updateInterest(Conn &C);
  void closeConn(uint64_t Id);
  void completeOn(uint64_t ConnId, uint64_t Seq, service::ServeResponse Resp);
  void beginDrain();
  void tick();
  void gateAccept();
  uint32_t eventsFor(const Conn &C) const;

  service::Service &Svc;
  const Config Cfg;
  EventLoop Loop;

  int Listener = -1;
  int BoundPort = 0;
  bool AcceptGated = false;
  bool Draining = false;
  bool ShutdownSeen = false;

  uint64_t NextConnId = 1;
  std::map<uint64_t, std::unique_ptr<Conn>> Conns;
  int TotalInFlight = 0;

  Stats Counters;
};

} // namespace net
} // namespace cfv

#endif // CFV_NET_SERVER_H
