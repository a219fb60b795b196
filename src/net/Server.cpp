//===- net/Server.cpp - the cfv_serve protocol engine ---------------------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//

#include "net/Server.h"

#if defined(__linux__)

#include "net/NetIo.h"
#include "obs/Metrics.h"
#include "resilience/Fault.h"
#include "service/Protocol.h"
#include "util/Clock.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace cfv;
using namespace cfv::net;
using cfv::service::Service;
using cfv::service::ServeRequest;
using cfv::service::ServeResponse;

namespace {

obs::Counter &netCounter(const char *Name, const char *Help) {
  return obs::MetricsRegistry::instance().counter(Name, "", Help);
}

/// Best-effort "id" extraction from an unparsed request line, so a
/// pre-parse overload rejection can still be matched to its request by
/// a pipelining client.  Deliberately shallow: first "id" key, string
/// value, simple escapes skipped -- wrong ids only cost the client a
/// correlation, never the server a crash.
std::string quickId(const std::string &Line) {
  const std::size_t Key = Line.find("\"id\"");
  if (Key == std::string::npos)
    return "";
  std::size_t I = Key + 4;
  while (I < Line.size() && (Line[I] == ' ' || Line[I] == '\t'))
    ++I;
  if (I >= Line.size() || Line[I] != ':')
    return "";
  ++I;
  while (I < Line.size() && (Line[I] == ' ' || Line[I] == '\t'))
    ++I;
  if (I >= Line.size() || Line[I] != '"')
    return "";
  std::string Id;
  for (++I; I < Line.size() && Line[I] != '"'; ++I) {
    if (Line[I] == '\\' && I + 1 < Line.size())
      ++I; // keep the escaped char, drop the backslash
    Id.push_back(Line[I]);
  }
  return Id;
}

} // namespace

Server::Server(service::Service &S, Config C) : Svc(S), Cfg(C) {}

Server::~Server() {
  if (Listener >= 0)
    ::close(Listener);
  for (auto &KV : Conns)
    ::close(KV.second->Fd);
  obs::MetricsRegistry::instance().removeGauge("cfv_net_conns_open");
}

Status Server::listen() {
  Listener = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (Listener < 0)
    return Status::error(ErrorCode::IoError,
                         std::string("socket: ") + std::strerror(errno));
  const int One = 1;
  ::setsockopt(Listener, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(static_cast<uint16_t>(Cfg.Port));
  if (::bind(Listener, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0)
    return Status::error(ErrorCode::IoError,
                         std::string("bind: ") + std::strerror(errno));
  if (::listen(Listener, Cfg.Backlog) < 0)
    return Status::error(ErrorCode::IoError,
                         std::string("listen: ") + std::strerror(errno));
  socklen_t Len = sizeof(Addr);
  if (::getsockname(Listener, reinterpret_cast<sockaddr *>(&Addr), &Len) == 0)
    BoundPort = ntohs(Addr.sin_port);
  else
    BoundPort = Cfg.Port;
  if (!Loop.valid())
    return Status::error(ErrorCode::IoError, "epoll initialization failed");
  return Status();
}

uint32_t Server::eventsFor(const Conn &C) const {
  uint32_t Ev = 0;
  if (!C.ReadClosed && !C.ReadShed && !Draining)
    Ev |= EPOLLIN;
  if (C.WrOff < C.WrBuf.size())
    Ev |= EPOLLOUT;
  return Ev;
}

void Server::updateInterest(Conn &C) {
  Loop.mod(C.Fd, eventsFor(C));
}

void Server::gateAccept() {
  if (Listener < 0)
    return;
  const bool ShouldGate =
      Draining || static_cast<int>(Conns.size()) >= Cfg.MaxConns;
  if (ShouldGate == AcceptGated)
    return;
  AcceptGated = ShouldGate;
  // Gating keeps the fd registered with an empty interest mask: new
  // clients queue in the accept backlog instead of burning accept+close.
  Loop.mod(Listener, ShouldGate ? 0u : static_cast<uint32_t>(EPOLLIN));
}

Server::Conn *Server::addConn(int Fd) {
  const uint64_t Id = NextConnId++;
  if (!Loop.add(Fd, EPOLLIN,
                [this, Id](uint32_t Events) { connReady(Id, Events); }))
    return nullptr;
  std::unique_ptr<Conn> &C = Conns[Id];
  C = std::make_unique<Conn>();
  C->Id = Id;
  C->Fd = C->OutFd = Fd;
  C->LastActivity = monotonicSeconds();
  return C.get();
}

Status Server::serveStream(int InFd, int OutFd) {
  if (!Loop.valid())
    return Status::error(ErrorCode::IoError, "epoll initialization failed");
  Conn *C = setNonBlocking(InFd) ? addConn(InFd) : nullptr;
  if (!C)
    return Status::error(ErrorCode::IoError,
                         std::string("serveStream: ") + std::strerror(errno));
  C->OutFd = OutFd;
  C->InOrder = true;
  return Status();
}

void Server::acceptReady() {
  while (static_cast<int>(Conns.size()) < Cfg.MaxConns) {
    const int Fd = ::accept4(Listener, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (Fd < 0)
      return; // EAGAIN (or transient error): wait for the next event
    if (!addConn(Fd)) {
      ::close(Fd);
      continue;
    }
    ++Counters.Accepted;
    netCounter("cfv_net_accepted_total", "Connections accepted").inc();
  }
  gateAccept();
}

void Server::connReady(uint64_t Id, uint32_t Events) {
  auto It = Conns.find(Id);
  if (It == Conns.end())
    return;
  Conn &C = *It->second;
  if (Events & (EPOLLERR | EPOLLHUP)) {
    // Peer vanished.  In-flight completions will find the conn gone and
    // count as dropped replies.
    closeConn(Id);
    return;
  }
  if (Events & EPOLLOUT)
    onWritable(C);
  if (Conns.count(Id) && (Events & EPOLLIN))
    onReadable(C);
}

void Server::onReadable(Conn &C) {
  const uint64_t Id = C.Id;
  char Tmp[8192];
  for (;;) {
    const IoResult R = readSome(C.Fd, Tmp, sizeof(Tmp));
    if (R.Bytes > 0) {
      C.RdBuf.append(Tmp, R.Bytes);
      C.LastActivity = monotonicSeconds();
    }
    if (R.St == IoStatus::WouldBlock)
      break;
    if (R.St == IoStatus::Gone) {
      // EOF or error.  Flush what we have (including a final
      // unterminated line), then either close now or hang on until the
      // admitted requests answer into the half-closed socket.
      consumeLines(C, /*Eof=*/true);
      auto It = Conns.find(Id);
      if (It == Conns.end())
        return; // a shutdown verb in the tail closed it already
      Conn &Cc = *It->second;
      Cc.ReadClosed = true;
      if (Cc.InFlight == 0 && Cc.WrOff >= Cc.WrBuf.size())
        closeConn(Id);
      else
        updateInterest(Cc);
      return;
    }
    // Done with room to spare means EOF hasn't been seen; keep reading
    // only if the buffer was filled exactly.
    if (R.Bytes < sizeof(Tmp))
      break;
  }
  consumeLines(C, /*Eof=*/false);
  if (Conns.count(Id))
    updateInterest(C);
}

void Server::consumeLines(Conn &C, bool Eof) {
  const uint64_t Id = C.Id;
  std::size_t Start = 0;
  for (;;) {
    if (!Conns.count(Id))
      return; // a line closed the connection; drop the rest
    const std::size_t Nl = C.RdBuf.find('\n', Start);
    if (Nl == std::string::npos)
      break;
    std::string Line = C.RdBuf.substr(Start, Nl - Start);
    Start = Nl + 1;
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    handleLine(C, Line);
  }
  if (!Conns.count(Id))
    return;
  C.RdBuf.erase(0, Start);
  if (Eof && !C.RdBuf.empty()) {
    std::string Line;
    Line.swap(C.RdBuf);
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    handleLine(C, Line);
  }
}

void Server::handleLine(Conn &C, const std::string &Line) {
  if (Draining)
    return; // drain admits nothing new; in-flight replies still deliver
  if (C.Http) {
    if (C.HttpReqLine.empty()) {
      if (!Line.empty())
        C.HttpReqLine = Line;
      return;
    }
    if (!Line.empty()) {
      // Header.  The only one that changes behavior is Connection.
      std::string Lower;
      Lower.reserve(Line.size());
      for (char Ch : Line)
        Lower.push_back(static_cast<char>(
            Ch >= 'A' && Ch <= 'Z' ? Ch - 'A' + 'a' : Ch));
      if (Lower.rfind("connection:", 0) == 0 &&
          Lower.find("close") != std::string::npos)
        C.HttpClose = true;
      return;
    }
    handleHttp(C);
    return;
  }

  if (Line.empty())
    return;

  if (Line.rfind("GET ", 0) == 0) {
    // The connection becomes an HTTP/1.1 client from here on.
    C.Http = true;
    C.HttpReqLine = Line;
    return;
  }

  // Admission control before parsing: when the scheduler would shed,
  // answer from a cheap id scan without paying for a JSON parse.
  // Control verbs stay observable under overload, so anything carrying
  // a "cmd" key takes the full path.  A stream has one client to
  // protect the loop from, so it keeps the scheduler's own verdicts
  // ("unavailable" at the queue bound).
  if (!C.InOrder && Line.find("\"cmd\"") == std::string::npos) {
    int64_t RetryAfterMs = 0;
    if (Svc.wouldShed(&RetryAfterMs)) {
      ServeResponse Resp;
      Resp.Ok = false;
      Resp.Id = quickId(Line);
      Resp.Error = Status::error(ErrorCode::Overloaded,
                                 "overloaded: request shed before parse");
      Resp.RetryAfterMs = RetryAfterMs;
      ++Counters.PreparseShed;
      netCounter("cfv_net_shed_preparse_total",
                 "Requests shed by admission control before JSON parsing")
          .inc();
      answer(C, Resp.toJson());
      return;
    }
  }

  const service::ClassifiedLine Cl = service::classifyLine(Line);
  switch (Cl.Kind) {
  case service::LineKind::Empty:
    return;
  case service::LineKind::HttpGet:
    C.Http = true;
    C.HttpReqLine = Line;
    return;
  case service::LineKind::Malformed:
  case service::LineKind::UnknownCmd:
  case service::LineKind::BadRequest:
    // A bad line is a request-level failure, not a server failure.
    answer(C, service::errorJson(Cl.Id, Cl.Error));
    return;
  case service::LineKind::Shutdown:
    answer(C, "{\"ok\":true,\"bye\":true}");
    ShutdownSeen = true;
    beginDrain();
    return;
  case service::LineKind::Stats:
    sendLine(C, service::statsJson(Svc));
    return;
  case service::LineKind::Metrics:
    sendLine(C, service::metricsJson());
    return;
  case service::LineKind::Backends:
    sendLine(C, service::backendsJson());
    return;
  case service::LineKind::Request: {
    const uint64_t ConnId = C.Id;
    const uint64_t Seq = C.OwedBase + C.Owed.size();
    if (C.InOrder)
      C.Owed.emplace_back(); // its slot, filled when it completes
    ++C.InFlight;
    ++TotalInFlight;
    ++Counters.FlushedBatches;
    ++Counters.FlushedBatchRequests;
    // Completions fire on scheduler workers (or inline on this thread,
    // for a rejection); both routes converge on the loop thread.
    Svc.submitAsync(Cl.Request, [this, ConnId, Seq](ServeResponse Resp) {
      Loop.post([this, ConnId, Seq, Resp = std::move(Resp)]() mutable {
        completeOn(ConnId, Seq, std::move(Resp));
      });
    });
    return;
  }
  }
}

void Server::handleHttp(Conn &C) {
  std::string ReqLine;
  ReqLine.swap(C.HttpReqLine);
  ++Counters.HttpRequests;
  netCounter("cfv_net_http_requests_total", "HTTP requests served").inc();

  // "GET <path> HTTP/1.x"; HTTP/1.0 defaults to close.
  std::string Path = "/";
  bool Http10 = false;
  {
    const std::size_t Sp1 = ReqLine.find(' ');
    if (Sp1 != std::string::npos) {
      const std::size_t Sp2 = ReqLine.find(' ', Sp1 + 1);
      Path = ReqLine.substr(Sp1 + 1, Sp2 == std::string::npos
                                         ? std::string::npos
                                         : Sp2 - Sp1 - 1);
      if (Sp2 != std::string::npos &&
          ReqLine.compare(Sp2 + 1, std::string::npos, "HTTP/1.0") == 0)
        Http10 = true;
    }
  }
  const std::size_t Query = Path.find('?');
  if (Query != std::string::npos)
    Path.resize(Query);

  std::string Body;
  std::string ContentType = "text/plain; charset=utf-8";
  const char *StatusLine = "200 OK";
  if (Path == "/metrics") {
    Body = obs::MetricsRegistry::instance().renderPrometheus();
    ContentType = "text/plain; version=0.0.4; charset=utf-8";
  } else if (Path == "/healthz") {
    json::ObjectWriter W;
    W.field("ok", true)
        .field("draining", Draining)
        .field("connections", static_cast<int64_t>(Conns.size()))
        .field("in_flight", static_cast<int64_t>(TotalInFlight));
    Body = W.str() + "\n";
    ContentType = "application/json";
  } else {
    StatusLine = "404 Not Found";
    Body = "not found\n";
  }

  const bool Close = C.HttpClose || Http10;
  C.HttpClose = false;
  char Header[256];
  std::snprintf(Header, sizeof(Header),
                "HTTP/1.1 %s\r\n"
                "Content-Type: %s\r\n"
                "Content-Length: %zu\r\n"
                "Connection: %s\r\n"
                "\r\n",
                StatusLine, ContentType.c_str(), Body.size(),
                Close ? "close" : "keep-alive");
  if (Close)
    C.CloseAfterFlush = true;
  sendBytes(C, std::string(Header) + Body);
}

void Server::answer(Conn &C, const std::string &Json) {
  if (C.InOrder && !C.Owed.empty())
    C.Owed.push_back(Json); // ready, but behind a request still running
  else
    sendLine(C, Json);
}

void Server::sendLine(Conn &C, const std::string &Json) {
  sendBytes(C, Json + "\n");
}

void Server::sendBytes(Conn &C, const std::string &Bytes) {
  // The serve.conn_drop fault point simulates a client vanishing
  // mid-response; the server must shrug, not die (chaos tier).
  if (fault::fire(fault::Point::ServeConnDrop)) {
    closeConn(C.Id);
    return;
  }
  C.WrBuf.append(Bytes);
  flushWrites(C);
}

void Server::flushWrites(Conn &C) {
  const uint64_t Id = C.Id;
  while (C.WrOff < C.WrBuf.size()) {
    const IoResult R = writeSome(C.OutFd, C.WrBuf.data() + C.WrOff,
                                 C.WrBuf.size() - C.WrOff);
    C.WrOff += R.Bytes;
    if (R.St == IoStatus::Gone) {
      closeConn(Id);
      return;
    }
    if (R.St == IoStatus::WouldBlock)
      break;
  }
  if (C.WrOff >= C.WrBuf.size()) {
    C.WrBuf.clear();
    C.WrOff = 0;
    if (C.CloseAfterFlush || (C.ReadClosed && C.InFlight == 0)) {
      closeConn(Id);
      return;
    }
  } else if (C.WrOff > (1u << 16) && C.WrOff * 2 >= C.WrBuf.size()) {
    // Compact once the flushed prefix dominates the buffer.
    C.WrBuf.erase(0, C.WrOff);
    C.WrOff = 0;
  }
  // Write backpressure: a client that won't read can't force unbounded
  // buffering -- shed its read interest until it drains what it owes.
  const std::size_t Owed = C.WrBuf.size() - C.WrOff;
  const bool ShouldShed = Owed > Cfg.MaxWriteBuffer;
  if (ShouldShed != C.ReadShed) {
    C.ReadShed = ShouldShed;
    if (ShouldShed)
      netCounter("cfv_net_backpressure_total",
                 "Connections whose read interest was shed by write "
                 "backpressure")
          .inc();
  }
  updateInterest(C);
}

void Server::onWritable(Conn &C) { flushWrites(C); }

void Server::closeConn(uint64_t Id) {
  auto It = Conns.find(Id);
  if (It == Conns.end())
    return;
  Loop.deferClose(It->second->Fd);
  Conns.erase(It);
  ++Counters.Closed;
  netCounter("cfv_net_closed_total", "Connections closed").inc();
  gateAccept();
}

void Server::completeOn(uint64_t ConnId, uint64_t Seq, ServeResponse Resp) {
  --TotalInFlight;
  auto It = Conns.find(ConnId);
  if (It == Conns.end()) {
    // The client disconnected while its request ran; the reply has no
    // recipient.  The request still completed exactly once.
    ++Counters.RepliesDropped;
    netCounter("cfv_net_replies_dropped_total",
               "Completions whose connection was gone")
        .inc();
    return;
  }
  Conn &C = *It->second;
  --C.InFlight;
  std::string Out;
  if (!C.InOrder) {
    Out = Resp.toJson() + "\n";
  } else {
    // Fill this request's slot, then release every reply now at the
    // front: the ordered prefix that no longer waits on anything.
    C.Owed[Seq - C.OwedBase] = Resp.toJson();
    for (; !C.Owed.empty() && !C.Owed.front().empty(); ++C.OwedBase) {
      Out += C.Owed.front() + "\n";
      C.Owed.pop_front();
    }
  }
  if (!Out.empty())
    sendBytes(C, Out);
  // sendBytes may already have closed the conn (write error / fault).
  auto It2 = Conns.find(ConnId);
  if (It2 == Conns.end())
    return;
  Conn &Cc = *It2->second;
  if ((Draining || Cc.ReadClosed) && Cc.InFlight == 0 &&
      Cc.WrOff >= Cc.WrBuf.size())
    closeConn(ConnId);
}

void Server::beginDrain() {
  if (Draining)
    return;
  Draining = true;
  gateAccept();
  // Anything unread in a connection buffer is abandoned (the client was
  // told "bye" or got SIGTERM semantics -- replies for admitted work
  // still deliver).
  std::vector<uint64_t> Idle;
  for (auto &KV : Conns) {
    Conn &C = *KV.second;
    if (C.InFlight == 0 && C.WrOff >= C.WrBuf.size())
      Idle.push_back(KV.first);
    else
      updateInterest(C); // drop read interest; keep flushing
  }
  for (uint64_t Id : Idle)
    closeConn(Id);
}

void Server::tick() {
  const double Now = monotonicSeconds();
  if (!Draining && Cfg.ShouldDrain && Cfg.ShouldDrain())
    beginDrain();
  if (Cfg.IdleTimeoutMs > 0 && !Draining) {
    const double Limit = static_cast<double>(Cfg.IdleTimeoutMs) / 1000.0;
    std::vector<uint64_t> Stale;
    for (auto &KV : Conns) {
      Conn &C = *KV.second; // a stream waits for its EOF, however quiet
      if (!C.InOrder && C.InFlight == 0 && C.WrOff >= C.WrBuf.size() &&
          Now - C.LastActivity > Limit)
        Stale.push_back(KV.first);
    }
    for (uint64_t Id : Stale) {
      ++Counters.IdleClosed;
      netCounter("cfv_net_idle_closed_total",
                 "Connections closed by the idle timeout")
          .inc();
      closeConn(Id);
    }
  }
}

int Server::run() {
  if (Listener >= 0)
    Loop.add(Listener, EPOLLIN, [this](uint32_t) { acceptReady(); });
  obs::MetricsRegistry::instance().gauge(
      "cfv_net_conns_open",
      [this] { return static_cast<double>(Conns.size()); }, "",
      "Currently open client connections");

  // The coarse tick only serves the drain flag and idle timeouts.
  Loop.run(100, [this] { tick(); },
           [this] {
             return (Draining || Listener < 0) && TotalInFlight == 0 &&
                    Conns.empty();
           });

  obs::MetricsRegistry::instance().removeGauge("cfv_net_conns_open");
  return 0;
}

Server::Stats Server::stats() const { return Counters; }

#endif // __linux__
