//===- net/NetIo.h - Robust POSIX socket I/O helpers ------------*- C++ -*-===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving front-end's socket I/O discipline.  A client can vanish
/// at any byte: write(2) may be interrupted (EINTR), may accept only
/// part of the buffer (partial write), and -- once the peer has closed
/// -- raises SIGPIPE, which kills the process by default.  These helpers
/// make that survivable: ignoreSigpipe() turns the signal into an EPIPE
/// errno, and writeAll() loops over EINTR and partial writes until the
/// buffer is out or the peer is definitively gone, so the caller sees
/// one boolean: delivered, or gone.  cfv_serve's stdin bridge copies
/// with it.
///
/// net::Server runs every connection non-blocking, where a full socket
/// buffer is not an error but a scheduling signal: writeSome()/readSome()
/// distinguish WouldBlock (re-arm the fd and come back on
/// EPOLLOUT/EPOLLIN) from Gone (close the connection), and report
/// partial progress so write backpressure continues exactly where it
/// stopped.
///
/// Header-only and POSIX-only.
///
//===----------------------------------------------------------------------===//

#ifndef CFV_NET_NET_IO_H
#define CFV_NET_NET_IO_H

#if defined(__unix__) || defined(__APPLE__)

#include <cerrno>
#include <csignal>
#include <cstddef>
#include <fcntl.h>
#include <unistd.h>

namespace cfv {
namespace net {

/// Turns SIGPIPE into an EPIPE errno from write(2).  Idempotent; call
/// once before serving sockets.
inline void ignoreSigpipe() { ::signal(SIGPIPE, SIG_IGN); }

/// Writes all \p Len bytes of \p Data to \p Fd, retrying interrupted
/// calls and continuing partial writes.  Returns false when the peer is
/// gone or the fd is otherwise unwritable (EPIPE, ECONNRESET, EBADF,
/// ...); the stream should be treated as closed.  Blocking fds only --
/// on a non-blocking fd use writeSome(), which understands EAGAIN.
inline bool writeAll(int Fd, const char *Data, std::size_t Len) {
  while (Len > 0) {
    const ssize_t N = ::write(Fd, Data, Len);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += N;
    Len -= static_cast<std::size_t>(N);
  }
  return true;
}

/// Outcome of one non-blocking I/O attempt.
enum class IoStatus {
  Done,       ///< every requested byte moved
  WouldBlock, ///< kernel buffer full/empty; re-arm and retry on readiness
  Gone        ///< peer closed or fd unusable; treat the stream as dead
};

/// How far a writeSome()/readSome() call got: the terminal status plus
/// the bytes actually moved before it stopped (partial progress under
/// WouldBlock is normal and must be consumed by the caller's cursor).
struct IoResult {
  IoStatus St = IoStatus::Done;
  std::size_t Bytes = 0;
};

/// Writes as much of \p Data as the socket accepts without blocking:
/// loops over EINTR and partial writes, stops at EAGAIN/EWOULDBLOCK
/// with the byte count delivered so far.  Gone on EPIPE/ECONNRESET/...
inline IoResult writeSome(int Fd, const char *Data, std::size_t Len) {
  IoResult R;
  while (R.Bytes < Len) {
    const ssize_t N = ::write(Fd, Data + R.Bytes, Len - R.Bytes);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        R.St = IoStatus::WouldBlock;
        return R;
      }
      R.St = IoStatus::Gone;
      return R;
    }
    R.Bytes += static_cast<std::size_t>(N);
  }
  R.St = IoStatus::Done;
  return R;
}

/// Reads up to \p Cap bytes without blocking: loops over EINTR, stops at
/// EAGAIN with whatever arrived.  Gone covers both a clean EOF (read
/// returned 0) and hard errors -- either way the stream is over.  Done
/// with Bytes == Cap means the buffer filled; there may be more to read.
inline IoResult readSome(int Fd, char *Buf, std::size_t Cap) {
  IoResult R;
  while (R.Bytes < Cap) {
    const ssize_t N = ::read(Fd, Buf + R.Bytes, Cap - R.Bytes);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        R.St = IoStatus::WouldBlock;
        return R;
      }
      R.St = IoStatus::Gone;
      return R;
    }
    if (N == 0) { // EOF: Gone only if nothing useful arrived this call
      R.St = R.Bytes > 0 ? IoStatus::Done : IoStatus::Gone;
      return R;
    }
    R.Bytes += static_cast<std::size_t>(N);
  }
  R.St = IoStatus::Done;
  return R;
}

/// Sets O_NONBLOCK on \p Fd.  Returns false on fcntl failure.
inline bool setNonBlocking(int Fd) {
  const int Flags = ::fcntl(Fd, F_GETFL, 0);
  return Flags >= 0 && ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}

} // namespace net
} // namespace cfv

#endif // POSIX

#endif // CFV_NET_NET_IO_H
