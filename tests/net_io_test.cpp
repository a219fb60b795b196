//===-- tests/net_io_test.cpp - non-blocking socket I/O helpers -----------===//
//
// net/NetIo.h under real socketpairs: partial writes with a shrunken
// send buffer, EAGAIN round trips on non-blocking fds, EINTR survival,
// and the Gone classification for closed peers.  These are the exact
// paths the event-loop server (src/net/) leans on for write
// backpressure and connection teardown.
//
//===----------------------------------------------------------------------===//

#include "net/NetIo.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstring>
#include <string>
#include <sys/socket.h>
#include <sys/types.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace cfv::net;

namespace {

struct SocketPair {
  int A = -1, B = -1;
  SocketPair() { EXPECT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds)); }
  ~SocketPair() {
    if (A >= 0)
      ::close(A);
    if (B >= 0)
      ::close(B);
  }
  int *Fds = &A;
};

/// Shrinks both kernel buffers so a modest payload forces EAGAIN.
void shrinkBuffers(int Fd) {
  const int Small = 4096;
  ::setsockopt(Fd, SOL_SOCKET, SO_SNDBUF, &Small, sizeof(Small));
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVBUF, &Small, sizeof(Small));
}

TEST(NetIoTest, SetNonBlocking) {
  SocketPair P;
  EXPECT_TRUE(setNonBlocking(P.A));
  char Buf[8];
  // Nothing written yet: a non-blocking read must come back WouldBlock
  // instead of parking the thread.
  const IoResult R = readSome(P.A, Buf, sizeof(Buf));
  EXPECT_EQ(IoStatus::WouldBlock, R.St);
  EXPECT_EQ(0u, R.Bytes);
  EXPECT_FALSE(setNonBlocking(-1));
}

TEST(NetIoTest, WriteSomeDoneAndReadBack) {
  SocketPair P;
  ASSERT_TRUE(setNonBlocking(P.A));
  ASSERT_TRUE(setNonBlocking(P.B));
  const std::string Msg = "hello over the wire\n";
  const IoResult W = writeSome(P.A, Msg.data(), Msg.size());
  EXPECT_EQ(IoStatus::Done, W.St);
  EXPECT_EQ(Msg.size(), W.Bytes);
  // readSome drains until the buffer fills or the fd runs dry; with 64
  // bytes of room and 20 on the wire it stops at EAGAIN -- WouldBlock,
  // but carrying everything that arrived.
  char Buf[64];
  const IoResult R = readSome(P.B, Buf, sizeof(Buf));
  EXPECT_EQ(IoStatus::WouldBlock, R.St);
  ASSERT_EQ(Msg.size(), R.Bytes);
  EXPECT_EQ(Msg, std::string(Buf, R.Bytes));
  // An exactly-sized buffer fills and reports Done instead.
  ASSERT_EQ(IoStatus::Done, writeSome(P.A, Msg.data(), Msg.size()).St);
  char Exact[20];
  static_assert(sizeof(Exact) == 20, "matches Msg length");
  const IoResult R2 = readSome(P.B, Exact, Msg.size());
  EXPECT_EQ(IoStatus::Done, R2.St);
  EXPECT_EQ(Msg.size(), R2.Bytes);
}

TEST(NetIoTest, WriteSomePartialThenWouldBlock) {
  SocketPair P;
  shrinkBuffers(P.A);
  shrinkBuffers(P.B);
  ASSERT_TRUE(setNonBlocking(P.A));
  // Much more than the shrunken buffers hold: the write must stop at
  // WouldBlock with partial progress, never spin or fail.
  const std::vector<char> Big(1 << 20, 'x');
  const IoResult W1 = writeSome(P.A, Big.data(), Big.size());
  ASSERT_EQ(IoStatus::WouldBlock, W1.St);
  ASSERT_GT(W1.Bytes, 0u);
  ASSERT_LT(W1.Bytes, Big.size());

  // Drain the reader side, then the continuation picks up exactly where
  // the cursor stopped -- the server's EPOLLOUT resume path.
  std::size_t Drained = 0;
  char Buf[8192];
  ASSERT_TRUE(setNonBlocking(P.B));
  for (;;) {
    const IoResult R = readSome(P.B, Buf, sizeof(Buf));
    Drained += R.Bytes;
    if (R.St != IoStatus::Done || R.Bytes < sizeof(Buf))
      break;
  }
  EXPECT_EQ(W1.Bytes, Drained);
  const IoResult W2 =
      writeSome(P.A, Big.data() + W1.Bytes, Big.size() - W1.Bytes);
  EXPECT_GT(W2.Bytes, 0u);
}

TEST(NetIoTest, WriteSomeGoneOnClosedPeer) {
  ::signal(SIGPIPE, SIG_IGN);
  SocketPair P;
  ASSERT_TRUE(setNonBlocking(P.A));
  ::close(P.B);
  P.B = -1;
  const std::string Msg = "into the void";
  // The first write may land in the kernel buffer; looping must reach
  // Gone (EPIPE) quickly once the peer reset propagates.
  IoResult W;
  for (int I = 0; I < 16; ++I) {
    W = writeSome(P.A, Msg.data(), Msg.size());
    if (W.St == IoStatus::Gone)
      break;
  }
  EXPECT_EQ(IoStatus::Gone, W.St);
}

TEST(NetIoTest, ReadSomeGoneOnEofButDoneWithData) {
  SocketPair P;
  const std::string Msg = "last words";
  ASSERT_EQ(IoStatus::Done, writeSome(P.A, Msg.data(), Msg.size()).St);
  ::close(P.A);
  P.A = -1;
  ASSERT_TRUE(setNonBlocking(P.B));
  char Buf[64];
  // Data plus EOF in one call: the data must be surfaced (Done), and the
  // EOF only reported once the stream is truly empty.
  const IoResult R1 = readSome(P.B, Buf, sizeof(Buf));
  EXPECT_EQ(IoStatus::Done, R1.St);
  EXPECT_EQ(Msg.size(), R1.Bytes);
  const IoResult R2 = readSome(P.B, Buf, sizeof(Buf));
  EXPECT_EQ(IoStatus::Gone, R2.St);
  EXPECT_EQ(0u, R2.Bytes);
}

TEST(NetIoTest, WriteAllSurvivesEintr) {
  // A blocking writeAll interrupted by a harmless signal must retry, not
  // fail: install a no-op handler (no SA_RESTART, so the syscall really
  // sees EINTR) and pepper the writer from another thread.
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = [](int) {};
  sigemptyset(&SA.sa_mask);
  ASSERT_EQ(0, ::sigaction(SIGUSR1, &SA, nullptr));

  SocketPair P;
  shrinkBuffers(P.A);
  shrinkBuffers(P.B);
  const std::vector<char> Big(1 << 20, 'y');
  const pthread_t Writer = ::pthread_self();
  std::thread Reader([&] {
    // Interrupt the writer while slowly draining its payload.
    std::size_t Seen = 0;
    char Buf[4096];
    while (Seen < Big.size()) {
      ::pthread_kill(Writer, SIGUSR1);
      const ssize_t N = ::read(P.B, Buf, sizeof(Buf));
      if (N <= 0)
        break;
      Seen += static_cast<std::size_t>(N);
    }
    EXPECT_EQ(Big.size(), Seen);
  });
  EXPECT_TRUE(writeAll(P.A, Big.data(), Big.size()));
  Reader.join();
}

} // namespace
