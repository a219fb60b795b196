//===-- tests/net_loop_test.cpp - EventLoop unit tests --------------------===//
//
// The single-threaded building block of the network front-end: the epoll
// readiness loop (callback dispatch, cross-thread post, deferred close,
// tick/exit plumbing).
//
//===----------------------------------------------------------------------===//

#if defined(__linux__)

#include "net/EventLoop.h"

#include <gtest/gtest.h>

#include <sys/epoll.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace cfv;
using namespace cfv::net;

namespace {

struct Pipe {
  int Rd = -1, Wr = -1;
  Pipe() {
    int Fds[2];
    EXPECT_EQ(0, ::pipe(Fds));
    Rd = Fds[0];
    Wr = Fds[1];
  }
  ~Pipe() {
    if (Rd >= 0)
      ::close(Rd);
    if (Wr >= 0)
      ::close(Wr);
  }
  void poke() { EXPECT_EQ(1, ::write(Wr, "x", 1)); }
};

TEST(EventLoopTest, DispatchesReadableCallback) {
  EventLoop Loop;
  ASSERT_TRUE(Loop.valid());
  Pipe P;
  int Fired = 0;
  ASSERT_TRUE(Loop.add(P.Rd, EPOLLIN, [&](uint32_t Events) {
    EXPECT_TRUE(Events & EPOLLIN);
    char C;
    EXPECT_EQ(1, ::read(P.Rd, &C, 1));
    if (++Fired == 3)
      Loop.stop();
    else
      P.poke();
  }));
  EXPECT_EQ(1u, Loop.watched());
  P.poke();
  Loop.run(/*TickMs=*/1000, nullptr, nullptr);
  EXPECT_EQ(3, Fired);
}

TEST(EventLoopTest, PostFromAnotherThreadWakesLoop) {
  EventLoop Loop;
  ASSERT_TRUE(Loop.valid());
  bool Ran = false;
  // No TickMs and no watched fds: only the eventfd wakeup can deliver
  // the posted task, which is exactly what this verifies.
  std::thread T([&] {
    Loop.post([&] {
      Ran = true;
      Loop.stop();
    });
  });
  Loop.run(/*TickMs=*/0, nullptr, nullptr);
  T.join();
  EXPECT_TRUE(Ran);
}

TEST(EventLoopTest, DeferCloseIsSafeFromOwnCallback) {
  EventLoop Loop;
  ASSERT_TRUE(Loop.valid());
  Pipe A, B;
  int Closed = -1;
  // A's callback closes A's fd mid-dispatch; B keeps the loop honest
  // afterwards.  deferClose must tolerate the callback erasing its own
  // registration out from under the dispatcher.
  ASSERT_TRUE(Loop.add(A.Rd, EPOLLIN, [&](uint32_t) {
    Closed = A.Rd;
    Loop.deferClose(A.Rd);
    A.Rd = -1; // loop owns the close now
  }));
  ASSERT_TRUE(Loop.add(B.Rd, EPOLLIN, [&](uint32_t) {
    char C;
    EXPECT_EQ(1, ::read(B.Rd, &C, 1));
    Loop.stop();
  }));
  A.poke();
  B.poke();
  Loop.run(/*TickMs=*/1000, nullptr, nullptr);
  EXPECT_GE(Closed, 0);
  EXPECT_EQ(1u, Loop.watched());
  // The closed fd really is closed: writing to its old pipe would be
  // visible as watched() shrinking, checked above.
}

TEST(EventLoopTest, TickAndShouldExit) {
  EventLoop Loop;
  ASSERT_TRUE(Loop.valid());
  int Ticks = 0;
  Loop.run(
      /*TickMs=*/1, [&] { ++Ticks; }, [&] { return Ticks >= 3; });
  EXPECT_GE(Ticks, 3);
}

TEST(EventLoopTest, ModChangesInterest) {
  EventLoop Loop;
  ASSERT_TRUE(Loop.valid());
  Pipe P;
  int Fired = 0;
  ASSERT_TRUE(Loop.add(P.Rd, EPOLLIN, [&](uint32_t) {
    char C;
    EXPECT_EQ(1, ::read(P.Rd, &C, 1));
    ++Fired;
  }));
  // Drop interest entirely (the server's accept-gating trick): data
  // arrives but the callback must not fire.
  ASSERT_TRUE(Loop.mod(P.Rd, 0));
  P.poke();
  int Ticks = 0;
  Loop.run(
      /*TickMs=*/1, [&] { ++Ticks; }, [&] { return Ticks >= 5; });
  EXPECT_EQ(0, Fired);
  // Restore interest: the still-pending byte fires immediately.
  ASSERT_TRUE(Loop.mod(P.Rd, EPOLLIN));
  Loop.run(
      /*TickMs=*/1000, nullptr, [&] { return Fired >= 1; });
  EXPECT_EQ(1, Fired);
}

} // namespace

#endif // __linux__
