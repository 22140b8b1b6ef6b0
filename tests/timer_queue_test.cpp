// TimerQueue + clock-seam tests: the real-time sim::Clock implementation
// behind TcpTransport, and the regression the seam exists for — RPC
// timeouts (and the retransmits they drive) firing under the REAL clock,
// not just the simulator.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "rpc/rpc.h"
#include "sim/simulator.h"
#include "transport/tcp_transport.h"
#include "transport/timer_queue.h"

namespace recipe::transport {
namespace {

TEST(TimerQueueTest, NowIsMonotone) {
  TimerQueue timers;
  sim::Time last = timers.now();
  for (int i = 0; i < 1000; ++i) {
    const sim::Time t = timers.now();
    EXPECT_GE(t, last);
    last = t;
  }
}

TEST(TimerQueueTest, RunDueFiresInDeadlineThenFifoOrder) {
  TimerQueue timers;
  std::vector<int> fired;
  const sim::Time now = timers.now();
  // All deadlines already due: run_due() must honor deadline order, FIFO
  // among equals (same contract as the Simulator's event queue).
  timers.schedule_at(now, [&] { fired.push_back(1); });
  timers.schedule_at(now, [&] { fired.push_back(2); });
  timers.schedule_at(0, [&] { fired.push_back(0); });  // epoch: earliest
  EXPECT_EQ(timers.run_due(), 3u);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(timers.pending(), 0u);
}

TEST(TimerQueueTest, FutureTimersWaitTheirTurn) {
  TimerQueue timers;
  bool fired = false;
  timers.schedule(50 * sim::kMillisecond, [&] { fired = true; });
  EXPECT_EQ(timers.run_due(), 0u);
  EXPECT_FALSE(fired);
  ASSERT_TRUE(timers.next_deadline().has_value());

  while (timers.now() < *timers.next_deadline()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(timers.run_due(), 1u);
  EXPECT_TRUE(fired);
}

TEST(TimerQueueTest, CancelledTimerNeverFires) {
  TimerQueue timers;
  bool fired = false;
  sim::TimerHandle handle = timers.schedule(0, [&] { fired = true; });
  handle.cancel();
  timers.run_due();
  EXPECT_FALSE(fired);
}

TEST(TimerQueueTest, CrossThreadScheduleWakesTheOwner) {
  TimerQueue timers;
  std::mutex m;
  std::condition_variable cv;
  bool woken = false;
  timers.set_wakeup([&] {
    std::lock_guard<std::mutex> lock(m);
    woken = true;
    cv.notify_one();
  });

  std::atomic<bool> fired{false};
  std::thread scheduler([&] {
    timers.schedule(0, [&] { fired = true; });
  });
  {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return woken; });
  }
  scheduler.join();
  timers.run_due();
  EXPECT_TRUE(fired);
}

// The loop recomputes its poll timeout after every pass, so a timer armed
// from the driver thread itself must not write the wake-up eventfd; only a
// foreign thread's earlier deadline has to interrupt the poll.
TEST(TimerQueueTest, ScheduleFromDriverThreadDoesNotWake) {
  TimerQueue timers;
  std::atomic<int> wakeups{0};
  timers.set_wakeup([&] { ++wakeups; });
  timers.bind_driver();

  timers.schedule(50 * sim::kMillisecond, [] {});
  timers.schedule(0, [] {});  // a new earliest deadline, still no wake-up
  EXPECT_EQ(wakeups.load(), 0);

  std::thread foreign([&] { timers.schedule_at(0, [] {}); });
  foreign.join();
  EXPECT_EQ(wakeups.load(), 1);
}

// A cancelled timer at the top of the heap yields no deadline: the loop
// must neither sleep toward it nor wake for it (a completed client op
// cancels its 500 ms RPC timeout every time).
TEST(TimerQueueTest, CancelledTimerAtTopYieldsNoDeadline) {
  TimerQueue timers;
  sim::TimerHandle early = timers.schedule(10 * sim::kMillisecond, [] {});
  early.cancel();
  EXPECT_FALSE(timers.next_deadline().has_value());
  EXPECT_EQ(timers.pending(), 0u);

  early = timers.schedule(10 * sim::kMillisecond, [] {});
  timers.schedule(500 * sim::kMillisecond, [] {});
  const sim::Time live = *timers.next_deadline();
  early.cancel();
  ASSERT_TRUE(timers.next_deadline().has_value());
  EXPECT_GT(*timers.next_deadline(), live);
  EXPECT_EQ(timers.pending(), 1u);
}

TEST(TimerQueueTest, DeferredCallbacksRunInOneDrainInFifoOrder) {
  TimerQueue timers;
  timers.bind_driver();
  std::vector<int> ran;
  timers.defer([&] {
    ran.push_back(1);
    timers.defer([&] { ran.push_back(3); });  // same drain
  });
  sim::TimerHandle cancelled = timers.defer([&] { ran.push_back(99); });
  timers.defer([&] { ran.push_back(2); });
  cancelled.cancel();
  EXPECT_TRUE(ran.empty()) << "defer() must not run inline";
  EXPECT_EQ(timers.run_due(), 0u) << "deferred work is not a timer";
  EXPECT_EQ(timers.run_deferred(), 3u);
  EXPECT_EQ(ran, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(timers.run_deferred(), 0u);
}

// Off the driver thread there is no pass in hand to defer to: the callback
// becomes an immediate timer, which wakes the loop like any foreign one.
TEST(TimerQueueTest, ForeignThreadDeferBecomesAnImmediateTimer) {
  TimerQueue timers;
  timers.bind_driver();
  std::atomic<int> wakeups{0};
  timers.set_wakeup([&] { ++wakeups; });
  bool ran = false;
  std::thread foreign([&] { timers.defer([&] { ran = true; }); });
  foreign.join();
  EXPECT_EQ(wakeups.load(), 1);
  EXPECT_EQ(timers.run_deferred(), 0u);
  EXPECT_EQ(timers.run_due(), 1u);
  EXPECT_TRUE(ran);
}

// The Simulator has no wake-ups: defer() is an event at now(), behind the
// events already queued for that instant.
TEST(TimerQueueTest, SimulatorDeferRunsAfterTheCurrentInstantsEvents) {
  sim::Simulator simulator;
  EXPECT_FALSE(simulator.has_wakeups());
  EXPECT_TRUE(TimerQueue{}.has_wakeups());
  std::vector<int> ran;
  simulator.schedule(5, [&] {
    ran.push_back(1);
    simulator.defer([&] { ran.push_back(3); });
  });
  simulator.schedule(5, [&] { ran.push_back(2); });
  simulator.run_all();
  EXPECT_EQ(ran, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulator.now(), 5u);
}

// THE seam regression (satellite of the transport tentpole): an RPC timeout
// — and the retransmit it triggers — must fire under the real-time clock.
// RpcEngine historically assumed sim time; here the full path (send ->
// unreachable peer -> TimerQueue timeout on the loop thread -> retransmit ->
// peer now reachable -> response) runs against TcpTransport wall-clock time
// with NO simulator anywhere.
TEST(TimerQueueTest, RpcRetransmitFiresUnderRealTimeClock) {
  constexpr rpc::RequestType kEcho = 77;
  const NodeId kCaller{1};
  const NodeId kServer{2};

  TcpTransport caller_side;
  TcpTransport server_side;

  // The caller knows where the server WILL live, but nothing listens yet:
  // the first attempt must die by timeout.
  auto reserved = server_side.listen(kServer, 0);
  ASSERT_TRUE(reserved.is_ok());
  const std::uint16_t port = reserved.value();

  std::unique_ptr<rpc::RpcObject> caller;
  caller_side.run_sync([&] {
    caller = std::make_unique<rpc::RpcObject>(
        caller_side.clock(), caller_side, kCaller,
        net::NetStackParams::direct_io_native());
  });
  ASSERT_TRUE(caller_side.add_route(kServer, "127.0.0.1", port).is_ok());

  std::unique_ptr<rpc::RpcObject> server;
  server_side.run_sync([&] {
    server = std::make_unique<rpc::RpcObject>(
        server_side.clock(), server_side, kServer,
        net::NetStackParams::direct_io_native());
    server->register_handler(kEcho, [](rpc::RequestContext& ctx) {
      ctx.respond(ctx.payload);
    });
    // Simulate the server being down for the first attempt.
    server_side.crash(kServer);
  });

  auto done = std::make_shared<std::promise<std::pair<int, Bytes>>>();
  auto future = done->get_future();
  auto attempts = std::make_shared<int>(0);

  // Retransmitting sender: on timeout, bring the server back and resend.
  std::function<void()> attempt = [&caller, &server_side, kServer, done,
                                   attempts, &attempt] {
    ++*attempts;
    caller->send(
        kServer, kEcho, to_bytes("ping"),
        [done, attempts](NodeId /*src*/, Bytes payload) {
          done->set_value({*attempts, std::move(payload)});
        },
        /*timeout=*/50 * sim::kMillisecond,
        /*on_timeout=*/
        [&server_side, kServer, &attempt] {
          server_side.recover(kServer);  // the machine comes back
          attempt();                     // retransmit
        });
  };
  caller_side.run_sync([&] { attempt(); });

  ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  const auto [tries, payload] = future.get();
  EXPECT_GE(tries, 2) << "response must have required a retransmit";
  EXPECT_EQ(to_string(as_view(payload)), "ping");

  std::uint64_t timeouts = 0;
  caller_side.run_sync([&] { timeouts = caller->timeouts_fired(); });
  EXPECT_GE(timeouts, 1u) << "the retransmit must come from a REAL-clock "
                             "timeout, not a lucky fast path";

  caller_side.run_sync([&] { caller.reset(); });
  server_side.run_sync([&] { server.reset(); });
}

}  // namespace
}  // namespace recipe::transport
