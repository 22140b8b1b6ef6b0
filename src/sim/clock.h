// Clock: the time-and-timers seam between the protocol stack and its
// execution substrate.
//
// Every component that used to reach for the discrete-event Simulator
// directly (RPC timeouts, batch flush delays, heartbeats, lease expiry,
// recovery polls) schedules against this interface instead. Two
// implementations exist:
//   * sim::Simulator       — deterministic simulated time (tests, figures);
//   * transport::TimerQueue — real steady-clock time, driven by a
//     TcpTransport's epoll loop (the real-socket deployments).
// Time stays in nanoseconds in both, so cost models, timeouts and batching
// knobs mean the same thing under either clock source.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

namespace recipe::sim {

// Time in nanoseconds since the clock's epoch (simulation start, or the
// real-time clock's construction).
using Time = std::uint64_t;

constexpr Time kNanosecond = 1;
constexpr Time kMicrosecond = 1000 * kNanosecond;
constexpr Time kMillisecond = 1000 * kMicrosecond;
constexpr Time kSecond = 1000 * kMillisecond;

// Handle to a scheduled event; allows cancellation (e.g., resetting an
// election timeout). Cheap to copy; cancellation after firing is a no-op.
// The shared flag is written under the owning clock's scheduling discipline:
// single-threaded for the Simulator, mutex-protected for TimerQueue.
class TimerHandle {
 public:
  TimerHandle() = default;

  void cancel() {
    if (auto p = cancelled_.lock()) *p = true;
  }
  bool valid() const { return !cancelled_.expired(); }

 private:
  friend class Simulator;
  friend TimerHandle make_timer_handle(std::weak_ptr<bool>);
  explicit TimerHandle(std::weak_ptr<bool> flag)
      : cancelled_(std::move(flag)) {}
  std::weak_ptr<bool> cancelled_;
};

// Other Clock implementations mint handles through this instead of being
// enumerated as friends.
inline TimerHandle make_timer_handle(std::weak_ptr<bool> flag) {
  return TimerHandle{std::move(flag)};
}

// Contract (both implementations):
//  * Thread safety — now()/schedule_at()/schedule() are callable from any
//    thread; defer() belongs on the driving thread (a real clock treats a
//    foreign-thread defer() as schedule_at(now())). Callbacks always FIRE
//    on the clock's driving thread (the simulator's event loop, or the
//    owning transport shard's epoll loop), never on the scheduling thread,
//    and never concurrently with each other on the same clock. Under a
//    sharded transport, schedule against the endpoint's home-shard clock
//    (ShardedTcpTransport::clock_for) so the callback lands on the loop
//    that owns the endpoint's state.
//  * Ownership — the clock owns the callback until it fires or the clock
//    is destroyed; cancel() only marks the shared flag, it does not free
//    the callback early. Captured state must outlive the clock or be
//    cancelled first: destroying a node with armed timers and letting them
//    fire is the classic use-after-free (node destructors cancel).
//  * Errors — scheduling never fails. A `when` in the past is clamped to
//    "immediately" by real clocks; the Simulator asserts, because a past
//    event under deterministic time is always a caller bug.
class Clock {
 public:
  using Callback = std::function<void()>;

  virtual ~Clock() = default;

  virtual Time now() const = 0;

  // Schedules `fn` to run at `when` (clamped to now for past times by real
  // clocks; the Simulator asserts instead). Returns a cancellable handle.
  virtual TimerHandle schedule_at(Time when, Callback fn) = 0;

  // Schedules `fn` to run at now() + delay.
  TimerHandle schedule(Time delay, Callback fn) {
    return schedule_at(now() + delay, std::move(fn));
  }

  // Runs `fn` on the driving thread after the work in hand and before that
  // thread blocks again; cancellable like a timer. Deferred callbacks run in
  // FIFO order, and one deferred from inside another runs in the same drain.
  // On a real clock this is the end of one event-loop wake-up (after its
  // socket events, posted tasks and due timers); on the Simulator, which
  // never blocks, it is an event at now() behind those already queued.
  virtual TimerHandle defer(Callback fn) = 0;

  // True when the driving thread sleeps between wake-ups, so defer() marks
  // a wake-up boundary worth batching up to (TimerQueue). False for the
  // Simulator: simulated time has no wake-ups, only events.
  virtual bool has_wakeups() const = 0;
};

}  // namespace recipe::sim
