// TimerQueue: the real-time sim::Clock implementation behind TcpTransport.
//
// Same contract as the Simulator's scheduler — nanosecond Time, cancellable
// TimerHandles, FIFO among equal deadlines — but `now()` reads the OS
// steady clock and callbacks fire on the owning transport's event-loop
// thread, never concurrently. That keeps the stack's timer discipline
// identical under both substrates: protocol code schedules against
// sim::Clock and cannot tell which one it got.
//
// Threading: schedule_at() may be called from any thread; a call from a
// thread other than the driver (bind_driver()) wakes the loop through
// `wakeup` when the new deadline becomes the earliest. The driver itself
// never needs waking — its loop recomputes the timeout before it waits.
// defer(), run_due(), run_deferred() and TimerHandle::cancel() stay on the
// loop thread — cancellation flags are plain bools shared with the
// Simulator's handles.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <thread>
#include <vector>

#include "sim/clock.h"

namespace recipe::transport {

class TimerQueue final : public sim::Clock {
 public:
  TimerQueue() : epoch_(std::chrono::steady_clock::now()) {}

  // Nanoseconds since this queue's construction.
  sim::Time now() const override {
    return static_cast<sim::Time>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  sim::TimerHandle schedule_at(sim::Time when, Callback fn) override;
  // Queues `fn` for run_deferred(), the end of the current loop pass.
  sim::TimerHandle defer(Callback fn) override;
  bool has_wakeups() const override { return true; }

  // Invoked (from the scheduling thread, outside the lock) whenever a timer
  // scheduled off the driver thread became the earliest deadline — the
  // event loop uses it to interrupt its poll and recompute the timeout.
  void set_wakeup(Callback wakeup) { wakeup_ = std::move(wakeup); }

  // Marks the calling thread as the one that drives this queue (the event
  // loop). Until then every thread counts as foreign.
  void bind_driver() {
    driver_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  }

  // Earliest live deadline, or nullopt when no timers are armed. Cancelled
  // timers at the top of the heap are dropped first, so the loop never
  // sleeps toward (and wakes for) a deadline nobody waits on. Loop thread
  // only, like cancel().
  std::optional<sim::Time> next_deadline();

  // Runs every callback due at now(). Loop thread only; callbacks may
  // re-enter schedule_at()/cancel(). Returns the number fired.
  std::size_t run_due();

  // Runs every deferred callback, including those deferred while draining.
  // Loop thread only. Returns the number run.
  std::size_t run_deferred();

  // Armed timers, cancelled ones not yet dropped included.
  std::size_t pending() const;

 private:
  struct Entry {
    sim::Time when;
    std::uint64_t seq;
    Callback fn;
    std::shared_ptr<bool> cancelled;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  bool on_driver() const {
    return driver_.load(std::memory_order_relaxed) ==
           std::this_thread::get_id();
  }

  std::chrono::steady_clock::time_point epoch_;
  Callback wakeup_;
  std::atomic<std::thread::id> driver_{};
  mutable std::mutex mu_;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::uint64_t next_seq_{0};
  // defer()red callbacks; the driver thread is the only one to touch them.
  std::vector<Entry> deferred_;
};

}  // namespace recipe::transport
