// Discrete-event simulator: the clock and scheduler underneath every Recipe
// experiment.
//
// All components (network, TEE cost model, protocol timers, clients) schedule
// callbacks on a single Simulator through the sim::Clock interface it
// implements. Execution is single-threaded and deterministic: events at equal
// timestamps fire in scheduling order. Time is simulated nanoseconds; nothing
// ever reads the wall clock. (The real-socket deployments swap in
// transport::TimerQueue behind the same Clock interface.)
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "sim/clock.h"

namespace recipe::sim {

class Simulator final : public Clock {
 public:
  Time now() const override { return now_; }

  TimerHandle schedule_at(Time when, Callback fn) override;
  TimerHandle defer(Callback fn) override {
    return schedule_at(now_, std::move(fn));
  }
  bool has_wakeups() const override { return false; }

  // Runs events until the queue drains or the time limit is passed.
  // Returns the number of events executed.
  std::size_t run_until(Time deadline);
  std::size_t run_for(Time duration) { return run_until(now_ + duration); }

  // Runs every pending event (use only when the event set is finite).
  std::size_t run_all();

  // Executes the single next event, if any. Returns false when idle.
  bool step();

  bool idle() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }

 private:
  struct Event {
    Time when;
    std::uint64_t seq;  // tie-breaker: FIFO among same-time events
    Callback fn;
    std::shared_ptr<bool> cancelled;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  Time now_{0};
  std::uint64_t next_seq_{0};
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace recipe::sim
