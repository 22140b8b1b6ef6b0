#include "transport/timer_queue.h"

namespace recipe::transport {

sim::TimerHandle TimerQueue::schedule_at(sim::Time when, Callback fn) {
  auto flag = std::make_shared<bool>(false);
  sim::TimerHandle handle = sim::make_timer_handle(std::weak_ptr<bool>(flag));
  // The driver recomputes its poll timeout after every pass, so only a
  // foreign thread's new earliest deadline needs to interrupt the poll.
  const bool foreign = !on_driver();
  bool became_earliest = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    became_earliest = queue_.empty() || when < queue_.top().when;
    queue_.push(Entry{when, next_seq_++, std::move(fn), std::move(flag)});
  }
  if (foreign && became_earliest && wakeup_) wakeup_();
  return handle;
}

sim::TimerHandle TimerQueue::defer(Callback fn) {
  // No pass of this loop is in hand on a foreign thread: the nearest
  // equivalent is an immediate timer (which wakes the loop).
  if (!on_driver()) return schedule_at(now(), std::move(fn));
  auto flag = std::make_shared<bool>(false);
  sim::TimerHandle handle = sim::make_timer_handle(std::weak_ptr<bool>(flag));
  deferred_.push_back(Entry{0, 0, std::move(fn), std::move(flag)});
  return handle;
}

std::optional<sim::Time> TimerQueue::next_deadline() {
  // Declared before the lock: dropped callbacks are destroyed after it is
  // released, so a destructor that schedules cannot deadlock.
  std::vector<Entry> dropped;
  std::lock_guard<std::mutex> lock(mu_);
  // Cancellation flags are only written on this thread (see run_due()).
  while (!queue_.empty() && *queue_.top().cancelled) {
    dropped.push_back(std::move(const_cast<Entry&>(queue_.top())));
    queue_.pop();
  }
  if (queue_.empty()) return std::nullopt;
  return queue_.top().when;
}

std::size_t TimerQueue::run_due() {
  std::size_t fired = 0;
  for (;;) {
    Entry entry;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.empty() || queue_.top().when > now()) break;
      entry = std::move(const_cast<Entry&>(queue_.top()));
      queue_.pop();
    }
    // The cancellation flag is only written on this thread (loop-affine
    // handles), so reading it outside the lock is safe.
    if (*entry.cancelled) continue;
    entry.fn();
    ++fired;
  }
  return fired;
}

std::size_t TimerQueue::run_deferred() {
  std::size_t ran = 0;
  // Index, not iterator: callbacks may defer() more, growing the vector.
  for (std::size_t i = 0; i < deferred_.size(); ++i) {
    Entry entry = std::move(deferred_[i]);
    if (*entry.cancelled) continue;
    entry.fn();
    ++ran;
  }
  deferred_.clear();
  return ran;
}

std::size_t TimerQueue::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace recipe::transport
