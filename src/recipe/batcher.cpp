#include "recipe/batcher.h"

#include <algorithm>

#include "obs/flight_recorder.h"

namespace recipe {

MessageBatcher::MessageBatcher(sim::Clock& clock, BatchConfig config,
                               FlushFn flush)
    : clock_(clock), config_(config), flush_(std::move(flush)) {
  // A floor above the ceiling would make the adaptive walk oscillate.
  config_.min_delay = std::min(config_.min_delay, config_.max_delay);
  config_.max_count = std::max<std::size_t>(config_.max_count, 1);
  config_.max_bytes = std::max<std::size_t>(config_.max_bytes, 1);
}

MessageBatcher::~MessageBatcher() { cancel_all(); }

void MessageBatcher::enqueue(NodeId peer, std::uint8_t kind,
                             std::uint32_t type, std::uint64_t rpc_id,
                             BytesView payload) {
  Pending& pending = pending_[peer];
  if (pending.delay == 0 && config_.max_delay > 0) {
    // First traffic to this peer starts at the ceiling (the RTT budget when
    // pacing already has samples, max_delay otherwise).
    pending.delay = delay_ceiling(pending);
  }
  if (pending.frame.empty()) {
    pending.frame.reserve(std::min<std::size_t>(config_.max_bytes, 8 * 1024));
  }
  const bool was_empty = pending.frame.empty();
  pending.frame.add(kind, type, rpc_id, payload);
  buffered_bytes_.fetch_add(kBatchItemOverhead + payload.size(),
                            std::memory_order_relaxed);
  messages_batched_.fetch_add(1, std::memory_order_relaxed);
  if (was_empty) {
    pending.first_enqueue_ns = obs::FlightRecorder::global().enabled()
                                   ? obs::FlightRecorder::now_ns()
                                   : 0;
  }

  if (pending.frame.count() >= config_.max_count ||
      pending.frame.body_bytes() >= config_.max_bytes) {
    flush_pending(peer, pending, Cause::kSize);
    return;
  }
  if (pending.frame.count() == 1) arm_flush(peer, pending);
}

void MessageBatcher::arm_flush(NodeId peer, Pending& pending) {
  if (clock_.has_wakeups()) {
    if (wakeup_armed_) return;
    wakeup_armed_ = true;
    wakeup_flush_ = clock_.defer([this] {
      // Disarmed first: a flush that re-enters enqueue() for another peer
      // arms the next deferral, which runs in this same drain.
      wakeup_armed_ = false;
      for (NodeId p : nonempty_peers()) flush(p, Cause::kWakeup);
    });
    return;
  }
  // The drain timer; max_delay == 0 degenerates to "coalesce everything
  // enqueued by the current simulation event".
  pending.timer = clock_.schedule(pending.delay, [this, peer] {
    flush(peer, Cause::kTimer);
  });
}

std::vector<NodeId> MessageBatcher::nonempty_peers() const {
  // A snapshot: flush_ may re-enter enqueue(), and a pending_ insertion
  // mid-iteration would invalidate a live iterator.
  std::vector<NodeId> peers;
  peers.reserve(pending_.size());
  for (const auto& [peer, pending] : pending_) {
    if (!pending.frame.empty()) peers.push_back(peer);
  }
  return peers;
}

void MessageBatcher::flush(NodeId peer) { flush(peer, Cause::kSize); }

void MessageBatcher::flush(NodeId peer, Cause cause) {
  const auto it = pending_.find(peer);
  if (it == pending_.end() || it->second.frame.empty()) return;
  flush_pending(peer, it->second, cause);
}

void MessageBatcher::flush_all() {
  for (NodeId peer : nonempty_peers()) flush(peer);
}

void MessageBatcher::cancel_all() {
  for (auto& [peer, pending] : pending_) pending.timer.cancel();
  wakeup_flush_.cancel();
  wakeup_armed_ = false;
  pending_.clear();
  buffered_bytes_.store(0, std::memory_order_relaxed);
}

sim::Time MessageBatcher::current_delay(NodeId peer) const {
  const auto it = pending_.find(peer);
  if (it == pending_.end()) return config_.max_delay;
  if (it->second.delay == 0) return delay_ceiling(it->second);
  return it->second.delay;
}

void MessageBatcher::record_rtt(NodeId peer, sim::Time rtt) {
  Pending& pending = pending_[peer];
  const double sample = static_cast<double>(rtt);
  pending.rtt_ewma = pending.rtt_ewma == 0.0
                         ? sample
                         : pending.rtt_ewma +
                               config_.rtt_alpha * (sample - pending.rtt_ewma);
  // A shrunken round trip pulls an over-budget delay back under it
  // immediately; growth is left to the occupancy walk, which only spends
  // the larger budget when timer flushes show the patience pays.
  pending.delay = std::min(pending.delay, delay_ceiling(pending));
}

sim::Time MessageBatcher::delay_ceiling(const Pending& pending) const {
  if (config_.rtt_fraction <= 0.0 || pending.rtt_ewma == 0.0 ||
      config_.max_delay == 0) {
    return config_.max_delay;
  }
  // The RTT budget: a flush wait no longer than this fraction of the
  // measured round trip stays hidden inside it. The 1 ns floor keeps clear
  // of the delay==0 sentinel.
  const auto paced =
      static_cast<sim::Time>(pending.rtt_ewma * config_.rtt_fraction);
  return std::clamp(paced, std::max(config_.min_delay, sim::Time{1}),
                    config_.max_delay);
}

sim::Time MessageBatcher::rtt_ewma(NodeId peer) const {
  const auto it = pending_.find(peer);
  return it == pending_.end() ? 0
                              : static_cast<sim::Time>(it->second.rtt_ewma);
}

void MessageBatcher::flush_pending(NodeId peer, Pending& pending,
                                   Cause cause) {
  pending.timer.cancel();
  const std::size_t count = pending.frame.count();
  Bytes body = pending.frame.take_body();
  buffered_bytes_.fetch_sub(body.size() - kBatchCountSize,
                            std::memory_order_relaxed);
  batches_flushed_.fetch_add(1, std::memory_order_relaxed);
  switch (cause) {
    case Cause::kSize:
      flushes_by_size_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Cause::kTimer:
      flushes_by_timer_.fetch_add(1, std::memory_order_relaxed);
      adapt(pending, count);  // only a timed wait has a delay to tune
      break;
    case Cause::kWakeup:
      flushes_by_wakeup_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  if (pending.first_enqueue_ns != 0) {
    // Queue-wait span: oldest sub-message enqueue -> this flush.
    obs::FlightRecorder::global().record(
        obs::SpanKind::kBatchQueueWait, /*rpc_id=*/0, /*actor=*/peer.value,
        pending.first_enqueue_ns, obs::FlightRecorder::now_ns(),
        /*detail=*/count);
    pending.first_enqueue_ns = 0;
  }
  // flush_ may re-enter enqueue() for a DIFFERENT peer (it never sends back
  // through the batcher to the same flush), after this peer's state is clean.
  flush_(peer, std::move(body), count);
}

void MessageBatcher::adapt(Pending& pending, std::size_t flushed_count) {
  if (!config_.adaptive || config_.max_delay == 0) return;
  if (flushed_count <= std::max<std::size_t>(config_.max_count / 4, 1)) {
    // The wait bought (almost) nothing: stop taxing sparse traffic. Floor at
    // 1 ns: delay == 0 is the "uninitialized" sentinel in Pending.
    pending.delay =
        std::max({config_.min_delay, pending.delay / 2, sim::Time{1}});
  } else {
    // Nearly full at the deadline: a little more patience fills the frame —
    // up to the RTT budget, past which the wait would poke out of the round
    // trip and show up as client latency.
    pending.delay = std::min(delay_ceiling(pending), pending.delay * 2);
  }
}

}  // namespace recipe
