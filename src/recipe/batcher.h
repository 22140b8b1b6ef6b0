// Adaptive shielded message batching (ROADMAP: batching + async for heavy
// small-op traffic).
//
// PR 2 made one shield/verify round trip cheap; what remains on the small-KV
// hot path is PER-MESSAGE overhead: a full frame header, a MAC, a trusted
// counter increment, a replay-window slot and the fixed per-packet network
// cost (NetStackParams::*_cpu_base, the 64-byte Packet::wire_size() header).
// MessageBatcher amortizes all of these: sub-messages destined for the same
// peer are coalesced into one BatchFrame body and flushed as a SINGLE
// shielded frame — one header, one counter/nonce, one MAC, one packet.
//
// Flush policy (per peer): a batch leaves when it holds max_count
// sub-messages or max_bytes of encoded body, or else at its clock's next
// flush point, so batches always drain:
//  * on a clock with wake-ups (transport::TimerQueue, real sockets) that is
//    the end of the current event-loop wake-up (sim::Clock::defer): every
//    message produced while handling one burst of socket events, posted
//    tasks and due timers leaves together, before the loop sleeps again —
//    no timer, no added wait;
//  * on the Simulator, which has no wake-ups, it is the max_delay timer
//    armed by the oldest sub-message, timed by the rules below.
// With `adaptive` set the per-peer delay self-tunes between min_delay and
// max_delay: timer flushes that caught almost nothing halve the delay (don't
// hold lone messages hostage), timer flushes that nearly filled the batch
// grow it back (a little more patience buys a full frame). Size/count and
// wake-up flushes leave the delay alone — under dense traffic the timer
// never fires.
//
// RTT pacing (`rtt_fraction` > 0): the MEASURED per-peer round-trip time
// sets the CEILING the occupancy walk may grow the delay to — the owner
// feeds response RTTs into record_rtt(), an EWMA smooths them, and the
// per-peer delay budget becomes rtt_ewma * rtt_fraction (clamped to
// [min_delay, max_delay]). The rationale: a flush delay is invisible while
// it hides inside the network round trip ahead of it, so the budget is the
// largest wait the latency budget allows — on a fast loopback it collapses
// toward min_delay, across a real network it stretches toward max_delay.
// The occupancy walk stays active UNDER the budget (sparse timer flushes
// still halve the delay so straggler traffic drains fast); only its growth
// is capped, and a shrinking RTT pulls an over-budget delay back down
// immediately.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/ids.h"
#include "recipe/message.h"
#include "sim/clock.h"

namespace recipe {

struct BatchConfig {
  bool enabled = false;  // default off: unbatched wire format, golden-pinned
  std::size_t max_count = 16;
  std::size_t max_bytes = 32 * 1024;
  // The delay knobs below time the flush only on clocks without wake-ups
  // (the Simulator); a real-time clock flushes at the end of the wake-up.
  sim::Time max_delay = 10 * sim::kMicrosecond;
  sim::Time min_delay = 1 * sim::kMicrosecond;  // adaptive floor
  bool adaptive = true;
  // RTT pacing: when > 0, a peer's flush-delay CEILING is re-paced to
  // rtt_ewma(peer) * rtt_fraction (clamped to [min_delay, max_delay]); the
  // occupancy walk adapts underneath it. 0 (default) keeps the fixed
  // max_delay ceiling and the exact historical flush timing.
  double rtt_fraction = 0.0;
  // EWMA smoothing weight for new RTT samples (0 < alpha <= 1).
  double rtt_alpha = 0.2;
  // Minimum spacing between the owner's pacing probes to one peer. Tracked
  // protocol traffic feeds record_rtt() for free, but fire-and-forward
  // protocols (CR's chain, AllConcur's rounds) never see an RPC response;
  // with rtt_fraction > 0 the node keeps every paced link measured by
  // sending a tiny tracked probe (an unbatched shielded frame) at most this
  // often. Clocks with wake-ups arm no delay timer and send no probes.
  sim::Time rtt_probe_period = 1 * sim::kMillisecond;
};

class MessageBatcher {
 public:
  // Invoked with the finalized batch body when a peer's batch flushes; the
  // owner shields it (SecurityPolicy::shield_batch) and ships one frame.
  using FlushFn = std::function<void(NodeId peer, Bytes body,
                                     std::size_t count)>;

  MessageBatcher(sim::Clock& clock, BatchConfig config, FlushFn flush);
  ~MessageBatcher();

  MessageBatcher(const MessageBatcher&) = delete;
  MessageBatcher& operator=(const MessageBatcher&) = delete;

  bool enabled() const { return config_.enabled; }
  const BatchConfig& config() const { return config_; }

  // Appends one sub-message to `peer`'s pending batch and applies the flush
  // policy. Call only when enabled().
  void enqueue(NodeId peer, std::uint8_t kind, std::uint32_t type,
               std::uint64_t rpc_id, BytesView payload);

  // Flushes a peer's pending batch immediately (no-op when empty).
  void flush(NodeId peer);
  void flush_all();

  // Drops all pending batches WITHOUT flushing and cancels timers (node
  // crash: nothing more may leave this node).
  void cancel_all();

  // Bytes currently buffered across all peers (enclave working-set model).
  std::size_t buffered_bytes() const {
    return buffered_bytes_.load(std::memory_order_relaxed);
  }

  // The adaptive delay currently applied to `peer` (max_delay when the peer
  // has no history yet).
  sim::Time current_delay(NodeId peer) const;

  // Feeds one measured response round-trip time for `peer` into the pacing
  // EWMA. With rtt_fraction > 0 this re-paces the peer's flush-delay budget;
  // with the default 0 it only records (rtt_ewma() stays observable either
  // way).
  void record_rtt(NodeId peer, sim::Time rtt);

  // The smoothed RTT for `peer` (0 when no samples were recorded).
  sim::Time rtt_ewma(NodeId peer) const;

  // --- Statistics ------------------------------------------------------------
  // Written on the owner's loop thread; relaxed atomics so a metrics scrape
  // from the admin thread reads them without a race.
  std::uint64_t messages_batched() const {
    return messages_batched_.load(std::memory_order_relaxed);
  }
  std::uint64_t batches_flushed() const {
    return batches_flushed_.load(std::memory_order_relaxed);
  }
  std::uint64_t flushes_by_size() const {
    return flushes_by_size_.load(std::memory_order_relaxed);
  }
  std::uint64_t flushes_by_timer() const {
    return flushes_by_timer_.load(std::memory_order_relaxed);
  }
  std::uint64_t flushes_by_wakeup() const {
    return flushes_by_wakeup_.load(std::memory_order_relaxed);
  }

 private:
  struct Pending {
    BatchFrame frame;
    sim::TimerHandle timer;
    sim::Time delay{0};      // adaptive per-peer delay; 0 = not initialized
    double rtt_ewma{0.0};    // smoothed response RTT in ns; 0 = no samples
    // Wall-clock of the oldest queued sub-message, captured only while the
    // flight recorder is enabled; feeds the kBatchQueueWait span.
    std::uint64_t first_enqueue_ns{0};
  };

  enum class Cause : std::uint8_t { kSize, kTimer, kWakeup };

  // Arms the peer's flush point for its first pending sub-message.
  void arm_flush(NodeId peer, Pending& pending);
  // Peers with a non-empty batch, snapshotted.
  std::vector<NodeId> nonempty_peers() const;
  void flush(NodeId peer, Cause cause);
  void flush_pending(NodeId peer, Pending& pending, Cause cause);
  void adapt(Pending& pending, std::size_t flushed_count);
  // The largest delay the occupancy walk may grow to for this peer: the
  // RTT budget when pacing is on and samples exist, max_delay otherwise.
  sim::Time delay_ceiling(const Pending& pending) const;

  sim::Clock& clock_;
  BatchConfig config_;
  FlushFn flush_;
  std::unordered_map<NodeId, Pending> pending_;
  // Clocks with wake-ups: ONE deferred flush per wake-up covers every peer.
  sim::TimerHandle wakeup_flush_;
  bool wakeup_armed_{false};
  std::atomic<std::size_t> buffered_bytes_{0};

  std::atomic<std::uint64_t> messages_batched_{0};
  std::atomic<std::uint64_t> batches_flushed_{0};
  std::atomic<std::uint64_t> flushes_by_size_{0};
  std::atomic<std::uint64_t> flushes_by_timer_{0};
  std::atomic<std::uint64_t> flushes_by_wakeup_{0};
};

}  // namespace recipe
