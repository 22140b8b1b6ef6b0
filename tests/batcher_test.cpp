// MessageBatcher flush-policy tests (max-count / max-bytes / max-delay /
// adaptive) plus end-to-end batching through a live protocol cluster.
#include <gtest/gtest.h>

#include <vector>

#include "cluster_harness.h"
#include "protocols/cr/cr.h"
#include "protocols/craq/craq.h"
#include "protocols/raft/raft.h"
#include "recipe/batcher.h"
#include "transport/timer_queue.h"

namespace recipe {
namespace {

using testing::Cluster;

struct Flushed {
  NodeId peer;
  std::size_t count;
  Bytes body;
};

struct BatcherFixture {
  sim::Simulator sim;
  std::vector<Flushed> flushed;

  MessageBatcher make(BatchConfig config) {
    config.enabled = true;
    return MessageBatcher(sim, config, [this](NodeId peer, Bytes body,
                                              std::size_t count) {
      flushed.push_back(Flushed{peer, count, std::move(body)});
    });
  }
};

TEST(Batcher, FlushesOnMaxCount) {
  BatcherFixture fx;
  BatchConfig config;
  config.max_count = 4;
  config.max_delay = sim::kSecond;  // timer effectively disabled
  auto batcher = fx.make(config);

  const Bytes payload = to_bytes("abc");
  for (int i = 0; i < 9; ++i) {
    batcher.enqueue(NodeId{2}, BatchItem::kKindRequest, 7, i, as_view(payload));
  }
  ASSERT_EQ(fx.flushed.size(), 2u);  // two full batches, one pending
  EXPECT_EQ(fx.flushed[0].count, 4u);
  EXPECT_EQ(fx.flushed[1].count, 4u);
  EXPECT_EQ(batcher.flushes_by_size(), 2u);
  EXPECT_EQ(batcher.buffered_bytes(), kBatchItemOverhead + payload.size());

  auto view = BatchView::parse(as_view(fx.flushed[0].body));
  ASSERT_TRUE(view.is_ok());
  ASSERT_EQ(view.value().size(), 4u);
  EXPECT_EQ(view.value()[2].rpc_id, 2u);

  batcher.flush_all();
  ASSERT_EQ(fx.flushed.size(), 3u);
  EXPECT_EQ(fx.flushed[2].count, 1u);
  EXPECT_EQ(batcher.buffered_bytes(), 0u);
}

TEST(Batcher, FlushesOnMaxBytes) {
  BatcherFixture fx;
  BatchConfig config;
  config.max_count = 1000;
  config.max_bytes = 256;
  config.max_delay = sim::kSecond;
  auto batcher = fx.make(config);

  const Bytes payload(100, 0xAA);
  for (int i = 0; i < 3; ++i) {
    batcher.enqueue(NodeId{2}, BatchItem::kKindRequest, 7, i, as_view(payload));
  }
  // 4 + 3*(17+100) = 355 >= 256 crossed on the third item.
  ASSERT_EQ(fx.flushed.size(), 1u);
  EXPECT_EQ(fx.flushed[0].count, 3u);
}

TEST(Batcher, TimerDrainsStragglers) {
  BatcherFixture fx;
  BatchConfig config;
  config.max_count = 100;
  config.max_delay = 10 * sim::kMicrosecond;
  config.adaptive = false;
  auto batcher = fx.make(config);

  batcher.enqueue(NodeId{2}, BatchItem::kKindRequest, 7, 1,
                  as_view(to_bytes("x")));
  batcher.enqueue(NodeId{3}, BatchItem::kKindResponse, 8, 2,
                  as_view(to_bytes("y")));
  EXPECT_TRUE(fx.flushed.empty());
  fx.sim.run_for(10 * sim::kMicrosecond);
  ASSERT_EQ(fx.flushed.size(), 2u);
  EXPECT_EQ(batcher.flushes_by_timer(), 2u);
  // Per-peer batches: each peer got its own frame.
  EXPECT_NE(fx.flushed[0].peer, fx.flushed[1].peer);
}

TEST(Batcher, AdaptiveDelayShrinksOnSparseTrafficAndRecovers) {
  BatcherFixture fx;
  BatchConfig config;
  config.max_count = 16;
  config.max_delay = 64 * sim::kMicrosecond;
  config.min_delay = 4 * sim::kMicrosecond;
  config.adaptive = true;
  auto batcher = fx.make(config);

  const NodeId peer{2};
  EXPECT_EQ(batcher.current_delay(peer), 64 * sim::kMicrosecond);
  // Lone messages flushed by timer: delay halves 64 -> 32 -> 16 -> 8 -> 4,
  // then floors at min_delay.
  for (int i = 0; i < 6; ++i) {
    batcher.enqueue(peer, BatchItem::kKindRequest, 7, i,
                    as_view(to_bytes("x")));
    fx.sim.run_for(sim::kSecond);
  }
  EXPECT_EQ(batcher.current_delay(peer), 4 * sim::kMicrosecond);

  // Near-full timer flushes grow it back toward max_delay.
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 12; ++i) {  // 12 < max_count: timer flush, > 1/4 full
      batcher.enqueue(peer, BatchItem::kKindRequest, 7, i,
                      as_view(to_bytes("x")));
    }
    fx.sim.run_for(sim::kSecond);
  }
  EXPECT_EQ(batcher.current_delay(peer), 64 * sim::kMicrosecond);
}

TEST(Batcher, RttEwmaSmoothsSamplesAndStaysObservable) {
  BatcherFixture fx;
  BatchConfig config;
  config.rtt_alpha = 0.5;  // round numbers
  auto batcher = fx.make(config);

  const NodeId peer{2};
  EXPECT_EQ(batcher.rtt_ewma(peer), 0u);
  batcher.record_rtt(peer, 40 * sim::kMicrosecond);
  EXPECT_EQ(batcher.rtt_ewma(peer), 40 * sim::kMicrosecond);
  batcher.record_rtt(peer, 80 * sim::kMicrosecond);
  // 40 + 0.5 * (80 - 40) = 60.
  EXPECT_EQ(batcher.rtt_ewma(peer), 60 * sim::kMicrosecond);
  // rtt_fraction defaults to 0: samples are recorded but the flush timing
  // stays the golden-pinned occupancy behavior.
  EXPECT_EQ(batcher.current_delay(peer), config.max_delay);
}

TEST(Batcher, RttBudgetCapsGrowthAndOccupancyStillShrinks) {
  BatcherFixture fx;
  BatchConfig config;
  config.max_count = 16;
  config.max_delay = 64 * sim::kMicrosecond;
  config.min_delay = 4 * sim::kMicrosecond;
  config.adaptive = true;
  config.rtt_fraction = 0.5;
  config.rtt_alpha = 1.0;  // budget follows the latest sample exactly
  auto batcher = fx.make(config);

  const NodeId peer{2};
  // Budget = 60us * 0.5 = 30us; first traffic starts AT the budget, not at
  // max_delay.
  batcher.record_rtt(peer, 60 * sim::kMicrosecond);
  EXPECT_EQ(batcher.current_delay(peer), 30 * sim::kMicrosecond);

  // A lone message flushed by timer still halves the delay: the occupancy
  // walk stays reactive UNDER the budget so stragglers drain fast.
  batcher.enqueue(peer, BatchItem::kKindRequest, 7, 1, as_view(to_bytes("x")));
  fx.sim.run_for(sim::kSecond);
  EXPECT_EQ(batcher.current_delay(peer), 15 * sim::kMicrosecond);

  // Near-full timer flushes grow it back — but only up to the 30us budget,
  // never to the 64us ceiling a longer wait would poke out of the RTT.
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 12; ++i) {  // 12 < max_count: timer flush, > 1/4 full
      batcher.enqueue(peer, BatchItem::kKindRequest, 7, i,
                      as_view(to_bytes("x")));
    }
    fx.sim.run_for(sim::kSecond);
  }
  EXPECT_EQ(batcher.current_delay(peer), 30 * sim::kMicrosecond);

  // The RTT stretching (congestion, a real WAN) raises the budget toward
  // max_delay and the walk may now spend it...
  batcher.record_rtt(peer, sim::kSecond);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 12; ++i) {
      batcher.enqueue(peer, BatchItem::kKindRequest, 7, i,
                      as_view(to_bytes("x")));
    }
    fx.sim.run_for(sim::kSecond);
  }
  EXPECT_EQ(batcher.current_delay(peer), 64 * sim::kMicrosecond);

  // ...and a collapsing RTT pulls an over-budget delay back down on the
  // very next sample (floored at min_delay).
  batcher.record_rtt(peer, 1 * sim::kMicrosecond);
  EXPECT_EQ(batcher.current_delay(peer), 4 * sim::kMicrosecond);
}

TEST(Batcher, CancelAllDropsPendingWithoutFlushing) {
  BatcherFixture fx;
  BatchConfig config;
  config.max_delay = 10 * sim::kMicrosecond;
  auto batcher = fx.make(config);

  batcher.enqueue(NodeId{2}, BatchItem::kKindRequest, 7, 1,
                  as_view(to_bytes("x")));
  batcher.cancel_all();
  fx.sim.run_for(sim::kSecond);
  EXPECT_TRUE(fx.flushed.empty());
  EXPECT_EQ(batcher.buffered_bytes(), 0u);
}

// --- Wake-up flush (clocks with wake-ups) -----------------------------------

MessageBatcher make_on(transport::TimerQueue& timers, BatchConfig config,
                       std::vector<Flushed>& flushed) {
  config.enabled = true;
  return MessageBatcher(timers, config, [&flushed](NodeId peer, Bytes body,
                                                   std::size_t count) {
    flushed.push_back(Flushed{peer, count, std::move(body)});
  });
}

// On a real-time clock a batch leaves at the end of the loop pass that
// filled it: ONE deferred flush covers every peer, no delay timer is armed,
// and the adaptive delay does not walk.
TEST(Batcher, WakeupClockFlushesEveryPeerAtTheEndOfThePass) {
  transport::TimerQueue timers;
  timers.bind_driver();
  std::vector<Flushed> flushed;
  BatchConfig config;
  config.max_delay = sim::kSecond;
  auto batcher = make_on(timers, config, flushed);

  const Bytes payload = to_bytes("abc");
  for (int i = 0; i < 3; ++i) {
    batcher.enqueue(NodeId{2}, BatchItem::kKindRequest, 7, i, as_view(payload));
  }
  batcher.enqueue(NodeId{3}, BatchItem::kKindRequest, 7, 9, as_view(payload));
  EXPECT_TRUE(flushed.empty());
  EXPECT_EQ(timers.pending(), 0u) << "no delay timer on a wake-up clock";

  EXPECT_EQ(timers.run_deferred(), 1u);
  ASSERT_EQ(flushed.size(), 2u);
  std::size_t messages = 0;
  for (const Flushed& f : flushed) messages += f.count;
  EXPECT_EQ(messages, 4u);
  EXPECT_EQ(batcher.flushes_by_wakeup(), 2u);
  EXPECT_EQ(batcher.flushes_by_timer(), 0u);
  EXPECT_EQ(batcher.current_delay(NodeId{2}), sim::kSecond);
  EXPECT_EQ(batcher.buffered_bytes(), 0u);
}

// The deferred flush dies with the pending batches: after cancel_all() (a
// crash) and after the batcher is destroyed, nothing runs at the end of the
// pass — running it would flush a dead node's traffic or touch freed state.
TEST(Batcher, WakeupFlushDiesWithCancelAllAndWithTheBatcher) {
  transport::TimerQueue timers;
  timers.bind_driver();
  std::vector<Flushed> flushed;
  {
    auto batcher = make_on(timers, BatchConfig{}, flushed);
    batcher.enqueue(NodeId{2}, BatchItem::kKindRequest, 7, 1,
                    as_view(to_bytes("x")));
    batcher.cancel_all();
    EXPECT_EQ(timers.run_deferred(), 0u);

    batcher.enqueue(NodeId{2}, BatchItem::kKindRequest, 7, 2,
                    as_view(to_bytes("y")));
  }
  EXPECT_EQ(timers.run_deferred(), 0u);
  EXPECT_TRUE(flushed.empty());
}

// --- End-to-end through live clusters ---------------------------------------

template <typename Node, typename... Extra>
void pipelined_puts_roundtrip(Extra&&... extra) {
  typename Cluster<Node>::Config config;
  config.batch.enabled = true;
  config.batch.max_count = 8;
  config.batch.max_delay = 5 * sim::kMicrosecond;
  Cluster<Node> cluster(config);
  cluster.build(std::forward<Extra>(extra)...);
  auto& client = cluster.add_client();

  // Pipeline 24 puts so replication traffic genuinely coalesces.
  int completed = 0;
  for (int i = 0; i < 24; ++i) {
    client.put(NodeId{1}, "k" + std::to_string(i),
               to_bytes("v" + std::to_string(i)),
               [&](const ClientReply& r) { completed += r.ok ? 1 : 0; });
  }
  cluster.run_for(5 * sim::kSecond);
  EXPECT_EQ(completed, 24);

  // Batches actually flowed (replicas sent multi-message frames)...
  std::uint64_t batched = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    batched += cluster.node(i).batcher().messages_batched();
  }
  EXPECT_GT(batched, 0u);

  // ...and every replica converged on the same values.
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    for (int k = 0; k < 24; ++k) {
      auto v = cluster.node(i).kv().get("k" + std::to_string(k));
      ASSERT_TRUE(v.is_ok()) << "node " << i << " key " << k;
      EXPECT_EQ(to_string(as_view(v.value().value)), "v" + std::to_string(k));
    }
  }
}

TEST(BatchedCluster, ChainReplicationConverges) {
  pipelined_puts_roundtrip<protocols::ChainNode>();
}

TEST(BatchedCluster, CraqConverges) {
  pipelined_puts_roundtrip<protocols::CraqNode>();
}

TEST(BatchedCluster, RaftConverges) {
  protocols::RaftOptions raft;
  raft.initial_leader = NodeId{1};
  pipelined_puts_roundtrip<protocols::RaftNode>(raft);
}

TEST(BatchedCluster, BatchingSendsFewerPackets) {
  auto run = [](bool batching) {
    typename Cluster<protocols::ChainNode>::Config config;
    config.batch.enabled = batching;
    config.batch.max_count = 16;
    config.batch.max_delay = 10 * sim::kMicrosecond;
    Cluster<protocols::ChainNode> cluster(config);
    cluster.build();
    auto& client = cluster.add_client();
    int completed = 0;
    for (int i = 0; i < 32; ++i) {
      client.put(NodeId{1}, "k" + std::to_string(i), to_bytes("v"),
                 [&](const ClientReply& r) { completed += r.ok ? 1 : 0; });
    }
    cluster.run_for(5 * sim::kSecond);
    EXPECT_EQ(completed, 32);
    return cluster.network().packets_sent();
  };
  const std::uint64_t unbatched = run(false);
  const std::uint64_t batched = run(true);
  EXPECT_LT(batched, unbatched / 2) << "batching should collapse packet count";
}

TEST(BatchedCluster, ConfidentialBatchingConverges) {
  typename Cluster<protocols::ChainNode>::Config config;
  config.confidentiality = true;
  config.batch.enabled = true;
  config.batch.max_count = 8;
  config.batch.max_delay = 5 * sim::kMicrosecond;
  Cluster<protocols::ChainNode> cluster(config);
  cluster.build();
  auto& client = cluster.add_client();
  int completed = 0;
  for (int i = 0; i < 8; ++i) {
    client.put(NodeId{1}, "k" + std::to_string(i), to_bytes("secret"),
               [&](const ClientReply& r) { completed += r.ok ? 1 : 0; });
  }
  cluster.run_for(5 * sim::kSecond);
  EXPECT_EQ(completed, 8);
  EXPECT_EQ(to_string(as_view(cluster.get(client, NodeId{3}, "k0").value)),
            "secret");
}

}  // namespace
}  // namespace recipe
