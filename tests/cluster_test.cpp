// Tests for the src/cluster/ subsystem: protocol registry, ShardGroup
// role/routing facts, RoutedClient key routing, online shard add/remove
// with key handoff, and aggregate stats.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "cluster/cluster.h"
#include "cluster/registry.h"
#include "cluster/routed_client.h"
#include "workload/workload.h"

namespace recipe::cluster {
namespace {

// Appends instead of operator+(const char*, string&&): GCC 12's -Wrestrict
// false-positives on the latter (PR105329) under -O2.
std::string tagged(const char* prefix, int i) {
  std::string out(prefix);
  out += std::to_string(i);
  return out;
}

struct Deployment {
  sim::Simulator simulator;
  net::SimNetwork network{simulator, Rng(17)};
  tee::TeePlatform platform{1};
  ShardedCluster store{simulator, network, platform};
};

TEST(ProtocolRegistry, KnowsAllBuiltins) {
  auto& registry = ProtocolRegistry::instance();
  for (const char* name : {"cr", "craq", "raft", "abd", "hermes"}) {
    EXPECT_NE(registry.find(name), nullptr) << name;
  }
  EXPECT_EQ(registry.find("paxos"), nullptr);
  EXPECT_GE(registry.names().size(), 5u);
}

TEST(ShardGroup, UnknownProtocolIsRejected) {
  Deployment d;
  ShardGroupOptions options;
  options.protocol = "paxos";
  auto group = ShardGroup::create(
      {ReplicaHost{d.simulator, d.network, d.platform}}, options);
  EXPECT_FALSE(group.is_ok());

  auto added = d.store.add_shard("paxos");
  EXPECT_FALSE(added.is_ok());
  EXPECT_EQ(d.store.shard_count(), 0u);
}

TEST(ShardGroup, ChainRolesDriveRouting) {
  Deployment d;
  auto id = d.store.add_shard("cr");
  ASSERT_TRUE(id.is_ok());
  ShardGroup& group = d.store.shard(id.value());
  // CR: writes enter at the head, linearizable reads at the tail.
  EXPECT_EQ(group.write_coordinator(), group.membership().front());
  EXPECT_EQ(group.read_replica(), group.membership().back());
  EXPECT_EQ(group.read_replica(1), group.membership().back());  // tail only
}

TEST(ShardGroup, CraqSpreadsReadsOverAllReplicas) {
  Deployment d;
  auto id = d.store.add_shard("craq");
  ASSERT_TRUE(id.is_ok());
  ShardGroup& group = d.store.shard(id.value());
  EXPECT_EQ(group.write_coordinator(), group.membership().front());
  std::set<std::uint64_t> readers;
  for (std::uint64_t hint = 0; hint < 6; ++hint) {
    readers.insert(group.read_replica(hint).value);
  }
  EXPECT_EQ(readers.size(), group.size());
}

TEST(ShardGroup, RaftElectsBootstrapLeader) {
  Deployment d;
  auto id = d.store.add_shard("raft");
  ASSERT_TRUE(id.is_ok());
  d.simulator.run_for(50 * sim::kMillisecond);
  ShardGroup& group = d.store.shard(id.value());
  EXPECT_EQ(group.write_coordinator(), group.membership().front());

  RoutedClient client(d.store);
  EXPECT_TRUE(client.put_sync("k", "v"));
  auto value = client.get_sync("k");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, "v");
}

TEST(ShardedCluster, RoutesKeysToOwningShard) {
  Deployment d;
  ASSERT_TRUE(d.store.add_shard("cr").is_ok());
  ASSERT_TRUE(d.store.add_shard("hermes").is_ok());

  RoutedClient client(d.store);
  for (int i = 0; i < 40; ++i) {
    const std::string key = workload::key_name(static_cast<std::uint64_t>(i));
    ASSERT_TRUE(client.put_sync(key, tagged("v", i))) << key;
  }
  // Both shards own part of the keyspace, and every key reads back through
  // the same routing.
  auto stats = d.store.stats();
  ASSERT_EQ(stats.per_shard.size(), 2u);
  EXPECT_GT(stats.per_shard[0].keys, 0u);
  EXPECT_GT(stats.per_shard[1].keys, 0u);
  EXPECT_EQ(stats.total_keys, 40u);
  for (int i = 0; i < 40; ++i) {
    const std::string key = workload::key_name(static_cast<std::uint64_t>(i));
    auto value = client.get_sync(key);
    ASSERT_TRUE(value.has_value()) << key;
    EXPECT_EQ(*value, tagged("v", i));
  }
}

TEST(ShardedCluster, WritesSurviveOnlineShardAddition) {
  // Acceptance scenario: a >= 2-protocol deployment where every
  // acknowledged write remains readable after a shard joins and the ring
  // rebalances.
  Deployment d;
  ASSERT_TRUE(d.store.add_shard("cr").is_ok());
  ASSERT_TRUE(d.store.add_shard("hermes").is_ok());

  RoutedClient client(d.store);
  constexpr int kKeys = 100;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = workload::key_name(static_cast<std::uint64_t>(i));
    ASSERT_TRUE(client.put_sync(key, tagged("stable-", i))) << key;
  }

  auto added = d.store.add_shard("craq");
  ASSERT_TRUE(added.is_ok());
  EXPECT_EQ(d.store.ring().shard_count(), 3u);
  // The new shard took over part of the keyspace...
  EXPECT_GT(d.store.shard(added.value()).keys(), 0u);

  // ...and every acknowledged write is still readable post-rebalance.
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = workload::key_name(static_cast<std::uint64_t>(i));
    auto value = client.get_sync(key);
    ASSERT_TRUE(value.has_value()) << key << " lost in rebalance";
    EXPECT_EQ(*value, tagged("stable-", i));
  }
  // Shards hold exactly their owned ranges (handoff pruned the rest).
  EXPECT_EQ(d.store.stats().total_keys, static_cast<std::size_t>(kKeys));
}

TEST(ShardedCluster, WritesSurviveShardRemoval) {
  Deployment d;
  ASSERT_TRUE(d.store.add_shard("cr").is_ok());
  ASSERT_TRUE(d.store.add_shard("craq").is_ok());
  auto doomed = d.store.add_shard("hermes");
  ASSERT_TRUE(doomed.is_ok());

  RoutedClient client(d.store);
  constexpr int kKeys = 60;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = workload::key_name(static_cast<std::uint64_t>(i));
    ASSERT_TRUE(client.put_sync(key, tagged("keep-", i))) << key;
  }

  ASSERT_TRUE(d.store.remove_shard(doomed.value()).is_ok());
  EXPECT_EQ(d.store.shard_count(), 2u);
  EXPECT_FALSE(d.store.has_shard(doomed.value()));

  for (int i = 0; i < kKeys; ++i) {
    const std::string key = workload::key_name(static_cast<std::uint64_t>(i));
    auto value = client.get_sync(key);
    ASSERT_TRUE(value.has_value()) << key << " lost in shard removal";
    EXPECT_EQ(*value, tagged("keep-", i));
  }
}

TEST(ShardedCluster, RemoveGuards) {
  Deployment d;
  auto only = d.store.add_shard("cr");
  ASSERT_TRUE(only.is_ok());
  EXPECT_FALSE(d.store.remove_shard(only.value()).is_ok())
      << "removing the last shard must be refused";
  EXPECT_FALSE(d.store.remove_shard(ShardId{42}).is_ok());
  EXPECT_EQ(d.store.shard_count(), 1u);
}

TEST(ShardedCluster, RejectsCollidingIdRanges) {
  // replicas_per_shard > id_stride would make shard k+1's NodeId range
  // overlap shard k's — and SimNetwork::attach would silently hijack the
  // existing endpoints. The misconfiguration is refused up front.
  sim::Simulator simulator;
  net::SimNetwork network(simulator, Rng(17));
  tee::TeePlatform platform(1);
  ClusterOptions options;
  options.replicas_per_shard = 150;  // > id_stride (100)
  ShardedCluster store(simulator, network, platform, options);
  EXPECT_FALSE(store.add_shard("cr").is_ok());
  EXPECT_EQ(store.shard_count(), 0u);
}

TEST(ShardedCluster, TimedOutRecoveryThenShardRemovalIsSafe) {
  // Regression (ASan): a replica recovery that timed out left its promotion
  // poll armed, and once the shard was removed the poll fired into the
  // freed node.
  sim::Simulator simulator;
  net::SimNetwork network(simulator, Rng(17));
  tee::TeePlatform platform(1);
  ClusterOptions options;
  options.handoff_timeout = 100 * sim::kMillisecond;
  ShardedCluster store(simulator, network, platform, options);
  auto cr = store.add_shard("cr");
  auto raft = store.add_shard("raft");
  ASSERT_TRUE(cr.is_ok() && raft.is_ok());
  simulator.run_for(200 * sim::kMillisecond);

  // With two of three Raft replicas down no leader exists, so the recovered
  // shadow catches up from the survivor but never reports caught-up.
  ShardGroup& group = store.shard(raft.value());
  group.stop_replica(0);
  group.stop_replica(1);
  simulator.run_for(50 * sim::kMillisecond);
  EXPECT_EQ(store.recover_replica(raft.value(), 1).code(),
            ErrorCode::kTimeout);
  ASSERT_TRUE(store.remove_shard(raft.value()).is_ok());

  simulator.run_for(3 * sim::kSecond);  // past the promotion poll's bound
  EXPECT_TRUE(store.has_shard(cr.value()));
  EXPECT_FALSE(store.has_shard(raft.value()));
}

TEST(RoutedClient, FailsCleanlyOnEmptyCluster) {
  // Regression: routing on an empty ring used to hit an assert that
  // release builds compile out (null-deref UB); now the op fails.
  Deployment d;
  RoutedClient client(d.store);
  EXPECT_FALSE(client.put_sync("k", "v"));
  EXPECT_FALSE(client.get_sync("k").has_value());
}

TEST(ShardedCluster, HandoffSkipsCrashedReplicas) {
  // Regression: a sync targeting a crashed replica never calls back (the
  // shield fails before anything hits the wire); the handoff must skip
  // such pairs instead of stalling for the full timeout.
  Deployment d;
  auto s0 = d.store.add_shard("hermes");
  ASSERT_TRUE(s0.is_ok());
  RoutedClient client(d.store);
  for (int i = 0; i < 30; ++i) {
    const std::string key = workload::key_name(static_cast<std::uint64_t>(i));
    ASSERT_TRUE(client.put_sync(key, tagged("v", i)));
  }
  // Crash one donor replica; Hermes writes reached all, so the two
  // survivors still hold the full keyspace.
  d.store.shard(s0.value()).replica(2).stop();

  auto s1 = d.store.add_shard("craq");
  ASSERT_TRUE(s1.is_ok());
  for (int i = 0; i < 30; ++i) {
    const std::string key = workload::key_name(static_cast<std::uint64_t>(i));
    auto value = client.get_sync(key);
    ASSERT_TRUE(value.has_value()) << key;
    EXPECT_EQ(*value, tagged("v", i));
  }
}

TEST(RoutedClient, DefaultClientsDoNotCollide) {
  // Regression: two default-constructed clients used the same NodeId, and
  // SimNetwork::attach silently replaced the first one's endpoint.
  Deployment d;
  ASSERT_TRUE(d.store.add_shard("cr").is_ok());
  RoutedClient first(d.store);
  RoutedClient second(d.store);
  EXPECT_TRUE(first.put_sync("a", "1"));
  EXPECT_TRUE(second.put_sync("b", "2"));
  EXPECT_EQ(first.get_sync("b").value_or(""), "2");
  EXPECT_EQ(second.get_sync("a").value_or(""), "1");
}

TEST(RoutedClient, PerShardStatsMergeToAggregate) {
  Deployment d;
  auto s0 = d.store.add_shard("cr");
  auto s1 = d.store.add_shard("hermes");
  ASSERT_TRUE(s0.is_ok() && s1.is_ok());

  RoutedClient client(d.store);
  for (int i = 0; i < 30; ++i) {
    const std::string key = workload::key_name(static_cast<std::uint64_t>(i));
    ASSERT_TRUE(client.put_sync(key, "v"));
  }
  const std::uint64_t per_shard_total =
      client.shard_latency_us(s0.value()).count() +
      client.shard_latency_us(s1.value()).count();
  EXPECT_EQ(per_shard_total, 30u);
  EXPECT_EQ(client.latency_us().count(), 30u);
  EXPECT_GT(client.latency_us().mean(), 0.0);
  EXPECT_EQ(client.completed(), 30u);
  EXPECT_EQ(client.failed(), 0u);

  auto stats = d.store.stats();
  EXPECT_EQ(stats.shards, 2u);
  EXPECT_GT(stats.committed_ops, 0u);
}

}  // namespace
}  // namespace recipe::cluster
