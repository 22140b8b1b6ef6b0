// Robustness / hostile-input tests: every parser in the system is fed
// garbage and truncations (a Byzantine network can deliver arbitrary bytes);
// nothing may crash, over-read, or accept malformed input. Plus boundary
// cases for the stores and protocols (empty values, large keys, etc.).
#include <gtest/gtest.h>

#include "attest/bundle.h"
#include "attest/cas.h"
#include "cluster_harness.h"
#include "protocols/abd/abd.h"
#include "recipe/message.h"
#include "recipe/types.h"

namespace recipe {
namespace {

using testing::Cluster;

// --- Parser fuzzing
// -------------------------------------------------------------

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, RandomBytesNeverCrashParsers) {
  Rng rng(GetParam());
  for (int round = 0; round < 2000; ++round) {
    Bytes junk(rng.below(200));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    // All Result-returning parsers must fail gracefully or produce a value,
    // never crash / UB (ASAN-clean under fuzz input).
    (void)ShieldedMessage::parse(as_view(junk));
    (void)ClientRequest::parse(as_view(junk));
    (void)ClientReply::parse(as_view(junk));
    (void)attest::SecretsBundle::parse(as_view(junk));
    (void)attest::decode_quote(as_view(junk));
  }
}

TEST_P(ParserFuzz, TruncationsOfValidMessagesAllRejected) {
  Rng rng(GetParam());
  ShieldedMessage msg;
  msg.header.view = ViewId{3};
  msg.header.cq = ChannelId{9};
  msg.header.cnt = 77;
  msg.header.sender = NodeId{1};
  msg.header.receiver = NodeId{2};
  msg.payload = to_bytes("some payload bytes");
  msg.mac = Bytes(32, 0x5A);
  const Bytes wire = msg.serialize();
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_FALSE(ShieldedMessage::parse(BytesView(wire.data(), cut)).is_ok())
        << "cut=" << cut;
  }

  ClientRequest request;
  request.client = ClientId{1};
  request.rid = RequestId{2};
  request.op = OpType::kPut;
  request.key = "key";
  request.value = to_bytes("value");
  const Bytes req_wire = request.serialize();
  for (std::size_t cut = 0; cut < req_wire.size(); ++cut) {
    EXPECT_FALSE(ClientRequest::parse(BytesView(req_wire.data(), cut)).is_ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Values(1, 7, 99));

TEST(ParserFuzz, GarbageToEveryRpcHandlerIsHarmless) {
  // Spray random bytes at every registered handler type of a live replica.
  Cluster<protocols::AbdNode> cluster;
  cluster.build();
  Rng rng(5);
  const rpc::RequestType types[] = {
      msg::kClientRequest,        msg::kHeartbeat,
      msg::kStateFetch,           attest::msg::kFreshNode,
      protocols::abd_msg::kGetTs, protocols::abd_msg::kPut,
      protocols::abd_msg::kGet,
  };
  rpc::RpcObject attacker(cluster.sim(), cluster.network(), NodeId{666},
                          net::NetStackParams::direct_io_native());
  for (int i = 0; i < 300; ++i) {
    Bytes junk(rng.below(120));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    attacker.send(NodeId{1 + rng.below(3)},
                  types[rng.below(std::size(types))], std::move(junk));
  }
  cluster.run_for(sim::kSecond);
  // The cluster still works.
  auto& client = cluster.add_client();
  EXPECT_TRUE(cluster.put(client, NodeId{1}, "k", "v").ok);
}

// --- Boundary cases
// ------------------------------------------------------------

TEST(Boundaries, EmptyValueRoundTrips) {
  Cluster<protocols::AbdNode> cluster;
  cluster.build();
  auto& client = cluster.add_client();
  ASSERT_TRUE(cluster.put(client, NodeId{1}, "empty", "").ok);
  const auto get = cluster.get(client, NodeId{2}, "empty");
  EXPECT_TRUE(get.found);
  EXPECT_TRUE(get.value.empty());
}

TEST(Boundaries, LargeValueRoundTrips) {
  Cluster<protocols::AbdNode> cluster;
  cluster.build();
  auto& client = cluster.add_client();
  const std::string big(64 * 1024, 'x');
  ASSERT_TRUE(cluster.put(client, NodeId{1}, "big", big).ok);
  const auto get = cluster.get(client, NodeId{2}, "big");
  EXPECT_EQ(to_string(as_view(get.value)), big);
}

TEST(Boundaries, LongKeysAndBinaryKeysWork) {
  kv::KvStore store;
  const std::string long_key(1024, 'k');
  EXPECT_TRUE(store.write(long_key, as_view("v")));
  EXPECT_TRUE(store.get(long_key).is_ok());
  const std::string binary_key("\x00\x01\xff\x7f", 4);
  EXPECT_TRUE(store.write(binary_key, as_view("b")));
  EXPECT_EQ(to_string(as_view(store.get(binary_key).value().value)), "b");
}

TEST(Boundaries, EmptyPayloadShieldVerify) {
  tee::TeePlatform platform(1);
  tee::Enclave a(platform, "code", 1), b(platform, "code", 2);
  const crypto::SymmetricKey root{Bytes(32, 0x12)};
  ASSERT_TRUE(attest::provision_preattested(a, root).is_ok());
  ASSERT_TRUE(attest::provision_preattested(b, root).is_ok());
  RecipeSecurity sa(a, NodeId{1}, nullptr, nullptr, {});
  RecipeSecurity sb(b, NodeId{2}, nullptr, nullptr, {});
  auto wire = sa.shield(NodeId{2}, ViewId{0}, BytesView{});
  ASSERT_TRUE(wire.is_ok());
  auto env = sb.verify(NodeId{1}, as_view(wire.value()));
  ASSERT_TRUE(env.is_ok());
  EXPECT_TRUE(env.value().payload.empty());
}

TEST(Boundaries, CounterWindowSurvivesBurstOfTraffic) {
  tee::TeePlatform platform(1);
  tee::Enclave a(platform, "code", 1), b(platform, "code", 2);
  const crypto::SymmetricKey root{Bytes(32, 0x12)};
  ASSERT_TRUE(attest::provision_preattested(a, root).is_ok());
  ASSERT_TRUE(attest::provision_preattested(b, root).is_ok());
  RecipeSecurity sa(a, NodeId{1}, nullptr, nullptr, {});
  RecipeSecurityConfig config;
  config.replay_window = 64;
  RecipeSecurity sb(b, NodeId{2}, nullptr, nullptr, config);
  // 10k messages through a 64-wide window: all accepted in order, no leaks.
  for (int i = 0; i < 10000; ++i) {
    auto wire = sa.shield(NodeId{2}, ViewId{0}, as_view("m"));
    ASSERT_TRUE(sb.verify(NodeId{1}, as_view(wire.value())).is_ok()) << i;
  }
  // A message far below the window is rejected even if never seen.
  auto old = sa.shield(NodeId{2}, ViewId{0}, as_view("m"));
  for (int i = 0; i < 200; ++i) {
    (void)sb.verify(NodeId{1},
                    as_view(sa.shield(NodeId{2}, ViewId{0},
                                      as_view("m")).value()));
  }
  EXPECT_EQ(sb.verify(NodeId{1}, as_view(old.value())).code(),
            ErrorCode::kReplay);
}

TEST(Boundaries, StrictFutureBufferIsBounded) {
  tee::TeePlatform platform(1);
  tee::Enclave a(platform, "code", 1), b(platform, "code", 2);
  const crypto::SymmetricKey root{Bytes(32, 0x12)};
  ASSERT_TRUE(attest::provision_preattested(a, root).is_ok());
  ASSERT_TRUE(attest::provision_preattested(b, root).is_ok());
  RecipeSecurity sa(a, NodeId{1}, nullptr, nullptr, {});
  RecipeSecurityConfig config;
  config.order = OrderPolicy::kStrict;
  config.max_future_buffer = 8;
  RecipeSecurity sb(b, NodeId{2}, nullptr, nullptr, config);

  // Generate 20 messages; withhold #1 so all others are futures.
  std::vector<Bytes> wires;
  for (int i = 0; i < 20; ++i) {
    wires.push_back(sa.shield(NodeId{2}, ViewId{0}, as_view("m")).value());
  }
  for (int i = 1; i < 20; ++i) {
    (void)sb.verify(NodeId{1}, as_view(wires[static_cast<std::size_t>(i)]));
  }
  // A Byzantine flood cannot exhaust memory: at most 8 futures buffered.
  EXPECT_LE(sb.buffered_future(), 8u);
}

TEST(Boundaries, ClientRetryAfterCoordinatorCrashFails) {
  Cluster<protocols::AbdNode> cluster;
  cluster.build();
  auto& client = cluster.add_client();
  cluster.crash(0);
  const auto reply = cluster.put(client, NodeId{1}, "k", "v");
  EXPECT_FALSE(reply.ok);  // retries exhausted, clean failure
}

}  // namespace
}  // namespace recipe
