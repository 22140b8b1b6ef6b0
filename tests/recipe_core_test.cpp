// Tests for the Recipe core: shielded message format, NullSecurity vs
// RecipeSecurity (Algorithm 1 semantics: authentication, replay rejection,
// strict ordering with future buffering, window mode), client table, and the
// client <-> ReplicaNode runtime loop.
#include <gtest/gtest.h>

#include "recipe/client.h"
#include "recipe/client_table.h"
#include "recipe/message.h"
#include "recipe/node_base.h"
#include "recipe/quorum.h"
#include "recipe/security.h"

namespace recipe {
namespace {

// --- Shielded message format -------------------------------------------------

TEST(ShieldedMessage, SerializeParseRoundTrip) {
  ShieldedMessage msg;
  msg.header.view = ViewId{4};
  msg.header.cq = ChannelId{77};
  msg.header.cnt = 12;
  msg.header.sender = NodeId{1};
  msg.header.receiver = NodeId{2};
  msg.header.flags = ShieldedHeader::kFlagEncrypted;
  msg.payload = to_bytes("payload");
  msg.mac = Bytes(32, 0xAA);

  auto parsed = ShieldedMessage::parse(as_view(msg.serialize()));
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value().header.view, ViewId{4});
  EXPECT_EQ(parsed.value().header.cnt, 12u);
  EXPECT_TRUE(parsed.value().header.encrypted());
  EXPECT_EQ(parsed.value().payload, to_bytes("payload"));
  EXPECT_EQ(parsed.value().mac, Bytes(32, 0xAA));
}

TEST(ShieldedMessage, ParseRejectsTrailingGarbage) {
  ShieldedMessage msg;
  msg.payload = to_bytes("x");
  Bytes wire = msg.serialize();
  wire.push_back(0x00);
  EXPECT_FALSE(ShieldedMessage::parse(as_view(wire)).is_ok());
}

TEST(ShieldedMessage, DirectedChannelsDiffer) {
  EXPECT_NE(directed_channel(NodeId{1}, NodeId{2}),
            directed_channel(NodeId{2}, NodeId{1}));
  EXPECT_EQ(directed_channel(NodeId{1}, NodeId{2}),
            directed_channel(NodeId{1}, NodeId{2}));
}

// --- Security policies
// ----------------------------------------------------------

struct SecurityFixture : public ::testing::Test {
  tee::TeePlatform platform{1};
  tee::Enclave enclave_a{platform, "code", 1};
  tee::Enclave enclave_b{platform, "code", 2};
  crypto::SymmetricKey root{Bytes(32, 0x77)};

  void SetUp() override {
    ASSERT_TRUE(attest::provision_preattested(enclave_a, root).is_ok());
    ASSERT_TRUE(attest::provision_preattested(enclave_b, root).is_ok());
  }

  RecipeSecurity make(tee::Enclave& e, NodeId self,
                      RecipeSecurityConfig config = {}) {
    return RecipeSecurity(e, self, nullptr, nullptr, config);
  }
};

TEST_F(SecurityFixture, ShieldVerifyRoundTrip) {
  auto a = make(enclave_a, NodeId{1});
  auto b = make(enclave_b, NodeId{2});
  auto wire = a.shield(NodeId{2}, ViewId{1}, as_view("hello"));
  ASSERT_TRUE(wire.is_ok());
  auto env = b.verify(NodeId{1}, as_view(wire.value()));
  ASSERT_TRUE(env.is_ok()) << env.status().to_string();
  EXPECT_EQ(to_string(as_view(env.value().payload)), "hello");
  EXPECT_EQ(env.value().sender, NodeId{1});
  EXPECT_EQ(env.value().view, ViewId{1});
  EXPECT_EQ(env.value().cnt, 1u);
}

TEST_F(SecurityFixture, TamperedPayloadRejected) {
  auto a = make(enclave_a, NodeId{1});
  auto b = make(enclave_b, NodeId{2});
  auto wire = a.shield(NodeId{2}, ViewId{1}, as_view("transfer $10"));
  Bytes tampered = wire.value();
  // Flip a byte inside the payload region.
  tampered[tampered.size() / 2] ^= 0x01;
  EXPECT_EQ(b.verify(NodeId{1}, as_view(tampered)).code(),
            ErrorCode::kAuthFailed);
  EXPECT_EQ(b.rejected_auth(), 1u);
}

TEST_F(SecurityFixture, ReplayRejected) {
  auto a = make(enclave_a, NodeId{1});
  auto b = make(enclave_b, NodeId{2});
  auto wire = a.shield(NodeId{2}, ViewId{1}, as_view("x"));
  EXPECT_TRUE(b.verify(NodeId{1}, as_view(wire.value())).is_ok());
  EXPECT_EQ(b.verify(NodeId{1}, as_view(wire.value())).code(),
            ErrorCode::kReplay);
  EXPECT_EQ(b.rejected_replay(), 1u);
}

TEST_F(SecurityFixture, ImpersonationRejected) {
  auto a = make(enclave_a, NodeId{1});
  auto b = make(enclave_b, NodeId{2});
  auto wire = a.shield(NodeId{2}, ViewId{1}, as_view("x"));
  // Network claims the message came from node 3.
  EXPECT_EQ(b.verify(NodeId{3}, as_view(wire.value())).code(),
            ErrorCode::kAuthFailed);
}

TEST_F(SecurityFixture, WrongRecipientRejected) {
  auto a = make(enclave_a, NodeId{1});
  auto b = make(enclave_b, NodeId{2});
  auto wire = a.shield(NodeId{3}, ViewId{1}, as_view("x"));  // meant for 3
  EXPECT_EQ(b.verify(NodeId{1}, as_view(wire.value())).code(),
            ErrorCode::kAuthFailed);
}

TEST_F(SecurityFixture, ForgeryWithoutKeysRejected) {
  auto b = make(enclave_b, NodeId{2});
  // An adversary without channel keys fabricates a message from scratch.
  ShieldedMessage forged;
  forged.header.view = ViewId{1};
  forged.header.cq = directed_channel(NodeId{1}, NodeId{2});
  forged.header.cnt = 1;
  forged.header.sender = NodeId{1};
  forged.header.receiver = NodeId{2};
  forged.payload = to_bytes("evil");
  forged.mac = Bytes(32, 0x00);
  EXPECT_EQ(b.verify(NodeId{1}, as_view(forged.serialize())).code(),
            ErrorCode::kAuthFailed);
}

TEST_F(SecurityFixture, ViewMismatchRejectedWhenRequired) {
  auto a = make(enclave_a, NodeId{1});
  auto b = make(enclave_b, NodeId{2});
  auto wire = a.shield(NodeId{2}, ViewId{1}, as_view("x"));
  EXPECT_EQ(b.verify(NodeId{1}, as_view(wire.value()), ViewId{2}).code(),
            ErrorCode::kWrongView);
  EXPECT_EQ(b.rejected_view(), 1u);
}

TEST_F(SecurityFixture, CountersIncreaseMonotonically) {
  auto a = make(enclave_a, NodeId{1});
  auto b = make(enclave_b, NodeId{2});
  for (Counter expected = 1; expected <= 5; ++expected) {
    auto wire = a.shield(NodeId{2}, ViewId{1}, as_view("m"));
    auto env = b.verify(NodeId{1}, as_view(wire.value()));
    ASSERT_TRUE(env.is_ok());
    EXPECT_EQ(env.value().cnt, expected);
  }
}

TEST_F(SecurityFixture, StrictModeBuffersFutureMessages) {
  RecipeSecurityConfig config;
  config.order = OrderPolicy::kStrict;
  auto a = make(enclave_a, NodeId{1}, config);
  auto b = make(enclave_b, NodeId{2}, config);

  auto m1 = a.shield(NodeId{2}, ViewId{1}, as_view("first"));
  auto m2 = a.shield(NodeId{2}, ViewId{1}, as_view("second"));
  auto m3 = a.shield(NodeId{2}, ViewId{1}, as_view("third"));

  // Deliver out of order: 3 and 2 are futures, buffered.
  EXPECT_EQ(b.verify(NodeId{1}, as_view(m3.value())).code(),
            ErrorCode::kOutOfOrder);
  EXPECT_EQ(b.verify(NodeId{1}, as_view(m2.value())).code(),
            ErrorCode::kOutOfOrder);
  EXPECT_EQ(b.buffered_future(), 2u);
  EXPECT_TRUE(b.drain_ready().empty());

  // Message 1 arrives: accepted, and 2+3 become ready in order.
  auto env = b.verify(NodeId{1}, as_view(m1.value()));
  ASSERT_TRUE(env.is_ok());
  EXPECT_EQ(to_string(as_view(env.value().payload)), "first");
  auto ready = b.drain_ready();
  ASSERT_EQ(ready.size(), 2u);
  EXPECT_EQ(to_string(as_view(ready[0].payload)), "second");
  EXPECT_EQ(to_string(as_view(ready[1].payload)), "third");
}

TEST_F(SecurityFixture, StrictModeRejectsPast) {
  RecipeSecurityConfig config;
  config.order = OrderPolicy::kStrict;
  auto a = make(enclave_a, NodeId{1}, config);
  auto b = make(enclave_b, NodeId{2}, config);
  auto m1 = a.shield(NodeId{2}, ViewId{1}, as_view("1"));
  auto m2 = a.shield(NodeId{2}, ViewId{1}, as_view("2"));
  EXPECT_TRUE(b.verify(NodeId{1}, as_view(m1.value())).is_ok());
  EXPECT_TRUE(b.verify(NodeId{1}, as_view(m2.value())).is_ok());
  EXPECT_EQ(b.verify(NodeId{1}, as_view(m1.value())).code(),
            ErrorCode::kReplay);
}

TEST_F(SecurityFixture, WindowModeAcceptsReorderingOnce) {
  auto a = make(enclave_a, NodeId{1});
  auto b = make(enclave_b, NodeId{2});
  auto m1 = a.shield(NodeId{2}, ViewId{1}, as_view("1"));
  auto m2 = a.shield(NodeId{2}, ViewId{1}, as_view("2"));
  auto m3 = a.shield(NodeId{2}, ViewId{1}, as_view("3"));
  // Reordered delivery: all accepted exactly once.
  EXPECT_TRUE(b.verify(NodeId{1}, as_view(m3.value())).is_ok());
  EXPECT_TRUE(b.verify(NodeId{1}, as_view(m1.value())).is_ok());
  EXPECT_TRUE(b.verify(NodeId{1}, as_view(m2.value())).is_ok());
  // Replays of each are rejected.
  EXPECT_EQ(b.verify(NodeId{1}, as_view(m1.value())).code(),
            ErrorCode::kReplay);
  EXPECT_EQ(b.verify(NodeId{1}, as_view(m2.value())).code(),
            ErrorCode::kReplay);
  EXPECT_EQ(b.verify(NodeId{1}, as_view(m3.value())).code(),
            ErrorCode::kReplay);
}

TEST_F(SecurityFixture, ConfidentialityHidesPayload) {
  RecipeSecurityConfig config;
  config.confidentiality = true;
  auto a = make(enclave_a, NodeId{1}, config);
  auto b = make(enclave_b, NodeId{2}, config);
  const Bytes secret = to_bytes("top-secret-payload-material");
  auto wire = a.shield(NodeId{2}, ViewId{1}, as_view(secret));
  // Ciphertext on the wire: the plaintext must not be a substring.
  auto it = std::search(wire.value().begin(), wire.value().end(),
                        secret.begin(),
                        secret.end());
  EXPECT_EQ(it, wire.value().end());
  auto env = b.verify(NodeId{1}, as_view(wire.value()));
  ASSERT_TRUE(env.is_ok());
  EXPECT_EQ(env.value().payload, secret);
}

TEST_F(SecurityFixture, StrictModeOverflowBumpsCounter) {
  RecipeSecurityConfig config;
  config.order = OrderPolicy::kStrict;
  config.max_future_buffer = 2;
  auto a = make(enclave_a, NodeId{1}, config);
  auto b = make(enclave_b, NodeId{2}, config);

  std::vector<Bytes> wires;
  for (int i = 0; i < 5; ++i) {
    wires.push_back(a.shield(NodeId{2}, ViewId{1}, as_view("m")).value());
  }
  // Deliver 2..5 while 1 is missing: two futures fit, the rest overflow.
  EXPECT_EQ(b.verify(NodeId{1}, as_view(wires[1])).code(),
            ErrorCode::kOutOfOrder);
  EXPECT_EQ(b.verify(NodeId{1}, as_view(wires[2])).code(),
            ErrorCode::kOutOfOrder);
  EXPECT_EQ(b.rejected_overflow(), 0u);
  EXPECT_EQ(b.verify(NodeId{1}, as_view(wires[3])).code(),
            ErrorCode::kOutOfOrder);
  EXPECT_EQ(b.verify(NodeId{1}, as_view(wires[4])).code(),
            ErrorCode::kOutOfOrder);
  EXPECT_EQ(b.rejected_overflow(), 2u);
  EXPECT_EQ(b.buffered_future(), 2u);  // overflowed drops were NOT buffered
}

TEST_F(SecurityFixture, ChannelCryptoCacheInvalidatedByReattestation) {
  auto a = make(enclave_a, NodeId{1});
  auto b = make(enclave_b, NodeId{2});
  // Warm both caches.
  auto w1 = a.shield(NodeId{2}, ViewId{1}, as_view("warm"));
  ASSERT_TRUE(b.verify(NodeId{1}, as_view(w1.value())).is_ok());

  // Peer crashes, restarts, and re-attests under a DIFFERENT cluster root
  // (e.g. a new deployment secret). The receiver is told via reset_peer.
  enclave_a.crash();
  // The cached context must not serve a crashed enclave.
  EXPECT_EQ(a.shield(NodeId{2}, ViewId{1}, as_view("x")).code(),
            ErrorCode::kUnavailable);
  enclave_a.restart();
  const crypto::SymmetricKey new_root{Bytes(32, 0x99)};
  ASSERT_TRUE(attest::provision_preattested(enclave_a, new_root).is_ok());
  b.reset_peer(NodeId{1});

  // Sender's cache re-derives from the new root (keyset epoch moved), so
  // the receiver — still on the old root — must reject the MAC.
  auto w2 = a.shield(NodeId{2}, ViewId{1}, as_view("new-root"));
  ASSERT_TRUE(w2.is_ok());
  EXPECT_EQ(b.verify(NodeId{1}, as_view(w2.value())).code(),
            ErrorCode::kAuthFailed);

  // Once the receiver's enclave learns the new root too, traffic flows.
  ASSERT_TRUE(attest::provision_preattested(enclave_b, new_root).is_ok());
  auto w3 = a.shield(NodeId{2}, ViewId{1}, as_view("agreed"));
  auto env = b.verify(NodeId{1}, as_view(w3.value()));
  ASSERT_TRUE(env.is_ok()) << env.status().to_string();
  EXPECT_EQ(to_string(as_view(env.value().payload)), "agreed");
}

TEST_F(SecurityFixture, ConfidentialityWithLargeNodeIdsRoundTrips) {
  // Node ids beyond the 20-bit channel packing field: the nonce derivation
  // must still keep the two directions of the pairwise key apart (see
  // ChannelNonce.RegressionLargeNodeIdsNoLongerCollide for the unit-level
  // collision proof).
  const NodeId big_a{5};
  const NodeId big_b{5 + (1ull << 20)};
  RecipeSecurityConfig config;
  config.confidentiality = true;
  auto a = make(enclave_a, big_a, config);
  auto b = make(enclave_b, big_b, config);

  auto ab = a.shield(big_b, ViewId{1}, as_view("a to b plaintext"));
  auto ba = b.shield(big_a, ViewId{1}, as_view("b to a plaintext"));
  ASSERT_TRUE(ab.is_ok());
  ASSERT_TRUE(ba.is_ok());

  auto env_b = b.verify(big_a, as_view(ab.value()));
  auto env_a = a.verify(big_b, as_view(ba.value()));
  ASSERT_TRUE(env_b.is_ok()) << env_b.status().to_string();
  ASSERT_TRUE(env_a.is_ok()) << env_a.status().to_string();
  EXPECT_EQ(to_string(as_view(env_b.value().payload)), "a to b plaintext");
  EXPECT_EQ(to_string(as_view(env_a.value().payload)), "b to a plaintext");
}

TEST_F(SecurityFixture, CrashedEnclaveCannotShield) {
  auto a = make(enclave_a, NodeId{1});
  enclave_a.crash();
  EXPECT_EQ(a.shield(NodeId{2}, ViewId{1}, as_view("x")).code(),
            ErrorCode::kUnavailable);
}

TEST_F(SecurityFixture, UnprovisionedEnclaveCannotVerify) {
  tee::Enclave fresh(platform, "code", 9);
  auto s = RecipeSecurity(fresh, NodeId{9}, nullptr, nullptr, {});
  auto a = make(enclave_a, NodeId{1});
  auto wire = a.shield(NodeId{9}, ViewId{1}, as_view("x"));
  EXPECT_EQ(s.verify(NodeId{1}, as_view(wire.value())).code(),
            ErrorCode::kNotAttested);
}

TEST(NullSecurity, PassthroughAcceptsAnything) {
  NullSecurity a(NodeId{1});
  NullSecurity b(NodeId{2});
  auto wire = a.shield(NodeId{2}, ViewId{0}, as_view("x"));
  ASSERT_TRUE(wire.is_ok());
  auto env = b.verify(NodeId{1}, as_view(wire.value()));
  ASSERT_TRUE(env.is_ok());
  EXPECT_EQ(to_string(as_view(env.value().payload)), "x");
  // Replays sail through: this is the CFT baseline's vulnerability.
  EXPECT_TRUE(b.verify(NodeId{1}, as_view(wire.value())).is_ok());
}

// --- Client table
// -----------------------------------------------------------------

TEST(ClientTable, ExactlyOnceStateMachine) {
  ClientTable table;
  const ClientId c{7};
  EXPECT_EQ(table.admit(c, RequestId{1}), ClientTable::Decision::kExecute);
  table.begin(c, RequestId{1});
  EXPECT_EQ(table.admit(c, RequestId{1}), ClientTable::Decision::kInFlight);
  table.complete(c, RequestId{1}, to_bytes("reply1"));
  EXPECT_EQ(table.admit(c, RequestId{1}), ClientTable::Decision::kCached);
  EXPECT_EQ(*table.cached_reply(c, RequestId{1}), to_bytes("reply1"));
  EXPECT_EQ(table.admit(c, RequestId{2}), ClientTable::Decision::kExecute);
  table.begin(c, RequestId{2});
  // A retransmit of the completed older request is still answerable from
  // the window — starting a newer request must not turn it into a replay.
  EXPECT_EQ(table.admit(c, RequestId{1}), ClientTable::Decision::kCached);
}

// A pipelined client has many requests outstanding; reordered delivery makes
// an older id arrive after a newer one began. Each id keeps its own
// exactly-once state — regression test for the latest-only table that
// dropped every reordered id as a replay (chaos jitter made pipelined ops
// unable to ever complete).
TEST(ClientTable, PipelinedOutOfOrderRequestsKeepIndependentState) {
  ClientTable table;
  const ClientId c{7};
  table.begin(c, RequestId{4});
  EXPECT_EQ(table.admit(c, RequestId{2}), ClientTable::Decision::kExecute);
  table.begin(c, RequestId{2});
  table.complete(c, RequestId{2}, to_bytes("r2"));
  table.complete(c, RequestId{4}, to_bytes("r4"));
  EXPECT_EQ(table.admit(c, RequestId{2}), ClientTable::Decision::kCached);
  EXPECT_EQ(*table.cached_reply(c, RequestId{2}), to_bytes("r2"));
  EXPECT_EQ(*table.cached_reply(c, RequestId{4}), to_bytes("r4"));
  EXPECT_EQ(table.admit(c, RequestId{3}), ClientTable::Decision::kExecute);
}

TEST(ClientTable, BelowWindowIdsRejectedAndEvictedCompletionsIgnored) {
  ClientTable table(/*window=*/4);
  const ClientId c{7};
  for (std::uint64_t rid = 1; rid <= 6; ++rid) table.begin(c, RequestId{rid});
  // 1 and 2 slid out of the 4-entry window: replays, execution forbidden.
  EXPECT_EQ(table.admit(c, RequestId{1}), ClientTable::Decision::kStale);
  EXPECT_EQ(table.admit(c, RequestId{2}), ClientTable::Decision::kStale);
  table.complete(c, RequestId{2}, to_bytes("late"));  // evicted: dropped
  EXPECT_EQ(table.cached_reply(c, RequestId{2}), nullptr);
  EXPECT_EQ(table.admit(c, RequestId{5}), ClientTable::Decision::kInFlight);
  // begin() below the floor must not resurrect an evicted id.
  table.begin(c, RequestId{1});
  EXPECT_EQ(table.admit(c, RequestId{1}), ClientTable::Decision::kStale);
}

TEST(ClientTable, IndependentClients) {
  ClientTable table;
  table.begin(ClientId{1}, RequestId{5});
  EXPECT_EQ(table.admit(ClientId{2}, RequestId{1}),
            ClientTable::Decision::kExecute);
}

// --- QuorumTracker
// -------------------------------------------------------------

TEST(QuorumTracker, FiresOnceAtThreshold) {
  int fired = 0;
  QuorumTracker q(2, [&] { ++fired; });
  EXPECT_TRUE(q.ack(NodeId{1}));
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(q.ack(NodeId{2}));
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(q.ack(NodeId{3}));  // post-quorum acks not counted
  EXPECT_EQ(fired, 1);
}

TEST(QuorumTracker, DuplicateAcksIgnored) {
  int fired = 0;
  QuorumTracker q(2, [&] { ++fired; });
  EXPECT_TRUE(q.ack(NodeId{1}));
  EXPECT_FALSE(q.ack(NodeId{1}));
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(q.ack(NodeId{2}));
  EXPECT_EQ(fired, 1);
}

TEST(Majority, Formula) {
  EXPECT_EQ(majority(3), 2u);
  EXPECT_EQ(majority(4), 3u);
  EXPECT_EQ(majority(5), 3u);
  EXPECT_EQ(majority(1), 1u);
}

}  // namespace
}  // namespace recipe
