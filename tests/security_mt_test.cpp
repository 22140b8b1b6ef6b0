// Staged-egress threading contract: shield()/shield_batch_parts()/verify()
// are callable from ANY thread (caller-thread crypto — the whole point of
// moving shielding off the transport loop). These tests hammer one channel
// from many threads and assert the invariants the wire depends on: every
// concurrently shielded frame gets a UNIQUE trusted counter (= unique nonce
// under confidentiality), every frame authenticates, and the receive-side
// replay bookkeeping accepts each exactly once. Built into the TSan CI job,
// where a data race in the snapshot cache, the enclave counter path or the
// recv-side mutex fails the run outright.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "attest/cas.h"
#include "recipe/security.h"
#include "tee/platform.h"

namespace recipe {
namespace {

struct MtSecurityFixture : public ::testing::Test {
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

constexpr std::size_t kThreads = 8;
constexpr std::size_t kPerThread = 400;

TEST_F(MtSecurityFixture, ConcurrentShieldsOnOneChannelNeverReuseACounter) {
  auto a = make(enclave_a, NodeId{1});

  std::vector<std::vector<Bytes>> wires(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      wires[t].reserve(kPerThread);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        auto wire = a.shield(NodeId{2}, ViewId{1}, as_view("payload"));
        ASSERT_TRUE(wire.is_ok());
        wires[t].push_back(std::move(wire).take());
      }
    });
  }
  for (auto& th : threads) th.join();

  // Every frame carries a distinct trusted counter: under confidentiality
  // the nonce is bound to (cq, cnt), so counter uniqueness IS nonce
  // uniqueness — reuse would be key-stream reuse.
  std::set<Counter> counters;
  for (const auto& per_thread : wires) {
    for (const Bytes& wire : per_thread) {
      auto msg = ShieldedMessage::parse(as_view(wire));
      ASSERT_TRUE(msg.is_ok());
      EXPECT_TRUE(counters.insert(msg.value().header.cnt).second)
          << "counter reused across threads";
    }
  }
  EXPECT_EQ(counters.size(), kThreads * kPerThread);

  // Verified in counter order (the replay window is narrower than the run):
  // each frame authenticates and is accepted exactly once.
  auto b = make(enclave_b, NodeId{2});
  std::vector<Bytes> all;
  for (auto& per_thread : wires) {
    for (Bytes& wire : per_thread) all.push_back(std::move(wire));
  }
  std::sort(all.begin(), all.end(), [](const Bytes& x, const Bytes& y) {
    return ShieldedMessage::parse(as_view(x)).value().header.cnt <
           ShieldedMessage::parse(as_view(y)).value().header.cnt;
  });
  for (const Bytes& wire : all) {
    ASSERT_TRUE(b.verify(NodeId{1}, as_view(wire)).is_ok());
  }
  EXPECT_EQ(b.rejected_auth(), 0u);
  EXPECT_EQ(b.rejected_replay(), 0u);
}

TEST_F(MtSecurityFixture, ConcurrentShieldVerifyAndBatchPartsAreRaceFree) {
  // Confidentiality ON: the in-place encrypt paths (contiguous and scatter)
  // run concurrently against the shared channel snapshot.
  RecipeSecurityConfig conf;
  conf.confidentiality = true;
  auto a = make(enclave_a, NodeId{1}, conf);
  auto b = make(enclave_b, NodeId{2}, conf);

  std::atomic<std::uint64_t> verified{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        if ((t + i) % 2 == 0) {
          // Contiguous single frame.
          auto wire = a.shield(NodeId{2}, ViewId{1}, as_view("secret"));
          ASSERT_TRUE(wire.is_ok());
          auto env = b.verify(NodeId{1}, as_view(wire.value()));
          ASSERT_TRUE(env.is_ok()) << env.status().to_string();
          EXPECT_EQ(to_string(as_view(env.value().payload)), "secret");
          ++verified;
        } else {
          // Scatter batch: shield where the body lives, reassemble as the
          // transport's gather write would, verify as one frame.
          BatchFrame frame;
          frame.add(BatchItem::kKindRequest, 7, t * kPerThread + i,
                    as_view("sub-message"));
          Bytes body = frame.take_body();
          auto parts = a.shield_batch_parts(NodeId{2}, ViewId{1}, body);
          ASSERT_TRUE(parts.is_ok());
          Bytes wire = std::move(parts.value().head);
          append(wire, as_view(body));
          append(wire, as_view(parts.value().tail));
          auto env = b.verify(NodeId{1}, as_view(wire));
          ASSERT_TRUE(env.is_ok()) << env.status().to_string();
          EXPECT_TRUE(env.value().batch);
          ++verified;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(verified.load(), kThreads * kPerThread);
  EXPECT_EQ(b.rejected_auth(), 0u);
}

}  // namespace
}  // namespace recipe
