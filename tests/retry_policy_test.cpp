// RetryPolicy unit tests: per-attempt timeout growth, decorrelated-jitter
// backoff bounds, retryable-vs-fatal classification, and the deadline/
// attempt budget as KvClient consumes it end-to-end in simulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cluster_harness.h"
#include "common/rng.h"
#include "protocols/cr/cr.h"
#include "rpc/retry.h"

namespace recipe::rpc {
namespace {

TEST(RetryPolicyTest, AttemptTimeoutGrowsGeometricallyToCap) {
  RetryPolicy policy;
  policy.initial_timeout = 100 * sim::kMillisecond;
  policy.timeout_growth = 2.0;
  policy.max_timeout = 350 * sim::kMillisecond;

  EXPECT_EQ(policy.attempt_timeout(0), 100 * sim::kMillisecond);
  EXPECT_EQ(policy.attempt_timeout(1), 200 * sim::kMillisecond);
  EXPECT_EQ(policy.attempt_timeout(2), 350 * sim::kMillisecond);  // capped
  EXPECT_EQ(policy.attempt_timeout(10), 350 * sim::kMillisecond);
}

TEST(RetryPolicyTest, FlatGrowthKeepsHistoricalCadence) {
  RetryPolicy policy;
  policy.initial_timeout = 500 * sim::kMillisecond;
  policy.timeout_growth = 1.0;
  for (int attempt = 0; attempt < 5; ++attempt) {
    EXPECT_EQ(policy.attempt_timeout(attempt), 500 * sim::kMillisecond);
  }
}

TEST(RetryPolicyTest, BackoffStaysWithinDecorrelatedJitterBounds) {
  RetryPolicy policy;
  policy.base_backoff = 10 * sim::kMillisecond;
  policy.max_backoff = 200 * sim::kMillisecond;
  Rng rng(recipe::testing::resolved_seed(42));
  SCOPED_TRACE(recipe::testing::seed_trace_message(
      recipe::testing::resolved_seed(42)));

  sim::Time prev = 0;
  for (int i = 0; i < 1000; ++i) {
    const sim::Time hi = std::max<sim::Time>(
        policy.base_backoff, 3 * std::max(prev, policy.base_backoff));
    const sim::Time next = policy.next_backoff(prev, rng);
    EXPECT_GE(next, policy.base_backoff);
    EXPECT_LE(next, std::min(hi, policy.max_backoff));
    prev = next;
  }
}

TEST(RetryPolicyTest, BackoffSpreadsAcrossClients) {
  // The whole point of jitter: two clients with identical histories must
  // not sleep in lockstep.
  RetryPolicy policy;
  Rng a(1);
  Rng b(2);
  int distinct = 0;
  sim::Time prev_a = 0;
  sim::Time prev_b = 0;
  for (int i = 0; i < 32; ++i) {
    prev_a = policy.next_backoff(prev_a, a);
    prev_b = policy.next_backoff(prev_b, b);
    if (prev_a != prev_b) ++distinct;
  }
  EXPECT_GT(distinct, 16);
}

TEST(RetryPolicyTest, FatalClassification) {
  // Fatal: resending identical bytes can never fix these.
  for (const ErrorCode code :
       {ErrorCode::kInvalidArgument, ErrorCode::kAuthFailed, ErrorCode::kReplay,
        ErrorCode::kIntegrityViolation, ErrorCode::kNotAttested,
        ErrorCode::kRollback, ErrorCode::kInternal}) {
    EXPECT_TRUE(RetryPolicy::fatal(code)) << error_code_name(code);
  }
  // Retryable: transient network / availability / ordering conditions.
  for (const ErrorCode code :
       {ErrorCode::kOk, ErrorCode::kNotFound, ErrorCode::kAlreadyExists,
        ErrorCode::kOutOfOrder, ErrorCode::kWrongView, ErrorCode::kUnavailable,
        ErrorCode::kTimeout, ErrorCode::kOverloaded}) {
    EXPECT_FALSE(RetryPolicy::fatal(code)) << error_code_name(code);
  }
}

// End-to-end budget semantics in simulation: a client pointed at a replica
// that never answers burns exactly max_attempts attempts, spaced by its
// backoff, then fails with kTimeout.
TEST(RetryPolicyTest, ClientExhaustsAttemptBudgetAgainstSilentPeer) {
  recipe::testing::Cluster<protocols::ChainNode> cluster;
  cluster.build();
  KvClient& client = cluster.add_client(2000);

  // No such replica: every attempt times out.
  const NodeId void_peer{999};
  ClientReply reply;
  bool done = false;
  client.put(void_peer, "k", to_bytes("v"), [&](const ClientReply& r) {
    reply = r;
    done = true;
  });
  cluster.run_until_done(done, 30 * sim::kSecond);
  ASSERT_TRUE(done);
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.error, ErrorCode::kTimeout);
  EXPECT_EQ(client.failed(), 1u);
}

// A whole-op deadline shorter than the retransmit schedule cuts the op off
// early: the client gives up before exhausting max_attempts.
TEST(RetryPolicyTest, DeadlineCutsRetransmitScheduleShort) {
  recipe::testing::Cluster<protocols::ChainNode> cluster;
  cluster.build();

  auto enclave = std::make_unique<tee::Enclave>(cluster.platform(),
                                                "recipe-client", 2400);
  ASSERT_TRUE(attest::provision_preattested(*enclave, cluster.root()).is_ok());
  ClientOptions options;
  options.id = ClientId{2400};
  options.enclave = enclave.get();
  options.request_timeout = 200 * sim::kMillisecond;
  options.max_retries = 10;
  options.retry.deadline = 500 * sim::kMillisecond;
  KvClient client(cluster.sim(), cluster.network(), options);

  const sim::Time started = cluster.sim().now();
  ClientReply reply;
  bool done = false;
  client.put(NodeId{999}, "k", to_bytes("v"), [&](const ClientReply& r) {
    reply = r;
    done = true;
  });
  cluster.run_until_done(done, 30 * sim::kSecond);
  ASSERT_TRUE(done);
  EXPECT_FALSE(reply.ok);
  // 10 attempts at 200ms each would take ~2s; the deadline ends the op
  // within ~one attempt + backoff of the 500ms budget.
  EXPECT_LT(cluster.sim().now() - started, 1200 * sim::kMillisecond);
}

}  // namespace
}  // namespace recipe::rpc
