// Randomized batch-frame tests: round-trip through BatchFrame/BatchView and
// the shield_batch()/verify() seam, then attack the bytes — truncation, bit
// flips, length-field corruption, splicing, replay. Every corruption must be
// rejected CLEANLY: no crash, no partial delivery, the rejection counted in
// the security stats, and the channel still usable afterwards.
//
// All randomness honors RECIPE_TEST_SEED (see cluster_harness.h) and failing
// runs print the seed to replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "attest/bundle.h"
#include "cluster_harness.h"
#include "common/endian.h"
#include "common/rng.h"
#include "recipe/message.h"
#include "recipe/security.h"
#include "tee/platform.h"

namespace recipe {
namespace {

using testing::resolved_seed;
using testing::seed_trace_message;

struct Item {
  std::uint8_t kind;
  std::uint32_t type;
  std::uint64_t rpc_id;
  Bytes payload;
};

std::vector<Item> random_items(Rng& rng, std::size_t max_count = 24,
                               std::size_t max_payload = 300) {
  std::vector<Item> items(1 + rng.below(max_count));
  for (auto& item : items) {
    item.kind = rng.chance(0.5) ? BatchItem::kKindRequest
                                : BatchItem::kKindResponse;
    item.type = static_cast<std::uint32_t>(rng.next());
    item.rpc_id = rng.next();
    item.payload.resize(rng.below(max_payload + 1));
    for (auto& b : item.payload) b = static_cast<std::uint8_t>(rng.next());
  }
  return items;
}

Bytes encode(const std::vector<Item>& items) {
  BatchFrame frame;
  for (const Item& item : items) {
    frame.add(item.kind, item.type, item.rpc_id, as_view(item.payload));
  }
  return frame.take_body();
}

// --- BatchFrame / BatchView round trip ---------------------------------------

TEST(BatchFrame, RandomizedRoundTrip) {
  const std::uint64_t seed = resolved_seed(0xBA7C4F);
  SCOPED_TRACE(seed_trace_message(seed));
  Rng rng(seed);

  BatchFrame frame;
  for (int iter = 0; iter < 200; ++iter) {
    const auto items = random_items(rng);
    for (const Item& item : items) {
      frame.add(item.kind, item.type, item.rpc_id, as_view(item.payload));
    }
    EXPECT_EQ(frame.count(), items.size());
    const Bytes body = frame.take_body();
    // take_body() resets the builder for reuse.
    EXPECT_TRUE(frame.empty());
    EXPECT_EQ(frame.body_bytes(), kBatchCountSize);

    auto view = BatchView::parse(as_view(body));
    ASSERT_TRUE(view.is_ok());
    ASSERT_EQ(view.value().size(), items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      const BatchItem& got = view.value()[i];
      EXPECT_EQ(got.kind, items[i].kind);
      EXPECT_EQ(got.type, items[i].type);
      EXPECT_EQ(got.rpc_id, items[i].rpc_id);
      EXPECT_EQ(Bytes(got.payload.begin(), got.payload.end()),
                items[i].payload);
    }
  }
}

TEST(BatchFrame, ParserRejectsTruncation) {
  const std::uint64_t seed = resolved_seed(0x7A11);
  SCOPED_TRACE(seed_trace_message(seed));
  Rng rng(seed);
  const Bytes body = encode(random_items(rng, 8, 40));

  for (std::size_t cut = 0; cut < body.size(); ++cut) {
    const auto r = BatchView::parse(BytesView(body.data(), cut));
    EXPECT_FALSE(r.is_ok()) << "cut=" << cut;
  }
  Bytes extended = body;
  extended.push_back(0x00);
  EXPECT_FALSE(BatchView::parse(as_view(extended)).is_ok());
  EXPECT_TRUE(BatchView::parse(as_view(body)).is_ok());
}

TEST(BatchFrame, ParserRejectsLengthCorruption) {
  const std::uint64_t seed = resolved_seed(0x1E57);
  SCOPED_TRACE(seed_trace_message(seed));
  Rng rng(seed);

  for (int iter = 0; iter < 100; ++iter) {
    const auto items = random_items(rng, 6, 60);
    const Bytes body = encode(items);

    // Count field corruption: one item more, one fewer, absurdly many.
    for (std::uint64_t delta : {std::uint64_t{1}, ~std::uint64_t{0},
                                std::uint64_t{0x7FFFFFFF}}) {
      Bytes bad = body;
      store_le32(bad.data(),
                 static_cast<std::uint32_t>(items.size() + delta));
      EXPECT_FALSE(BatchView::parse(as_view(bad)).is_ok());
    }

    // First item's inner length field grown/shrunk: either the item overruns
    // the body or trailing bytes remain — both must be rejected.
    if (!items[0].payload.empty()) {
      Bytes longer = body;
      store_le32(longer.data() + kBatchCountSize + 13,
                 static_cast<std::uint32_t>(items[0].payload.size() + 1));
      EXPECT_FALSE(BatchView::parse(as_view(longer)).is_ok());
      Bytes shorter = body;
      store_le32(shorter.data() + kBatchCountSize + 13,
                 static_cast<std::uint32_t>(items[0].payload.size() - 1));
      // A shrunk length either desynchronizes parsing (failure) or — if the
      // freed bytes happen to parse as further framing — still may not
      // resynchronize to exact coverage with the same count.
      const auto r = BatchView::parse(as_view(shorter));
      if (r.is_ok()) {
        // Extremely unlikely resynchronization: at minimum the first payload
        // must differ from the original.
        ASSERT_GE(r.value().size(), 1u);
        EXPECT_NE(Bytes(r.value()[0].payload.begin(),
                        r.value()[0].payload.end()),
                  items[0].payload);
      }
    }
  }
}

TEST(BatchFrame, RandomBitFlipsNeverCrashParser) {
  const std::uint64_t seed = resolved_seed(0xF1195);
  SCOPED_TRACE(seed_trace_message(seed));
  Rng rng(seed);

  for (int iter = 0; iter < 300; ++iter) {
    const auto items = random_items(rng, 6, 80);
    Bytes body = encode(items);
    const std::size_t flips = 1 + rng.below(8);
    for (std::size_t f = 0; f < flips; ++f) {
      body[rng.below(body.size())] ^= static_cast<std::uint8_t>(
          1u << rng.below(8));
    }
    // Must never crash or read out of bounds; when a parse succeeds, every
    // payload view must lie inside the body.
    auto r = BatchView::parse(as_view(body));
    if (r.is_ok()) {
      for (const BatchItem& item : r.value()) {
        if (item.payload.empty()) continue;
        EXPECT_GE(item.payload.data(), body.data());
        EXPECT_LE(item.payload.data() + item.payload.size(),
                  body.data() + body.size());
      }
    }
  }
}

// --- shield_batch / verify ---------------------------------------------------

struct SecurityPair {
  tee::TeePlatform platform{1};
  tee::Enclave enclave_a{platform, "code", 1};
  tee::Enclave enclave_b{platform, "code", 2};
  crypto::SymmetricKey root{Bytes(32, 0x77)};
  RecipeSecurity a;
  RecipeSecurity b;

  explicit SecurityPair(bool confidential = false)
      : a(enclave_a, NodeId{1}, nullptr, nullptr, cfg(confidential)),
        b(enclave_b, NodeId{2}, nullptr, nullptr, cfg(confidential)) {
    EXPECT_TRUE(attest::provision_preattested(enclave_a, root).is_ok());
    EXPECT_TRUE(attest::provision_preattested(enclave_b, root).is_ok());
  }
  static RecipeSecurityConfig cfg(bool confidential) {
    RecipeSecurityConfig c;
    c.confidentiality = confidential;
    return c;
  }
};

TEST(BatchShield, RoundTripBothModes) {
  const std::uint64_t seed = resolved_seed(0x5EC5);
  SCOPED_TRACE(seed_trace_message(seed));
  Rng rng(seed);

  for (bool confidential : {false, true}) {
    SecurityPair pair(confidential);
    for (int iter = 0; iter < 50; ++iter) {
      const auto items = random_items(rng, 10, 120);
      const Bytes body = encode(items);
      auto wire = pair.a.shield_batch(NodeId{2}, ViewId{3}, as_view(body));
      ASSERT_TRUE(wire.is_ok());
      if (confidential) {
        // The body must not appear in clear on the wire.
        EXPECT_EQ(std::search(wire.value().begin(), wire.value().end(),
                              body.begin(), body.end()),
                  wire.value().end());
      }
      auto env = pair.b.verify(NodeId{1}, as_view(wire.value()));
      ASSERT_TRUE(env.is_ok());
      EXPECT_TRUE(env.value().batch);
      EXPECT_EQ(env.value().payload, body);
      auto view = BatchView::parse(as_view(env.value().payload));
      ASSERT_TRUE(view.is_ok());
      EXPECT_EQ(view.value().size(), items.size());
    }
    // Unbatched frames do not carry the batch flag.
    auto single = pair.a.shield(NodeId{2}, ViewId{3}, as_view(to_bytes("x")));
    ASSERT_TRUE(single.is_ok());
    auto env = pair.b.verify(NodeId{1}, as_view(single.value()));
    ASSERT_TRUE(env.is_ok());
    EXPECT_FALSE(env.value().batch);
  }
}

TEST(BatchShield, OneReplaySlotPerBatch) {
  SecurityPair pair;
  BatchFrame frame;
  for (int i = 0; i < 10; ++i) {
    frame.add(BatchItem::kKindRequest, 7, 100 + i, as_view(to_bytes("op")));
  }
  auto wire = pair.a.shield_batch(NodeId{2}, ViewId{0},
                                  as_view(frame.take_body()));
  ASSERT_TRUE(wire.is_ok());
  ASSERT_TRUE(pair.b.verify(NodeId{1}, as_view(wire.value())).is_ok());
  // Replaying the whole batch burns on its SINGLE replay-window slot.
  auto replay = pair.b.verify(NodeId{1}, as_view(wire.value()));
  EXPECT_FALSE(replay.is_ok());
  EXPECT_EQ(replay.code(), ErrorCode::kReplay);
  EXPECT_EQ(pair.b.rejected_replay(), 1u);
}

TEST(BatchShield, CorruptedWireRejectedCleanlyAndChannelSurvives) {
  const std::uint64_t seed = resolved_seed(0xC0881);
  SCOPED_TRACE(seed_trace_message(seed));
  Rng rng(seed);

  for (bool confidential : {false, true}) {
    SecurityPair pair(confidential);
    std::uint64_t expect_auth_rejects = 0;
    for (int iter = 0; iter < 120; ++iter) {
      const auto items = random_items(rng, 8, 100);
      const Bytes body = encode(items);
      auto wire = pair.a.shield_batch(NodeId{2}, ViewId{0}, as_view(body));
      ASSERT_TRUE(wire.is_ok());
      Bytes attacked = wire.value();

      const int attack = static_cast<int>(rng.below(3));
      if (attack == 0) {
        attacked.resize(rng.below(attacked.size()));  // truncate
      } else if (attack == 1) {
        attacked[rng.below(attacked.size())] ^=
            static_cast<std::uint8_t>(1u << rng.below(8));  // bit flip
      } else {
        // Length-corrupt the frame's payload-length field.
        store_le32(attacked.data() + kShieldedHeaderSize,
                   static_cast<std::uint32_t>(rng.next()));
      }
      if (attacked == wire.value()) continue;  // degenerate corruption

      auto env = pair.b.verify(NodeId{1}, as_view(attacked));
      EXPECT_FALSE(env.is_ok()) << "attack=" << attack;
      ++expect_auth_rejects;
      EXPECT_EQ(pair.b.rejected_auth(), expect_auth_rejects);

      // No partial delivery AND no channel poisoning: the genuine frame
      // still verifies afterwards, with every sub-message intact.
      auto good = pair.b.verify(NodeId{1}, as_view(wire.value()));
      ASSERT_TRUE(good.is_ok());
      auto view = BatchView::parse(as_view(good.value().payload));
      ASSERT_TRUE(view.is_ok());
      EXPECT_EQ(view.value().size(), items.size());
    }
    EXPECT_GT(expect_auth_rejects, 0u);
  }
}

TEST(BatchShield, SplicedBatchBodiesRejected) {
  const std::uint64_t seed = resolved_seed(0x5911CE);
  SCOPED_TRACE(seed_trace_message(seed));
  Rng rng(seed);
  SecurityPair pair;

  for (int iter = 0; iter < 60; ++iter) {
    const Bytes body1 = encode(random_items(rng, 6, 60));
    const Bytes body2 = encode(random_items(rng, 6, 60));
    auto w1 = pair.a.shield_batch(NodeId{2}, ViewId{0}, as_view(body1));
    auto w2 = pair.a.shield_batch(NodeId{2}, ViewId{0}, as_view(body2));
    ASSERT_TRUE(w1.is_ok());
    ASSERT_TRUE(w2.is_ok());

    // Cross-splice: frame 1's header+MAC around frame 2's sub-messages.
    auto v1 = ShieldedView::parse(as_view(w1.value()));
    auto v2 = ShieldedView::parse(as_view(w2.value()));
    ASSERT_TRUE(v1.is_ok());
    ASSERT_TRUE(v2.is_ok());
    Bytes spliced =
        encode_shielded_frame(v1.value().header, v2.value().payload,
                              crypto::kMacSize);
    std::copy(v1.value().mac.begin(), v1.value().mac.end(),
              spliced.end() - static_cast<std::ptrdiff_t>(crypto::kMacSize));

    const std::uint64_t before = pair.b.rejected_auth();
    EXPECT_FALSE(pair.b.verify(NodeId{1}, as_view(spliced)).is_ok());
    EXPECT_EQ(pair.b.rejected_auth(), before + 1);

    // The untampered frames still verify (fresh counters).
    EXPECT_TRUE(pair.b.verify(NodeId{1}, as_view(w1.value())).is_ok());
    EXPECT_TRUE(pair.b.verify(NodeId{1}, as_view(w2.value())).is_ok());
  }
}

}  // namespace
}  // namespace recipe
