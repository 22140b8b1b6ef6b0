// Wire-format pinning for the shielded-message fast path.
//
// The single-buffer encoder (encode_shielded_frame + write_frame_mac) must
// emit byte-identical frames to the historical Writer-based
// ShieldedMessage::serialize() pipeline. Three layers of proof:
//  1. golden vectors: hex frames captured from the PRE-refactor
//     RecipeSecurity::shield() / NullSecurity::shield() / serialize()
//     binaries, asserted against the live implementations;
//  2. a randomized differential test pitting encode_shielded_frame against
//     a reference reimplementation of the old serialize() (including frames
//     with the encrypted flag and arbitrary "ciphertext" payloads);
//  3. ShieldedView::parse vs ShieldedMessage::parse equivalence, including
//     rejection of truncated/trailing-garbage frames.
// The sealed KV snapshot format is pinned the same way: a golden blob from
// the two-pass sealer must match the single-buffer sealer and still unseal.
#include <gtest/gtest.h>

#include <random>

#include "attest/bundle.h"
#include "common/serde.h"
#include "kvstore/kvstore.h"
#include "kvstore/snapshot.h"
#include "recipe/security.h"
#include "tee/platform.h"

namespace recipe {
namespace {

// --- 1. golden vectors captured from the pre-refactor implementation --------

// Fixture state identical to the capture program: cluster root = 32 x 0x77,
// sender NodeId{1}, receiver NodeId{2}.
struct GoldenFixture : public ::testing::Test {
  tee::TeePlatform platform{1};
  tee::Enclave enclave_a{platform, "code", 1};
  crypto::SymmetricKey root{Bytes(32, 0x77)};

  void SetUp() override {
    ASSERT_TRUE(attest::provision_preattested(enclave_a, root).is_ok());
  }
};

TEST_F(GoldenFixture, RecipeShieldMatchesPreRefactorFrame) {
  RecipeSecurity a(enclave_a, NodeId{1}, nullptr, nullptr, {});
  auto w1 = a.shield(NodeId{2}, ViewId{7}, as_view("hello golden vector"));
  ASSERT_TRUE(w1.is_ok());
  EXPECT_EQ(to_hex(as_view(w1.value())),
            "0700000000000000020010000000000001000000000000000100000000000000"
            "0200000000000000001300000068656c6c6f20676f6c64656e20766563746f72"
            "20000000d013ee424bfd4bc97429feca1e06f26abd340b2e0dcdc17075053a60"
            "2c5f094d");
  // Second message on the channel (cnt=2), empty payload.
  auto w2 = a.shield(NodeId{2}, ViewId{7}, BytesView{});
  ASSERT_TRUE(w2.is_ok());
  EXPECT_EQ(to_hex(as_view(w2.value())),
            "0700000000000000020010000000000002000000000000000100000000000000"
            "0200000000000000000000000020000000"
            "4b93a3c44a67470dac309890e43c492ba40415abc0d5ff3804ee643392d5c0f8");
}

TEST(WireGolden, NullShieldMatchesPreRefactorFrame) {
  NullSecurity n(NodeId{1});
  auto w = n.shield(NodeId{2}, ViewId{0}, as_view("null frame"));
  ASSERT_TRUE(w.is_ok());
  EXPECT_EQ(to_hex(as_view(w.value())),
            "0000000000000000020010000000000000000000000000000100000000000000"
            "0200000000000000000a0000006e756c6c206672616d6500000000");
}

TEST(WireGolden, EncryptedFlagFramingMatchesPreRefactorSerialize) {
  // Fixed pseudo-ciphertext payload: pins the frame layout (including the
  // encrypted flag and large 64-bit ids) independent of any nonce scheme.
  ShieldedMessage m;
  m.header.view = ViewId{3};
  m.header.cq = ChannelId{0xDEADBEEFCAFEF00Dull};
  m.header.cnt = 42;
  m.header.sender = NodeId{0x123456789ABCDEFull};
  m.header.receiver = NodeId{0xFEDCBA987654321ull};
  m.header.flags = ShieldedHeader::kFlagEncrypted;
  for (int i = 0; i < 13; ++i) {
    m.payload.push_back(static_cast<std::uint8_t>(i * 17));
  }
  m.mac = Bytes(32, 0x5C);

  const char* expected_frame =
      "03000000000000000df0fecaefbeadde2a00000000000000efcdab8967452301"
      "21436587a9cbed0f010d00000000112233445566778899aabbcc200000005c5c"
      "5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c";
  EXPECT_EQ(to_hex(as_view(m.serialize())), expected_frame);

  // The single-buffer encoder emits the same bytes.
  Bytes fast = encode_shielded_frame(m.header, as_view(m.payload),
                                     m.mac.size());
  std::copy(m.mac.begin(), m.mac.end(), fast.end() - 32);
  EXPECT_EQ(to_hex(as_view(fast)), expected_frame);

  // And its MAC coverage prefix equals the old authenticated_data() bytes.
  EXPECT_EQ(to_hex(as_view(m.authenticated_data())),
            "03000000000000000df0fecaefbeadde2a00000000000000efcdab8967452301"
            "21436587a9cbed0f010d00000000112233445566778899aabbcc");
  auto view = ShieldedView::parse(as_view(fast));
  ASSERT_TRUE(view.is_ok());
  EXPECT_EQ(to_hex(view.value().authenticated),
            to_hex(as_view(m.authenticated_data())));
}

// Sealed KV snapshot (kv::seal_snapshot), captured from the two-pass
// Writer-based sealer: the single-buffer sealer must emit the same bytes, and
// a blob in that layout must still unseal.
constexpr char kGoldenSnapshotHex[] =
    "504e535205000000000000000300000065000000282e50eaa5fa1557b2ff7a88"
    "0046edf627acae2d08dac86438ee6acda2aec28854bb72d505645f7202d7cca4"
    "99664274fc430e4db28b775039d9acb07565af9d00e2f76d214473b19a9854ff"
    "790df87524974219d619eddb7011591ded85dcb31d473a91fa4f6e0dadda5830"
    "5ad36b5ff660bbe18ee2d0300bcee72565f3842c36d84bf8da";

void fill_golden_store(kv::KvStore& store) {
  Bytes binary;
  for (int i = 0; i < 12; ++i) {
    binary.push_back(static_cast<std::uint8_t>(i * 29));
  }
  ASSERT_TRUE(store.write("gamma", as_view(binary), kv::Timestamp{7, 2}));
  ASSERT_TRUE(store.write("alpha", as_view("one"), kv::Timestamp{3, 1}));
  ASSERT_TRUE(store.write("beta", BytesView{}));
}

TEST(WireGolden, SealedSnapshotMatchesTwoPassSealer) {
  kv::KvStore store;
  fill_golden_store(store);
  const crypto::SymmetricKey key{Bytes(32, 0x5A)};
  auto sealed = kv::seal_snapshot(store, key, /*version=*/5);
  ASSERT_TRUE(sealed.is_ok());
  EXPECT_EQ(to_hex(as_view(sealed.value())), kGoldenSnapshotHex);
}

TEST(WireGolden, GoldenSnapshotStillUnseals) {
  const crypto::SymmetricKey key{Bytes(32, 0x5A)};
  const Bytes golden = from_hex(kGoldenSnapshotHex);
  kv::KvStore restored;
  auto r = kv::unseal_snapshot(as_view(golden), key, /*expected_version=*/5,
                               restored);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().installed, 3u);
  kv::KvStore expected;
  fill_golden_store(expected);
  for (const char* k : {"alpha", "beta", "gamma"}) {
    auto got = restored.get(k);
    auto want = expected.get(k);
    ASSERT_TRUE(got.is_ok()) << k;
    EXPECT_EQ(got.value().value, want.value().value) << k;
    EXPECT_EQ(got.value().timestamp, want.value().timestamp) << k;
  }
}

// --- 2. randomized differential vs a reference of the old encoder -----------

Bytes reference_serialize(const ShieldedHeader& h, BytesView payload,
                          BytesView mac) {
  // Verbatim logic of the pre-refactor ShieldedMessage::serialize().
  Writer w(payload.size() + mac.size() + 56);
  w.id(h.view);
  w.id(h.cq);
  w.u64(h.cnt);
  w.id(h.sender);
  w.id(h.receiver);
  w.u8(h.flags);
  w.bytes(payload);
  w.bytes(mac);
  return std::move(w).take();
}

TEST(WireGolden, RandomizedEncoderEquivalence) {
  std::mt19937_64 rng(0xC0FFEE);
  for (int iter = 0; iter < 500; ++iter) {
    ShieldedHeader h;
    h.view = ViewId{rng()};
    h.cq = ChannelId{rng()};
    h.cnt = rng();
    h.sender = NodeId{rng()};
    h.receiver = NodeId{rng()};
    h.flags = static_cast<std::uint8_t>(rng() & 0x01);  // incl. encrypted
    Bytes payload(rng() % 300);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
    const std::size_t mac_size = (iter % 2 == 0) ? crypto::kMacSize : 0;
    Bytes mac(mac_size);
    for (auto& b : mac) b = static_cast<std::uint8_t>(rng());

    Bytes fast = encode_shielded_frame(h, as_view(payload), mac_size);
    std::copy(mac.begin(), mac.end(),
              fast.end() - static_cast<std::ptrdiff_t>(mac_size));
    EXPECT_EQ(fast, reference_serialize(h, as_view(payload), as_view(mac)));

    // 3. Both parsers agree on the frame.
    auto owned = ShieldedMessage::parse(as_view(fast));
    auto view = ShieldedView::parse(as_view(fast));
    ASSERT_TRUE(owned.is_ok());
    ASSERT_TRUE(view.is_ok());
    EXPECT_EQ(view.value().header.cq, owned.value().header.cq);
    EXPECT_EQ(view.value().header.cnt, owned.value().header.cnt);
    EXPECT_EQ(view.value().header.flags, owned.value().header.flags);
    EXPECT_EQ(Bytes(view.value().payload.begin(), view.value().payload.end()),
              owned.value().payload);
    EXPECT_EQ(Bytes(view.value().mac.begin(), view.value().mac.end()),
              owned.value().mac);
  }
}

TEST(WireGolden, ViewParserRejectsWhatOwnedParserRejects) {
  ShieldedMessage msg;
  msg.payload = to_bytes("x");
  msg.mac = Bytes(32, 0xAA);
  const Bytes wire = msg.serialize();

  // Truncations at every boundary.
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    const BytesView prefix(wire.data(), cut);
    EXPECT_FALSE(ShieldedView::parse(prefix).is_ok()) << "cut=" << cut;
    EXPECT_FALSE(ShieldedMessage::parse(prefix).is_ok()) << "cut=" << cut;
  }
  // Trailing garbage.
  Bytes extended = wire;
  extended.push_back(0x00);
  EXPECT_FALSE(ShieldedView::parse(as_view(extended)).is_ok());
  EXPECT_FALSE(ShieldedMessage::parse(as_view(extended)).is_ok());
  // Intact frame parses.
  EXPECT_TRUE(ShieldedView::parse(as_view(wire)).is_ok());
}

// --- shield/verify round trips stay compatible across codec paths ----------

TEST_F(GoldenFixture, OwnedParserStillVerifiableAgainstFastShield) {
  // A frame produced by the fast encoder re-serialized through the owning
  // ShieldedMessage round-trips to identical bytes (proxy for any tooling
  // that captures, parses and re-emits traffic).
  RecipeSecurity a(enclave_a, NodeId{1}, nullptr, nullptr, {});
  auto wire = a.shield(NodeId{2}, ViewId{1}, as_view("reserialize me"));
  ASSERT_TRUE(wire.is_ok());
  auto owned = ShieldedMessage::parse(as_view(wire.value()));
  ASSERT_TRUE(owned.is_ok());
  EXPECT_EQ(owned.value().serialize(), wire.value());
}

}  // namespace
}  // namespace recipe
