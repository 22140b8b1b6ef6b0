// Unit + property tests for the partitioned KV store: skiplist correctness,
// timestamp semantics, integrity detection against a Byzantine host, and
// confidentiality mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "kvstore/kvstore.h"

namespace recipe::kv {
namespace {

TEST(KvStore, PutGetRoundTrip) {
  KvStore kv;
  EXPECT_TRUE(kv.write("k1", as_view("v1")));
  auto got = kv.get("k1");
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(to_string(as_view(got.value().value)), "v1");
}

TEST(KvStore, MissingKeyIsNotFound) {
  KvStore kv;
  EXPECT_EQ(kv.get("nope").code(), ErrorCode::kNotFound);
  EXPECT_FALSE(kv.contains("nope"));
  EXPECT_FALSE(kv.timestamp("nope").has_value());
}

TEST(KvStore, OverwriteUpdatesValue) {
  KvStore kv;
  kv.write("k", as_view("v1"));
  kv.write("k", as_view("v2"));
  EXPECT_EQ(to_string(as_view(kv.get("k").value().value)), "v2");
  EXPECT_EQ(kv.size(), 1u);
}

TEST(KvStore, TimestampedWriteRejectsStale) {
  KvStore kv;
  EXPECT_TRUE(kv.write("k", as_view("new"), Timestamp{5, 1}));
  EXPECT_FALSE(kv.write("k", as_view("old"), Timestamp{3, 2}));
  EXPECT_EQ(to_string(as_view(kv.get("k").value().value)), "new");
  EXPECT_EQ(kv.timestamp("k").value(), (Timestamp{5, 1}));
}

TEST(KvStore, TimestampTieBrokenByNode) {
  KvStore kv;
  EXPECT_TRUE(kv.write("k", as_view("a"), Timestamp{5, 1}));
  EXPECT_TRUE(kv.write("k", as_view("b"), Timestamp{5,
                                                    2}));  // higher node wins
  EXPECT_FALSE(kv.write("k", as_view("c"), Timestamp{5, 1}));
  EXPECT_EQ(to_string(as_view(kv.get("k").value().value)), "b");
}

TEST(KvStore, UntimestampedWriteAlwaysApplies) {
  KvStore kv;
  kv.write("k", as_view("v1"), Timestamp{9, 9});
  EXPECT_TRUE(kv.write("k", as_view("v2")));  // protocol-ordered write
  EXPECT_EQ(to_string(as_view(kv.get("k").value().value)), "v2");
}

TEST(KvStore, EraseRemoves) {
  KvStore kv;
  kv.write("a", as_view("1"));
  kv.write("b", as_view("2"));
  EXPECT_TRUE(kv.erase("a"));
  EXPECT_FALSE(kv.erase("a"));
  EXPECT_FALSE(kv.contains("a"));
  EXPECT_TRUE(kv.contains("b"));
  EXPECT_EQ(kv.size(), 1u);
}

TEST(KvStore, ScanIsSorted) {
  KvStore kv;
  for (const char* k : {"delta", "alpha", "charlie", "bravo"}) {
    kv.write(k, as_view("v"));
  }
  std::vector<std::string> keys;
  kv.scan([&](std::string_view k, const Timestamp&) {
    keys.emplace_back(k);
    return true;
  });
  EXPECT_EQ(keys, (std::vector<std::string>{"alpha", "bravo", "charlie",
                                            "delta"}));
}

TEST(KvStore, ScanEarlyStop) {
  KvStore kv;
  for (const char* k : {"a", "b", "c"}) kv.write(k, as_view("v"));
  int seen = 0;
  kv.scan([&](std::string_view, const Timestamp&) { return ++seen < 2; });
  EXPECT_EQ(seen, 2);
}

TEST(KvStore, ScanFromIsStrictlyAfterCursor) {
  KvStore kv;
  for (const char* k : {"a", "b", "c"}) kv.write(k, as_view("v"));
  std::vector<std::string> keys;
  kv.scan_from("a", [&](std::string_view k, const Timestamp&) {
    keys.emplace_back(k);
    return true;
  });
  EXPECT_EQ(keys, (std::vector<std::string>{"b", "c"}));
}

TEST(KvStore, ScanFromEmptyCursorSkipsOnlyTheEmptyKey) {
  // The empty string is a VALID key. scan_from("") means "strictly after
  // the empty key" — it must yield every named key but never "" itself
  // (streaming "from the very first key" is scan(), flagged separately on
  // the wire via has_cursor).
  KvStore kv;
  kv.write("", as_view("empty"));
  kv.write("a", as_view("v"));
  std::vector<std::string> keys;
  kv.scan_from("", [&](std::string_view k, const Timestamp&) {
    keys.emplace_back(k);
    return true;
  });
  EXPECT_EQ(keys, (std::vector<std::string>{"a"}));
}

TEST(KvStore, ScanFromCursorAtOrPastLastKeyYieldsNothing) {
  KvStore kv;
  for (const char* k : {"a", "b", "c"}) kv.write(k, as_view("v"));
  int seen = 0;
  const auto count = [&](std::string_view, const Timestamp&) {
    ++seen;
    return true;
  };
  kv.scan_from("c", count);  // cursor == last key
  EXPECT_EQ(seen, 0);
  kv.scan_from("zzz", count);  // cursor past every key
  EXPECT_EQ(seen, 0);
  KvStore empty;
  empty.scan_from("", count);  // empty store, empty cursor
  empty.scan_from("a", count);
  EXPECT_EQ(seen, 0);
}

TEST(KvStore, ScanFromEarlyStop) {
  KvStore kv;
  for (const char* k : {"a", "b", "c", "d"}) kv.write(k, as_view("v"));
  int seen = 0;
  kv.scan_from("a", [&](std::string_view, const Timestamp&) {
    return ++seen < 2;
  });
  EXPECT_EQ(seen, 2);
}

TEST(KvStore, ValuesLiveInHostMemoryKeysInEnclave) {
  KvStore kv;
  const Bytes big(100000, 'x');
  kv.write("k", as_view(big));
  EXPECT_GE(kv.host_bytes(), big.size());
  EXPECT_LT(kv.enclave_bytes(), 1000u);  // only key + metadata
}

// --- Byzantine host attacks --------------------------------------------------

TEST(KvStore, DetectsHostCorruption) {
  KvStore kv;
  kv.write("k", as_view("value"));
  ASSERT_TRUE(kv.host_arena().corrupt(kv.host_ptr("k").value()).is_ok());
  EXPECT_EQ(kv.get("k").code(), ErrorCode::kIntegrityViolation);
}

TEST(KvStore, DetectsValueSwapAttack) {
  // Host swaps two legitimate values: each is individually "valid" data, but
  // bound to the wrong key. The key-bound digest must catch it.
  KvStore kv;
  kv.write("alice", as_view("rich"));
  kv.write("bob", as_view("poor"));
  ASSERT_TRUE(kv.host_arena()
                  .swap(kv.host_ptr("alice").value(),
                        kv.host_ptr("bob").value())
                  .is_ok());
  EXPECT_EQ(kv.get("alice").code(), ErrorCode::kIntegrityViolation);
  EXPECT_EQ(kv.get("bob").code(), ErrorCode::kIntegrityViolation);
}

TEST(KvStore, DetectsHostFreeingValue) {
  KvStore kv;
  kv.write("k", as_view("value"));
  kv.host_arena().free(kv.host_ptr("k").value());
  EXPECT_EQ(kv.get("k").code(), ErrorCode::kIntegrityViolation);
}

TEST(KvStore, RewriteAfterCorruptionHeals) {
  KvStore kv;
  kv.write("k", as_view("v1"));
  ASSERT_TRUE(kv.host_arena().corrupt(kv.host_ptr("k").value()).is_ok());
  kv.write("k", as_view("v2"));
  EXPECT_EQ(to_string(as_view(kv.get("k").value().value)), "v2");
}

// --- Confidentiality mode
// ------------------------------------------------------

KvConfig confidential_config() {
  KvConfig config;
  config.value_encryption_key =
      crypto::SymmetricKey{Bytes(crypto::kSymmetricKeySize, 0x33)};
  return config;
}

TEST(KvStore, ConfidentialRoundTrip) {
  KvStore kv(confidential_config());
  EXPECT_TRUE(kv.confidential());
  kv.write("k", as_view("secret-value"));
  EXPECT_EQ(to_string(as_view(kv.get("k").value().value)), "secret-value");
}

TEST(KvStore, HostMemoryHoldsCiphertextOnly) {
  KvStore kv(confidential_config());
  const Bytes plaintext = to_bytes("super-secret-payload");
  kv.write("k", as_view(plaintext));
  const Bytes host_view =
      kv.host_arena().load(kv.host_ptr("k").value()).value();
  EXPECT_EQ(host_view.size(), plaintext.size());
  EXPECT_NE(host_view, plaintext);  // encrypted at rest in host memory
}

TEST(KvStore, ConfidentialUpdatesUseFreshNonce) {
  KvStore kv(confidential_config());
  kv.write("k", as_view("same-value"));
  const Bytes c1 = kv.host_arena().load(kv.host_ptr("k").value()).value();
  kv.write("k", as_view("same-value"));
  const Bytes c2 = kv.host_arena().load(kv.host_ptr("k").value()).value();
  EXPECT_NE(c1, c2);  // version-bound nonce: no keystream reuse
}

TEST(KvStore, ConfidentialDetectsCorruption) {
  KvStore kv(confidential_config());
  kv.write("k", as_view("value"));
  ASSERT_TRUE(kv.host_arena().corrupt(kv.host_ptr("k").value()).is_ok());
  EXPECT_EQ(kv.get("k").code(), ErrorCode::kIntegrityViolation);
}

// --- Verified value scan ------------------------------------------------------

TEST(KvStore, ScanValuesYieldsVerifiedPlaintextInKeyOrder) {
  KvStore kv(confidential_config());
  kv.write("b", as_view("vb"), Timestamp{2, 1});
  kv.write("a", as_view("va"), Timestamp{1, 1});
  kv.write("c", as_view(""), Timestamp{3, 1});
  std::vector<std::string> seen;
  ASSERT_TRUE(kv.scan_values([&](std::string_view key, BytesView value,
                                 const Timestamp& ts) {
                  seen.push_back(std::string(key) + "=" + to_string(value) +
                                 "@" + std::to_string(ts.counter));
                })
                  .is_ok());
  EXPECT_EQ(seen, (std::vector<std::string>{"a=va@1", "b=vb@2", "c=@3"}));
}

TEST(KvStore, ScanValuesFailsAtATamperedValue) {
  KvStore kv;
  kv.write("a", as_view("va"));
  kv.write("b", as_view("vb"));
  kv.write("c", as_view("vc"));
  ASSERT_TRUE(kv.host_arena().corrupt(kv.host_ptr("b").value()).is_ok());
  std::vector<std::string> seen;
  const Status s = kv.scan_values(
      [&](std::string_view key, BytesView, const Timestamp&) {
        seen.emplace_back(key);
      });
  EXPECT_EQ(s.code(), ErrorCode::kIntegrityViolation);
  EXPECT_EQ(seen, (std::vector<std::string>{"a"}));
}

TEST(KvStore, PayloadBytesTracksKeysAndValues) {
  KvStore kv;
  EXPECT_EQ(kv.payload_bytes(), 0u);
  kv.write("key", as_view("12345"));
  EXPECT_EQ(kv.payload_bytes(), 3u + 5u);
  kv.write("key", as_view("12"));  // update: only the value size moves
  EXPECT_EQ(kv.payload_bytes(), 3u + 2u);
  kv.write("k2", as_view("abcdef"));
  EXPECT_EQ(kv.payload_bytes(), 3u + 2u + 2u + 6u);
  ASSERT_TRUE(kv.erase("key"));
  EXPECT_EQ(kv.payload_bytes(), 2u + 6u);
  kv.clear();
  EXPECT_EQ(kv.payload_bytes(), 0u);
}

// --- Property sweep: random ops mirror a std::map model
// -------------------------

class KvStoreModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KvStoreModelTest, MatchesReferenceModel) {
  Rng rng(GetParam());
  KvStore kv;
  std::map<std::string, std::string> model;

  for (int op = 0; op < 2000; ++op) {
    const std::string key = "key" + std::to_string(rng.below(50));
    const int action = static_cast<int>(rng.below(10));
    if (action < 5) {  // write
      const std::string value = "v" + std::to_string(rng.next());
      kv.write(key, as_view(value));
      model[key] = value;
    } else if (action < 8) {  // read
      auto got = kv.get(key);
      const auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_EQ(got.code(), ErrorCode::kNotFound);
      } else {
        ASSERT_TRUE(got.is_ok());
        EXPECT_EQ(to_string(as_view(got.value().value)), it->second);
      }
    } else {  // erase
      EXPECT_EQ(kv.erase(key), model.erase(key) > 0);
    }
    EXPECT_EQ(kv.size(), model.size());
  }

  // Final scan equals model iteration order.
  std::vector<std::string> scanned;
  kv.scan([&](std::string_view k, const Timestamp&) {
    scanned.emplace_back(k);
    return true;
  });
  std::vector<std::string> expected;
  for (const auto& [k, v] : model) expected.push_back(k);
  EXPECT_EQ(scanned, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvStoreModelTest,
                         ::testing::Values(1, 2, 3, 42, 1337));

}  // namespace
}  // namespace recipe::kv
