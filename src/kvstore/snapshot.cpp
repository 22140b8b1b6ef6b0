#include "kvstore/snapshot.h"

#include "common/endian.h"
#include "common/serde.h"
#include "crypto/chacha20.h"

namespace recipe::kv {

namespace {

constexpr std::uint32_t kSnapshotMagic = 0x52534E50;  // "RSNP"
constexpr std::uint32_t kSnapshotNonceTag = 0x534E4150;  // "SNAP"

}  // namespace

Result<SnapshotManifest> peek_snapshot_manifest(BytesView sealed) {
  Reader r(sealed);
  const auto magic = r.u32();
  const auto version = r.u64();
  const auto entries = r.u32();
  if (!magic || *magic != kSnapshotMagic || !version || !entries) {
    return Status::error(ErrorCode::kInvalidArgument, "not a sealed snapshot");
  }
  SnapshotManifest m;
  m.version = *version;
  m.entries = *entries;
  return m;
}

Result<Bytes> seal_snapshot(const KvStore& kv,
                            const crypto::SymmetricKey& sealing_key,
                            std::uint64_t version) {
  // Blob: [magic u32][version u64][count u32][body length u32][body][MAC],
  // body = [key str][value bytes][ts.counter u64][ts.node u64]*. One walk
  // writes it straight into a buffer sized from the store's own accounting;
  // the body is then encrypted and the prefix MAC'd where they lie.
  constexpr std::size_t kCountOffset = 4 + 8;
  constexpr std::size_t kBodyOffset = kCountOffset + 4 + 4;
  constexpr std::size_t kEntryOverhead = 4 + 4 + 8 + 8;
  Writer blob(kBodyOffset + kv.payload_bytes() + kEntryOverhead * kv.size() +
              crypto::kMacSize);
  blob.u32(kSnapshotMagic);
  blob.u64(version);
  blob.u32(0);  // entry count, patched below
  blob.u32(0);  // body length, patched below
  std::uint32_t count = 0;
  // Values come through the integrity-checking scan, so a host that
  // corrupted the arena can never launder bad bytes into a sealed snapshot —
  // and a value that fails its digest fails the seal: skipping it would let
  // compaction delete the segments holding the last good copy.
  if (auto s = kv.scan_values([&](std::string_view key, BytesView value,
                                  const Timestamp& ts) {
        blob.str(key);
        blob.bytes(value);
        blob.u64(ts.counter);
        blob.u64(ts.node);
        ++count;
      });
      !s.is_ok()) {
    return s;
  }

  Bytes out = std::move(blob).take();
  const std::size_t body_len = out.size() - kBodyOffset;
  store_le32(out.data() + kCountOffset, count);
  store_le32(out.data() + kCountOffset + 4,
             static_cast<std::uint32_t>(body_len));
  // Nonce bound to the snapshot version: each sealed version uses a distinct
  // stream under the long-lived sealing key.
  const auto nonce = crypto::make_nonce(kSnapshotNonceTag, version);
  crypto::chacha20_xor(sealing_key.view(), nonce, 0, out.data() + kBodyOffset,
                       body_len);
  const crypto::Mac mac =
      crypto::hmac_sha256(sealing_key.view(), as_view(out));
  out.insert(out.end(), mac.begin(), mac.end());
  return out;
}

Result<SnapshotRestore> unseal_snapshot(BytesView sealed,
                                        const crypto::SymmetricKey& sealing_key,
                                        std::uint64_t expected_version,
                                        KvStore& kv) {
  Reader r(sealed);
  const auto magic = r.u32();
  const auto version = r.u64();
  const auto count = r.u32();
  auto body = r.bytes();
  const auto mac = r.raw(crypto::kMacSize);
  if (!magic || *magic != kSnapshotMagic || !version || !count || !body ||
      !mac || r.remaining() != 0) {
    return Status::error(ErrorCode::kAuthFailed, "malformed sealed snapshot");
  }

  // Authenticate BEFORE acting on anything, version included: a forged
  // version must not even produce a distinguishable rollback error.
  const BytesView macd(sealed.data(), sealed.size() - crypto::kMacSize);
  if (!crypto::hmac_verify(sealing_key.view(), macd, as_view(*mac))) {
    return Status::error(ErrorCode::kAuthFailed, "snapshot MAC mismatch");
  }

  // Rollback check: only the version matching the hardware counter is live.
  if (*version != expected_version) {
    return Status::error(ErrorCode::kRollback,
                         "sealed snapshot version " + std::to_string(*version) +
                             " != hardware counter " +
                             std::to_string(expected_version));
  }

  const auto nonce = crypto::make_nonce(kSnapshotNonceTag, *version);
  crypto::chacha20_xor(sealing_key.view(), nonce, 0, *body);

  Reader er(as_view(*body));
  SnapshotRestore out;
  out.version = *version;
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto key = er.str();
    auto value = er.bytes();
    auto ts_counter = er.u64();
    auto ts_node = er.u64();
    if (!key || !value || !ts_counter || !ts_node) {
      return Status::error(ErrorCode::kAuthFailed, "truncated snapshot body");
    }
    const Timestamp ts{*ts_counter, *ts_node};
    if (!kv.would_advance(*key, ts)) continue;
    if (kv.write(*key, as_view(*value), ts)) ++out.installed;
  }
  return out;
}

}  // namespace recipe::kv
