// Recipe's partitioned key-value store (paper §A.3).
//
// A skiplist whose keys + metadata (value digest, Lamport timestamp, host
// pointer) live in ENCLAVE memory, while the values themselves live in the
// untrusted HostArena. get() re-hashes the host value and compares against
// the enclave-resident digest, so a Byzantine host that corrupts, swaps or
// stales values is always detected — this is what makes trusted LOCAL reads
// possible (no quorum needed to read).
//
// Confidentiality mode (Fig. 5) encrypts values with ChaCha20 before they
// leave the enclave; the digest covers the plaintext, the nonce is bound to
// the entry's version so stream reuse cannot occur.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "common/ids.h"
#include "common/result.h"
#include "common/rng.h"
#include "crypto/chacha20.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "kvstore/host_arena.h"

namespace recipe::kv {

// Lamport timestamp used by ABD and for per-key freshness: (counter, node)
// with lexicographic comparison.
struct Timestamp {
  std::uint64_t counter{0};
  std::uint64_t node{0};

  friend constexpr auto operator<=>(const Timestamp&,
                                    const Timestamp&) = default;
  bool is_zero() const { return counter == 0 && node == 0; }
};

struct KvConfig {
  // Value-encryption key: non-empty enables confidentiality mode.
  crypto::SymmetricKey value_encryption_key{};
  std::uint64_t skiplist_seed = 0x5EED;
};

// Result of a successful get(): the (verified, decrypted) value and its
// enclave-resident metadata.
struct VersionedValue {
  Bytes value;
  Timestamp timestamp;
  std::uint64_t version{0};
};

class KvStore {
 public:
  explicit KvStore(KvConfig config = {});
  ~KvStore();

  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  // Writes (inserts or updates) a value with the given timestamp. A write
  // with an OLDER timestamp than the stored one is rejected with kOk=false
  // semantics: returns false, store unchanged (ABD semantics: last writer
  // wins by timestamp). Pass Timestamp{} to always overwrite (protocols with
  // their own ordering, e.g. Raft's log, apply in commit order).
  bool write(std::string_view key, BytesView value, Timestamp ts = {});

  // Reads the value for `key` into the protected area, verifying integrity
  // against the enclave digest. kIntegrityViolation if the host tampered.
  Result<VersionedValue> get(std::string_view key) const;

  // Reads only enclave-resident metadata (no host access, always trusted).
  std::optional<Timestamp> timestamp(std::string_view key) const;

  // The recovery-merge admission rule, shared by state streaming and
  // snapshot restore: install only entries that move local state FORWARD —
  // the key is absent, or `ts` is non-zero and strictly newer than the
  // stored timestamp. The STRICT comparison is load-bearing: write()
  // accepts equal timestamps, so without it a repeated pass over unchanged
  // state would count installs forever and the catch-up fixpoint loop
  // would never converge.
  bool would_advance(std::string_view key, Timestamp ts) const {
    const auto existing = timestamp(key);
    if (!existing) return true;
    if (ts.is_zero()) return false;
    return *existing < ts;
  }

  bool erase(std::string_view key);
  bool contains(std::string_view key) const;
  std::size_t size() const { return size_; }

  // Drops every entry (enclave metadata AND host values). Models a machine
  // reboot for the recovery path; versions keep increasing so confidential
  // value nonces never repeat across the wipe.
  void clear();

  // In-order iteration (skiplist level 0). `fn` returning false stops early.
  void scan(const std::function<bool(std::string_view key,
                                     const Timestamp&)>& fn) const;

  // In-order iteration over verified values: one level-0 walk, each host
  // value copied into enclave memory, decrypted in confidential mode and
  // checked against its digest before `fn` sees it (the view lives only for
  // the call). Returns kIntegrityViolation at the first value the host
  // tampered with.
  Status scan_values(const std::function<void(std::string_view key,
                                              BytesView value,
                                              const Timestamp&)>& fn) const;

  // In-order iteration starting STRICTLY AFTER `cursor` (empty cursor: from
  // the first key). O(log n) positioning via the skiplist towers — this is
  // what makes chunked state streaming resumable without re-walking the
  // prefix on every chunk.
  void scan_from(std::string_view cursor,
                 const std::function<bool(std::string_view key,
                                          const Timestamp&)>& fn) const;

  // Memory accounting for the TEE cost model.
  std::uint64_t enclave_bytes() const { return enclave_bytes_; }
  std::uint64_t host_bytes() const { return arena_.bytes_used(); }
  // Keys plus plaintext values, summed over every entry (enclave-side
  // bookkeeping, so serializers can size their output exactly).
  std::uint64_t payload_bytes() const { return payload_bytes_; }
  bool confidential() const { return !config_.value_encryption_key.empty(); }

  // Test access to the untrusted side.
  HostArena& host_arena() { return arena_; }
  // Exposes the host pointer so tests can target corruption at a key.
  std::optional<HostPtr> host_ptr(std::string_view key) const;

 private:
  static constexpr int kMaxLevel = 16;

  struct Node;

  Node* find(std::string_view key) const;
  int random_level();
  Bytes seal(BytesView plaintext, std::uint64_t version) const;
  // Copies `node`'s host value into `out`, decrypts it there and checks it
  // against the enclave digest (verify-after-copy: the host cannot swap
  // the bytes between the check and their use).
  Status load_verified(const Node& node, Bytes& out) const;

  KvConfig config_;
  HostArena arena_;
  Rng rng_;
  Node* head_;
  int level_{1};
  std::size_t size_{0};
  std::uint64_t enclave_bytes_{0};
  std::uint64_t payload_bytes_{0};
  std::uint64_t next_version_{1};
};

}  // namespace recipe::kv
