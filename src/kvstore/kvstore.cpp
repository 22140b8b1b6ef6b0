#include "kvstore/kvstore.h"

#include <array>
#include <cassert>

namespace recipe::kv {

namespace {
// Enclave-resident cost per entry: digest + timestamp + version + pointer +
// skiplist forward pointers (amortized).
constexpr std::uint64_t kMetadataBytes = 32 + 16 + 8 + 8 + 24;
// Nonce domain of confidential-mode value encryption.
constexpr std::uint32_t kValueNonceTag = 0x4B56;  // "KV"
}  // namespace

struct KvStore::Node {
  std::string key;
  crypto::Sha256Digest digest{};  // over (key || plaintext value || ts)
  Timestamp ts{};
  std::uint64_t version{0};
  HostPtr value_ptr{};
  std::uint32_t value_size{0};
  std::array<Node*, kMaxLevel> next{};

  Node(std::string k, int) : key(std::move(k)) { next.fill(nullptr); }
};

KvStore::KvStore(KvConfig config)
    : config_(std::move(config)),
      rng_(config_.skiplist_seed),
      head_(new Node("", kMaxLevel)) {}

KvStore::~KvStore() {
  Node* node = head_;
  while (node != nullptr) {
    Node* next = node->next[0];
    delete node;
    node = next;
  }
}

int KvStore::random_level() {
  int level = 1;
  while (level < kMaxLevel && rng_.chance(0.25)) ++level;
  return level;
}

KvStore::Node* KvStore::find(std::string_view key) const {
  const Node* node = head_;
  for (int i = level_ - 1; i >= 0; --i) {
    while (node->next[static_cast<std::size_t>(i)] != nullptr &&
           node->next[static_cast<std::size_t>(i)]->key < key) {
      node = node->next[static_cast<std::size_t>(i)];
    }
  }
  Node* candidate = node->next[0];
  if (candidate != nullptr && candidate->key == key) return candidate;
  return nullptr;
}

namespace {
crypto::Sha256Digest entry_digest(std::string_view key, BytesView value,
                                  Timestamp ts) {
  crypto::Sha256 h;
  h.update(as_view(key));
  h.update(value);
  std::uint8_t ts_bytes[16];
  for (int i = 0; i < 8; ++i) {
    ts_bytes[i] = static_cast<std::uint8_t>(ts.counter >> (8 * i));
    ts_bytes[8 + i] = static_cast<std::uint8_t>(ts.node >> (8 * i));
  }
  h.update(BytesView(ts_bytes, 16));
  return h.finalize();
}
}  // namespace

Bytes KvStore::seal(BytesView plaintext, std::uint64_t version) const {
  Bytes data(plaintext.begin(), plaintext.end());
  if (confidential()) {
    const auto nonce = crypto::make_nonce(kValueNonceTag, version);
    crypto::chacha20_xor(config_.value_encryption_key.view(), nonce, 0, data);
  }
  return data;
}

Status KvStore::load_verified(const Node& node, Bytes& out) const {
  auto loaded = arena_.load(node.value_ptr);
  if (!loaded) {
    return Status::error(ErrorCode::kIntegrityViolation,
                         "host freed value under enclave pointer");
  }
  out = std::move(loaded).take();
  if (confidential()) {
    // XOR stream cipher: decryption is the sealing transform again.
    const auto nonce = crypto::make_nonce(kValueNonceTag, node.version);
    crypto::chacha20_xor(config_.value_encryption_key.view(), nonce, 0, out);
  }
  const auto digest = entry_digest(node.key, as_view(out), node.ts);
  if (!crypto::constant_time_equal(BytesView(digest.data(), digest.size()),
                                   BytesView(node.digest.data(),
                                             node.digest.size()))) {
    return Status::error(ErrorCode::kIntegrityViolation,
                         "host value does not match enclave digest");
  }
  return Status::ok();
}

bool KvStore::write(std::string_view key, BytesView value, Timestamp ts) {
  // Locate predecessors at every level.
  std::array<Node*, kMaxLevel> update;
  Node* node = head_;
  for (int i = level_ - 1; i >= 0; --i) {
    while (node->next[static_cast<std::size_t>(i)] != nullptr &&
           node->next[static_cast<std::size_t>(i)]->key < key) {
      node = node->next[static_cast<std::size_t>(i)];
    }
    update[static_cast<std::size_t>(i)] = node;
  }
  Node* existing = node->next[0];

  if (existing != nullptr && existing->key == key) {
    // Per-key freshness: reject stale timestamped writes (ABD last-writer-
    // wins). Untimestamped writes (ts == {}) always apply.
    if (!ts.is_zero() && ts < existing->ts) return false;
    const std::uint64_t version = next_version_++;
    existing->digest = entry_digest(key, value, ts);
    existing->ts = ts;
    existing->version = version;
    payload_bytes_ += value.size();
    payload_bytes_ -= existing->value_size;
    existing->value_size = static_cast<std::uint32_t>(value.size());
    const Status st = arena_.replace(existing->value_ptr, seal(value, version));
    assert(st.is_ok());
    (void)st;
    return true;
  }

  const int new_level = random_level();
  if (new_level > level_) {
    for (int i = level_; i < new_level; ++i) {
      update[static_cast<std::size_t>(i)] = head_;
    }
    level_ = new_level;
  }

  const std::uint64_t version = next_version_++;
  Node* created = new Node(std::string(key), new_level);
  created->digest = entry_digest(key, value, ts);
  created->ts = ts;
  created->version = version;
  created->value_size = static_cast<std::uint32_t>(value.size());
  created->value_ptr = arena_.store(seal(value, version));

  for (int i = 0; i < new_level; ++i) {
    created->next[static_cast<std::size_t>(i)] =
        update[static_cast<std::size_t>(i)]->next[static_cast<std::size_t>(i)];
    update[static_cast<std::size_t>(i)]->next[static_cast<std::size_t>(i)] =
        created;
  }
  ++size_;
  enclave_bytes_ += key.size() + kMetadataBytes;
  payload_bytes_ += key.size() + value.size();
  return true;
}

Result<VersionedValue> KvStore::get(std::string_view key) const {
  const Node* node = find(key);
  if (node == nullptr) {
    return Status::error(ErrorCode::kNotFound, std::string(key));
  }
  Bytes plaintext;
  if (auto s = load_verified(*node, plaintext); !s.is_ok()) return s;
  return VersionedValue{std::move(plaintext), node->ts, node->version};
}

std::optional<Timestamp> KvStore::timestamp(std::string_view key) const {
  const Node* node = find(key);
  if (node == nullptr) return std::nullopt;
  return node->ts;
}

std::optional<HostPtr> KvStore::host_ptr(std::string_view key) const {
  const Node* node = find(key);
  if (node == nullptr) return std::nullopt;
  return node->value_ptr;
}

bool KvStore::contains(std::string_view key) const {
  return find(key) != nullptr;
}

bool KvStore::erase(std::string_view key) {
  std::array<Node*, kMaxLevel> update;
  Node* node = head_;
  for (int i = level_ - 1; i >= 0; --i) {
    while (node->next[static_cast<std::size_t>(i)] != nullptr &&
           node->next[static_cast<std::size_t>(i)]->key < key) {
      node = node->next[static_cast<std::size_t>(i)];
    }
    update[static_cast<std::size_t>(i)] = node;
  }
  Node* target = node->next[0];
  if (target == nullptr || target->key != key) return false;

  for (int i = 0; i < level_; ++i) {
    if (update[static_cast<std::size_t>(i)]
            ->next[static_cast<std::size_t>(i)] == target) {
      update[static_cast<std::size_t>(i)]->next[static_cast<std::size_t>(i)] =
          target->next[static_cast<std::size_t>(i)];
    }
  }
  arena_.free(target->value_ptr);
  enclave_bytes_ -= target->key.size() + kMetadataBytes;
  payload_bytes_ -= target->key.size() + target->value_size;
  --size_;
  delete target;
  while (level_ > 1 &&
         head_->next[static_cast<std::size_t>(level_ - 1)] == nullptr) {
    --level_;
  }
  return true;
}

void KvStore::clear() {
  Node* node = head_->next[0];
  while (node != nullptr) {
    Node* next = node->next[0];
    arena_.free(node->value_ptr);
    delete node;
    node = next;
  }
  head_->next.fill(nullptr);
  level_ = 1;
  size_ = 0;
  enclave_bytes_ = 0;
  payload_bytes_ = 0;
}

void KvStore::scan(
    const std::function<bool(std::string_view, const Timestamp&)>& fn) const {
  for (const Node* node = head_->next[0]; node != nullptr;
       node = node->next[0]) {
    if (!fn(node->key, node->ts)) return;
  }
}

Status KvStore::scan_values(
    const std::function<void(std::string_view, BytesView, const Timestamp&)>&
        fn) const {
  Bytes value;
  for (const Node* node = head_->next[0]; node != nullptr;
       node = node->next[0]) {
    if (auto s = load_verified(*node, value); !s.is_ok()) return s;
    fn(node->key, as_view(value), node->ts);
  }
  return Status::ok();
}

void KvStore::scan_from(
    std::string_view cursor,
    const std::function<bool(std::string_view, const Timestamp&)>& fn) const {
  // Descend to the last node with key <= cursor, then walk level 0 from its
  // successor (strictly-after semantics resume a chunked scan exactly).
  const Node* node = head_;
  for (int i = level_ - 1; i >= 0; --i) {
    while (node->next[static_cast<std::size_t>(i)] != nullptr &&
           node->next[static_cast<std::size_t>(i)]->key <= cursor) {
      node = node->next[static_cast<std::size_t>(i)];
    }
  }
  for (node = node->next[0]; node != nullptr; node = node->next[0]) {
    if (!fn(node->key, node->ts)) return;
  }
}

}  // namespace recipe::kv
