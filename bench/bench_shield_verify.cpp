// Single-channel shield_msg()/verify_msg() throughput (the hot-path ceiling:
// every protocol message crosses this seam, Table 3 / Algorithm 1).
//
// Sweeps payload size {16 B, 64 B, 1 KiB, 64 KiB} x {auth-only,
// confidentiality} and measures two implementations:
//
//  * "fast"   — the live RecipeSecurity pipeline (cached per-channel crypto
//               contexts, single-buffer encoding, in-place encryption).
//  * "legacy" — a frozen reimplementation of the pre-optimization pipeline:
//               per-message HKDF channel-key derivation, the
//               payload.assign / authenticated_data() / serialize() copy
//               triple, per-message HMAC key scheduling, and the
//               std::map-based replay window — but sharing the current
//               (hardware-accelerated) SHA-256 core, so the ratio isolates
//               the architectural changes.
//  * "pre_pr" — the legacy pipeline with the portable scalar SHA-256 core
//               forced: the faithful pre-PR configuration. fast/pre_pr is
//               the end-to-end speedup this PR claims.
//
// Writes BENCH_shield_verify.json (path via argv[1], default CWD).
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "attest/bundle.h"
#include "attest/cas.h"
#include "crypto/chacha20.h"
#include "crypto/hmac.h"
#include "recipe/message.h"
#include "recipe/security.h"
#include "tee/platform.h"

namespace recipe::bench {
namespace {

constexpr std::size_t kPayloadSizes[] = {16, 64, 1024, 64 * 1024};

// --- frozen pre-optimization reference --------------------------------------

class LegacySecurity {
 public:
  LegacySecurity(crypto::SymmetricKey root, NodeId self)
      : root_(std::move(root)), self_(self) {}

  Bytes shield(NodeId peer, ViewId view, BytesView payload, bool encrypt) {
    const ChannelId cq = directed_channel(self_, peer);
    ShieldedMessage msg;
    msg.header.view = view;
    msg.header.cq = cq;
    msg.header.cnt = ++send_counters_[cq];
    msg.header.sender = self_;
    msg.header.receiver = peer;
    msg.payload.assign(payload.begin(), payload.end());  // copy 1
    // Pre-PR behavior: HKDF from the cluster root on EVERY message.
    const crypto::SymmetricKey key =
        attest::derive_channel_key_from_root(root_, self_, peer);
    if (encrypt) {
      msg.header.flags |= ShieldedHeader::kFlagEncrypted;
      const auto nonce = crypto::make_nonce(
          static_cast<std::uint32_t>(cq.value), msg.header.cnt);
      crypto::chacha20_xor(key.view(), nonce, 0, msg.payload);
    }
    const crypto::Mac mac = crypto::hmac_sha256(
        key.view(), as_view(msg.authenticated_data()));  // copy 2
    msg.mac.assign(mac.begin(), mac.end());
    return msg.serialize();  // copy 3
  }

  bool verify(NodeId claimed_sender, BytesView wire) {
    auto parsed = ShieldedMessage::parse(wire);
    if (!parsed) return false;
    ShieldedMessage msg = std::move(parsed).take();
    if (msg.header.receiver != self_ || msg.header.sender != claimed_sender ||
        msg.header.cq != directed_channel(msg.header.sender, self_)) {
      return false;
    }
    const crypto::SymmetricKey key =
        attest::derive_channel_key_from_root(root_, self_, msg.header.sender);
    const Bytes ad = msg.authenticated_data();
    if (!crypto::hmac_verify(key.view(), as_view(ad), as_view(msg.mac))) {
      return false;
    }
    if (msg.header.encrypted()) {
      const auto nonce = crypto::make_nonce(
          static_cast<std::uint32_t>(msg.header.cq.value), msg.header.cnt);
      crypto::chacha20_xor(key.view(), nonce, 0, msg.payload);
    }
    // Pre-PR std::map sliding replay window.
    Window& win = windows_[msg.header.cq];
    const Counter cnt = msg.header.cnt;
    if (cnt + kWindow <= win.max_seen) return false;
    if (win.seen.contains(cnt)) return false;
    win.seen.emplace(cnt, true);
    if (cnt > win.max_seen) win.max_seen = cnt;
    while (!win.seen.empty() &&
           win.seen.begin()->first + kWindow <= win.max_seen) {
      win.seen.erase(win.seen.begin());
    }
    return true;
  }

 private:
  static constexpr std::size_t kWindow = 4096;
  struct Window {
    Counter max_seen{0};
    std::map<Counter, bool> seen;
  };
  crypto::SymmetricKey root_;
  NodeId self_;
  std::unordered_map<ChannelId, Counter> send_counters_;
  std::unordered_map<ChannelId, Window> windows_;
};

// --- measurement harness -----------------------------------------------------

struct Row {
  std::size_t payload;
  const char* mode;
  const char* impl;
  double pairs_per_sec;
  double mb_per_sec;
};

template <typename Fn>
double measure_pairs_per_sec(Fn&& one_pair) {
  using Clock = std::chrono::steady_clock;
  // Warm up (also primes any channel caches — their setup is amortized
  // across the channel lifetime by design).
  for (int i = 0; i < 200; ++i) one_pair();
  std::size_t iters = 0;
  const auto start = Clock::now();
  std::chrono::duration<double> elapsed{0};
  while (elapsed.count() < 0.4) {
    for (int i = 0; i < 200; ++i) one_pair();
    iters += 200;
    elapsed = Clock::now() - start;
  }
  return static_cast<double>(iters) / elapsed.count();
}

}  // namespace
}  // namespace recipe::bench

int main(int argc, char** argv) {
  using namespace recipe;
  using namespace recipe::bench;

  const std::string out_path =
      argc > 1 ? argv[1] : std::string("BENCH_shield_verify.json");

  tee::TeePlatform platform{1};
  tee::Enclave enclave_a{platform, "code", 1};
  tee::Enclave enclave_b{platform, "code", 2};
  const crypto::SymmetricKey root{Bytes(32, 0x77)};
  if (!attest::provision_preattested(enclave_a, root).is_ok() ||
      !attest::provision_preattested(enclave_b, root).is_ok()) {
    std::fprintf(stderr, "secret provisioning failed\n");
    return 1;
  }

  std::vector<Row> rows;
  for (bool confidential : {false, true}) {
    const char* mode = confidential ? "confidentiality" : "auth";
    for (std::size_t size : kPayloadSizes) {
      const Bytes payload(size, 0xAB);

      RecipeSecurityConfig config;
      config.confidentiality = confidential;
      RecipeSecurity fast_a(enclave_a, NodeId{1}, nullptr, nullptr, config);
      RecipeSecurity fast_b(enclave_b, NodeId{2}, nullptr, nullptr, config);
      const double fast = measure_pairs_per_sec([&] {
        auto wire = fast_a.shield(NodeId{2}, ViewId{1}, as_view(payload));
        auto env = fast_b.verify(NodeId{1}, as_view(wire.value()));
        if (!env) std::abort();
      });

      LegacySecurity legacy_a(root, NodeId{1});
      LegacySecurity legacy_b(root, NodeId{2});
      const double legacy = measure_pairs_per_sec([&] {
        Bytes wire =
            legacy_a.shield(NodeId{2}, ViewId{1}, as_view(payload),
                            confidential);
        if (!legacy_b.verify(NodeId{1}, as_view(wire))) std::abort();
      });

      crypto::Sha256::set_hardware_acceleration(false);
      LegacySecurity prepr_a(root, NodeId{1});
      LegacySecurity prepr_b(root, NodeId{2});
      const double prepr = measure_pairs_per_sec([&] {
        Bytes wire =
            prepr_a.shield(NodeId{2}, ViewId{1}, as_view(payload),
                           confidential);
        if (!prepr_b.verify(NodeId{1}, as_view(wire))) std::abort();
      });
      crypto::Sha256::set_hardware_acceleration(true);

      const double mb = static_cast<double>(size) / (1024.0 * 1024.0);
      rows.push_back({size, mode, "fast", fast, fast * mb});
      rows.push_back({size, mode, "legacy", legacy, legacy * mb});
      rows.push_back({size, mode, "pre_pr", prepr, prepr * mb});
      std::printf(
          "%-16s %8zu B   fast %11.0f/s   legacy %10.0f/s   pre_pr %10.0f/s   "
          "speedup vs pre_pr %5.2fx\n",
          mode, size, fast, legacy, prepr, fast / prepr);
    }
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"shield_verify\",\n"
               "  \"unit\": \"shield+verify pairs per second, "
               "single channel\",\n"
               "  \"sha256_hardware\": %s,\n  \"results\": [\n",
               crypto::Sha256::hardware_accelerated() ? "true" : "false");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"payload_bytes\": %zu, \"mode\": \"%s\", "
                 "\"impl\": \"%s\", "
                 "\"pairs_per_sec\": %.0f, \"payload_mb_per_sec\": %.2f}%s\n",
                 r.payload, r.mode, r.impl, r.pairs_per_sec, r.mb_per_sec,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"speedup_fast_over_pre_pr\": [\n");
  bool first = true;
  for (std::size_t i = 0; i + 2 < rows.size(); i += 3) {
    const Row& fast = rows[i];
    const Row& legacy = rows[i + 1];
    const Row& prepr = rows[i + 2];
    std::fprintf(f,
                 "%s    {\"payload_bytes\": %zu, \"mode\": \"%s\", "
                 "\"ratio\": %.2f, "
                 "\"architectural_only_ratio\": %.2f}",
                 first ? "" : ",\n", fast.payload, fast.mode,
                 fast.pairs_per_sec / prepr.pairs_per_sec,
                 fast.pairs_per_sec / legacy.pairs_per_sec);
    first = false;
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
