// Adaptive shielded batching benchmark: batch size x payload x protocol.
//
// Two layers of measurement, both written to BENCH_batching.json (path via
// argv[1]):
//
//  1. The security seam in isolation ("seam" rows): shield+verify throughput
//     in MESSAGES per second when N sub-messages share one frame (one
//     header, one counter, one nonce, one MAC) versus the unbatched
//     per-message pipeline. The verify side includes BatchView parsing and
//     the per-sub-message payload copy, mirroring the real dispatch cost.
//     The acceptance gate lives here: >= 2x messages/sec for <= 256 B
//     payloads at batch size >= 16.
//
//  2. Whole-protocol simulations ("protocol" rows): CR, CRAQ and Raft on the
//     calibrated 3-replica testbed, batching off vs on, reporting simulated
//     closed-loop ops/sec and network packets per committed op — the
//     per-packet fixed costs (NetStackParams bases + the 64-byte packet
//     header) amortize alongside the crypto.
#include <chrono>
#include <map>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "protocols/craq/craq.h"
#include "recipe/batcher.h"
#include "recipe/message.h"
#include "recipe/security.h"

namespace recipe::bench {
namespace {

using workload::Router;

constexpr std::size_t kSmallPayloads[] = {64, 256};
constexpr std::size_t kBatchSizes[] = {4, 16, 64};

template <typename Fn>
double wall_seconds(Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Measures `one_round` (processing `msgs_per_round` messages per call) until
// ~0.5s elapsed; returns messages per second.
template <typename Fn>
double measure_msgs_per_sec(std::size_t msgs_per_round, Fn&& one_round) {
  for (int i = 0; i < 50; ++i) one_round();  // warm the channel caches
  std::size_t rounds = 0;
  double elapsed = 0;
  while (elapsed < 0.5) {
    elapsed += wall_seconds([&] {
      for (int i = 0; i < 50; ++i) one_round();
    });
    rounds += 50;
  }
  return static_cast<double>(rounds * msgs_per_round) / elapsed;
}

struct SeamRow {
  const char* mode;
  std::size_t payload;
  std::size_t batch;  // 1 = unbatched
  double msgs_per_sec;
};

struct SecurityPair {
  tee::TeePlatform platform{1};
  tee::Enclave enclave_a{platform, "code", 1};
  tee::Enclave enclave_b{platform, "code", 2};
  RecipeSecurity a;
  RecipeSecurity b;

  explicit SecurityPair(bool confidential)
      : a(enclave_a, NodeId{1}, nullptr, nullptr, cfg(confidential)),
        b(enclave_b, NodeId{2}, nullptr, nullptr, cfg(confidential)) {
    const crypto::SymmetricKey root{Bytes(32, 0x77)};
    if (!attest::provision_preattested(enclave_a, root).is_ok() ||
        !attest::provision_preattested(enclave_b, root).is_ok()) {
      std::abort();
    }
  }
  static RecipeSecurityConfig cfg(bool confidential) {
    RecipeSecurityConfig c;
    c.confidentiality = confidential;
    return c;
  }
};

std::vector<SeamRow> run_seam_sweep() {
  std::vector<SeamRow> rows;
  for (bool confidential : {false, true}) {
    const char* mode = confidential ? "confidentiality" : "auth";
    for (std::size_t payload_size : kSmallPayloads) {
      const Bytes payload(payload_size, 0xAB);

      // Unbatched baseline: one frame per message.
      {
        SecurityPair pair(confidential);
        const double rate = measure_msgs_per_sec(1, [&] {
          auto wire = pair.a.shield(NodeId{2}, ViewId{1}, as_view(payload));
          auto env = pair.b.verify(NodeId{1}, as_view(wire.value()));
          if (!env) std::abort();
        });
        rows.push_back({mode, payload_size, 1, rate});
      }

      for (std::size_t batch : kBatchSizes) {
        SecurityPair pair(confidential);
        Bytes sink;
        const double rate = measure_msgs_per_sec(batch, [&] {
          BatchFrame frame;
          frame.reserve(kBatchCountSize +
                        batch * (kBatchItemOverhead + payload.size()));
          for (std::size_t i = 0; i < batch; ++i) {
            frame.add(BatchItem::kKindRequest, 0xC201, i, as_view(payload));
          }
          auto wire = pair.a.shield_batch(NodeId{2}, ViewId{1},
                                          as_view(frame.take_body()));
          auto env = pair.b.verify(NodeId{1}, as_view(wire.value()));
          if (!env) std::abort();
          // Mirror the receive-side dispatch: parse the batch body and copy
          // each sub-payload out (what dispatch_batch does per envelope).
          auto view = BatchView::parse(as_view(env.value().payload));
          if (!view) std::abort();
          for (const BatchItem& item : view.value()) {
            sink.assign(item.payload.begin(), item.payload.end());
          }
        });
        rows.push_back({mode, payload_size, batch, rate});
      }
    }
  }
  return rows;
}

struct ProtocolRow {
  const char* protocol;
  bool batched;
  double ops_per_sec;
  double packets_per_op;
  double p50_us;
};

BatchConfig bench_batch_config() {
  BatchConfig batch;
  batch.enabled = true;
  batch.max_count = 16;
  batch.max_bytes = 32 * 1024;
  batch.max_delay = 10 * sim::kMicrosecond;
  return batch;
}

template <typename Node, typename... Extra>
ProtocolRow run_protocol(const char* name, bool batched, Router router,
                         Extra&&... extra) {
  ExperimentParams params;
  params.value_size = 128;
  params.read_fraction = 0.5;
  params.num_clients = 32;
  params.window = 60 * sim::kMillisecond;
  TestbedConfig config = recipe_testbed(params);
  config.workload.num_keys = 2000;
  if (batched) config.batch = bench_batch_config();

  Testbed<Node> testbed(config);
  testbed.build(std::forward<Extra>(extra)...);
  testbed.preload();
  const std::uint64_t packets_before = testbed.network().packets_sent();
  RunResult result = testbed.run(std::move(router));
  const std::uint64_t packets =
      testbed.network().packets_sent() - packets_before;
  ProtocolRow row;
  row.protocol = name;
  row.batched = batched;
  row.ops_per_sec = result.ops_per_sec;
  row.packets_per_op =
      result.completed == 0
          ? 0
          : static_cast<double>(packets) /
                static_cast<double>(result.completed);
  row.p50_us = result.latency_us.percentile(0.5);
  return row;
}

std::vector<ProtocolRow> run_protocol_sweep() {
  std::vector<ProtocolRow> rows;
  for (bool batched : {false, true}) {
    {
      Testbed<protocols::ChainNode> probe({});  // router helper needs members
      rows.push_back(run_protocol<protocols::ChainNode>(
          "cr", batched, probe.route_head_tail()));
    }
    {
      // CRAQ: writes at the head, reads apportioned round-robin.
      Router router = [](OpType op, std::uint64_t n) {
        return op == OpType::kPut ? NodeId{1} : NodeId{1 + n % 3};
      };
      rows.push_back(run_protocol<protocols::CraqNode>("craq", batched,
                                                       router));
    }
    {
      protocols::RaftOptions raft;
      raft.initial_leader = NodeId{1};
      rows.push_back(run_protocol<protocols::RaftNode>(
          "raft", batched,
          Testbed<protocols::RaftNode>::route_all_to(NodeId{1}),
          raft));
    }
  }
  return rows;
}

}  // namespace
}  // namespace recipe::bench

int main(int argc, char** argv) {
  using namespace recipe;
  using namespace recipe::bench;

  const std::string out_path =
      argc > 1 ? argv[1] : std::string("BENCH_batching.json");

  std::printf("--- security seam: batched vs unbatched shield/verify ---\n");
  const auto seam = run_seam_sweep();
  for (const SeamRow& row : seam) {
    std::printf("%-16s %5zu B  batch %3zu   %12.0f msgs/s\n", row.mode,
                row.payload, row.batch, row.msgs_per_sec);
  }

  std::printf("--- protocols on the calibrated testbed ---\n");
  const auto protocols = run_protocol_sweep();
  for (const ProtocolRow& row : protocols) {
    std::printf("%-5s %-9s   %10.0f ops/s   %6.2f packets/op   p50 %6.0f us\n",
                row.protocol, row.batched ? "batched" : "unbatched",
                row.ops_per_sec, row.packets_per_op, row.p50_us);
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"batching\",\n"
               "  \"seam_unit\": \"shield+verify messages per second, single "
               "channel\",\n  \"seam\": [\n");
  for (std::size_t i = 0; i < seam.size(); ++i) {
    const SeamRow& r = seam[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"payload_bytes\": %zu, "
                 "\"batch_size\": %zu, \"msgs_per_sec\": %.0f}%s\n",
                 r.mode, r.payload, r.batch, r.msgs_per_sec,
                 i + 1 < seam.size() ? "," : "");
  }
  // Acceptance view: batched throughput over the unbatched baseline of the
  // same (mode, payload). The gate: for every small payload (<= 256 B), SOME
  // batch size >= 16 must reach 2x in auth mode — auth is the per-message
  // overhead batching amortizes; confidentiality adds per-BYTE stream-cipher
  // work no batching can remove, so those rows are reported, not gated.
  std::fprintf(f, "  ],\n  \"seam_speedup_vs_unbatched\": [\n");
  bool first = true;
  std::map<std::size_t, double> best_auth_ratio;  // payload -> best batch>=16
  for (const SeamRow& r : seam) {
    if (r.batch == 1) continue;
    double base = 0;
    for (const SeamRow& b : seam) {
      if (b.batch == 1 && std::string_view(b.mode) == r.mode &&
          b.payload == r.payload) {
        base = b.msgs_per_sec;
      }
    }
    const double ratio = base > 0 ? r.msgs_per_sec / base : 0;
    if (std::string_view(r.mode) == "auth" && r.batch >= 16 &&
        r.payload <= 256) {
      best_auth_ratio[r.payload] = std::max(best_auth_ratio[r.payload], ratio);
    }
    std::fprintf(f,
                 "%s    {\"mode\": \"%s\", \"payload_bytes\": %zu, "
                 "\"batch_size\": %zu, \"ratio\": %.2f}",
                 first ? "" : ",\n", r.mode, r.payload, r.batch, ratio);
    first = false;
  }
  bool acceptance = !best_auth_ratio.empty();
  for (const auto& [payload, ratio] : best_auth_ratio) {
    if (ratio < 2.0) acceptance = false;
  }
  std::fprintf(f, "\n  ],\n  \"protocols\": [\n");
  for (std::size_t i = 0; i < protocols.size(); ++i) {
    const ProtocolRow& r = protocols[i];
    std::fprintf(f,
                 "    {\"protocol\": \"%s\", \"batched\": %s, "
                 "\"ops_per_sec\": %.0f, \"packets_per_op\": %.2f, "
                 "\"p50_us\": %.0f}%s\n",
                 r.protocol, r.batched ? "true" : "false", r.ops_per_sec,
                 r.packets_per_op, r.p50_us,
                 i + 1 < protocols.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"acceptance_2x_at_batch16_small\": %s\n}\n",
               acceptance ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s (acceptance_2x_at_batch16_small=%s)\n",
              out_path.c_str(), acceptance ? "true" : "false");
  return acceptance ? 0 : 1;
}
