// bench_transport: loopback TCP throughput and latency for the REAL
// transport — the staged egress pipeline's measurement harness.
//
// A 3-replica CR group runs over transport::TcpTransport (one epoll loop
// thread per replica + one for the client, real sockets, real time) and a
// closed-loop pipelined client measures msgs/sec and p50/p99 op latency
// across {shielded, null-security} x {unbatched, batched}. There is no
// pacing sweep: over TCP every batch leaves at the end of the event-loop
// wake-up that filled it and no pacing probe runs, so the flush-delay knobs
// (fixed or RTT-paced) time nothing here — they are simulator-only.
//
// The run also sweeps the SHARDED transport: a raw shielded-echo workload
// (no replication protocol, so the transport and crypto are the only
// bottleneck) across shard counts x {shielded, null} x {batched,
// unbatched}, measuring how aggregate throughput grows as
// transport::ShardedTcpTransport spreads the same sessions over more
// event-loop shards. The headline `acceptance_shard_scaling_ok` gates the
// 8-shard/1-shard shielded speedup against a MACHINE-RELATIVE floor (a
// 2-core CI box cannot 3x; a 16-core box must not claim success at 1.1x),
// with the core count recorded in the artifact.
//
// Usage: bench_transport [out.json] [ops-per-config] [trials]
//
// Loopback throughput on a shared CI box is noisy, so every config runs
// `trials` times on a FRESH cluster and the best trial is reported: the
// committed baseline gates a hard floor on batched_over_unbatched_shielded
// (ci/check_bench_trajectory.py), and best-of-N is the standard way to
// measure capability rather than scheduler luck.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "attest/bundle.h"
#include "cluster/tcp_cluster.h"
#include "obs/flight_recorder.h"
#include "recipe/message.h"
#include "recipe/security.h"
#include "tee/platform.h"
#include "transport/sharded_tcp_transport.h"

using namespace recipe;

namespace {

// Outstanding puts of the closed-loop client in every replicated config
// (and the chaos run); the JSON's "pipeline" field reads this same value.
constexpr std::size_t kPipeline = 64;

struct ConfigResult {
  std::string security;
  std::string batching;
  std::size_t ops{0};
  double ops_per_sec{0};
  std::uint64_t p50_us{0};
  std::uint64_t p99_us{0};
  std::uint64_t failed{0};
  std::uint64_t packets_sent{0};
};

ConfigResult run_trial(bool secured, bool batched, std::size_t total_ops,
                       bool metrics = true) {
  cluster::TcpClusterOptions options;
  options.protocol = "cr";
  options.replicas = 3;
  options.secured = secured;
  options.metrics = metrics;
  // The metrics-off trial also silences the flight recorder: together they
  // reproduce the pre-observability cost profile (every handle a
  // branch-on-null no-op, every span a single relaxed load).
  obs::FlightRecorder::global().set_enabled(metrics);
  options.batch.enabled = batched;
  options.batch.max_count = 16;
  options.batch.max_delay = 50 * sim::kMicrosecond;  // real microseconds
  cluster::TcpCluster cluster(options);
  KvClient& client = cluster.add_client(4000);
  const NodeId coordinator = cluster.write_coordinator();

  const Bytes value(64, 0x5A);
  const double secs = cluster::drive_closed_loop_puts(
      cluster.client_home(0), client, coordinator, total_ops, kPipeline,
      value);

  ConfigResult result;
  result.security = secured ? "shielded" : "null";
  result.batching = batched ? "on" : "off";
  // A negative elapsed time means the run never completed (lost op): report
  // zero ops so the acceptance check fails instead of the job hanging.
  result.ops = secs < 0 ? 0 : total_ops;
  result.ops_per_sec =
      secs > 0 ? static_cast<double>(total_ops) / secs : 0.0;
  cluster.client_home(0).run_sync([&] {
    result.p50_us = client.latency_us().percentile(0.50);
    result.p99_us = client.latency_us().percentile(0.99);
    result.failed = client.failed();
  });
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    result.packets_sent += cluster.transport(i).packets_sent();
  }
  obs::FlightRecorder::global().set_enabled(true);
  return result;
}

// Chaos telemetry: the same shielded+paced stack with every link wrapped in
// a seed-replayable ChaosTransport. Reported for trend-watching only —
// NEVER part of acceptance_all_configs_ok and never gated by the CI
// trajectory check: fault injection makes throughput a weather report, not
// a capability claim. Replay a run with RECIPE_TEST_SEED=<seed>.
struct ChaosResult {
  std::uint64_t seed{0};
  std::size_t ops{0};
  double ops_per_sec{0};
  std::uint64_t failed{0};
  std::uint64_t dropped{0};
  std::uint64_t duplicated{0};
  std::uint64_t reordered{0};
  std::uint64_t delayed{0};
};

ChaosResult run_chaos_config(std::size_t total_ops) {
  cluster::TcpClusterOptions options;
  options.protocol = "cr";
  options.replicas = 3;
  options.secured = true;
  options.batch.enabled = true;
  options.batch.max_count = 16;
  options.batch.max_delay = 50 * sim::kMicrosecond;
  options.batch.rtt_fraction = 0.5;
  options.chaos = true;

  ChaosResult r;
  const char* env = std::getenv("RECIPE_TEST_SEED");
  r.seed = env != nullptr ? std::strtoull(env, nullptr, 10) : 0xC4A05;
  options.chaos_options.seed = r.seed;
  options.chaos_options.faults.latency = 100 * sim::kMicrosecond;
  options.chaos_options.faults.jitter = 300 * sim::kMicrosecond;
  options.chaos_options.faults.drop_rate = 0.01;
  options.chaos_options.faults.duplicate_rate = 0.01;
  options.chaos_options.faults.reorder_rate = 0.02;
  options.chaos_options.faults.reorder_window = sim::kMillisecond;

  cluster::TcpCluster cluster(options);
  KvClient& client = cluster.add_client(4100);
  const NodeId coordinator = cluster.write_coordinator();
  const Bytes value(64, 0x5A);
  const double secs = cluster::drive_closed_loop_puts(
      cluster.client_home(0), client, coordinator, total_ops,
      kPipeline, value);
  r.ops = secs < 0 ? 0 : total_ops;
  r.ops_per_sec = secs > 0 ? static_cast<double>(total_ops) / secs : 0.0;
  cluster.client_home(0).run_sync([&] { r.failed = client.failed(); });
  for (std::size_t i = 0; i <= cluster.size(); ++i) {
    const transport::ChaosTransport* chaos =
        i < cluster.size() ? cluster.chaos(i) : cluster.client_chaos();
    if (chaos == nullptr) continue;
    r.dropped += chaos->chaos_dropped();
    r.duplicated += chaos->chaos_duplicated();
    r.reordered += chaos->chaos_reordered();
    r.delayed += chaos->chaos_delayed();
  }
  return r;
}

ConfigResult run_config(bool secured, bool batched, std::size_t total_ops,
                        std::size_t trials, bool metrics = true) {
  ConfigResult best;
  for (std::size_t t = 0; t < trials; ++t) {
    ConfigResult r = run_trial(secured, batched, total_ops, metrics);
    // A failed trial never wins; among clean trials the fastest does.
    const bool r_ok = r.failed == 0 && r.ops > 0;
    const bool best_ok = best.failed == 0 && best.ops > 0;
    if (t == 0 || (r_ok && !best_ok) ||
        (r_ok == best_ok && r.ops_per_sec > best.ops_per_sec)) {
      best = std::move(r);
    }
  }
  return best;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- shard scaling sweep -----------------------------------------------------
//
// Raw request/reply echo over two ShardedTcpTransports (client side and
// server side), with REAL per-message crypto on both ends: the client
// shields every request, the server verifies and re-shields the echo, the
// client verifies the reply. No replication protocol, no KV store — the
// event loops and the crypto are the whole workload, so the shard count is
// the only variable the sweep moves.
//
// kScalingSessions independent client->server endpoint pairs are homed
// round-robin across the shards (sessions, not shards, are the unit of
// parallelism: at 1 shard all eight share one loop; at 8 shards they get a
// loop each). SO_REUSEPORT spreads the accepted connections across the
// server shards by 4-tuple hash, so the cross-shard delivery/egress hops
// are exercised whenever the kernel's pick disagrees with the home.

constexpr std::size_t kScalingSessions = 8;
constexpr std::size_t kScalingPipeline = 8;   // outstanding trips per session
constexpr std::size_t kScalingBatch = 16;     // sub-messages per batched trip

struct ScalingResult {
  unsigned shards{1};
  std::string security;
  std::string batching;
  std::size_t ops{0};  // completed sub-messages; 0 = trial failed/stalled
  double ops_per_sec{0};
  std::uint64_t failed{0};
};

ScalingResult run_scaling_trial(unsigned shards, bool secured, bool batched,
                                std::size_t total_ops) {
  const std::size_t per_trip = batched ? kScalingBatch : 1;
  const std::size_t trips_per_session =
      std::max<std::size_t>(1, total_ops / (kScalingSessions * per_trip));
  const std::uint64_t expected =
      trips_per_session * per_trip * kScalingSessions;

  struct Session {
    NodeId client{0};
    NodeId server{0};
    std::unique_ptr<tee::Enclave> client_enclave;
    std::unique_ptr<tee::Enclave> server_enclave;
    std::unique_ptr<SecurityPolicy> client_sec;
    std::unique_ptr<SecurityPolicy> server_sec;
    // Touched only on the session's home loops (issue/verify callbacks).
    std::size_t to_issue{0};
    std::uint64_t rpc_seq{0};
  };

  tee::TeePlatform platform{9};
  const crypto::SymmetricKey root{Bytes(32, 0x77)};
  std::vector<std::unique_ptr<Session>> sessions;
  sessions.reserve(kScalingSessions);
  for (std::size_t i = 0; i < kScalingSessions; ++i) {
    auto s = std::make_unique<Session>();
    s->client = NodeId{600 + i};
    s->server = NodeId{500 + i};
    s->to_issue = trips_per_session;
    if (secured) {
      s->client_enclave =
          std::make_unique<tee::Enclave>(platform, "code", 600 + i);
      s->server_enclave =
          std::make_unique<tee::Enclave>(platform, "code", 500 + i);
      if (!s->client_enclave->install_secret(attest::kClusterRootName, root)
               .is_ok() ||
          !s->server_enclave->install_secret(attest::kClusterRootName, root)
               .is_ok()) {
        std::abort();
      }
      s->client_sec = std::make_unique<RecipeSecurity>(
          *s->client_enclave, s->client, nullptr, nullptr);
      s->server_sec = std::make_unique<RecipeSecurity>(
          *s->server_enclave, s->server, nullptr, nullptr);
    } else {
      s->client_sec = std::make_unique<NullSecurity>(s->client);
      s->server_sec = std::make_unique<NullSecurity>(s->server);
    }
    sessions.push_back(std::move(s));
  }

  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> failed{0};
  const Bytes value(64, 0x5A);

  transport::ShardedTcpTransportOptions transport_options;
  transport_options.shards = shards;
  transport::ShardedTcpTransport server_tp(transport_options);
  transport::ShardedTcpTransport client_tp(transport_options);

  // Issues one request trip for `s`; runs on the session's client home loop
  // (initial kickoff marshals there, afterwards it is the reply callback).
  std::function<void(Session&)> issue = [&](Session& s) {
    if (s.to_issue == 0) return;
    --s.to_issue;
    Result<Bytes> wire = [&]() -> Result<Bytes> {
      if (!batched) {
        return s.client_sec->shield(s.server, ViewId{1}, as_view(value));
      }
      BatchFrame frame;
      for (std::size_t k = 0; k < kScalingBatch; ++k) {
        frame.add(0, 0, ++s.rpc_seq, as_view(value));
      }
      const Bytes body = frame.take_body();
      return s.client_sec->shield_batch(s.server, ViewId{1}, as_view(body));
    }();
    if (!wire) {
      failed.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    net::Packet packet;
    packet.src = s.client;
    packet.dst = s.server;
    packet.payload = std::move(wire).take();
    client_tp.send(std::move(packet));
  };

  for (std::size_t i = 0; i < kScalingSessions; ++i) {
    Session* s = sessions[i].get();
    // Echo endpoint: verify, re-shield the same payload (the batch body
    // round-trips as a batch), reply toward the authenticated sender.
    server_tp.attach(s->server, {}, [&, s](net::Packet&& p) {
      auto env = s->server_sec->verify(p.src, as_view(p.payload));
      if (!env) {
        failed.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      VerifiedEnvelope e = std::move(env).take();
      Result<Bytes> reply =
          e.batch ? s->server_sec->shield_batch(e.sender, ViewId{1},
                                                as_view(e.payload))
                  : s->server_sec->shield(e.sender, ViewId{1},
                                          as_view(e.payload));
      if (!reply) {
        failed.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      net::Packet out;
      out.src = s->server;
      out.dst = e.sender;
      out.payload = std::move(reply).take();
      server_tp.send(std::move(out));
    });
    auto port = server_tp.listen(s->server, 0);
    if (!port) std::abort();
    client_tp.attach(s->client, {}, [&, s](net::Packet&& p) {
      auto env = s->client_sec->verify(p.src, as_view(p.payload));
      if (!env || env.value().batch != batched) {
        failed.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      completed.fetch_add(per_trip, std::memory_order_relaxed);
      issue(*s);
    });
    if (!client_tp.add_route(s->server, "127.0.0.1", port.value()).is_ok()) {
      std::abort();
    }
  }

  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  for (auto& s : sessions) {
    client_tp.home(s->client).run_sync([&] {
      for (std::size_t k = 0; k < kScalingPipeline && s->to_issue > 0; ++k) {
        issue(*s);
      }
    });
  }

  // Bounded wait: a lost completion or a verify failure must fail the trial
  // loudly (ops = 0 -> acceptance false), never hang the job.
  const auto deadline = start + std::chrono::seconds(60);
  while (completed.load(std::memory_order_relaxed) < expected &&
         failed.load(std::memory_order_relaxed) == 0 &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::chrono::duration<double> elapsed = Clock::now() - start;
  // Join every loop before the sessions (captured by the handlers above) go
  // out of scope.
  client_tp.stop();
  server_tp.stop();

  ScalingResult result;
  result.shards = shards;
  result.security = secured ? "shielded" : "null";
  result.batching = batched ? "on" : "off";
  result.failed = failed.load(std::memory_order_relaxed);
  const bool done =
      completed.load(std::memory_order_relaxed) >= expected &&
      result.failed == 0;
  result.ops = done ? static_cast<std::size_t>(expected) : 0;
  result.ops_per_sec =
      done && elapsed.count() > 0
          ? static_cast<double>(expected) / elapsed.count()
          : 0.0;
  return result;
}

ScalingResult run_scaling_config(unsigned shards, bool secured, bool batched,
                                 std::size_t total_ops, std::size_t trials) {
  ScalingResult best;
  for (std::size_t t = 0; t < trials; ++t) {
    ScalingResult r = run_scaling_trial(shards, secured, batched, total_ops);
    const bool r_ok = r.failed == 0 && r.ops > 0;
    const bool best_ok = best.failed == 0 && best.ops > 0;
    if (t == 0 || (r_ok && !best_ok) ||
        (r_ok == best_ok && r.ops_per_sec > best.ops_per_sec)) {
      best = std::move(r);
    }
  }
  return best;
}

// The speedup floor an 8-shard run must clear over 1 shard, derived from
// the cores actually available: the claim is "shards use the machine", and
// the machine is part of the measurement.
double scaling_floor(unsigned cores) {
  if (cores >= 8) return 3.0;
  if (cores >= 4) return 1.8;
  if (cores >= 2) return 1.25;
  // Single core: the scaling claim is untestable — 8 event loops timeslice
  // one CPU, so the 8-shard config legitimately runs at roughly half the
  // 1-shard throughput and the exact ratio is scheduler weather. The floor
  // only catches pathological collapse (cross-shard livelock, unbounded
  // queueing), not the expected contention cost.
  return 0.35;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_transport.json";
  const std::size_t ops =
      argc > 2 ? static_cast<std::size_t>(std::strtoull(argv[2], nullptr, 10))
               : 4000;
  const std::size_t trials =
      argc > 3 ? static_cast<std::size_t>(std::strtoull(argv[3], nullptr, 10))
               : 3;

  // The four {security} x {batching} corners.
  std::vector<ConfigResult> results;
  for (bool secured : {true, false}) {
    for (bool batched : {false, true}) {
      ConfigResult r = run_config(secured, batched, ops, trials);
      std::printf(
          "security=%-8s batching=%-3s  %8.0f ops/s  p50=%4lluus "
          "p99=%4lluus  failed=%llu  replica-packets=%llu\n",
          r.security.c_str(), r.batching.c_str(), r.ops_per_sec,
          static_cast<unsigned long long>(r.p50_us),
          static_cast<unsigned long long>(r.p99_us),
          static_cast<unsigned long long>(r.failed),
          static_cast<unsigned long long>(r.packets_sent));
      results.push_back(std::move(r));
    }
  }

  bool all_ok = true;
  for (const ConfigResult& r : results) {
    if (r.failed != 0 || r.ops == 0) all_ok = false;
  }

  // Shard scaling sweep: {1,2,4,8} shards x {shielded,null} x {batched,
  // unbatched}, best-of-2 (the matrix is 16 configs; two trials keep the
  // job bounded while still shedding one scheduler hiccup per config).
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  std::vector<ScalingResult> scaling;
  for (unsigned shards : {1u, 2u, 4u, 8u}) {
    for (bool secured : {true, false}) {
      for (bool batched : {false, true}) {
        ScalingResult r =
            run_scaling_config(shards, secured, batched, ops, /*trials=*/2);
        std::printf(
            "scaling shards=%u security=%-8s batching=%-3s  %8.0f ops/s  "
            "failed=%llu\n",
            r.shards, r.security.c_str(), r.batching.c_str(), r.ops_per_sec,
            static_cast<unsigned long long>(r.failed));
        scaling.push_back(std::move(r));
      }
    }
  }
  auto scaling_find = [&](unsigned shards, const char* sec,
                          const char* batching) -> const ScalingResult& {
    for (const ScalingResult& r : scaling) {
      if (r.shards == shards && r.security == sec && r.batching == batching) {
        return r;
      }
    }
    return scaling.front();
  };
  bool scaling_all_ok = true;
  for (const ScalingResult& r : scaling) {
    if (r.failed != 0 || r.ops == 0) scaling_all_ok = false;
  }
  const double speedup_unbatched =
      ratio(scaling_find(8, "shielded", "off").ops_per_sec,
            scaling_find(1, "shielded", "off").ops_per_sec);
  const double speedup_batched =
      ratio(scaling_find(8, "shielded", "on").ops_per_sec,
            scaling_find(1, "shielded", "on").ops_per_sec);
  const double floor = scaling_floor(cores);
  const bool scaling_ok = scaling_all_ok && speedup_unbatched >= floor;
  std::printf(
      "scaling cores=%u  8/1 shielded speedup: unbatched=%.2fx "
      "batched=%.2fx  floor=%.2f  -> %s\n",
      cores, speedup_unbatched, speedup_batched, floor,
      scaling_ok ? "ok" : "FAIL");

  // Observability overhead guard: the headline shielded batched config
  // re-run with the metrics registries AND the flight recorder disabled
  // (TcpClusterOptions::metrics=false constructs disabled registries, so
  // every handle no-ops). The gate: instrumentation may cost at most 3%
  // (on/off >= 0.97), best-of-trials on both sides to shed scheduler noise.
  constexpr double kObsOverheadFloor = 0.97;
  const ConfigResult obs_off =
      run_config(true, /*batched=*/true, ops, trials, /*metrics=*/false);
  double obs_on_ops = 0.0;
  for (const ConfigResult& r : results) {
    if (r.security == "shielded" && r.batching == "on") {
      obs_on_ops = r.ops_per_sec;
    }
  }
  const double obs_ratio = ratio(obs_on_ops, obs_off.ops_per_sec);
  const bool obs_ok = obs_off.failed == 0 && obs_off.ops > 0 &&
                      obs_on_ops > 0 && obs_ratio >= kObsOverheadFloor;
  std::printf(
      "obs-overhead  on=%8.0f ops/s  off=%8.0f ops/s  ratio=%.3f  "
      "floor=%.2f  -> %s\n",
      obs_on_ops, obs_off.ops_per_sec, obs_ratio, kObsOverheadFloor,
      obs_ok ? "ok" : "FAIL");

  // Informational only — excluded from all_ok by design (see ChaosResult).
  const ChaosResult chaos = run_chaos_config(ops / 4);
  std::printf(
      "chaos    seed=%llu  %8.0f ops/s  failed=%llu  dropped=%llu "
      "duplicated=%llu reordered=%llu delayed=%llu\n",
      static_cast<unsigned long long>(chaos.seed), chaos.ops_per_sec,
      static_cast<unsigned long long>(chaos.failed),
      static_cast<unsigned long long>(chaos.dropped),
      static_cast<unsigned long long>(chaos.duplicated),
      static_cast<unsigned long long>(chaos.reordered),
      static_cast<unsigned long long>(chaos.delayed));

  auto find = [&](const char* sec,
                  const char* batching) -> const ConfigResult& {
    for (const ConfigResult& r : results) {
      if (r.security == sec && r.batching == batching) return r;
    }
    return results.front();
  };
  const double shielded_cost = ratio(find("null", "off").ops_per_sec,
                                     find("shielded", "off").ops_per_sec);
  // The headline the CI trajectory gate enforces a hard floor on: the full
  // pipeline (caller-thread shielding + gathered writev + batching) against
  // the same shielded stack unbatched.
  const double batch_speedup = ratio(find("shielded", "on").ops_per_sec,
                                     find("shielded", "off").ops_per_sec);

  FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"transport\",\n");
  std::fprintf(out, "  \"transport\": \"tcp-loopback\",\n");
  std::fprintf(out, "  \"protocol\": \"cr\",\n");
  std::fprintf(out, "  \"replicas\": 3,\n");
  std::fprintf(out, "  \"pipeline\": %zu,\n", kPipeline);
  std::fprintf(out, "  \"value_bytes\": 64,\n");
  std::fprintf(out, "  \"trials_per_config\": %zu,\n", trials);
  std::fprintf(out, "  \"configs\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    std::fprintf(out,
                 "    {\"security\": \"%s\", \"batching\": \"%s\", "
                 "\"ops\": %zu, \"ops_per_sec\": %.0f, \"p50_us\": %llu, "
                 "\"p99_us\": %llu, \"failed\": %llu, "
                 "\"replica_packets\": %llu}%s\n",
                 r.security.c_str(), r.batching.c_str(), r.ops,
                 r.ops_per_sec, static_cast<unsigned long long>(r.p50_us),
                 static_cast<unsigned long long>(r.p99_us),
                 static_cast<unsigned long long>(r.failed),
                 static_cast<unsigned long long>(r.packets_sent),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"null_over_shielded_unbatched\": %.3f,\n",
               shielded_cost);
  std::fprintf(out, "  \"batched_over_unbatched_shielded\": %.3f,\n",
               batch_speedup);
  std::fprintf(out,
               "  \"chaos\": {\"seed\": %llu, \"ops\": %zu, "
               "\"ops_per_sec\": %.0f, \"failed\": %llu, \"dropped\": %llu, "
               "\"duplicated\": %llu, \"reordered\": %llu, "
               "\"delayed\": %llu},\n",
               static_cast<unsigned long long>(chaos.seed), chaos.ops,
               chaos.ops_per_sec,
               static_cast<unsigned long long>(chaos.failed),
               static_cast<unsigned long long>(chaos.dropped),
               static_cast<unsigned long long>(chaos.duplicated),
               static_cast<unsigned long long>(chaos.reordered),
               static_cast<unsigned long long>(chaos.delayed));
  std::fprintf(out,
               "  \"obs_overhead\": {\"on_ops_per_sec\": %.0f, "
               "\"off_ops_per_sec\": %.0f, \"ratio\": %.3f, "
               "\"required_floor\": %.2f, "
               "\"acceptance_obs_overhead_ok\": %s},\n",
               obs_on_ops, obs_off.ops_per_sec, obs_ratio, kObsOverheadFloor,
               obs_ok ? "true" : "false");
  std::fprintf(out, "  \"scaling\": {\n");
  std::fprintf(out, "    \"hardware_cores\": %u,\n", cores);
  std::fprintf(out, "    \"sessions\": %zu,\n", kScalingSessions);
  std::fprintf(out, "    \"pipeline\": %zu,\n", kScalingPipeline);
  std::fprintf(out, "    \"batch_count\": %zu,\n", kScalingBatch);
  std::fprintf(out, "    \"configs\": [\n");
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    const ScalingResult& r = scaling[i];
    std::fprintf(out,
                 "      {\"shards\": %u, \"security\": \"%s\", "
                 "\"batching\": \"%s\", \"ops\": %zu, "
                 "\"ops_per_sec\": %.0f, \"failed\": %llu}%s\n",
                 r.shards, r.security.c_str(), r.batching.c_str(), r.ops,
                 r.ops_per_sec, static_cast<unsigned long long>(r.failed),
                 i + 1 < scaling.size() ? "," : "");
  }
  std::fprintf(out, "    ],\n");
  std::fprintf(out, "    \"speedup_8_over_1_shielded_unbatched\": %.3f,\n",
               speedup_unbatched);
  std::fprintf(out, "    \"speedup_8_over_1_shielded_batched\": %.3f,\n",
               speedup_batched);
  std::fprintf(out, "    \"required_floor\": %.2f,\n", floor);
  std::fprintf(out, "    \"acceptance_shard_scaling_ok\": %s\n",
               scaling_ok ? "true" : "false");
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"acceptance_all_configs_ok\": %s\n",
               all_ok ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);

  std::printf(
      "wrote %s (acceptance_all_configs_ok=%s, "
      "batched_over_unbatched_shielded=%.3f, "
      "acceptance_shard_scaling_ok=%s, acceptance_obs_overhead_ok=%s)\n",
      out_path, all_ok ? "true" : "false", batch_speedup,
      scaling_ok ? "true" : "false", obs_ok ? "true" : "false");
  return all_ok && scaling_ok && obs_ok ? 0 : 1;
}
