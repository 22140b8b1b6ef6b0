// Shared test harness: builds an n-replica cluster of any protocol node type
// plus attested clients, with secrets pre-provisioned (the CAS flow itself is
// covered by attest_test and the integration test).
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "attest/bundle.h"
#include "attest/cas.h"
#include "net/network.h"
#include "obs/flight_recorder.h"
#include "recipe/client.h"
#include "recipe/node_base.h"
#include "recipe/recovery.h"
#include "sim/simulator.h"
#include "tee/enclave.h"
#include "tee/platform.h"

namespace recipe::testing {

// Seed resolution for randomized tests: RECIPE_TEST_SEED (any base strtoull
// accepts) overrides the test's own seed, so a failing fuzz/sweep run can be
// replayed exactly. The resolved seed is printed with every failure via the
// ScopedTrace the Cluster installs (standalone tests should SCOPED_TRACE it
// themselves).
inline std::uint64_t resolved_seed(std::uint64_t fallback) {
  if (const char* env = std::getenv("RECIPE_TEST_SEED")) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 0);
    if (end != env && *end == '\0') return v;
  }
  return fallback;
}

inline std::string seed_trace_message(std::uint64_t seed) {
  return "randomized run: replay with RECIPE_TEST_SEED=" + std::to_string(seed);
}

// Scope guard for randomized/chaos tests: when the enclosing test has a
// gtest failure at scope exit, dumps the global flight recorder to
// flight_recorder_<TestSuite>.<TestName>.json in the working directory and
// prints the path right next to the RECIPE_TEST_SEED replay stamp, so the
// per-op trace rides along with the seed in CI failure artifacts.
class FlightRecorderDumpOnFailure {
 public:
  FlightRecorderDumpOnFailure() = default;
  FlightRecorderDumpOnFailure(const FlightRecorderDumpOnFailure&) = delete;
  FlightRecorderDumpOnFailure& operator=(const FlightRecorderDumpOnFailure&) =
      delete;
  ~FlightRecorderDumpOnFailure() {
    if (!::testing::Test::HasFailure()) return;
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = "unknown";
    if (info != nullptr) {
      name = std::string(info->test_suite_name()) + "." + info->name();
    }
    const std::string path = "flight_recorder_" + name + ".json";
    if (obs::FlightRecorder::global().dump_json_to(path)) {
      std::fprintf(stderr, "flight recorder dumped to %s\n", path.c_str());
    }
  }
};

template <typename Node>
class Cluster {
 public:
  struct Config {
    std::size_t num_replicas = 3;
    bool secured = true;
    bool confidentiality = false;
    sim::Time heartbeat_period = 0;  // 0: no failure detector traffic
    // Phi-accrual suspicion layer over the lease floor (0 = lease-only).
    double phi_threshold = 0.0;
    std::uint64_t seed = 1;
    BatchConfig batch{};  // forwarded to every replica
    // Stand up a real CAS (AttestationAuthority) on the network at
    // ReplicaOptions::cas_id; replicas are then provisioned with ITS cluster
    // root, so the full §3.7 re-attestation path (rejoin()) works.
    bool with_cas = false;
    // Sealed group-commit WAL (secured mode): every replica gets its own
    // in-memory WalStorage owned by the harness (deterministic sim, no
    // files), enabling shutdown_clean()/warm-restart paths in rejoin().
    bool durable_wal = false;
    kv::WalOptions wal{};
  };

  explicit Cluster(Config config = {})
      : config_(with_resolved_seed(config)),
        network_(simulator_, Rng(network_seed(config_.seed))) {
    for (std::size_t i = 0; i < config_.num_replicas; ++i) {
      membership_.push_back(NodeId{i + 1});
    }
    if (config_.with_cas) {
      attest::AuthorityParams params;
      params.service_time = sim::kMillisecond;  // in-DC CAS, test-sized
      cas_ = std::make_unique<attest::AttestationAuthority>(
          simulator_, network_, NodeId{1000},
          net::NetStackParams::direct_io_native(), params);
      cas_->register_platform(platform_);
      root_ = cas_->cluster_root();
      attest::ClusterPlan plan;
      plan.replicas = membership_;
      cas_->upload_plan(plan, crypto::Sha256::hash(as_view("recipe-replica")));
    }
  }

  // Builds node `i` (id i+1) with extra protocol options forwarded.
  template <typename... Extra>
  Node& add_node(std::size_t i, Extra&&... extra) {
    auto enclave = std::make_unique<tee::Enclave>(
        platform_, "recipe-replica", membership_[i].value);
    if (config_.secured) provision(*enclave);

    ReplicaOptions options;
    options.self = membership_[i];
    options.membership = membership_;
    options.secured = config_.secured;
    options.confidentiality = config_.confidentiality;
    options.enclave = enclave.get();
    options.heartbeat_period = config_.heartbeat_period;
    options.phi_threshold = config_.phi_threshold;
    options.stack = config_.secured ? net::NetStackParams::direct_io_tee()
                                    : net::NetStackParams::direct_io_native();
    options.batch = config_.batch;
    if (config_.confidentiality) {
      options.kv_config.value_encryption_key = value_key_;
    }
    if (config_.durable_wal && config_.secured) {
      while (wal_storage_.size() <= i) {
        wal_storage_.push_back(std::make_unique<kv::MemWalStorage>());
      }
      options.wal_storage = wal_storage_[i].get();
      options.wal = config_.wal;
    }

    enclaves_.push_back(std::move(enclave));
    nodes_.push_back(std::make_unique<Node>(simulator_, network_,
                                            std::move(options),
                                            std::forward<Extra>(extra)...));
    return *nodes_.back();
  }

  template <typename... Extra>
  void build(Extra&&... extra) {
    for (std::size_t i = 0; i < config_.num_replicas; ++i) {
      add_node(i, std::forward<Extra>(extra)...);
    }
    for (auto& node : nodes_) node->start();
  }

  KvClient& add_client(std::uint64_t client_id = 2000) {
    auto enclave = std::make_unique<tee::Enclave>(platform_, "recipe-client",
                                                  client_id);
    if (config_.secured) provision(*enclave);
    // Pre-provisioned clients still need the fresh-node notices.
    if (cas_) cas_->register_principal(NodeId{client_id});
    ClientOptions options;
    options.id = ClientId{client_id};
    options.secured = config_.secured;
    options.confidentiality = config_.confidentiality;
    options.enclave = enclave.get();
    client_enclaves_.push_back(std::move(enclave));
    clients_.push_back(
        std::make_unique<KvClient>(simulator_, network_, options));
    return *clients_.back();
  }

  // Crash replica i: machine-level failure (network + enclave).
  void crash(std::size_t i) { nodes_[i]->stop(); }

  // Orderly shutdown of replica i (durable_wal): flushes the group-commit
  // tail and seals the clean marker, so the next rejoin() is warm.
  Status shutdown_clean(std::size_t i) { return nodes_[i]->shutdown_clean(); }

  // Replica i's WAL storage (durable_wal only; null otherwise). Tests reach
  // in to tamper with segments/blobs for corruption/torn-write scenarios.
  kv::MemWalStorage* wal_storage(std::size_t i) {
    return i < wal_storage_.size() ? wal_storage_[i].get() : nullptr;
  }

  attest::AttestationAuthority& cas() { return *cas_; }

  // Full §3.7 rejoin of crashed replica i, synchronously driven: restart
  // the enclave, re-attest via the CAS, (optionally) restore a sealed
  // snapshot, shadow-join, stream state from `donor`, promote. Requires
  // Config::with_cas. Returns the driver's report or the first error.
  Result<RejoinReport> rejoin(std::size_t i, NodeId donor,
                              RejoinOptions options = {},
                              sim::Time max_wait = 30 * sim::kSecond) {
    if (!cas_) {
      return Status::error(ErrorCode::kInternal,
                           "Cluster::rejoin requires Config::with_cas");
    }
    options.donor = donor;
    drivers_.push_back(std::make_unique<RejoinDriver>(
        simulator_, *nodes_[i], *enclaves_[i], *cas_));
    // Shared, not stack-captured: the driver outlives this frame, and a
    // rejoin completing after the deadline would otherwise write through a
    // dangling reference on a later simulator step.
    auto result =
        std::make_shared<std::optional<Result<RejoinReport>>>(std::nullopt);
    drivers_.back()->rejoin(std::move(options),
                            [result](Result<RejoinReport> r) {
                              *result = std::move(r);
                            });
    const sim::Time deadline = simulator_.now() + max_wait;
    while (!*result && simulator_.now() < deadline && !simulator_.idle()) {
      simulator_.step();
    }
    if (!*result) {
      return Status::error(ErrorCode::kTimeout, "rejoin did not complete");
    }
    return std::move(**result);
  }

  Node& node(std::size_t i) { return *nodes_[i]; }
  std::size_t size() const { return nodes_.size(); }
  sim::Simulator& sim() { return simulator_; }
  net::SimNetwork& network() { return network_; }
  const std::vector<NodeId>& membership() const { return membership_; }
  tee::Enclave& enclave(std::size_t i) { return *enclaves_[i]; }
  const crypto::SymmetricKey& root() const { return root_; }
  tee::TeePlatform& platform() { return platform_; }

  void run_for(sim::Time duration) { simulator_.run_for(duration); }

  // Convenience synchronous-ish client ops: issue, then run the simulation
  // until the callback fired (or the deadline passed). Returns the reply.
  ClientReply put(KvClient& client, NodeId coordinator, const std::string& key,
                  const std::string& value) {
    ClientReply out;
    bool done = false;
    client.put(coordinator, key, to_bytes(value), [&](const ClientReply& r) {
      out = r;
      done = true;
    });
    run_until_done(done);
    return out;
  }

  ClientReply get(KvClient& client, NodeId coordinator,
                  const std::string& key) {
    ClientReply out;
    bool done = false;
    client.get(coordinator, key, [&](const ClientReply& r) {
      out = r;
      done = true;
    });
    run_until_done(done);
    return out;
  }

  void run_until_done(bool& flag, sim::Time max_wait = 10 * sim::kSecond) {
    const sim::Time deadline = simulator_.now() + max_wait;
    while (!flag && simulator_.now() < deadline && !simulator_.idle()) {
      simulator_.step();
    }
  }

 private:
  void provision(tee::Enclave& enclave) {
    ASSERT_TRUE_OR_ABORT(
        attest::provision_preattested(
            enclave, root_, config_.confidentiality ? &value_key_ : nullptr)
            .is_ok());
  }
  static void ASSERT_TRUE_OR_ABORT(bool ok) {
    if (!ok) std::abort();
  }
  static Config with_resolved_seed(Config config) {
    config.seed = resolved_seed(config.seed);
    return config;
  }
  // The default seed maps to the historical network stream (Rng(99)) so
  // long-pinned deterministic tests keep their exact schedules.
  static std::uint64_t network_seed(std::uint64_t seed) {
    return seed == 1 ? 99 : seed;
  }

  Config config_;
  sim::Simulator simulator_;
  net::SimNetwork network_;
  // Appends the replay seed to every gtest failure within this cluster's
  // lifetime.
  ::testing::ScopedTrace seed_trace_{__FILE__, __LINE__,
                                     seed_trace_message(config_.seed)};
  tee::TeePlatform platform_{1};
  crypto::SymmetricKey root_{Bytes(32, 0x77)};
  crypto::SymmetricKey value_key_{Bytes(32, 0x44)};
  std::vector<NodeId> membership_;
  std::unique_ptr<attest::AttestationAuthority> cas_;
  std::vector<std::unique_ptr<tee::Enclave>> enclaves_;
  // Declared before nodes_ (destroyed after): a node's Wal references its
  // storage. Survives crash()/rejoin() cycles like a real disk would.
  std::vector<std::unique_ptr<kv::MemWalStorage>> wal_storage_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<RejoinDriver>> drivers_;
  std::vector<std::unique_ptr<tee::Enclave>> client_enclaves_;
  std::vector<std::unique_ptr<KvClient>> clients_;
};

}  // namespace recipe::testing
