// Calibrated experiment rig for the paper's evaluation (§B).
//
// Builds a cluster of any protocol node type in a chosen deployment mode
// (native CFT, Recipe, Recipe+confidentiality, classical BFT, hybrid BFT),
// wires cost models / network stacks / core counts, provisions enclaves,
// preloads the YCSB keyspace, and measures closed-loop throughput over a
// simulated window.
//
// Hardware model mirrors the paper's testbed: 3x i9-9900K (8 cores),
// 40GbE, SGXv1 with ~94MB usable EPC, SCONE runtime.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "attest/bundle.h"
#include "net/network.h"
#include "recipe/client.h"
#include "recipe/node_base.h"
#include "sim/simulator.h"
#include "tee/cost_model.h"
#include "tee/enclave.h"
#include "tee/platform.h"
#include "workload/workload.h"

namespace recipe::workload {

struct TestbedConfig {
  std::size_t num_replicas = 3;
  std::size_t num_clients = 16;
  WorkloadConfig workload{};

  bool secured = true;
  bool confidentiality = false;
  net::NetStackParams replica_stack = net::NetStackParams::direct_io_tee();
  unsigned replica_cores = 8;

  // Adaptive shielded batching on every replica (replication traffic and
  // client replies); off by default to preserve the calibrated baselines.
  BatchConfig batch{};

  bool use_cost_model = true;
  tee::TeeCostParams cost_params{};
  // SCONE process footprint resident in the EPC (code+heap); message buffers
  // and KV metadata come on top. ~90MB leaves headroom that large values and
  // batching exhaust (the Fig. 3 cliff).
  std::uint64_t enclave_runtime_bytes = 90ULL << 20;
  // Ring-buffer slots per session in the in-enclave networking layer.
  std::size_t ring_slots_per_session = 128;
  // Batching protocols keep multiples of the wire batch resident.
  std::size_t buffer_amplifier = 1;

  sim::Time warmup = 100 * sim::kMillisecond;
  sim::Time window = 400 * sim::kMillisecond;
  std::uint64_t seed = 7;
};

struct RunResult {
  double ops_per_sec{0};
  std::uint64_t completed{0};
  std::uint64_t failed{0};
  Histogram latency_us;
};

template <typename Node>
class Testbed {
 public:
  explicit Testbed(TestbedConfig config)
      : config_(config),
        network_(simulator_, Rng(config.seed)),
        cost_model_(config.cost_params) {
    for (std::size_t i = 0; i < config_.num_replicas; ++i) {
      membership_.push_back(NodeId{i + 1});
    }
  }

  // Builds replicas (+ forwards protocol-specific options) and clients.
  template <typename... Extra>
  void build(Extra&&... extra) {
    for (std::size_t i = 0; i < config_.num_replicas; ++i) {
      auto enclave = std::make_unique<tee::Enclave>(platform_, "recipe-replica",
                                                    membership_[i].value);
      if (config_.secured) provision(*enclave);

      ReplicaOptions options;
      options.self = membership_[i];
      options.membership = membership_;
      options.secured = config_.secured;
      options.confidentiality = config_.confidentiality;
      options.enclave = enclave.get();
      options.stack = config_.replica_stack;
      options.cost_model = config_.use_cost_model ? &cost_model_ : nullptr;
      if (config_.secured) {
        options.enclave_runtime_bytes = config_.enclave_runtime_bytes;
        options.msg_buffer_bytes = estimated_msg_buffer_bytes();
      }
      if (config_.confidentiality) {
        options.kv_config.value_encryption_key = value_key_;
      }
      // Larger RPC windows for load generation.
      options.rpc_config.session_credits = 256;
      options.batch = config_.batch;

      enclaves_.push_back(std::move(enclave));
      nodes_.push_back(std::make_unique<Node>(simulator_, network_,
                                              std::move(options), extra...));
      network_.cpu(membership_[i]).set_cores(config_.replica_cores);
    }
    for (auto& node : nodes_) node->start();

    for (std::size_t c = 0; c < config_.num_clients; ++c) {
      const std::uint64_t id = 2000 + c;
      auto enclave = std::make_unique<tee::Enclave>(platform_, "recipe-client",
                                                    id);
      if (config_.secured) provision(*enclave);
      ClientOptions options;
      options.id = ClientId{id};
      options.secured = config_.secured;
      options.confidentiality = config_.confidentiality;
      options.enclave = enclave.get();
      options.request_timeout = 2 * sim::kSecond;
      client_enclaves_.push_back(std::move(enclave));
      clients_.push_back(
          std::make_unique<KvClient>(simulator_, network_, options));
    }
  }

  // Populates the keyspace directly in every replica's KV store (state is
  // identical everywhere, as after a YCSB load phase).
  void preload() {
    for (std::uint64_t k = 0; k < config_.workload.num_keys; ++k) {
      const std::string key = key_name(k);
      const Bytes value = make_value(config_.workload.value_size, k);
      for (auto& node : nodes_) {
        node->kv().write(key, as_view(value));
      }
    }
  }

  // Runs warmup + measurement window under the router; reports throughput.
  RunResult run(Router router) {
    ClosedLoopDriver driver(client_pointers(), config_.workload,
                            std::move(router));
    driver.start();
    simulator_.run_for(config_.warmup);
    driver.reset_stats();
    const sim::Time started = simulator_.now();
    simulator_.run_for(config_.window);
    const double elapsed_sec =
        static_cast<double>(simulator_.now() - started) /
        static_cast<double>(sim::kSecond);
    driver.stop();

    RunResult result;
    result.completed = driver.completed();
    result.failed = driver.failed();
    result.ops_per_sec = static_cast<double>(result.completed) / elapsed_sec;
    result.latency_us = driver.merged_latency_us();
    return result;
  }

  Node& node(std::size_t i) { return *nodes_[i]; }
  std::size_t size() const { return nodes_.size(); }
  const std::vector<NodeId>& membership() const { return membership_; }
  sim::Simulator& sim() { return simulator_; }
  net::SimNetwork& network() { return network_; }
  const TestbedConfig& config() const { return config_; }

  // --- Routers -------------------------------------------------------------
  static Router route_all_to(NodeId coordinator) {
    return [coordinator](OpType, std::uint64_t) { return coordinator; };
  }
  Router route_round_robin() const {
    auto members = membership_;
    return [members](OpType, std::uint64_t op) {
      return members[op % members.size()];
    };
  }
  // Chain replication: writes to the head, reads to the tail.
  Router route_head_tail() const {
    const NodeId head = membership_.front();
    const NodeId tail = membership_.back();
    return [head, tail](OpType op, std::uint64_t) {
      return op == OpType::kPut ? head : tail;
    };
  }

 private:
  std::uint64_t estimated_msg_buffer_bytes() const {
    const std::size_t sessions = config_.num_clients + config_.num_replicas;
    return static_cast<std::uint64_t>(config_.ring_slots_per_session) *
           sessions * config_.workload.value_size * config_.buffer_amplifier;
  }

  std::vector<KvClient*> client_pointers() {
    std::vector<KvClient*> out;
    out.reserve(clients_.size());
    for (auto& client : clients_) out.push_back(client.get());
    return out;
  }

  void provision(tee::Enclave& enclave) {
    const Status provisioned = attest::provision_preattested(
        enclave, root_, config_.confidentiality ? &value_key_ : nullptr);
    if (!provisioned.is_ok()) {
      std::fprintf(stderr, "Testbed: provisioning failed: %s\n",
                   provisioned.message().c_str());
      std::abort();
    }
  }

  TestbedConfig config_;
  sim::Simulator simulator_;
  net::SimNetwork network_;
  tee::TeePlatform platform_{1};
  tee::TeeCostModel cost_model_;
  crypto::SymmetricKey root_{Bytes(32, 0x77)};
  crypto::SymmetricKey value_key_{Bytes(32, 0x44)};
  std::vector<NodeId> membership_;
  std::vector<std::unique_ptr<tee::Enclave>> enclaves_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<tee::Enclave>> client_enclaves_;
  std::vector<std::unique_ptr<KvClient>> clients_;
};

}  // namespace recipe::workload
