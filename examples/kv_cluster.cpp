// kv_cluster: a replicated key-value store under client load, surviving a
// leader failure — the paper's "distributed data store" scenario (Fig. 2).
//
// Runs R-Raft with three replicas and four closed-loop clients, kills the
// leader mid-run, and shows the view change + continued operation.
#include <cstdio>
#include <memory>
#include <vector>

#include "attest/bundle.h"
#include "protocols/raft/raft.h"
#include "recipe/client.h"
#include "workload/workload.h"

using namespace recipe;

namespace {

const char* role_name(protocols::RaftNode::Role role) {
  switch (role) {
    case protocols::RaftNode::Role::kLeader: return "leader";
    case protocols::RaftNode::Role::kCandidate: return "candidate";
    case protocols::RaftNode::Role::kFollower: return "follower";
  }
  return "?";
}

}  // namespace

int main() {
  sim::Simulator simulator;
  net::SimNetwork network(simulator, Rng(7));
  tee::TeePlatform platform(1);
  const crypto::SymmetricKey root{Bytes(32, 0x77)};
  const std::vector<NodeId> membership = {NodeId{1}, NodeId{2}, NodeId{3}};

  std::vector<std::unique_ptr<tee::Enclave>> enclaves;
  std::vector<std::unique_ptr<protocols::RaftNode>> replicas;
  protocols::RaftOptions raft;
  raft.initial_leader = NodeId{1};
  for (NodeId id : membership) {
    auto enclave =
        std::make_unique<tee::Enclave>(platform, "recipe-replica", id.value);
    if (!attest::provision_preattested(*enclave, root).is_ok()) return 1;
    ReplicaOptions options;
    options.self = id;
    options.membership = membership;
    options.secured = true;
    options.enclave = enclave.get();
    replicas.push_back(std::make_unique<protocols::RaftNode>(
        simulator, network, std::move(options), raft));
    enclaves.push_back(std::move(enclave));
  }
  for (auto& replica : replicas) replica->start();

  // Four clients hammer the cluster with a 50/50 YCSB-style mix.
  std::vector<std::unique_ptr<tee::Enclave>> client_enclaves;
  std::vector<std::unique_ptr<KvClient>> clients;
  for (std::uint64_t c = 0; c < 4; ++c) {
    auto enclave =
        std::make_unique<tee::Enclave>(platform, "recipe-client", 2000 + c);
    if (!attest::provision_preattested(*enclave, root).is_ok()) return 1;
    ClientOptions options;
    options.id = ClientId{2000 + c};
    options.secured = true;
    options.enclave = enclave.get();
    clients.push_back(std::make_unique<KvClient>(simulator, network, options));
    client_enclaves.push_back(std::move(enclave));
  }

  // Route every op to whichever node currently claims leadership.
  auto current_leader = [&]() -> NodeId {
    for (auto& replica : replicas) {
      if (replica->running() &&
          replica->role() == protocols::RaftNode::Role::kLeader) {
        return replica->self();
      }
    }
    return NodeId{2};  // best guess during the election gap
  };

  workload::WorkloadConfig wconfig;
  wconfig.num_keys = 100;
  wconfig.read_fraction = 0.5;
  wconfig.value_size = 64;
  std::vector<KvClient*> client_ptrs;
  for (auto& client : clients) client_ptrs.push_back(client.get());
  workload::ClosedLoopDriver driver(
      client_ptrs, wconfig,
      [&](OpType, std::uint64_t) { return current_leader(); });
  driver.start();

  auto print_status = [&](const char* moment) {
    std::printf("\n[%s] t=%.0fms\n", moment,
                static_cast<double>(simulator.now()) / sim::kMillisecond);
    for (std::size_t i = 0; i < replicas.size(); ++i) {
      auto& replica = replicas[i];
      std::printf("  node %zu: %-9s term=%llu log=%llu committed_ops=%llu%s\n",
                  i + 1,
                  replica->running() ? role_name(replica->role()) : "CRASHED",
                  static_cast<unsigned long long>(replica->term()),
                  static_cast<unsigned long long>(replica->log_size()),
                  static_cast<unsigned long long>(replica->committed_ops()),
                  replica->running() ? "" : "  (machine down)");
    }
    std::printf("  clients: %llu ops completed\n",
                static_cast<unsigned long long>(driver.completed()));
  };

  simulator.run_for(500 * sim::kMillisecond);
  print_status("steady state");

  std::printf("\n>>> killing the leader (node 1) <<<\n");
  replicas[0]->stop();
  simulator.run_for(sim::kSecond);
  print_status("after view change");

  simulator.run_for(sim::kSecond);
  print_status("new steady state");
  driver.stop();

  std::printf("\nLatency: %s\n", driver.merged_latency_us().summary().c_str());
  return 0;
}
