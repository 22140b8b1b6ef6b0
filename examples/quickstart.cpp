// Quickstart: transform a CFT protocol (Raft) for Byzantine settings with
// Recipe and run a 3-replica cluster — the minimal end-to-end example.
//
// What this shows (paper Listing 1): the protocol implementation is
// UNCHANGED between native and Recipe mode; the transformation is the
// security policy the node is constructed with. Build & run:
// cmake -B build -G Ninja && cmake --build build && ./build/examples/quickstart
#include <cstdio>
#include <memory>
#include <vector>

#include "attest/bundle.h"
#include "protocols/raft/raft.h"
#include "recipe/client.h"

using namespace recipe;

int main() {
  // --- Deployment substrate: simulator, network, TEE platform. ------------
  sim::Simulator simulator;
  net::SimNetwork network(simulator, Rng(42));
  tee::TeePlatform platform(/*platform_seed=*/1);

  // Secrets normally flow through the CAS attestation protocol (see
  // examples in tests/integration_test.cpp); here we pre-provision the
  // cluster root directly to keep the quickstart short.
  const crypto::SymmetricKey cluster_root{Bytes(32, 0x77)};
  const std::vector<NodeId> membership = {NodeId{1}, NodeId{2}, NodeId{3}};

  // --- Replicas: Raft, shielded by Recipe (secured = true). ---------------
  std::vector<std::unique_ptr<tee::Enclave>> enclaves;
  std::vector<std::unique_ptr<protocols::RaftNode>> replicas;
  protocols::RaftOptions raft;
  raft.initial_leader = NodeId{1};

  for (NodeId id : membership) {
    auto enclave =
        std::make_unique<tee::Enclave>(platform, "recipe-replica", id.value);
    if (!attest::provision_preattested(*enclave, cluster_root).is_ok()) {
      return 1;
    }

    ReplicaOptions options;
    options.self = id;
    options.membership = membership;
    options.secured = true;          // <- the whole transformation
    options.enclave = enclave.get();
    options.stack = net::NetStackParams::direct_io_tee();

    replicas.push_back(std::make_unique<protocols::RaftNode>(
        simulator, network, std::move(options), raft));
    enclaves.push_back(std::move(enclave));
  }
  for (auto& replica : replicas) replica->start();

  // --- An attested client. --------------------------------------------------
  tee::Enclave client_enclave(platform, "recipe-client", 2000);
  if (!attest::provision_preattested(client_enclave, cluster_root).is_ok()) {
    return 1;
  }
  ClientOptions client_options;
  client_options.id = ClientId{2000};
  client_options.secured = true;
  client_options.enclave = &client_enclave;
  KvClient client(simulator, network, client_options);

  // --- PUT then GET through the R-Raft leader. -----------------------------
  client.put(NodeId{1}, "greeting", to_bytes("hello, byzantine world"),
             [&](const ClientReply& reply) {
               std::printf("PUT committed: %s\n", reply.ok ? "yes" : "no");
               client.get(NodeId{1}, "greeting", [](const ClientReply& get) {
                 std::printf("GET -> \"%s\"\n",
                             to_string(as_view(get.value)).c_str());
               });
             });
  simulator.run_for(2 * sim::kSecond);

  // Every replica holds the committed value, integrity-protected.
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    auto value = replicas[i]->kv().get("greeting");
    std::printf("replica %zu: %s\n", i + 1,
                value.is_ok() ? to_string(as_view(value.value().value)).c_str()
                              : value.status().to_string().c_str());
  }
  return 0;
}
