// byzantine_demo: the paper's motivation, live. The same network adversary
// (tamper + replay) attacks two deployments of the SAME protocol code (ABD):
//   1. native CFT  -> silently corrupted replicas;
//   2. R-ABD       -> every attack detected and rejected.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "attest/bundle.h"
#include "protocols/abd/abd.h"
#include "recipe/client.h"
#include "recipe/message.h"

using namespace recipe;

namespace {

struct Deployment {
  sim::Simulator simulator;
  net::SimNetwork network{simulator, Rng(3)};
  tee::TeePlatform platform{1};
  crypto::SymmetricKey root{Bytes(32, 0x77)};
  std::vector<std::unique_ptr<tee::Enclave>> enclaves;
  std::vector<std::unique_ptr<protocols::AbdNode>> replicas;
  std::unique_ptr<tee::Enclave> client_enclave;
  std::unique_ptr<KvClient> client;

  explicit Deployment(bool secured) {
    const std::vector<NodeId> membership = {NodeId{1}, NodeId{2}, NodeId{3}};
    for (NodeId id : membership) {
      auto enclave =
          std::make_unique<tee::Enclave>(platform, "recipe-replica", id.value);
      if (!attest::provision_preattested(*enclave, root).is_ok()) std::abort();
      ReplicaOptions options;
      options.self = id;
      options.membership = membership;
      options.secured = secured;
      options.enclave = enclave.get();
      replicas.push_back(std::make_unique<protocols::AbdNode>(
          simulator, network, std::move(options)));
      enclaves.push_back(std::move(enclave));
    }
    for (auto& replica : replicas) replica->start();

    client_enclave = std::make_unique<tee::Enclave>(platform, "recipe-client",
                                                    2000);
    if (!attest::provision_preattested(*client_enclave, root).is_ok()) {
      std::abort();
    }
    ClientOptions options;
    options.id = ClientId{2000};
    options.secured = secured;
    options.enclave = client_enclave.get();
    client = std::make_unique<KvClient>(simulator, network, options);
  }

  // Adversary: replace the value inside replica-to-replica PUT messages and
  // replay each packet once.
  std::uint64_t attacks = 0;
  void arm_adversary() {
    network.set_adversary([this](const net::Packet& p) {
      net::AdversaryAction action;
      if (p.src.value > 3 || p.dst.value > 3) return action;
      // Tamper with ABD PUT payloads (RPC frame: kind,type,id,payload);
      // replay everything else.
      Reader r(as_view(p.payload));
      auto kind = r.u8();
      auto type = r.u32();
      auto rpc_id = r.u64();
      auto inner = r.bytes();
      if (!kind || !type || !rpc_id || !inner ||
          *type != protocols::abd_msg::kPut) {
        action.injected.push_back(p);  // replay attack
        return action;
      }
      auto msg = ShieldedMessage::parse(as_view(*inner));
      if (!msg.is_ok()) return action;
      Reader body(as_view(msg.value().payload));
      auto key = body.str();
      auto value = body.bytes();
      if (!key || !value || value->empty()) return action;
      Writer forged_body;
      forged_body.str(*key);
      forged_body.bytes(as_view(to_bytes("PWNED-BY-MALLORY")));
      auto tail = body.raw(body.remaining());
      forged_body.raw(as_view(*tail));
      msg.value().payload = std::move(forged_body).take();
      Writer wire;
      wire.u8(*kind);
      wire.u32(*type);
      wire.u64(*rpc_id);
      wire.bytes(as_view(msg.value().serialize()));
      action.kind = net::AdversaryAction::Kind::kReplace;
      action.payload = std::move(wire).take();
      ++attacks;
      return action;
    });
  }

  void report(const char* label) {
    std::printf("\n--- %s ---\n", label);
    std::printf("  attacks launched: %llu\n",
                static_cast<unsigned long long>(attacks));
    for (std::size_t i = 0; i < replicas.size(); ++i) {
      auto value = replicas[i]->kv().get("balance");
      std::printf("  replica %zu stores: %s\n", i + 1,
                  value.is_ok()
                      ? ("\"" + to_string(as_view(value.value().value)) +
                         "\"")
                            .c_str()
                      : "(nothing)");
      if (auto* sec = dynamic_cast<RecipeSecurity*>(&replicas[i]->security())) {
        std::printf(
            "             rejected: %llu forged/tampered, %llu replays\n",
                    static_cast<unsigned long long>(sec->rejected_auth()),
                    static_cast<unsigned long long>(sec->rejected_replay()));
      }
    }
  }
};

}  // namespace

int main() {
  std::printf(
      "Scenario: client writes balance=\"100 coins\" while a Dolev-Yao\n"
              "adversary tampers with and replays all replication traffic.\n");

  {
    Deployment native(/*secured=*/false);
    native.arm_adversary();
    native.client->put(NodeId{1}, "balance", to_bytes("100 coins"),
                       [](const ClientReply&) {});
    native.simulator.run_for(2 * sim::kSecond);
    native.report("NATIVE CFT (ABD): assumes a trusted network");
    std::printf("  => the adversary's value reached honest replicas.\n");
  }

  {
    Deployment recipe_mode(/*secured=*/true);
    recipe_mode.arm_adversary();
    bool ok = false;
    recipe_mode.client->put(NodeId{1}, "balance", to_bytes("100 coins"),
                            [&](const ClientReply& r) { ok = r.ok; });
    recipe_mode.simulator.run_for(2 * sim::kSecond);
    recipe_mode.report("R-ABD (Recipe): transferable auth + non-equivocation");
    std::printf("  => every tampered/replayed message rejected; %s\n",
                ok ? "write committed from intact copies."
                   : "the system refused rather than accept corruption.");

    // Once the adversary is off the wire, the same cluster proceeds.
    recipe_mode.network.set_adversary(nullptr);
    bool ok2 = false;
    recipe_mode.client->put(NodeId{1}, "balance", to_bytes("100 coins"),
                            [&](const ClientReply& r) { ok2 = r.ok; });
    recipe_mode.simulator.run_for(2 * sim::kSecond);
    std::printf("  => adversary gone: write %s.\n",
                ok2 ? "committed" : "still failing");
  }
  return 0;
}
