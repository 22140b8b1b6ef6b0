// Byzantine-behaviour tests: a Dolev-Yao network adversary and a corrupting
// host attack the cluster. R- (Recipe) protocols must preserve safety;
// the same attacks demonstrably corrupt the NATIVE CFT runs — the paper's
// core motivation (§1, §4.1).
#include <gtest/gtest.h>

#include "cluster_harness.h"
#include "protocols/abd/abd.h"
#include "protocols/cr/cr.h"
#include "protocols/raft/raft.h"
#include "recipe/message.h"

namespace recipe::protocols {
namespace {

using testing::Cluster;

// RPC wire framing helpers (the adversary sits below the RPC layer):
// [kind u8][request type u32][rpc id u64][payload bytes].
struct RpcFrame {
  std::uint8_t kind;
  std::uint32_t type;
  std::uint64_t rpc_id;
  Bytes payload;
};

std::optional<RpcFrame> unwrap_rpc(BytesView wire) {
  Reader r(wire);
  auto kind = r.u8();
  auto type = r.u32();
  auto rpc_id = r.u64();
  auto payload = r.bytes();
  if (!kind || !type || !rpc_id || !payload) return std::nullopt;
  return RpcFrame{*kind, *type, *rpc_id, std::move(*payload)};
}

Bytes wrap_rpc(const RpcFrame& frame) {
  Writer w;
  w.u8(frame.kind);
  w.u32(frame.type);
  w.u64(frame.rpc_id);
  w.bytes(as_view(frame.payload));
  return std::move(w).take();
}

// --- Network tampering
// ----------------------------------------------------------

TEST(Byzantine, TamperedReplicationTrafficDroppedUnderRecipe) {
  Cluster<AbdNode> cluster;
  cluster.build();
  auto& client = cluster.add_client();

  // The adversary flips a byte in every inter-replica packet payload.
  std::uint64_t tampered = 0;
  cluster.network().set_adversary([&](const net::Packet& p) {
    net::AdversaryAction action;
    if (p.src.value <= 3 && p.dst.value <= 3 && !p.payload.empty()) {
      action.kind = net::AdversaryAction::Kind::kTamper;
      action.payload = p.payload;
      action.payload[action.payload.size() / 2] ^= 0x40;
      ++tampered;
    }
    return action;
  });

  // With every replica->replica packet corrupted, writes cannot gather a
  // remote quorum -> the system must refuse (timeout), never accept bad data.
  bool completed_ok = false;
  client.put(NodeId{1}, "k", to_bytes("v"),
             [&](const ClientReply& r) { completed_ok = r.ok; });
  cluster.run_for(5 * sim::kSecond);
  EXPECT_GT(tampered, 0u);
  EXPECT_FALSE(completed_ok);

  // No replica ever stored a corrupted value.
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    auto v = cluster.node(i).kv().get("k");
    if (v.is_ok()) {
      EXPECT_EQ(to_string(as_view(v.value().value)), "v");
    }
  }
}

TEST(Byzantine, SelectiveTamperingToleratedByQuorum) {
  // Adversary corrupts only traffic towards replica 3: the quorum {1,2}
  // still commits, replica 3 rejects everything corrupted.
  Cluster<AbdNode> cluster;
  cluster.build();
  auto& client = cluster.add_client();

  cluster.network().set_adversary([&](const net::Packet& p) {
    net::AdversaryAction action;
    if (p.dst == NodeId{3} && p.src.value <= 3 && !p.payload.empty()) {
      action.kind = net::AdversaryAction::Kind::kTamper;
      action.payload = p.payload;
      action.payload[0] ^= 0xFF;
    }
    return action;
  });

  EXPECT_TRUE(cluster.put(client, NodeId{1}, "k", "v").ok);
  EXPECT_EQ(to_string(as_view(cluster.get(client, NodeId{2}, "k").value)), "v");
  EXPECT_FALSE(cluster.node(2).kv().contains("k"));  // everything to 3 was junk
}

TEST(Byzantine, NativeCftAcceptsTamperedTraffic) {
  // The same attack against the NATIVE protocol succeeds: followers accept
  // and store attacker-chosen bytes. This is the vulnerability Recipe fixes.
  Cluster<AbdNode>::Config config;
  config.secured = false;
  Cluster<AbdNode> cluster(config);
  cluster.build();
  auto& client = cluster.add_client();

  const Bytes evil = to_bytes("EVIL");
  cluster.network().set_adversary([&](const net::Packet& p) {
    net::AdversaryAction action;
    // Replace the value inside replica->replica PUT payloads; with framing-
    // only security the receiver cannot tell.
    if (p.src.value > 3 || p.dst.value > 3) return action;
    auto frame = unwrap_rpc(as_view(p.payload));
    if (!frame || frame->type != abd_msg::kPut) return action;
    auto msg = ShieldedMessage::parse(as_view(frame->payload));
    if (!msg.is_ok()) return action;
    Reader r(as_view(msg.value().payload));
    auto key = r.str();
    auto value = r.bytes();
    if (!key || !value || *key != "k" || value->empty()) return action;
    Writer w;
    w.str(*key);
    w.bytes(as_view(evil));
    auto tail = r.raw(r.remaining());
    w.raw(as_view(*tail));
    msg.value().payload = std::move(w).take();
    frame->payload = msg.value().serialize();
    action.kind = net::AdversaryAction::Kind::kReplace;
    action.payload = wrap_rpc(*frame);
    return action;
  });

  ASSERT_TRUE(cluster.put(client, NodeId{1}, "k", "honest").ok);
  // At least one follower stored the attacker's value.
  bool corrupted = false;
  for (std::size_t i = 1; i < cluster.size(); ++i) {
    auto v = cluster.node(i).kv().get("k");
    if (v.is_ok() && v.value().value == evil) corrupted = true;
  }
  EXPECT_TRUE(corrupted) << "native CFT should be corruptible (sanity check "
                            "that the attack itself works)";
}

// --- Replay
// ----------------------------------------------------------------------

TEST(Byzantine, ReplayedPacketsRejectedUnderRecipe) {
  Cluster<AbdNode> cluster;
  cluster.build();
  auto& client = cluster.add_client();

  // Replay every replica-to-replica packet once.
  cluster.network().set_adversary([](const net::Packet& p) {
    net::AdversaryAction action;
    if (p.src.value <= 3 && p.dst.value <= 3) action.injected.push_back(p);
    return action;
  });

  ASSERT_TRUE(cluster.put(client, NodeId{1}, "k", "v1").ok);
  ASSERT_TRUE(cluster.put(client, NodeId{1}, "k", "v2").ok);
  EXPECT_EQ(to_string(as_view(cluster.get(client, NodeId{2}, "k").value)),
            "v2");

  // The replicas observed and rejected replays.
  std::uint64_t replays = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    auto& sec = dynamic_cast<RecipeSecurity&>(cluster.node(i).security());
    replays += sec.rejected_replay();
  }
  EXPECT_GT(replays, 0u);
}

TEST(Byzantine, ReplayedClientRequestExecutesExactlyOnce) {
  Cluster<RaftNode> cluster;
  RaftOptions raft;
  raft.initial_leader = NodeId{1};
  cluster.build(raft);
  auto& client = cluster.add_client();

  // Replay every client->replica packet 3 times.
  cluster.network().set_adversary([](const net::Packet& p) {
    net::AdversaryAction action;
    if (p.src.value >= 2000 && p.dst.value <= 3) {
      for (int i = 0; i < 3; ++i) action.injected.push_back(p);
    }
    return action;
  });

  ASSERT_TRUE(cluster.put(client, NodeId{1}, "counter", "1").ok);
  cluster.run_for(sim::kSecond);
  // Exactly one commit despite 4 deliveries of the same request.
  EXPECT_EQ(cluster.node(0).committed_ops(), 1u);
}

// --- Forgery / impersonation
// --------------------------------------------------------

TEST(Byzantine, ForgedLeaderMessagesIgnored) {
  // The adversary injects fabricated "AppendEntries" packets claiming to be
  // from the leader. Without channel keys the MAC cannot be produced.
  Cluster<RaftNode> cluster;
  RaftOptions raft;
  raft.initial_leader = NodeId{1};
  cluster.build(raft);
  auto& client = cluster.add_client();
  ASSERT_TRUE(cluster.put(client, NodeId{1}, "k", "good").ok);

  ShieldedMessage forged;
  forged.header.view = ViewId{1};
  forged.header.cq = directed_channel(NodeId{1}, NodeId{2});
  forged.header.cnt = 999;
  forged.header.sender = NodeId{1};
  forged.header.receiver = NodeId{2};
  forged.payload = to_bytes("malicious append");
  forged.mac = Bytes(32, 0xAB);

  // Wrap it like an RPC request of the Raft append type and inject.
  cluster.network().set_adversary([&](const net::Packet& p) {
    net::AdversaryAction action;
    if (p.src.value >= 2000) {  // piggyback on client traffic for timing
      net::Packet evil;
      evil.src = NodeId{1};
      evil.dst = NodeId{2};
      evil.type = p.type;
      evil.payload = wrap_rpc(RpcFrame{/*kind=request*/ 1, raft_msg::kAppend,
                                       424242, forged.serialize()});
      action.injected.push_back(std::move(evil));
    }
    return action;
  });

  ASSERT_TRUE(cluster.put(client, NodeId{1}, "k2", "alsogood").ok);
  cluster.run_for(sim::kSecond);
  auto& follower_security =
      dynamic_cast<RecipeSecurity&>(cluster.node(1).security());
  EXPECT_GT(follower_security.rejected_auth(), 0u);
  // Replicated state is unaffected.
  EXPECT_EQ(to_string(as_view(cluster.node(1).kv().get("k").value().value)),
            "good");
}

TEST(Byzantine, ClientImpersonationRejected) {
  // A malicious client (with its own valid keys) cannot speak for another
  // client id: the channel binds the sender identity.
  Cluster<AbdNode> cluster;
  cluster.build();
  auto& mallory = cluster.add_client(2001);

  // Mallory crafts a request claiming client id 2002.
  ClientRequest forged;
  forged.client = ClientId{2002};
  forged.rid = RequestId{1};
  forged.op = OpType::kPut;
  forged.key = "victim-key";
  forged.value = to_bytes("ownage");

  // Encode through Mallory's own channel (the only keys she has).
  bool replied = false;
  mallory.put(NodeId{1}, "my-key", to_bytes("fine"),
              [&](const ClientReply&) { replied = true; });
  cluster.run_for(sim::kSecond);
  ASSERT_TRUE(replied);

  // Direct injection: shield with Mallory's key but lie in the payload.
  auto& sec = cluster.node(0).security();
  (void)sec;
  tee::Enclave mallory_enclave(cluster.platform(), "recipe-client", 555);
  ASSERT_TRUE(
      attest::provision_preattested(mallory_enclave, cluster.root()).is_ok());
  RecipeSecurity mallory_sec(mallory_enclave, NodeId{2001}, nullptr, nullptr,
                             {});
  auto wire = mallory_sec.shield(NodeId{1}, ViewId{0},
                                 as_view(forged.serialize()));
  ASSERT_TRUE(wire.is_ok());

  rpc::RpcObject injector(cluster.sim(), cluster.network(), NodeId{2001},
                          net::NetStackParams::direct_io_native());
  injector.send(NodeId{1}, msg::kClientRequest, wire.value());
  cluster.run_for(sim::kSecond);

  EXPECT_FALSE(cluster.node(0).kv().contains("victim-key"));
}

// --- Batched frames under attack
// -------------------------------------------------
//
// Batching coalesces N sub-messages under ONE MAC and ONE replay-window
// slot; the adversary attacks exactly that aggregation: replaying whole
// batches, splitting them, splicing sub-messages between captured frames,
// and reordering them in flight. Everything must be rejected (or tolerated)
// end-to-end through SimNetwork.

Cluster<ChainNode>::Config batched_chain_config() {
  Cluster<ChainNode>::Config config;
  config.batch.enabled = true;
  config.batch.max_count = 8;
  config.batch.max_delay = 5 * sim::kMicrosecond;
  return config;
}

// Drives `n` pipelined puts through the chain head and returns how many
// committed.
int pipelined_puts(Cluster<ChainNode>& cluster, KvClient& client, int n) {
  int completed = 0;
  for (int i = 0; i < n; ++i) {
    client.put(NodeId{1}, "k" + std::to_string(i),
               to_bytes("v" + std::to_string(i)),
               [&](const ClientReply& r) { completed += r.ok ? 1 : 0; });
  }
  cluster.run_for(5 * sim::kSecond);
  return completed;
}

void expect_chain_intact(Cluster<ChainNode>& cluster, int n) {
  for (std::size_t node = 0; node < cluster.size(); ++node) {
    for (int i = 0; i < n; ++i) {
      auto v = cluster.node(node).kv().get("k" + std::to_string(i));
      ASSERT_TRUE(v.is_ok()) << "node " << node << " key " << i;
      EXPECT_EQ(to_string(as_view(v.value().value)), "v" + std::to_string(i));
    }
  }
}

TEST(Byzantine, ReplayedBatchFramesBurnOneReplaySlot) {
  Cluster<ChainNode> cluster(batched_chain_config());
  cluster.build();
  auto& client = cluster.add_client();

  // Replay every replica->replica packet (including whole batch frames).
  std::uint64_t replayed = 0;
  cluster.network().set_adversary([&](const net::Packet& p) {
    net::AdversaryAction action;
    if (p.src.value <= 3 && p.dst.value <= 3) {
      action.injected.push_back(p);
      ++replayed;
    }
    return action;
  });

  const int n = 16;
  EXPECT_EQ(pipelined_puts(cluster, client, n), n);
  expect_chain_intact(cluster, n);

  // Each replayed batch was rejected by its single replay-window slot, and
  // nothing was applied twice (exactly-once at the head).
  std::uint64_t replays_rejected = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    auto& sec = dynamic_cast<RecipeSecurity&>(cluster.node(i).security());
    replays_rejected += sec.rejected_replay();
  }
  EXPECT_GT(replayed, 0u);
  EXPECT_GT(replays_rejected, 0u);
  EXPECT_EQ(cluster.node(0).committed_ops(), static_cast<std::uint64_t>(n));
}

TEST(Byzantine, SplitAndSplicedBatchesRejectedEndToEnd) {
  Cluster<ChainNode> cluster(batched_chain_config());
  cluster.build();
  auto& client = cluster.add_client();

  // For every replica->replica batch frame the adversary injects two
  // forgeries alongside the genuine packet:
  //  * a SPLIT: the frame's header+MAC wrapped around a truncated body;
  //  * a SPLICE: the current header+MAC around the PREVIOUS frame's body.
  std::uint64_t forged = 0;
  std::map<std::pair<std::uint64_t, std::uint64_t>, Bytes> last_seen;
  cluster.network().set_adversary([&](const net::Packet& p) {
    net::AdversaryAction action;
    if (p.src.value > 3 || p.dst.value > 3) return action;
    auto frame = unwrap_rpc(as_view(p.payload));
    if (!frame || frame->type != msg::kBatch) return action;
    auto view = ShieldedView::parse(as_view(frame->payload));
    if (!view.is_ok() || !view.value().header.is_batch()) return action;

    auto forge = [&](BytesView body) {
      Bytes wire = encode_shielded_frame(view.value().header, body,
                                         crypto::kMacSize);
      std::copy(view.value().mac.begin(), view.value().mac.end(),
                wire.end() - static_cast<std::ptrdiff_t>(crypto::kMacSize));
      net::Packet evil;
      evil.src = p.src;
      evil.dst = p.dst;
      evil.type = p.type;
      evil.payload = wrap_rpc(RpcFrame{frame->kind, frame->type,
                                       frame->rpc_id + 777777, wire});
      action.injected.push_back(std::move(evil));
      ++forged;
    };

    const BytesView body = view.value().payload;
    if (body.size() > kBatchCountSize) {
      forge(body.subspan(0, body.size() / 2));  // split
    }
    const auto key = std::make_pair(p.src.value, p.dst.value);
    const auto prev = last_seen.find(key);
    if (prev != last_seen.end()) {
      forge(as_view(prev->second));  // cross-splice with the previous frame
    }
    last_seen[key] = Bytes(body.begin(), body.end());
    return action;
  });

  const int n = 16;
  EXPECT_EQ(pipelined_puts(cluster, client, n), n);
  expect_chain_intact(cluster, n);

  std::uint64_t auth_rejected = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    auto& sec = dynamic_cast<RecipeSecurity&>(cluster.node(i).security());
    auth_rejected += sec.rejected_auth();
  }
  EXPECT_GT(forged, 0u);
  // Every forgery altered MAC-covered bytes, so every one was rejected.
  EXPECT_EQ(auth_rejected, forged);
  EXPECT_EQ(cluster.node(0).committed_ops(), static_cast<std::uint64_t>(n));
}

TEST(Byzantine, ReorderedBatchFramesToleratedByWindowPolicy) {
  Cluster<ChainNode> cluster(batched_chain_config());
  cluster.build();
  auto& client = cluster.add_client();

  // Transpose adjacent batch frames per link: hold one frame back, then on
  // the next same-link packet drop both in-flight copies and re-inject them
  // in SWAPPED order (injections are scheduled in vector order, ahead of the
  // packet that triggered them). Capped per link so a held frame can never
  // be stranded at the end of the run.
  std::map<std::pair<std::uint64_t, std::uint64_t>, net::Packet> held;
  std::map<std::pair<std::uint64_t, std::uint64_t>, int> swaps;
  std::uint64_t reordered = 0;
  cluster.network().set_adversary([&](const net::Packet& p) {
    net::AdversaryAction action;
    if (p.src.value > 3 || p.dst.value > 3) return action;
    const auto key = std::make_pair(p.src.value, p.dst.value);
    const auto it = held.find(key);
    if (it != held.end()) {
      action.kind = net::AdversaryAction::Kind::kDrop;
      action.injected.push_back(p);                      // the newer frame...
      action.injected.push_back(std::move(it->second));  // ...then the older
      held.erase(it);
      ++reordered;
      return action;
    }
    auto frame = unwrap_rpc(as_view(p.payload));
    if (!frame || frame->type != msg::kBatch) return action;
    if (swaps[key]++ >= 3) return action;
    held.emplace(key, p);
    action.kind = net::AdversaryAction::Kind::kDrop;  // hold it back
    return action;
  });

  const int n = 16;
  EXPECT_EQ(pipelined_puts(cluster, client, n), n);
  EXPECT_GT(reordered, 0u);
  expect_chain_intact(cluster, n);

  // Window-mode replay filtering accepts reordered-but-fresh counters: no
  // spurious replay rejections.
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    auto& sec = dynamic_cast<RecipeSecurity&>(cluster.node(i).security());
    EXPECT_EQ(sec.rejected_replay(), 0u) << "node " << i;
  }
}

TEST(Byzantine, TamperedBatchNeverPartiallyDelivered) {
  // Flip one bit inside the FIRST sub-message region of every batch frame:
  // if rejection were per-sub-message, later intact sub-messages could still
  // land. The single batch MAC must reject the WHOLE frame.
  Cluster<ChainNode> cluster(batched_chain_config());
  cluster.build();
  auto& client = cluster.add_client();

  std::uint64_t tampered = 0;
  cluster.network().set_adversary([&](const net::Packet& p) {
    net::AdversaryAction action;
    if (p.src.value > 3 || p.dst.value > 3) return action;
    auto frame = unwrap_rpc(as_view(p.payload));
    if (!frame || frame->type != msg::kBatch) return action;
    action.kind = net::AdversaryAction::Kind::kTamper;
    action.payload = p.payload;
    // Flip a bit just past the batch count field (inside sub-message 0).
    const std::size_t at =
        p.payload.size() - frame->payload.size() + kShieldedPayloadOffset +
        kBatchCountSize + 2;
    action.payload[at] ^= 0x20;
    ++tampered;
    return action;
  });

  // With EVERY inter-replica batch corrupted the chain cannot replicate:
  // no put may complete, and no replica may hold any partial value.
  const int completed = pipelined_puts(cluster, client, 6);
  EXPECT_GT(tampered, 0u);
  EXPECT_EQ(completed, 0);
  for (std::size_t node = 1; node < cluster.size(); ++node) {
    for (int i = 0; i < 6; ++i) {
      EXPECT_FALSE(cluster.node(node).kv().contains("k" + std::to_string(i)))
          << "partial delivery on node " << node;
    }
  }
}

// --- Byzantine host memory
// ------------------------------------------------------------

TEST(Byzantine, HostMemoryCorruptionDetectedOnLocalRead) {
  Cluster<AbdNode> cluster;
  cluster.build();
  auto& client = cluster.add_client();
  ASSERT_TRUE(cluster.put(client, NodeId{1}, "k", "v").ok);

  // The Byzantine host of replica 1 scribbles over the stored value.
  auto ptr = cluster.node(0).kv().host_ptr("k");
  ASSERT_TRUE(ptr.has_value());
  ASSERT_TRUE(cluster.node(0).kv().host_arena().corrupt(*ptr).is_ok());

  // Replica 1 detects the violation; the read via another coordinator that
  // consults the quorum still returns the correct value.
  EXPECT_EQ(cluster.node(0).kv().get("k").code(),
            ErrorCode::kIntegrityViolation);
  auto get = cluster.get(client, NodeId{2}, "k");
  EXPECT_TRUE(get.found);
  EXPECT_EQ(to_string(as_view(get.value)), "v");
}

// --- Crash-only TEEs
// -----------------------------------------------------------------

TEST(Byzantine, CrashedEnclaveCannotEquivocateOrSend) {
  Cluster<AbdNode> cluster;
  cluster.build();
  cluster.enclave(0).crash();
  // The node's host may still be up, but nothing shieldable leaves it: a
  // put coordinated elsewhere succeeds with the remaining majority.
  auto& client = cluster.add_client();
  EXPECT_TRUE(cluster.put(client, NodeId{2}, "k", "v").ok);
  EXPECT_FALSE(cluster.node(0).kv().contains("k"));
}

}  // namespace
}  // namespace recipe::protocols
