// ShardGroup: one attested N-replica replication group — a single "shard"
// of the distributed data store (paper Fig. 2) — on any substrate.
//
// The group is protocol-agnostic: the node type is resolved through the
// ProtocolRegistry, so the same factory stands up an R-CR chain, a CRAQ
// chain, a Raft group, an ABD register or a Hermes group. It is also
// substrate-agnostic: each replica runs on the sim::Clock / net::Transport
// pair its ReplicaHost names, so the deterministic simulator
// (ShardedCluster) and real sockets (TcpCluster) share this one copy of
// membership, enclave provisioning (the pre-attested fast path: the group
// holds the cluster root, standing in for the CAS), replica build and
// start, routing facts and §3.7 replica recovery.
//
// Threading rules: the group touches a replica only through its host's
// `run` (inline on the simulator, a blocking hop onto the replica's loop
// over TCP), so its public methods are called from ONE external thread at a
// time. Completion callbacks (recover_replica, pull_state_from) fire on a
// replica's loop, or inline on the caller's thread when they finish before
// any remote step (an early error, a warm restart, an empty handoff).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "recipe/node_base.h"
#include "tee/enclave.h"
#include "tee/platform.h"

namespace recipe::cluster {

// The substrate one replica of a group runs on.
struct ReplicaHost {
  sim::Clock& clock;
  net::Transport& transport;
  // Hosts the replica's enclave (one platform per machine: its hardware
  // rollback counter is the replica's own).
  tee::TeePlatform& platform;
  // Runs a function on the replica's loop and returns once it ran; empty
  // runs it inline (the simulator's single thread).
  std::function<void(const std::function<void()>&)> run{};
  // Per-replica extras; null keeps the prototype's.
  kv::WalStorage* wal_storage = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

struct ShardGroupOptions {
  std::string protocol = "cr";
  // Replica NodeIds are base_id .. base_id + hosts - 1; the cluster layer
  // carves the id space so groups never collide.
  std::uint64_t base_id = 1;
  // Prototype every replica is built from. The group fills in self,
  // membership, enclave and (with confidentiality) the KV value key; the
  // host may supply wal_storage and metrics.
  ReplicaOptions replica{};
  // Cluster root secret installed into every replica enclave; channel keys
  // derive from it pairwise, so replicas of DIFFERENT groups (and clients)
  // can authenticate each other — what makes cross-shard state handoff and
  // a single routed client possible.
  crypto::SymmetricKey root{};
  crypto::SymmetricKey value_key{};  // used when replica.confidentiality
};

class ShardGroup {
 public:
  // Called during recovery once every peer forgot the rejoiner's channel
  // state, before its restarted counters reach anyone: clients outside the
  // group reset theirs here (the fast path's analog of the CAS fresh-node
  // notice).
  using FreshNodeHook = std::function<void(NodeId fresh)>;

  // Builds and starts one replica per host; fails when `protocol` is not
  // registered, a NodeId is already attached, or provisioning fails.
  static Result<std::unique_ptr<ShardGroup>> create(
      std::vector<ReplicaHost> hosts, ShardGroupOptions options,
      FreshNodeHook on_fresh_node = nullptr);

  // Abandons any pending recovery, then destroys each replica on its loop.
  ~ShardGroup();

  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  // Crash-stops every replica (used on shard removal).
  void stop();

  // Crash-stops one replica (targeted failure injection).
  void stop_replica(std::size_t i);

  // Recovers stopped replica `i` (paper §3.7), in order:
  //   1. machine reboot: fresh enclave, empty host process; a node with a
  //      WAL and a clean-shutdown marker warm-restarts locally and is done;
  //   2. otherwise re-provision the enclave (pre-attested fast path);
  //   3. every running peer resets its channel state for the node;
  //   4. the fresh-node hook runs;
  //   5. shadow-join, catch up from `donor` (any active peer when nullopt),
  //      and promote once the protocol reports caught-up.
  // `done` receives true when the warm path ran, or the first error.
  void recover_replica(std::size_t i, std::optional<NodeId> donor,
                       std::function<void(Result<bool> warm)> done);

  // For a caller that stopped waiting on recover_replica(i): cancels the
  // promotion poll so nothing fires into a replica the caller may destroy.
  // `done` is not called afterwards.
  void abandon_recovery(std::size_t i);

  const std::string& protocol() const { return options_.protocol; }
  const std::vector<NodeId>& membership() const { return membership_; }
  std::size_t size() const { return replicas_.size(); }
  // Touch only on the replica's loop.
  ReplicaNode& replica(std::size_t i) { return *replicas_[i]; }
  const ReplicaNode& replica(std::size_t i) const { return *replicas_[i]; }

  // The replica currently accepting client PUTs (CR/CRAQ: the head; Raft:
  // the leader; leaderless protocols: any running node). Falls back to the
  // first member while no replica claims the role (e.g. mid-election).
  NodeId write_coordinator() const;

  // A replica able to serve GETs; `hint` round-robins across the eligible
  // set (CRAQ/Hermes: every node) to spread read load.
  NodeId read_replica(std::uint64_t hint = 0) const;

  // --- key handoff ---------------------------------------------------------
  // Pulls the donor group's full KV state into every replica of THIS group
  // via the recovery path (ReplicaNode::sync_state_from). Each replica
  // syncs from every donor replica: timestamped writes merge last-writer-
  // wins, so the union covers protocols whose writes only reach a majority
  // (ABD). Crashed replicas on either side are skipped. `done` receives
  // the total entries installed and the number of fetches that errored —
  // callers must treat errors > 0 as an incomplete handoff.
  void pull_state_from(ShardGroup& donor,
                       std::function<void(std::size_t installed,
                                          std::size_t errors)> done);

  // Erases every key matching `pred` from every replica (after a ring
  // rebalance moved its ownership elsewhere). Returns keys erased on the
  // first replica (the per-replica counts match once the group quiesced).
  std::size_t prune_keys(
      const std::function<bool(std::string_view)>& pred);

  // True when every running replica stores `key` — the cluster layer's
  // prune invariant: a donor copy may only be erased once the new owner
  // demonstrably holds the key.
  bool holds_key(std::string_view key);

  // --- stats ---------------------------------------------------------------
  std::size_t keys();                   // on the read-serving replica
  std::uint64_t committed_ops() const;  // summed over replicas

 private:
  // A recovery's promotion wait: the poll timer and the flag that stops a
  // still-queued catch-up completion from arming a fresh one. Both are
  // touched only on the recovering replica's loop.
  struct Promotion {
    sim::TimerHandle poll;
    bool abandoned = false;
  };

  ShardGroup(std::vector<ReplicaHost> hosts, ShardGroupOptions options,
             FreshNodeHook on_fresh_node)
      : hosts_(std::move(hosts)),
        options_(std::move(options)),
        on_fresh_node_(std::move(on_fresh_node)) {}

  // Runs `fn` on replica i's loop (inline without a host runner).
  void on(std::size_t i, const std::function<void()>& fn) const;
  Status provision(tee::Enclave& enclave) const;

  std::vector<ReplicaHost> hosts_;
  ShardGroupOptions options_;
  FreshNodeHook on_fresh_node_;
  std::vector<NodeId> membership_;
  std::vector<std::unique_ptr<tee::Enclave>> enclaves_;
  std::vector<std::unique_ptr<ReplicaNode>> replicas_;
  // Per replica: the latest recovery's promotion wait (null when none ran).
  std::vector<std::shared_ptr<Promotion>> promotions_;
};

}  // namespace recipe::cluster
