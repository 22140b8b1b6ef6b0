#include "cluster/shard_group.h"

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "attest/bundle.h"
#include "cluster/registry.h"
#include "recipe/recovery.h"

namespace recipe::cluster {

Result<std::unique_ptr<ShardGroup>> ShardGroup::create(
    std::vector<ReplicaHost> hosts, ShardGroupOptions options,
    FreshNodeHook on_fresh_node) {
  const ProtocolFactory* factory =
      ProtocolRegistry::instance().find(options.protocol);
  if (factory == nullptr) {
    return Status::error(ErrorCode::kInvalidArgument,
                         "unknown protocol: " + options.protocol);
  }
  if (hosts.empty()) {
    return Status::error(ErrorCode::kInvalidArgument, "empty shard group");
  }

  auto group = std::unique_ptr<ShardGroup>(new ShardGroup(
      std::move(hosts), std::move(options), std::move(on_fresh_node)));
  const std::size_t n = group->hosts_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId id{group->options_.base_id + i};
    // SimNetwork::attach silently replaces an existing endpoint, which
    // would hijack a live node's traffic — refuse the collision instead.
    if (group->hosts_[i].transport.attached(id)) {
      return Status::error(ErrorCode::kInvalidArgument,
                           "NodeId " + std::to_string(id.value) +
                               " already attached; shard id ranges collide");
    }
    group->membership_.push_back(id);
  }
  group->enclaves_.resize(n);
  group->replicas_.resize(n);
  group->promotions_.resize(n);

  // Each replica is built on its own loop, so its endpoint state is
  // loop-affine from the first instruction (packets can arrive the moment
  // the rpc object attaches). Every endpoint exists before any replica
  // starts talking.
  for (std::size_t i = 0; i < n; ++i) {
    Status built = Status::ok();
    group->on(i, [&group, &built, factory, i] {
      ShardGroup& g = *group;
      const ReplicaHost& host = g.hosts_[i];
      auto enclave = std::make_unique<tee::Enclave>(
          host.platform, "recipe-replica", g.membership_[i].value);
      built = g.provision(*enclave);
      if (!built.is_ok()) return;

      ReplicaOptions replica_options = g.options_.replica;
      replica_options.self = g.membership_[i];
      replica_options.membership = g.membership_;
      replica_options.enclave = enclave.get();
      if (replica_options.confidentiality) {
        replica_options.kv_config.value_encryption_key = g.options_.value_key;
      }
      if (host.wal_storage) replica_options.wal_storage = host.wal_storage;
      if (host.metrics) replica_options.metrics = host.metrics;

      g.enclaves_[i] = std::move(enclave);
      g.replicas_[i] = (*factory)(host.clock, host.transport,
                                  std::move(replica_options));
    });
    if (!built.is_ok()) return built;
  }
  for (std::size_t i = 0; i < n; ++i) {
    group->on(i, [&group, i] { group->replicas_[i]->start(); });
  }
  return group;
}

ShardGroup::~ShardGroup() {
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    on(i, [this, i] {
      if (promotions_[i] != nullptr) {
        promotions_[i]->abandoned = true;
        promotions_[i]->poll.cancel();
      }
      replicas_[i].reset();
      enclaves_[i].reset();
    });
  }
}

void ShardGroup::on(std::size_t i, const std::function<void()>& fn) const {
  hosts_[i].run ? hosts_[i].run(fn) : fn();
}

Status ShardGroup::provision(tee::Enclave& enclave) const {
  if (!options_.replica.secured) return Status::ok();
  return attest::provision_preattested(
      enclave, options_.root,
      options_.replica.confidentiality ? &options_.value_key : nullptr);
}

void ShardGroup::stop() {
  for (std::size_t i = 0; i < replicas_.size(); ++i) stop_replica(i);
}

void ShardGroup::stop_replica(std::size_t i) {
  if (i >= replicas_.size()) return;
  on(i, [this, i] {
    if (replicas_[i]->running()) replicas_[i]->stop();
  });
}

void ShardGroup::recover_replica(std::size_t i, std::optional<NodeId> donor,
                                 std::function<void(Result<bool>)> done) {
  if (i >= replicas_.size()) {
    done(Status::error(ErrorCode::kInvalidArgument, "no such replica"));
    return;
  }
  ReplicaNode& node = *replicas_[i];

  // 1-2. Machine reboot: fresh enclave (same identity), empty host process.
  //      Warm restart first (WAL + clean shutdown): the node restores its
  //      secrets and counters from the sealed marker and replays its own
  //      log — no re-provisioning, no peer resets, no stream. Otherwise the
  //      group re-provisions the enclave, standing in for the CAS.
  Status status = Status::ok();
  bool warm = false;
  on(i, [&] {
    if (node.running()) {
      status = Status::error(ErrorCode::kAlreadyExists, "replica is running");
      return;
    }
    enclaves_[i]->restart();
    node.wipe_state();
    if (node.has_wal()) {
      if (node.warm_restart().is_ok()) {
        warm = true;
        return;
      }
      node.wipe_state();  // partial replay must not leak into the cold path
    }
    status = provision(*enclaves_[i]);
  });
  if (!status.is_ok()) {
    done(status);
    return;
  }
  if (warm) {
    done(true);
    return;
  }

  // 3-4. The fast-path analog of the CAS fresh-node notice: every running
  //      peer, then every client, forgets the rejoiner's channel counters
  //      and replay window BEFORE its restarted counters can reach them.
  for (std::size_t j = 0; j < replicas_.size(); ++j) {
    if (j == i) continue;
    on(j, [this, j, &node, &donor] {
      ReplicaNode& peer = *replicas_[j];
      if (peer.running()) peer.security().reset_peer(node.self());
      if (!donor && peer.active()) donor = peer.self();
    });
  }
  if (on_fresh_node_) on_fresh_node_(node.self());
  if (!donor) {
    done(Status::error(ErrorCode::kUnavailable, "no active donor replica"));
    return;
  }

  // 5. Shadow join, chunked catch-up from the donor, promotion — all on the
  //    node's own loop. The poll captures `node` by reference: the handle
  //    makes every armed timer cancellable, and `abandoned` stops a
  //    still-queued catch-up completion from arming a fresh one after the
  //    caller gave up (abandon_recovery, ~ShardGroup).
  auto promotion = std::make_shared<Promotion>();
  promotions_[i] = promotion;
  on(i, [this, i, &node, from = *donor, promotion, done = std::move(done)] {
    node.start_as_shadow();
    node.catch_up_from(
        from, [this, i, &node, promotion, done](Result<std::size_t> streamed) {
          if (promotion->abandoned) return;
          if (!streamed) {
            done(streamed.status());
            return;
          }
          // Same poll cadence as the RejoinDriver defaults.
          const RejoinOptions defaults;
          await_promotion(hosts_[i].clock, node, defaults.promote_poll,
                          defaults.max_promote_polls,
                          [done](bool promoted) {
                            if (promoted) return done(false);
                            done(Status::error(ErrorCode::kTimeout,
                                               "replica stuck in shadow"));
                          },
                          std::shared_ptr<sim::TimerHandle>(promotion,
                                                            &promotion->poll));
        });
  });
}

void ShardGroup::abandon_recovery(std::size_t i) {
  if (i >= promotions_.size() || promotions_[i] == nullptr) return;
  on(i, [promotion = std::move(promotions_[i])] {
    promotion->abandoned = true;
    promotion->poll.cancel();
  });
}

NodeId ShardGroup::write_coordinator() const {
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    bool coordinates = false;
    on(i, [this, i, &coordinates] {
      coordinates =
          replicas_[i]->active() && replicas_[i]->coordinates_writes();
    });
    if (coordinates) return membership_[i];
  }
  return membership_.front();
}

NodeId ShardGroup::read_replica(std::uint64_t hint) const {
  std::vector<NodeId> eligible;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    on(i, [this, i, &eligible] {
      if (replicas_[i]->active() && replicas_[i]->coordinates_reads()) {
        eligible.push_back(membership_[i]);
      }
    });
  }
  if (eligible.empty()) return membership_.front();
  return eligible[hint % eligible.size()];
}

void ShardGroup::pull_state_from(
    ShardGroup& donor,
    std::function<void(std::size_t installed, std::size_t errors)> done) {
  // One fetch per (active receiver, active donor-replica) pair; completion
  // fires `done`. Crashed endpoints are skipped up front — a send to one
  // would silently never call back (the shield fails before anything hits
  // the wire) and the handoff would stall. Shadows are skipped on both
  // sides: as donors their state is incomplete (they also refuse
  // kStateFetch), and as receivers they get their state through their own
  // catch-up stream.
  std::vector<std::size_t> receivers;
  for (std::size_t i = 0; i < size(); ++i) {
    on(i, [this, i, &receivers] {
      if (replicas_[i]->active()) receivers.push_back(i);
    });
  }
  std::vector<NodeId> sources;
  for (std::size_t i = 0; i < donor.size(); ++i) {
    donor.on(i, [&donor, i, &sources] {
      if (donor.replicas_[i]->active()) sources.push_back(donor.membership_[i]);
    });
  }

  // Fetches complete on the receivers' loops, possibly concurrently.
  struct Progress {
    std::atomic<std::size_t> outstanding{0};
    std::atomic<std::size_t> installed{0};
    std::atomic<std::size_t> errors{0};
    std::function<void(std::size_t, std::size_t)> done;
  };
  auto progress = std::make_shared<Progress>();
  progress->done = std::move(done);
  progress->outstanding = receivers.size() * sources.size();
  if (progress->outstanding == 0) {
    progress->done(0, 0);
    return;
  }
  for (std::size_t i : receivers) {
    on(i, [this, i, &sources, progress] {
      for (NodeId source : sources) {
        replicas_[i]->sync_state_from(source, [progress](
                                                  Result<std::size_t> r) {
          if (r.is_ok()) {
            progress->installed += r.value();
          } else {
            ++progress->errors;
          }
          if (--progress->outstanding == 0) {
            progress->done(progress->installed, progress->errors);
          }
        });
      }
    });
  }
}

std::size_t ShardGroup::prune_keys(
    const std::function<bool(std::string_view)>& pred) {
  // The predicate can be expensive (ring hash + cross-shard ownership
  // probe), so evaluate it once per distinct key across the group, then
  // erase everywhere.
  std::set<std::string, std::less<>> keys;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    on(i, [this, i, &keys] {
      replicas_[i]->kv().scan([&](std::string_view key, const kv::Timestamp&) {
        keys.emplace(key);
        return true;
      });
    });
  }
  std::vector<std::string> doomed;
  for (const std::string& key : keys) {
    if (pred(key)) doomed.push_back(key);
  }
  std::size_t erased_on_first = 0;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    on(i, [this, i, &doomed, &erased_on_first] {
      for (const std::string& key : doomed) {
        if (replicas_[i]->kv().erase(key) && i == 0) ++erased_on_first;
      }
    });
  }
  return erased_on_first;
}

bool ShardGroup::holds_key(std::string_view key) {
  bool any_running = false;
  bool holds = true;
  for (std::size_t i = 0; i < replicas_.size() && holds; ++i) {
    on(i, [this, i, key, &any_running, &holds] {
      if (!replicas_[i]->running()) return;
      any_running = true;
      holds = replicas_[i]->kv().contains(key);
    });
  }
  return holds && any_running;
}

std::size_t ShardGroup::keys() {
  const auto reader =
      std::find(membership_.begin(), membership_.end(), read_replica());
  const auto i = static_cast<std::size_t>(reader - membership_.begin());
  std::size_t out = 0;
  on(i, [this, i, &out] { out = replicas_[i]->kv().size(); });
  return out;
}

std::uint64_t ShardGroup::committed_ops() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    on(i, [this, i, &total] { total += replicas_[i]->committed_ops(); });
  }
  return total;
}

}  // namespace recipe::cluster
