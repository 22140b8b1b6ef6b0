#include "cluster/tcp_cluster.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <thread>

#include "attest/bundle.h"
#include "obs/flight_recorder.h"

namespace recipe::cluster {

namespace {
constexpr const char* kLoopback = "127.0.0.1";

std::chrono::nanoseconds chrono_ns(sim::Time t) {
  return std::chrono::nanoseconds(t);
}

// Construction failures abort with their Status in every build type: the
// constructor has no error channel, and a compiled-out assert would let an
// unknown protocol or an unbound port fail later, far from the cause.
void require(const Status& status, const char* what) {
  if (status.is_ok()) return;
  std::fprintf(stderr, "TcpCluster: %s: %s\n", what,
               status.message().c_str());
  std::abort();
}
}  // namespace

TcpCluster::TcpCluster(TcpClusterOptions options)
    : options_(std::move(options)) {
  std::vector<NodeId> ids;
  for (std::size_t i = 0; i < options_.replicas; ++i) {
    ids.push_back(NodeId{options_.first_id + i});
  }

  // Registries first: every component below registers series into them (or
  // gets no-op handles from a disabled registry when options_.metrics is
  // off), so they must outlive everything else.
  for (std::size_t i = 0; i < options_.replicas; ++i) {
    metrics_.push_back(
        std::make_unique<obs::MetricsRegistry>(options_.metrics));
  }
  client_metrics_ = std::make_unique<obs::MetricsRegistry>(options_.metrics);

  // One transport (shard set + listeners) per replica, plus the client's.
  // Each replica endpoint is pinned to shard 0 of its own transport — its
  // protocol code stays on one loop; extra shards carry accepted client
  // connections (SO_REUSEPORT) and the socket work for them.
  transport::ShardedTcpTransportOptions transport_options;
  transport_options.shards = options_.transport_shards;
  transport_options.transport = options_.transport;
  std::vector<std::uint16_t> ports(options_.replicas, 0);
  for (std::size_t i = 0; i < options_.replicas; ++i) {
    transport_options.transport.metrics = metrics_[i].get();
    transports_.push_back(
        std::make_unique<transport::ShardedTcpTransport>(transport_options));
    require(transports_.back()->pin_home(ids[i], 0), "pin_home");
    const std::uint16_t want =
        options_.base_port == 0
            ? 0
            : static_cast<std::uint16_t>(options_.base_port + i);
    auto port = transports_.back()->listen(ids[i], want);
    require(port.status(), "listen");
    ports[i] = port.value();
  }
  transport_options.transport.metrics = client_metrics_.get();
  client_transport_ =
      std::make_unique<transport::ShardedTcpTransport>(transport_options);
  for (std::size_t i = 0; i < options_.replicas; ++i) {
    for (std::size_t j = 0; j < options_.replicas; ++j) {
      if (i == j) continue;
      require(transports_[i]->add_route(ids[j], kLoopback, ports[j]),
              "add_route");
    }
    require(client_transport_->add_route(ids[i], kLoopback, ports[i]),
            "add_route");
  }

  // Chaos: wrap every transport before any node or client attaches, so the
  // whole lifetime of the group runs through the injectors. Each wrapper
  // gets a distinct seed offset (independent fault streams per loop) and a
  // reset hook that RSTs its own transport's links to the chosen victim.
  if (options_.chaos) {
    chaos_.resize(options_.replicas);
    for (std::size_t i = 0; i < options_.replicas; ++i) {
      transport::ChaosOptions chaos_options = options_.chaos_options;
      chaos_options.seed += i;
      chaos_options.metrics = metrics_[i].get();
      if (!chaos_options.reset_hook) {
        chaos_options.reset_hook = [t = transports_[i].get()](NodeId peer) {
          t->reset_peer_connections(peer);
        };
      }
      chaos_[i] = std::make_unique<transport::ChaosTransport>(
          *transports_[i], std::move(chaos_options));
    }
    transport::ChaosOptions chaos_options = options_.chaos_options;
    chaos_options.seed += options_.replicas;
    chaos_options.metrics = client_metrics_.get();
    if (!chaos_options.reset_hook) {
      chaos_options.reset_hook = [t = client_transport_.get()](NodeId peer) {
        t->reset_peer_connections(peer);
      };
    }
    client_chaos_ = std::make_unique<transport::ChaosTransport>(
        *client_transport_, std::move(chaos_options));
  }

  // The group: replica i runs on its transport's shard-0 loop, under its
  // own TEE platform (its own rollback counter) and, with durable_wal, its
  // own log directory — keyed by the (unique per instance) listen port so
  // concurrent clusters in one process never share logs.
  std::vector<ReplicaHost> hosts;
  for (std::size_t i = 0; i < options_.replicas; ++i) {
    platforms_.push_back(std::make_unique<tee::TeePlatform>(1));
    wal_storage_.push_back(
        options_.durable_wal && options_.secured
            ? std::make_unique<kv::FileWalStorage>(
                  options_.wal_dir + "/p" + std::to_string(ports[i]))
            : nullptr);
    transport::ShardedTcpTransport* loop = transports_[i].get();
    hosts.push_back(ReplicaHost{
        loop->clock(), node_transport(i), *platforms_[i],
        [loop](const std::function<void()>& fn) { loop->run_sync(fn); },
        wal_storage_[i].get(), metrics_[i].get()});
  }
  ShardGroupOptions group_options;
  group_options.protocol = options_.protocol;
  group_options.base_id = options_.first_id;
  group_options.root = options_.root;
  group_options.value_key = options_.value_key;
  ReplicaOptions& replica = group_options.replica;
  replica.secured = options_.secured;
  replica.confidentiality = options_.confidentiality;
  replica.heartbeat_period = options_.heartbeat_period;
  replica.suspect_timeout = options_.suspect_timeout;
  replica.phi_threshold = options_.phi_threshold;
  replica.batch = options_.batch;
  if (options_.durable_wal && options_.secured) replica.wal = options_.wal;
  // A rejoiner's fresh counters must not hit a client's old replay window:
  // each client forgets the node on its own home loop.
  auto group = ShardGroup::create(
      std::move(hosts), std::move(group_options), [this](NodeId fresh) {
        for (std::size_t c = 0; c < clients_.size(); ++c) {
          client_home(c).run_sync([this, c, fresh] {
            clients_[c]->security().reset_peer(fresh);
          });
        }
      });
  require(group.status(), "replica group");
  group_ = std::move(group.value());

  // Admin endpoints last: they scrape the registries from their own serve
  // threads, so everything they read must already be registered.
  if (options_.admin_port >= 0) {
    for (std::size_t i = 0; i < options_.replicas; ++i) {
      obs::AdminServer::Options admin_options;
      admin_options.port =
          options_.admin_port == 0 ? 0 : options_.admin_port +
                                             static_cast<int>(i);
      admin_options.metrics = metrics_[i].get();
      admin_options.recorder = &obs::FlightRecorder::global();
      admin_options.name = "replica-" + std::to_string(ids[i].value);
      admin_.push_back(std::make_unique<obs::AdminServer>(admin_options));
    }
  }
}

net::Transport& TcpCluster::node_transport(std::size_t i) {
  if (i < chaos_.size() && chaos_[i]) return *chaos_[i];
  return *transports_[i];
}

net::Transport& TcpCluster::client_net() {
  if (client_chaos_) return *client_chaos_;
  return *client_transport_;
}

TcpCluster::~TcpCluster() {
  // Each client dies on its own home loop (clients may be homed on
  // different shards of the client transport).
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    client_home(c).run_sync([this, c] {
      clients_[c].reset();
      client_enclaves_[c].reset();
    });
  }
  clients_.clear();
  client_enclaves_.clear();
  // Each replica dies on its own loop; transports (and their loop threads)
  // die with the vector after it.
  group_.reset();
}

KvClient& TcpCluster::add_client(std::uint64_t client_id) {
  KvClient* out = nullptr;
  // Round-robin homing across the client transport's shards: the client is
  // CONSTRUCTED on its home loop (its timers live on that shard's clock),
  // and every later touch marshals through client_home().
  const std::size_t home =
      clients_.size() % client_transport_->shard_count();
  require(client_transport_->pin_home(NodeId{client_id}, home), "pin_home");
  client_homes_.push_back(home);
  client_transport_->shard(home).run_sync([this, client_id, home, &out] {
    auto enclave = std::make_unique<tee::Enclave>(client_platform_,
                                                  "recipe-client", client_id);
    if (options_.secured) {
      require(attest::provision_preattested(
                  *enclave, options_.root,
                  options_.confidentiality ? &options_.value_key : nullptr),
              "client provisioning");
    }
    ClientOptions client_options;
    client_options.id = ClientId{client_id};
    client_options.secured = options_.secured;
    client_options.confidentiality = options_.confidentiality;
    client_options.enclave = enclave.get();
    client_options.request_timeout = options_.request_timeout;
    client_options.max_retries = options_.max_retries;
    client_options.retry = options_.client_retry;
    client_options.metrics = client_metrics_.get();
    client_enclaves_.push_back(std::move(enclave));
    clients_.push_back(std::make_unique<KvClient>(
        client_transport_->shard(home).clock(), client_net(),
        client_options));
    out = clients_.back().get();
  });
  return *out;
}

transport::TcpTransport& TcpCluster::home_loop(const KvClient& client) {
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    if (clients_[c].get() == &client) return client_home(c);
  }
  return client_transport_->shard(0);
}

ClientReply TcpCluster::put(KvClient& client, const std::string& key,
                            const std::string& value) {
  return retry_op(client, /*is_put=*/true, key, value);
}

ClientReply TcpCluster::get(KvClient& client, const std::string& key) {
  return retry_op(client, /*is_put=*/false, key, std::string{});
}

ClientReply TcpCluster::retry_op(KvClient& client, bool is_put,
                                 const std::string& key,
                                 const std::string& value) {
  // Re-resolve the target and retry across transient windows (an election
  // in progress, a not-yet-suspected dead chain node): the client already
  // retransmits within one attempt; this loop re-routes. A fatal reply
  // classification — crashed local enclave, integrity violation — returns
  // immediately: no re-route can fix those, and burning the backoff budget
  // on them just hides the real error.
  const rpc::RetryPolicy& policy = options_.op_retry;
  const auto op_started = std::chrono::steady_clock::now();
  ClientReply reply;
  sim::Time backoff = 0;
  for (int attempt = 0;; ++attempt) {
    const NodeId target = is_put ? write_coordinator() : read_replica();
    auto promise = std::make_shared<std::promise<ClientReply>>();
    auto future = promise->get_future();
    home_loop(client).run_sync([&] {
      auto completion = [promise](const ClientReply& r) {
        promise->set_value(r);
      };
      if (is_put) {
        client.put(target, key, to_bytes(value), std::move(completion));
      } else {
        client.get(target, key, std::move(completion));
      }
    });
    const auto bound =
        chrono_ns(options_.request_timeout) * (options_.max_retries + 1) +
        std::chrono::seconds(2);
    if (future.wait_for(bound) != std::future_status::ready) {
      // Lost completion (a bug, not load): label it so callers don't see a
      // default reply whose error claims kOk.
      reply = ClientReply{};
      reply.error = ErrorCode::kTimeout;
      return reply;
    }
    reply = future.get();
    if (reply.ok || rpc::RetryPolicy::fatal(reply.error)) return reply;
    if (attempt + 1 >= policy.max_attempts) return reply;
    backoff = policy.next_backoff(backoff, op_rng_);
    if (policy.deadline > 0 &&
        (std::chrono::steady_clock::now() - op_started) + chrono_ns(backoff) >
            chrono_ns(policy.deadline)) {
      return reply;
    }
    std::this_thread::sleep_for(chrono_ns(backoff));
  }
}

Status TcpCluster::rejoin(std::size_t i, NodeId donor, sim::Time max_wait,
                          bool* warm_out) {
  if (warm_out != nullptr) *warm_out = false;
  auto verdict = std::make_shared<std::promise<Result<bool>>>();
  auto future = verdict->get_future();
  group_->recover_replica(i, donor, [verdict](Result<bool> warm) {
    verdict->set_value(std::move(warm));
  });
  if (future.wait_for(chrono_ns(max_wait)) != std::future_status::ready) {
    // Disarm BEFORE handing control back: the caller may destroy the node.
    group_->abandon_recovery(i);
    return Status::error(ErrorCode::kTimeout, "rejoin did not complete");
  }
  const Result<bool> warm = future.get();
  if (!warm) return warm.status();
  if (warm_out != nullptr) *warm_out = warm.value();
  return Status::ok();
}

Status TcpCluster::shutdown_clean(std::size_t i) {
  Status out = Status::ok();
  run_on(i, [this, i, &out] {
    if (!node(i).running()) {
      out = Status::error(ErrorCode::kUnavailable, "replica not running");
      return;
    }
    out = node(i).shutdown_clean();
  });
  return out;
}

double drive_closed_loop_puts(transport::TcpTransport& client_transport,
                              KvClient& client, NodeId target,
                              std::size_t total, std::size_t pipeline,
                              const Bytes& value, std::size_t key_space) {
  if (total == 0) return 0.0;
  if (pipeline == 0) pipeline = 1;
  if (key_space == 0) key_space = 1;

  auto done = std::make_shared<std::promise<void>>();
  auto issued = std::make_shared<std::size_t>(0);
  auto completed = std::make_shared<std::size_t>(0);
  // Self-referential closure: each completion issues the next op, all on
  // the client's loop thread. Explicitly broken after the run — the
  // shared_ptr self-capture would otherwise leak it.
  auto issue = std::make_shared<std::function<void()>>();
  *issue = [&client, target, issued, completed, total, done, issue, &value,
            key_space] {
    if (*issued >= total) return;
    const std::size_t n = (*issued)++;
    client.put(target, "key" + std::to_string(n % key_space), value,
               [completed, total, done, issue](const ClientReply&) {
                 if (++*completed == total) {
                   done->set_value();
                 } else {
                   (*issue)();
                 }
               });
  };

  const auto started = std::chrono::steady_clock::now();
  client_transport.run_sync([&] {
    for (std::size_t i = 0; i < pipeline; ++i) (*issue)();
  });
  // Bounded wait: one silently lost completion must fail the run (negative
  // return), not hang the caller — and with it a gating CI bench job.
  const auto bound = std::chrono::seconds(60) +
                     std::chrono::milliseconds(5) * static_cast<long>(total);
  const bool finished =
      done->get_future().wait_for(bound) == std::future_status::ready;
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  client_transport.run_sync([&] { *issue = nullptr; });
  return finished ? secs : -1.0;
}

}  // namespace recipe::cluster
