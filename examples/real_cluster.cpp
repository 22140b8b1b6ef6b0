// real_cluster: process-per-replica deployment over real TCP sockets.
//
// The same protocol stack every simulator experiment uses — shield/verify,
// adaptive batching, RPC credits — but each replica is its own OS process
// with its own epoll event loop, and the bytes move through the kernel's
// TCP stack. Run a 3-replica chain on one machine (three terminals):
//
//   M=1@127.0.0.1:7101,2@127.0.0.1:7102,3@127.0.0.1:7103
//   ./real_cluster --id 1 --replicas $M
//   ./real_cluster --id 2 --replicas $M
//   ./real_cluster --id 3 --replicas $M
//
// then drive it from a fourth:
//
//   ./real_cluster --client --replicas $M --ops 5000
//
// Knobs: --protocol cr|craq|raft|abd|hermes, --no-batch, --unsecured,
// --confidential, --bind 0.0.0.0 (multi-machine), --value-bytes N,
// --pipeline N. Every process derives the cluster root from the SAME
// built-in demo secret (the pre-attested fast path the test harness uses);
// a production deployment would provision each enclave through the CAS.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "attest/bundle.h"
#include "cluster/registry.h"
#include "cluster/tcp_cluster.h"
#include "obs/admin.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "recipe/client.h"
#include "recipe/node_base.h"
#include "tee/enclave.h"
#include "tee/platform.h"
#include "transport/tcp_transport.h"

using namespace recipe;

namespace {

std::atomic<bool> g_stop{false};
void on_signal(int) { g_stop = true; }

struct Member {
  NodeId id{};
  std::string host;
  std::uint16_t port{0};
};

struct Args {
  std::uint64_t id = 0;  // 0: client mode
  bool client = false;
  std::vector<Member> members;
  std::string protocol = "cr";
  std::string bind_host = "127.0.0.1";
  bool secured = true;
  bool confidential = false;
  bool batch = true;
  std::size_t ops = 1000;
  std::size_t value_bytes = 64;
  std::size_t pipeline = 8;
  // Replica mode: loopback admin/introspection endpoint (-1 off, 0 picks an
  // ephemeral port, >0 binds exactly that port). Serves /metrics (Prometheus
  // text), /trace (flight-recorder JSON) and /healthz.
  int admin_port = -1;
};

bool parse_members(const std::string& spec, std::vector<Member>& out) {
  std::size_t start = 0;
  while (start < spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(start, end - start);
    const std::size_t at = item.find('@');
    const std::size_t colon = item.rfind(':');
    if (at == std::string::npos || colon == std::string::npos || colon < at) {
      std::fprintf(stderr, "bad member '%s' (want id@host:port)\n",
                   item.c_str());
      return false;
    }
    Member m;
    m.id = NodeId{std::strtoull(item.substr(0, at).c_str(), nullptr, 10)};
    m.host = item.substr(at + 1, colon - at - 1);
    m.port = static_cast<std::uint16_t>(
        std::strtoul(item.substr(colon + 1).c_str(), nullptr, 10));
    out.push_back(std::move(m));
    start = end + 1;
  }
  return !out.empty();
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--id") {
      const char* v = next();
      if (v == nullptr) return false;
      args.id = std::strtoull(v, nullptr, 10);
    } else if (a == "--client") {
      args.client = true;
    } else if (a == "--replicas") {
      const char* v = next();
      if (v == nullptr || !parse_members(v, args.members)) return false;
    } else if (a == "--protocol") {
      const char* v = next();
      if (v == nullptr) return false;
      args.protocol = v;
    } else if (a == "--bind") {
      const char* v = next();
      if (v == nullptr) return false;
      args.bind_host = v;
    } else if (a == "--unsecured") {
      args.secured = false;
    } else if (a == "--confidential") {
      args.confidential = true;
    } else if (a == "--no-batch") {
      args.batch = false;
    } else if (a == "--ops") {
      const char* v = next();
      if (v == nullptr) return false;
      args.ops = std::strtoull(v, nullptr, 10);
    } else if (a == "--value-bytes") {
      const char* v = next();
      if (v == nullptr) return false;
      args.value_bytes = std::strtoull(v, nullptr, 10);
    } else if (a == "--pipeline") {
      const char* v = next();
      if (v == nullptr) return false;
      args.pipeline = std::strtoull(v, nullptr, 10);
    } else if (a == "--admin-port") {
      const char* v = next();
      if (v == nullptr) return false;
      args.admin_port = std::atoi(v);
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", a.c_str());
      return false;
    }
  }
  if (args.members.empty() || (!args.client && args.id == 0)) return false;
  return true;
}

// Demo deployment secrets: both sides of every channel must hold the same
// cluster root. The CAS flow (attest/cas.h) replaces this in production.
crypto::SymmetricKey demo_root() {
  return crypto::SymmetricKey{Bytes(32, 0x77)};
}
crypto::SymmetricKey demo_value_key() {
  return crypto::SymmetricKey{Bytes(32, 0x44)};
}

void provision(tee::Enclave& enclave, const Args& args) {
  if (!args.secured) return;
  const crypto::SymmetricKey value_key = demo_value_key();
  if (!attest::provision_preattested(enclave, demo_root(),
                                     args.confidential ? &value_key : nullptr)
           .is_ok()) {
    std::fprintf(stderr, "secret provisioning failed\n");
    std::exit(1);
  }
}

int run_replica(const Args& args) {
  const auto* factory =
      cluster::ProtocolRegistry::instance().find(args.protocol);
  if (factory == nullptr) {
    std::fprintf(stderr, "unknown protocol '%s'\n", args.protocol.c_str());
    return 1;
  }
  const Member* self = nullptr;
  std::vector<NodeId> membership;
  for (const Member& m : args.members) {
    membership.push_back(m.id);
    if (m.id.value == args.id) self = &m;
  }
  if (self == nullptr) {
    std::fprintf(stderr, "--id %llu is not in --replicas\n",
                 static_cast<unsigned long long>(args.id));
    return 1;
  }

  // One registry per replica process: the transport, the node and the WAL
  // all register into it; the admin endpoint scrapes it.
  obs::MetricsRegistry registry;
  transport::TcpTransportOptions topts;
  topts.bind_host = args.bind_host;
  topts.metrics = &registry;
  transport::TcpTransport transport(topts);
  auto port = transport.listen(self->id, self->port);
  if (!port.is_ok()) {
    std::fprintf(stderr, "listen on %s:%u failed: %s\n",
                 args.bind_host.c_str(), self->port,
                 port.status().message().c_str());
    return 1;
  }
  for (const Member& m : args.members) {
    if (m.id == self->id) continue;
    const Status routed = transport.add_route(m.id, m.host, m.port);
    if (!routed.is_ok()) {
      std::fprintf(stderr, "route to %llu: %s\n",
                   static_cast<unsigned long long>(m.id.value),
                   routed.message().c_str());
      return 1;
    }
  }

  tee::TeePlatform platform{1};
  std::unique_ptr<tee::Enclave> enclave;
  std::unique_ptr<ReplicaNode> node;
  transport.run_sync([&] {
    enclave = std::make_unique<tee::Enclave>(platform, "recipe-replica",
                                             self->id.value);
    provision(*enclave, args);

    ReplicaOptions options;
    options.self = self->id;
    options.membership = membership;
    options.secured = args.secured;
    options.confidentiality = args.confidential;
    options.enclave = enclave.get();
    options.heartbeat_period = 50 * sim::kMillisecond;
    options.batch.enabled = args.batch;
    if (args.confidential) {
      options.kv_config.value_encryption_key = demo_value_key();
    }
    options.metrics = &registry;
    node = (*factory)(transport.clock(), transport, std::move(options));
    node->start();
  });

  std::unique_ptr<obs::AdminServer> admin;
  if (args.admin_port >= 0) {
    obs::AdminServer::Options admin_options;
    admin_options.port = args.admin_port;
    admin_options.metrics = &registry;
    admin_options.recorder = &obs::FlightRecorder::global();
    admin_options.name = "replica-" + std::to_string(self->id.value);
    admin = std::make_unique<obs::AdminServer>(admin_options);
    if (admin->port() < 0) {
      std::fprintf(stderr, "admin endpoint bind failed (port %d)\n",
                   args.admin_port);
      return 1;
    }
    std::printf("admin endpoint on http://127.0.0.1:%d (/metrics /trace)\n",
                admin->port());
  }

  std::printf("replica %llu (%s) listening on %s:%u — Ctrl-C to stop\n",
              static_cast<unsigned long long>(self->id.value),
              args.protocol.c_str(), args.bind_host.c_str(), port.value());
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::uint64_t last_committed = 0;
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::seconds(2));
    std::uint64_t committed = 0;
    bool coordinator = false;
    transport.run_sync([&] {
      committed = node->committed_ops();
      coordinator = node->is_coordinator();
    });
    if (committed != last_committed) {
      std::printf("  committed=%llu (%s)\n",
                  static_cast<unsigned long long>(committed),
                  coordinator ? "coordinator" : "replica");
      last_committed = committed;
    }
  }
  transport.run_sync([&] {
    node.reset();
    enclave.reset();
  });
  return 0;
}

int run_client(const Args& args) {
  transport::TcpTransport transport;
  for (const Member& m : args.members) {
    const Status routed = transport.add_route(m.id, m.host, m.port);
    if (!routed.is_ok()) {
      std::fprintf(stderr, "route to %llu: %s\n",
                   static_cast<unsigned long long>(m.id.value),
                   routed.message().c_str());
      return 1;
    }
  }
  // CR/CRAQ: head writes, tail reads. Raft: first member boots as leader.
  const NodeId write_target = args.members.front().id;
  const NodeId read_target = args.protocol == "raft"
                                 ? args.members.front().id
                                 : args.members.back().id;

  tee::TeePlatform platform{2};
  std::unique_ptr<tee::Enclave> enclave;
  std::unique_ptr<KvClient> client;
  transport.run_sync([&] {
    enclave = std::make_unique<tee::Enclave>(platform, "recipe-client", 9000);
    provision(*enclave, args);
    ClientOptions options;
    options.id = ClientId{9000};
    options.secured = args.secured;
    options.confidentiality = args.confidential;
    options.enclave = enclave.get();
    client = std::make_unique<KvClient>(transport.clock(), transport,
                                        options);
  });

  const Bytes value(args.value_bytes, 'x');
  const std::size_t total = args.ops;
  const double secs = cluster::drive_closed_loop_puts(
      transport, *client, write_target, total, args.pipeline, value);
  if (secs < 0) {
    std::fprintf(stderr, "closed-loop run never completed (lost op?)\n");
    return 1;
  }

  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
  transport.run_sync([&] {
    ok = client->completed();
    failed = client->failed();
    p50 = client->latency_us().percentile(0.50);
    p99 = client->latency_us().percentile(0.99);
  });
  std::printf("%zu ops in %.3fs: %.0f ops/s, p50=%lluus p99=%lluus, "
              "ok=%llu failed=%llu\n",
              total, secs, static_cast<double>(total) / secs,
              static_cast<unsigned long long>(p50),
              static_cast<unsigned long long>(p99),
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(failed));

  // Read-back sanity through the read-serving replica.
  auto reply_promise = std::make_shared<std::promise<ClientReply>>();
  auto reply_future = reply_promise->get_future();
  transport.run_sync([&] {
    client->get(read_target, "key0", [reply_promise](const ClientReply& r) {
      reply_promise->set_value(r);
    });
  });
  const ClientReply reply = reply_future.get();
  std::printf("GET key0 via %llu: ok=%d found=%d (%zu bytes)\n",
              static_cast<unsigned long long>(read_target.value), reply.ok,
              reply.found, reply.value.size());

  transport.run_sync([&] {
    client.reset();
    enclave.reset();
  });
  return failed == 0 && reply.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(
        stderr,
        "usage:\n"
        "  %s --id N --replicas id@host:port,... [--protocol cr] "
        "[--bind 0.0.0.0] [--unsecured] [--confidential] [--no-batch] "
        "[--admin-port P]\n"
        "  %s --client --replicas id@host:port,... [--ops N] "
        "[--value-bytes N] [--pipeline N]\n",
        argv[0], argv[0]);
    return 2;
  }
  return args.client ? run_client(args) : run_replica(args);
}
