// TcpTransport tests: real loopback sockets under the Transport interface —
// echo RPC across two event loops, stream reassembly of large frames,
// backpressure, multi-endpoint local delivery, crash/recover semantics, and
// the degradation machinery (dial backoff, egress shedding, EMFILE
// accept-shed, byte-paced trickle, injected resets).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "recipe/client.h"
#include "rpc/rpc.h"
#include "transport/tcp_transport.h"

namespace recipe::transport {
namespace {

constexpr rpc::RequestType kEcho = 1;
constexpr rpc::RequestType kSum = 2;

struct Peer {
  explicit Peer(NodeId id, TcpTransportOptions options = {})
      : id(id), transport(std::move(options)) {
    auto port = transport.listen(id, 0);
    EXPECT_TRUE(port.is_ok());
    listen_port = port.value();
  }
  ~Peer() {
    transport.run_sync([this] { rpc.reset(); });
  }

  void start() {
    transport.run_sync([this] {
      rpc = std::make_unique<rpc::RpcObject>(
          transport.clock(), transport, id,
          net::NetStackParams::direct_io_native());
      rpc->register_handler(kEcho, [](rpc::RequestContext& ctx) {
        ctx.respond(ctx.payload);
      });
    });
  }

  NodeId id;
  TcpTransport transport;
  std::uint16_t listen_port{0};
  std::unique_ptr<rpc::RpcObject> rpc;
};

TEST(TcpTransportTest, EchoAcrossTwoEventLoops) {
  Peer a{NodeId{1}};
  Peer b{NodeId{2}};
  ASSERT_TRUE(a.transport.add_route(b.id, "127.0.0.1", b.listen_port)
                  .is_ok());
  a.start();
  b.start();

  auto done = std::make_shared<std::promise<Bytes>>();
  auto future = done->get_future();
  a.transport.run_sync([&] {
    a.rpc->send(b.id, kEcho, to_bytes("over real sockets"),
                [done](NodeId src, Bytes payload) {
                  EXPECT_EQ(src, NodeId{2});
                  done->set_value(std::move(payload));
                });
  });
  ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_EQ(to_string(as_view(future.get())), "over real sockets");
  EXPECT_GT(a.transport.packets_sent(), 0u);
  EXPECT_GT(b.transport.packets_delivered(), 0u);
}

// A payload far larger than one read()/write() chunk must reassemble across
// many partial reads (and exercise the backpressure path on the writer).
TEST(TcpTransportTest, LargePayloadReassembles) {
  Peer a{NodeId{1}};
  Peer b{NodeId{2}};
  ASSERT_TRUE(a.transport.add_route(b.id, "127.0.0.1", b.listen_port)
                  .is_ok());
  a.start();
  b.start();

  Bytes big(3 * 1024 * 1024, 0);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }

  auto done = std::make_shared<std::promise<Bytes>>();
  auto future = done->get_future();
  a.transport.run_sync([&] {
    a.rpc->send(b.id, kEcho, big, [done](NodeId, Bytes payload) {
      done->set_value(std::move(payload));
    });
  });
  ASSERT_EQ(future.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_EQ(future.get(), big);
}

TEST(TcpTransportTest, ManyRequestsAllComplete) {
  constexpr int kCount = 500;
  Peer a{NodeId{1}};
  Peer b{NodeId{2}};
  ASSERT_TRUE(a.transport.add_route(b.id, "127.0.0.1", b.listen_port)
                  .is_ok());
  a.start();
  b.start();

  auto done = std::make_shared<std::promise<void>>();
  auto future = done->get_future();
  auto remaining = std::make_shared<int>(kCount);
  a.transport.run_sync([&] {
    for (int i = 0; i < kCount; ++i) {
      a.rpc->send(b.id, kEcho, to_bytes("r" + std::to_string(i)),
                  [done, remaining](NodeId, Bytes) {
                    if (--*remaining == 0) done->set_value();
                  });
    }
  });
  ASSERT_EQ(future.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);

  std::uint64_t responses = 0;
  a.transport.run_sync([&] { responses = a.rpc->responses_received(); });
  EXPECT_EQ(responses, static_cast<std::uint64_t>(kCount));
}

// Two endpoints sharing one transport reach each other without sockets, but
// with the same asynchronous delivery discipline.
TEST(TcpTransportTest, CoHostedEndpointsLoopBack) {
  TcpTransport shared;
  std::unique_ptr<rpc::RpcObject> one;
  std::unique_ptr<rpc::RpcObject> two;
  shared.run_sync([&] {
    one = std::make_unique<rpc::RpcObject>(
        shared.clock(), shared, NodeId{10},
        net::NetStackParams::direct_io_native());
    two = std::make_unique<rpc::RpcObject>(
        shared.clock(), shared, NodeId{20},
        net::NetStackParams::direct_io_native());
    two->register_handler(kSum, [](rpc::RequestContext& ctx) {
      ctx.respond(to_bytes("from co-hosted peer"));
    });
  });

  auto done = std::make_shared<std::promise<Bytes>>();
  auto future = done->get_future();
  shared.run_sync([&] {
    one->send(NodeId{20}, kSum, to_bytes("hi"),
              [done](NodeId, Bytes payload) {
                done->set_value(std::move(payload));
              });
  });
  ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_EQ(to_string(as_view(future.get())), "from co-hosted peer");

  shared.run_sync([&] {
    one.reset();
    two.reset();
  });
}

TEST(TcpTransportTest, SendWithoutRouteDropsSilently) {
  Peer a{NodeId{1}};
  a.start();

  bool timed_out = false;
  auto done = std::make_shared<std::promise<void>>();
  auto future = done->get_future();
  a.transport.run_sync([&] {
    a.rpc->send(NodeId{99}, kEcho, to_bytes("into the void"),
                [](NodeId, Bytes) { FAIL() << "no peer exists"; },
                /*timeout=*/30 * sim::kMillisecond,
                [&timed_out, done] {
                  timed_out = true;
                  done->set_value();
                });
  });
  ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_TRUE(timed_out);
  EXPECT_GT(a.transport.packets_dropped(), 0u);
}

// A deliberately tiny SO_SNDBUF makes every sendmsg() stop short: the
// egress queue (many frames deep, each its own iovec chain) can only drain
// through repeated partial writes and EAGAIN -> EPOLLOUT resumptions, with
// the short write routinely landing MID-frame and MID-iovec. Every payload
// carries its own byte pattern, so any slip in the resumption offset — a
// repeated chunk, a skipped chunk, a frame spliced into its neighbor —
// corrupts a length prefix or a pattern and fails loudly.
TEST(TcpTransportTest, TinySndbufForcesPartialWriteResumption) {
  TcpTransportOptions tiny;
  tiny.so_sndbuf = 4096;  // kernel clamps to its floor; still << the queue
  Peer a{NodeId{1}, tiny};
  Peer b{NodeId{2}, tiny};
  ASSERT_TRUE(a.transport.add_route(b.id, "127.0.0.1", b.listen_port)
                  .is_ok());
  a.start();
  b.start();

  constexpr int kCount = 120;
  constexpr std::size_t kPayload = 8 * 1024;  // > move threshold: own iovec
  auto pattern = [](int i) {
    Bytes p(kPayload, 0);
    for (std::size_t j = 0; j < p.size(); ++j) {
      p[j] = static_cast<std::uint8_t>(j * 31 + static_cast<std::size_t>(i));
    }
    return p;
  };

  auto done = std::make_shared<std::promise<void>>();
  auto future = done->get_future();
  auto remaining = std::make_shared<int>(kCount);
  auto mismatches = std::make_shared<int>(0);
  a.transport.run_sync([&] {
    for (int i = 0; i < kCount; ++i) {
      // All requests enqueue back-to-back on the loop thread: ~1 MB of
      // frames stack up behind a ~4 KB socket buffer.
      a.rpc->send(b.id, kEcho, pattern(i),
                  [done, remaining, mismatches, expected = pattern(i)](
                      NodeId, Bytes payload) {
                    if (payload != expected) ++*mismatches;
                    if (--*remaining == 0) done->set_value();
                  });
    }
  });
  ASSERT_EQ(future.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  a.transport.run_sync([&] {
    EXPECT_EQ(*mismatches, 0);
    EXPECT_EQ(a.rpc->responses_received(),
              static_cast<std::uint64_t>(kCount));
  });
}

// The same squeezed socket under SCATTER sends: gathered head||body||tail
// frames (rpc::send_gather) interleaved with contiguous ones, so partial
// writes must resume correctly across the iovec boundaries WITHIN one
// logical frame, not just between frames.
TEST(TcpTransportTest, TinySndbufGatheredFramesArriveIntact) {
  TcpTransportOptions tiny;
  tiny.so_sndbuf = 4096;
  Peer a{NodeId{1}, tiny};
  Peer b{NodeId{2}, tiny};
  ASSERT_TRUE(a.transport.add_route(b.id, "127.0.0.1", b.listen_port)
                  .is_ok());
  a.start();
  b.start();

  constexpr int kCount = 60;
  constexpr std::size_t kSeg = 4 * 1024;
  auto segment = [](int i, std::uint8_t salt) {
    Bytes s(kSeg, 0);
    for (std::size_t j = 0; j < s.size(); ++j) {
      s[j] = static_cast<std::uint8_t>(j * 17 + salt +
                                       static_cast<std::size_t>(i));
    }
    return s;
  };

  // Count arrivals on the receiver; gather-sends are fire-and-forget, so
  // completion is observed at b.
  auto done = std::make_shared<std::promise<void>>();
  auto future = done->get_future();
  auto received = std::make_shared<int>(0);
  auto mismatches = std::make_shared<int>(0);
  b.transport.run_sync([&] {
    b.rpc->register_handler(kSum, [done, received, mismatches, segment](
                                      rpc::RequestContext& ctx) {
      // Logical payload = the three gathered segments, contiguous on entry.
      const int i = *received;
      Bytes expected = segment(i, 1);
      append(expected, as_view(segment(i, 2)));
      append(expected, as_view(segment(i, 3)));
      if (ctx.payload != expected) ++*mismatches;
      if (++*received == kCount) done->set_value();
    });
  });
  a.transport.run_sync([&] {
    for (int i = 0; i < kCount; ++i) {
      std::vector<Bytes> segments;
      segments.push_back(segment(i, 1));
      segments.push_back(segment(i, 2));
      segments.push_back(segment(i, 3));
      a.rpc->send_gather(b.id, kSum, std::move(segments));
    }
  });
  ASSERT_EQ(future.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  b.transport.run_sync([&] { EXPECT_EQ(*mismatches, 0); });
}

// crash() must kill the listener and every established connection; traffic
// resumes after recover() re-binds the same port.
TEST(TcpTransportTest, CrashDropsTrafficRecoverRestoresIt) {
  Peer a{NodeId{1}};
  Peer b{NodeId{2}};
  ASSERT_TRUE(a.transport.add_route(b.id, "127.0.0.1", b.listen_port)
                  .is_ok());
  a.start();
  b.start();

  // Warm the connection.
  {
    auto done = std::make_shared<std::promise<void>>();
    auto future = done->get_future();
    a.transport.run_sync([&] {
      a.rpc->send(b.id, kEcho, to_bytes("warm"),
                  [done](NodeId, Bytes) { done->set_value(); });
    });
    ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
  }

  b.transport.crash(b.id);
  EXPECT_TRUE(b.transport.is_crashed(b.id));
  {
    auto done = std::make_shared<std::promise<bool>>();
    auto future = done->get_future();
    a.transport.run_sync([&] {
      a.rpc->send(b.id, kEcho, to_bytes("while down"),
                  [done](NodeId, Bytes) { done->set_value(false); },
                  /*timeout=*/100 * sim::kMillisecond,
                  [done] { done->set_value(true); });
    });
    ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    EXPECT_TRUE(future.get()) << "a crashed endpoint must not answer";
  }

  b.transport.recover(b.id);
  EXPECT_FALSE(b.transport.is_crashed(b.id));
  {
    auto done = std::make_shared<std::promise<Bytes>>();
    auto future = done->get_future();
    a.transport.run_sync([&] {
      a.rpc->send(b.id, kEcho, to_bytes("back again"),
                  [done](NodeId, Bytes payload) {
                    done->set_value(std::move(payload));
                  },
                  /*timeout=*/2 * sim::kSecond,
                  [done] { done->set_value({}); });
    });
    ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    EXPECT_EQ(to_string(as_view(future.get())), "back again");
  }
}

// --- degradation machinery ---------------------------------------------

// A raw TCP listener that accepts nothing: connects succeed through the
// kernel backlog, but no byte is ever read — the remote's egress backs up.
struct BlackholeListener {
  BlackholeListener() {
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    // Queued (never-accepted) connections inherit the listener's rcvbuf;
    // keep it tiny so the kernel cannot quietly absorb a sender's backlog —
    // the egress queue under test must stay visibly congested.
    const int tiny = 4096;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    EXPECT_EQ(::listen(fd, 16), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port = ntohs(addr.sin_port);
  }
  ~BlackholeListener() { ::close(fd); }
  int fd{-1};
  std::uint16_t port{0};
};

// Regression: a dead peer used to trigger one dial per SEND — a hot loop of
// socket()/connect() syscalls at client-op rate. The per-peer backoff must
// collapse hundreds of sends into a handful of dial attempts.
TEST(TcpTransportTest, DialBackoffStopsHotRedialLoop) {
  // A port that was just live and then closed: every connect is refused.
  std::uint16_t dead_port = 0;
  {
    BlackholeListener tmp;
    dead_port = tmp.port;
  }
  TcpTransport a;
  ASSERT_TRUE(a.add_route(NodeId{2}, "127.0.0.1", dead_port).is_ok());
  a.run_sync([&] {
    a.attach(NodeId{1}, net::NetStackParams::direct_io_native(),
             [](net::Packet&&) {});
  });

  for (int i = 0; i < 40; ++i) {
    a.run_sync([&] {
      net::Packet packet;
      packet.src = NodeId{1};
      packet.dst = NodeId{2};
      packet.payload = to_bytes("x");
      a.send(std::move(packet));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // 40 sends over ~400ms: without backoff that is 40 dials; with
  // exponential backoff from 10ms it is at most ~7.
  EXPECT_GE(a.dials_attempted(), 1u);
  EXPECT_LE(a.dials_attempted(), 12u);
  EXPECT_GE(a.dials_failed(), 1u);
  EXPECT_GT(a.packets_dropped(), 0u);
}

// Egress toward a non-reading peer must stay BOUNDED: the hard cap sheds
// packets instead of queueing without limit, the overload signal trips, and
// sub-normal priorities are shed first at the high watermark.
TEST(TcpTransportTest, EgressOverloadShedsBoundedAndSignals) {
  BlackholeListener blackhole;
  TcpTransportOptions options;
  options.so_sndbuf = 4096;
  options.max_egress_bytes = 64 * 1024;
  TcpTransport a{options};
  ASSERT_TRUE(a.add_route(NodeId{2}, "127.0.0.1", blackhole.port).is_ok());
  a.run_sync([&] {
    a.attach(NodeId{1}, net::NetStackParams::direct_io_native(),
             [](net::Packet&&) {});
  });

  const Bytes chunk(8 * 1024, 0xAB);
  a.run_sync([&] {
    for (int i = 0; i < 64; ++i) {  // 512 KB >> the 64 KB cap
      net::Packet packet;
      packet.src = NodeId{1};
      packet.dst = NodeId{2};
      packet.payload = chunk;
      a.send(std::move(packet));
    }
  });
  EXPECT_GT(a.packets_shed(), 0u);
  EXPECT_LE(a.egress_backlog(), options.max_egress_bytes);
  // Cross-thread overload probe reads the global gauge; the backlog sits
  // far above the watermark (cap/2).
  EXPECT_TRUE(a.overloaded(NodeId{2}));

  // At the watermark, an advisory packet is shed even though a normal one
  // would still fit under the hard cap.
  const std::uint64_t shed_before = a.packets_shed();
  a.run_sync([&] {
    net::Packet probe;
    probe.src = NodeId{1};
    probe.dst = NodeId{2};
    probe.payload = to_bytes("probe");
    probe.priority = net::PacketPriority::kOptional;
    a.send(std::move(probe));
  });
  EXPECT_EQ(a.packets_shed(), shed_before + 1);
}

// The client-visible face of the same condition: an op issued toward an
// overloaded link fails FAST with kOverloaded instead of joining the queue.
TEST(TcpTransportTest, ClientFailsFastWithOverloadedOnCongestedLink) {
  BlackholeListener blackhole;
  TcpTransportOptions options;
  options.so_sndbuf = 4096;
  options.max_egress_bytes = 64 * 1024;
  TcpTransport a{options};
  ASSERT_TRUE(a.add_route(NodeId{2}, "127.0.0.1", blackhole.port).is_ok());

  std::unique_ptr<KvClient> client;
  a.run_sync([&] {
    ClientOptions copts;
    copts.id = ClientId{77};
    copts.secured = false;
    client = std::make_unique<KvClient>(a.clock(), a, copts);
  });

  // Saturate the link past the watermark.
  const Bytes chunk(8 * 1024, 0xCD);
  a.run_sync([&] {
    for (int i = 0; i < 64; ++i) {
      net::Packet packet;
      packet.src = NodeId{77};
      packet.dst = NodeId{2};
      packet.payload = chunk;
      a.send(std::move(packet));
    }
  });

  auto done = std::make_shared<std::promise<ClientReply>>();
  auto future = done->get_future();
  a.run_sync([&] {
    client->put(NodeId{2}, "k", to_bytes("v"),
                [done](const ClientReply& r) { done->set_value(r); });
  });
  ASSERT_EQ(future.wait_for(std::chrono::seconds(5)),
            std::future_status::ready)
      << "overload fast-fail must not wait out the full retry schedule";
  const ClientReply reply = future.get();
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.error, ErrorCode::kOverloaded);

  a.run_sync([&] { client.reset(); });
}

// fd-table exhaustion: the listener must shed the pending connection via
// its reserve fd (accept-and-close) instead of spinning on EMFILE, and keep
// serving once descriptors free up.
TEST(TcpTransportTest, EmfileAcceptShedsInsteadOfSpinning) {
  Peer a{NodeId{1}};
  Peer b{NodeId{2}};
  ASSERT_TRUE(a.transport.add_route(b.id, "127.0.0.1", b.listen_port)
                  .is_ok());
  a.start();
  b.start();

  // Raw client socket created while descriptors are still available;
  // connect() itself allocates nothing new.
  const int raw = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(raw, 0);

  std::size_t open_fds = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++open_fds;
  }

  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  struct RestoreLimit {
    rlimit saved;
    ~RestoreLimit() { ::setrlimit(RLIMIT_NOFILE, &saved); }
  } restore{saved};
  rlimit tight = saved;
  // Leave a little headroom above the current table, then FILL it: every
  // slot below the limit is occupied, so the next allocation (b's accept)
  // hits EMFILE regardless of fd-numbering gaps.
  tight.rlim_cur = open_fds + 4;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  std::vector<int> fillers;
  for (int fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC); fd >= 0;
       fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC)) {
    fillers.push_back(fd);
    ASSERT_LT(fillers.size(), 64u) << "fd table never filled";
  }
  ASSERT_EQ(errno, EMFILE);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(b.listen_port);
  ASSERT_EQ(
      ::connect(raw, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << "backlog connect must succeed without a new local fd";

  // The shed is asynchronous on b's loop; poll for the counter.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (b.transport.accepts_shed() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(b.transport.accepts_shed(), 1u);

  // Restore descriptors and prove the listener still accepts real peers.
  for (int fd : fillers) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  ::close(raw);
  auto done = std::make_shared<std::promise<void>>();
  auto future = done->get_future();
  a.transport.run_sync([&] {
    a.rpc->send(b.id, kEcho, to_bytes("still alive"),
                [done](NodeId, Bytes) { done->set_value(); });
  });
  EXPECT_EQ(future.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "a: sent=" << a.transport.packets_sent()
      << " dropped=" << a.transport.packets_dropped()
      << " dials=" << a.transport.dials_attempted()
      << " dial_fail=" << a.transport.dials_failed()
      << " | b: delivered=" << b.transport.packets_delivered()
      << " shed=" << b.transport.accepts_shed()
      << " sent=" << b.transport.packets_sent()
      << " dropped=" << b.transport.packets_dropped();
}

// Byte-paced trickle egress: frames leave in trickle_bytes slices spaced by
// trickle_interval, so a frame's wire time is observable — and the receiver
// still reassembles it intact.
TEST(TcpTransportTest, TricklePacedEgressReassemblesIntact) {
  TcpTransportOptions slow;
  slow.trickle_bytes = 256;
  slow.trickle_interval = sim::kMillisecond;
  Peer a{NodeId{1}, slow};
  Peer b{NodeId{2}};  // replies return at full speed
  ASSERT_TRUE(a.transport.add_route(b.id, "127.0.0.1", b.listen_port)
                  .is_ok());
  a.start();
  b.start();

  Bytes payload(4 * 1024, 0);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 13 + 5);
  }
  const auto started = std::chrono::steady_clock::now();
  auto done = std::make_shared<std::promise<Bytes>>();
  auto future = done->get_future();
  a.transport.run_sync([&] {
    a.rpc->send(b.id, kEcho, payload, [done](NodeId, Bytes echoed) {
      done->set_value(std::move(echoed));
    });
  });
  ASSERT_EQ(future.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_EQ(future.get(), payload);
  // ~4KB at 256 bytes per 1ms slice: at least ~16ms of pacing (allow wide
  // scheduling slack downward but reject an unpaced instant send).
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_GE(elapsed, std::chrono::milliseconds(8));
}

// Injected connection resets (the chaos reset storm's hook): the victim
// link is RST-killed, the counter ticks, and traffic recovers by redialing.
TEST(TcpTransportTest, ResetPeerConnectionsRstsAndRecovers) {
  Peer a{NodeId{1}};
  Peer b{NodeId{2}};
  ASSERT_TRUE(a.transport.add_route(b.id, "127.0.0.1", b.listen_port)
                  .is_ok());
  a.start();
  b.start();

  // Warm the connection.
  {
    auto done = std::make_shared<std::promise<void>>();
    auto future = done->get_future();
    a.transport.run_sync([&] {
      a.rpc->send(b.id, kEcho, to_bytes("warm"),
                  [done](NodeId, Bytes) { done->set_value(); });
    });
    ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
  }

  a.transport.reset_peer_connections(b.id);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (a.transport.resets_injected() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(a.transport.resets_injected(), 1u);

  auto done = std::make_shared<std::promise<Bytes>>();
  auto future = done->get_future();
  a.transport.run_sync([&] {
    a.rpc->send(b.id, kEcho, to_bytes("after reset"),
                [done](NodeId, Bytes payload) {
                  done->set_value(std::move(payload));
                },
                /*timeout=*/5 * sim::kSecond, [done] { done->set_value({}); });
  });
  ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_EQ(to_string(as_view(future.get())), "after reset");
}

// Corked egress: every send a loop pass makes to one peer leaves in ONE
// gathered sendmsg at the end of the pass (one kSocketWrite span per
// flush_conn that moved bytes), not one syscall per send.
TEST(TcpTransportTest, SendsFromOneLoopTaskLeaveInOneSendmsg) {
  static constexpr int kSends = 10;
  Peer a{NodeId{1}};
  Peer b{NodeId{2}};
  ASSERT_TRUE(a.transport.add_route(b.id, "127.0.0.1", b.listen_port)
                  .is_ok());
  a.start();
  b.start();
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  recorder.set_enabled(true);

  // Warm the connection first: queued sends behind a dial in progress
  // leave together whatever the corking does.
  {
    auto done = std::make_shared<std::promise<void>>();
    auto future = done->get_future();
    a.transport.run_sync([&] {
      a.rpc->send(b.id, kEcho, to_bytes("warm"),
                  [done](NodeId, Bytes) { done->set_value(); });
    });
    ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
  }

  const std::uint64_t mark = obs::FlightRecorder::now_ns();
  auto replies = std::make_shared<std::atomic<int>>(0);
  auto done = std::make_shared<std::promise<void>>();
  auto future = done->get_future();
  a.transport.run_sync([&] {
    for (int i = 0; i < kSends; ++i) {
      a.rpc->send(b.id, kEcho, to_bytes("burst-" + std::to_string(i)),
                  [replies, done](NodeId, Bytes) {
                    if (++*replies == kSends) done->set_value();
                  });
    }
  });
  ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);

  std::size_t writes_to_b = 0;
  a.transport.run_sync([&] {
    for (const auto& event : recorder.snapshot()) {
      if (event.kind == obs::SpanKind::kSocketWrite && event.t0_ns >= mark &&
          event.actor == b.id.value) {
        ++writes_to_b;
      }
    }
  });
  EXPECT_EQ(writes_to_b, 1u) << kSends << " sends from one loop task";
}

// Two bare transports, no RPC layer: endpoint 1 on `sender` sends raw
// packets to endpoint 2 on `receiver`, which keeps every payload it gets.
struct RawLink {
  RawLink() {
    auto port = receiver.listen(to, 0);
    EXPECT_TRUE(port.is_ok());
    receiver.attach(to, net::NetStackParams::direct_io_native(),
                    [this](net::Packet packet) {
                      std::lock_guard<std::mutex> lock(mu);
                      received.push_back(std::move(packet.payload));
                    });
    sender.attach(from, net::NetStackParams::direct_io_native(),
                  [](net::Packet) {});
    EXPECT_TRUE(sender.add_route(to, "127.0.0.1", port.value()).is_ok());
  }

  // A gathered packet (payload + one segment) is what a batch flush sends.
  net::Packet packet(Bytes payload, bool gathered = false) const {
    net::Packet p;
    p.src = from;
    p.dst = to;
    p.payload = std::move(payload);
    if (gathered) p.segments.push_back(to_bytes("segment"));
    return p;
  }

  // Waits up to 10 s for `n` deliveries; returns how many arrived.
  std::size_t wait_for(std::size_t n) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (received.size() >= n ||
            std::chrono::steady_clock::now() >= deadline) {
          return received.size();
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  const NodeId from{1};
  const NodeId to{2};
  // Declared before the transports: the receiver's loop writes them until
  // its destructor joins it.
  std::mutex mu;
  std::vector<Bytes> received;
  TcpTransport sender;
  TcpTransport receiver;
};

// Corking holds single frames until the end of the pass; a gathered packet
// (a flushed batch) leaves at once, taking the corked frames ahead of it.
TEST(TcpTransportTest, GatheredBatchLeavesAtOnceWithWhatIsCorkedBeforeIt) {
  RawLink link;
  link.sender.send(link.packet(to_bytes("warm")));  // dial the connection
  ASSERT_EQ(link.wait_for(1), 1u);

  std::size_t corked = 0;
  std::size_t after_batch = 0;
  link.sender.run_sync([&] {
    link.sender.send(link.packet(to_bytes("single")));
    corked = link.sender.egress_backlog();
    link.sender.send_gather(link.packet(to_bytes("batch"), /*gathered=*/true));
    after_batch = link.sender.egress_backlog();
  });
  EXPECT_GT(corked, 0u) << "a single frame waits for the end of the pass";
  EXPECT_EQ(after_batch, 0u) << "the batch and the frame ahead of it left";
  EXPECT_EQ(link.wait_for(3), 3u);
}

// Frames that end exactly where a 64 KiB read does: a read that fills the
// chunk must be followed by another (only a SHORT read proves the socket
// drained), and every frame must arrive intact.
TEST(TcpTransportTest, ReadsThatExactlyFillTheReadChunkDeliverEveryFrame) {
  constexpr std::size_t kReadChunk = 64 * 1024;  // TcpTransport's read size
  constexpr std::size_t kFrames = 4;
  RawLink link;

  // Hold the receiver's loop so the stream piles up in the socket and the
  // reads that follow return whole chunks.
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  link.receiver.post([gate] { gate.wait(); });
  std::vector<Bytes> sent;
  for (std::size_t i = 0; i < kFrames; ++i) {
    Bytes payload(kReadChunk - net::kFrameHeaderSize, 0);
    for (std::size_t j = 0; j < payload.size(); ++j) {
      payload[j] = static_cast<std::uint8_t>(j * 7 + i);
    }
    sent.push_back(payload);
    link.sender.send(link.packet(std::move(payload)));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release.set_value();

  ASSERT_EQ(link.wait_for(kFrames), kFrames);
  std::lock_guard<std::mutex> lock(link.mu);
  EXPECT_EQ(link.received, sent);
}

// A send outside any loop pass (here: after stop(), when posted work runs
// on the caller) has no end-of-pass sweep behind it and must leave at once.
TEST(TcpTransportTest, SendAfterStopStillLeaves) {
  RawLink link;
  link.sender.send(link.packet(to_bytes("ping")));  // through the live loop
  ASSERT_EQ(link.wait_for(1), 1u);

  link.sender.stop();
  // Runs inline on this thread over the established connection.
  link.sender.send(link.packet(to_bytes("ping")));
  EXPECT_EQ(link.wait_for(2), 2u);
}

}  // namespace
}  // namespace recipe::transport
