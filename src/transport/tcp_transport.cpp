#include "transport/tcp_transport.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <unistd.h>

#include "common/endian.h"
#include "obs/flight_recorder.h"

#include <fcntl.h>

#include <cassert>
#include <cerrno>
#include <condition_variable>
#include <cstring>

namespace recipe::transport {

namespace {

constexpr int kMaxEvents = 64;
constexpr std::size_t kReadChunk = 64 * 1024;
// Egress coalescing: pieces smaller than kMoveThreshold are copied into the
// queue's tail buffer (one iovec amortizes many tiny frames); larger ones —
// batch bodies, big payloads — are moved in as their own queue element and
// become their own iovec. The tail buffer stops accepting appends at
// kCoalesceChunk so a slow drain cannot grow one buffer without bound.
constexpr std::size_t kMoveThreshold = 1024;
constexpr std::size_t kCoalesceChunk = 16 * 1024;
// iovecs per sendmsg; deeper queues simply take another loop iteration.
constexpr int kMaxIov = 64;
// Cap on one poll's sleep so a (theoretical) missed wakeup degrades to a
// bounded stall instead of a hang.
constexpr std::int64_t kMaxPollMs = 60'000;

int set_nonblocking_socket() {
  return ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
}

}  // namespace

TcpTransport::TcpTransport(TcpTransportOptions options)
    : options_(std::move(options)) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  assert(epoll_fd_ >= 0 && wake_fd_ >= 0);
  reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  epoll_register(wake_fd_, EPOLLIN, /*gen=*/0);
  timers_.set_wakeup([this] { wake(); });
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& m = *options_.metrics;
    const std::string& l = options_.metrics_labels;
    auto counter = [&](const char* name, const std::atomic<std::uint64_t>& v) {
      metric_handles_.push_back(m.on_counter(
          name, l, [&v] { return v.load(std::memory_order_relaxed); }));
    };
    counter("recipe_transport_packets_sent_total", packets_sent_);
    counter("recipe_transport_packets_delivered_total", packets_delivered_);
    counter("recipe_transport_packets_dropped_total", packets_dropped_);
    counter("recipe_transport_bytes_sent_total", bytes_sent_);
    counter("recipe_transport_packets_shed_total", packets_shed_);
    counter("recipe_transport_dials_attempted_total", dials_attempted_);
    counter("recipe_transport_dials_failed_total", dials_failed_);
    counter("recipe_transport_accepts_shed_total", accepts_shed_);
    counter("recipe_transport_resets_injected_total", resets_injected_);
    metric_handles_.push_back(
        m.on_gauge("recipe_transport_egress_backlog_bytes", l, [this] {
          return static_cast<std::int64_t>(
              egress_backlog_.load(std::memory_order_relaxed));
        }));
  }
  thread_ = std::thread([this] { loop(); });
}

TcpTransport::~TcpTransport() {
  stop();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, ep] : endpoints_) close_endpoint_sockets(*ep);
    listeners_.clear();
  }
  for (auto& [fd, conn] : conns_) ::close(fd);
  conns_.clear();
  conn_by_peer_.clear();
  if (reserve_fd_ >= 0) ::close(reserve_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

namespace {
// (generation, fd) packed into the 64-bit epoll payload; fds are ints.
std::uint64_t pack_epoll(std::uint64_t gen, int fd) {
  return (gen << 32) | static_cast<std::uint32_t>(fd);
}
}  // namespace

void TcpTransport::epoll_register(int fd, std::uint32_t events,
                                  std::uint64_t gen) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = pack_epoll(gen, fd);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
}

void TcpTransport::epoll_update(int fd, std::uint32_t events,
                                std::uint64_t gen) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = pack_epoll(gen, fd);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

int TcpTransport::wait_events(::epoll_event* events, int max_events,
                              std::int64_t timeout_ns) {
  // Nanosecond-resolution timeouts when available: a sub-millisecond timer
  // must not become a 1ms sleep. The wake-up can still land late by the
  // thread's timer slack (50us by default on a non-RT thread), so no
  // latency-critical path should sleep on a timer. epoll_pwait2 appeared in
  // Linux 5.11; fall back to millisecond epoll_wait (rounded up) on ENOSYS.
  if (pwait2_state_ >= 0 && timeout_ns >= 0) {
#ifdef SYS_epoll_pwait2
    timespec ts{};
    ts.tv_sec = timeout_ns / 1'000'000'000;
    ts.tv_nsec = timeout_ns % 1'000'000'000;
    const int n = static_cast<int>(::syscall(SYS_epoll_pwait2, epoll_fd_,
                                             events, max_events, &ts, nullptr,
                                             std::size_t{0}));
    if (n >= 0 || errno != ENOSYS) {
      pwait2_state_ = 1;
      return n;
    }
#endif
    pwait2_state_ = -1;
  }
  int timeout_ms = -1;
  if (timeout_ns >= 0) {
    timeout_ms = static_cast<int>(
        std::min<std::int64_t>((timeout_ns + 999'999) / 1'000'000, kMaxPollMs));
  }
  return ::epoll_wait(epoll_fd_, events, max_events, timeout_ms);
}

void TcpTransport::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

bool TcpTransport::on_loop_thread() const {
  return std::this_thread::get_id() == thread_.get_id();
}

void TcpTransport::post(std::function<void()> fn) {
  if (on_loop_thread() || stopped_.load()) {
    fn();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    // Re-check under the inbox lock: stop() flips the flag under it after
    // joining, so either we enqueue before the flip (stop()'s final drain
    // runs us) or we see the flip and run inline on a dead loop. Never
    // inline while the loop thread still breathes.
    if (stopped_.load()) {
      // (lock released by scope exit before running)
    } else {
      inbox_.push_back(std::move(fn));
      fn = nullptr;
    }
  }
  if (fn) {
    fn();
    return;
  }
  wake();
}

void TcpTransport::run_sync(const std::function<void()>& fn) {
  if (on_loop_thread() || stopped_.load()) {
    fn();
    return;
  }
  // Completion state is shared: the loop thread's notify may run after this
  // frame would have unwound, so it must not point into our stack.
  struct Done {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
  };
  auto state = std::make_shared<Done>();
  post([&fn, state] {
    fn();
    {
      std::lock_guard<std::mutex> lock(state->m);
      state->done = true;
    }
    state->cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(state->m);
  state->cv.wait(lock, [&] { return state->done; });
}

void TcpTransport::stop() {
  if (!stop_requested_.exchange(true)) wake();
  if (thread_.joinable()) thread_.join();
  {
    // Flipped under the inbox lock: see post() for the handshake.
    std::lock_guard<std::mutex> lock(inbox_mu_);
    stopped_.store(true);
  }
  // Honor any tasks (and run_sync waiters) that raced the shutdown.
  drain_inbox();
}

void TcpTransport::drain_inbox() {
  for (;;) {
    std::function<void()> task;
    {
      std::lock_guard<std::mutex> lock(inbox_mu_);
      if (inbox_.empty()) return;
      task = std::move(inbox_.front());
      inbox_.pop_front();
    }
    task();
  }
}

// --- cross-shard data plane --------------------------------------------------

void TcpTransport::push_xshard(XShardOp&& op) {
  xshard_.push(std::move(op));
  // Wake AFTER the push: between a producer's exchange and its release store
  // the queue is transiently unpoppable, so the consumer relies on this
  // eventfd write arriving after the element is (or is about to be) linked —
  // the loop's maybe_nonempty() zero-timeout poll covers the gap.
  wake();
}

void TcpTransport::post_send(net::Packet&& packet) {
  push_xshard(XShardOp{XShardOp::Kind::kSend, std::move(packet)});
}

void TcpTransport::post_forwarded_send(net::Packet&& packet) {
  push_xshard(XShardOp{XShardOp::Kind::kForwardedSend, std::move(packet)});
}

void TcpTransport::post_delivery(net::Packet&& packet) {
  push_xshard(XShardOp{XShardOp::Kind::kDeliver, std::move(packet)});
}

void TcpTransport::drain_xshard() {
  XShardOp op;
  while (xshard_.try_pop(op)) {
    switch (op.kind) {
      case XShardOp::Kind::kSend:
        do_send(std::move(op.packet));
        break;
      case XShardOp::Kind::kForwardedSend:
        do_send(std::move(op.packet), /*forwarded=*/true);
        break;
      case XShardOp::Kind::kDeliver:
        deliver(std::move(op.packet));
        break;
    }
  }
}

void TcpTransport::loop() {
  timers_.bind_driver();
  epoll_event events[kMaxEvents];
  while (!stop_requested_.load()) {
    std::int64_t timeout_ns = -1;
    if (const auto deadline = timers_.next_deadline()) {
      const sim::Time current = timers_.now();
      timeout_ns = *deadline <= current
                       ? 0
                       : static_cast<std::int64_t>(*deadline - current);
      timeout_ns = std::min<std::int64_t>(timeout_ns,
                                          kMaxPollMs * 1'000'000);
    }
    {
      std::lock_guard<std::mutex> lock(inbox_mu_);
      if (!inbox_.empty()) timeout_ns = 0;
    }
    // A producer mid-push leaves the queue transiently blocked (try_pop says
    // empty, maybe_nonempty says true): poll with a zero timeout instead of
    // sleeping until its eventfd write lands.
    if (xshard_.maybe_nonempty()) timeout_ns = 0;

    const int n = wait_events(events, kMaxEvents, timeout_ns);  // <0: EINTR
    in_pass_ = true;
    drain_inbox();
    drain_xshard();
    timers_.run_due();
    for (int i = 0; i < n; ++i) handle_event(events[i]);
    // End of the wake-up: batches this pass produced leave first, then every
    // connection they (or anything else) dirtied is written once.
    timers_.run_deferred();
    flush_dirty();
    in_pass_ = false;
  }
}

void TcpTransport::handle_event(const epoll_event& event) {
  const int fd = static_cast<int>(event.data.u64 & 0xFFFFFFFFu);
  const std::uint64_t gen = event.data.u64 >> 32;
  const std::uint32_t mask = event.events;
  if (fd == wake_fd_) {
    // A non-semaphore eventfd hands back (and resets) its whole count.
    std::uint64_t drained = 0;
    [[maybe_unused]] const ssize_t r =
        ::read(wake_fd_, &drained, sizeof(drained));
    return;
  }
  // Anything in this batch — an earlier event, a posted task, a timer — may
  // have closed this fd, and a fresh socket may already have reused the
  // number: the registration generation disambiguates, stale events are
  // discarded.
  bool is_listener = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto lit = listeners_.find(fd);
    is_listener = lit != listeners_.end() && lit->second.gen == gen;
  }
  if (is_listener) {
    accept_ready(fd);
    return;
  }
  {
    const auto cit = conns_.find(fd);
    if (cit == conns_.end() || cit->second.gen != gen) return;
  }
  if ((mask & (EPOLLERR | EPOLLHUP)) != 0 &&
      !conns_.find(fd)->second.connecting) {
    close_conn(fd);
    return;
  }
  if ((mask & (EPOLLOUT | EPOLLERR | EPOLLHUP)) != 0) {
    handle_writable(conns_.find(fd)->second);
  }
  const auto cit = conns_.find(fd);
  if (cit != conns_.end() && cit->second.gen == gen && (mask & EPOLLIN) != 0) {
    handle_readable(cit->second);
  }
}

void TcpTransport::flush_dirty() {
  // By index and re-resolved: a failed flush closes its connection.
  for (std::size_t i = 0; i < dirty_.size(); ++i) {
    const auto [fd, gen] = dirty_[i];
    const auto it = conns_.find(fd);
    if (it == conns_.end() || it->second.gen != gen) continue;
    it->second.dirty = false;
    if (!it->second.write_armed) flush_conn(it->second);
  }
  dirty_.clear();
}

// --- wiring ------------------------------------------------------------------

Result<int> TcpTransport::bind_listener(std::uint16_t port) {
  const int fd = set_nonblocking_socket();
  if (fd < 0) return Status::error(ErrorCode::kInternal, "socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (options_.reuseport) {
    // Sibling shards bind the same port; the kernel spreads accepted
    // connections across the listening sockets by 4-tuple hash.
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, options_.bind_host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::error(ErrorCode::kInvalidArgument,
                         "bind host must be an IPv4 address");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 128) != 0) {
    ::close(fd);
    return Status::error(ErrorCode::kInternal,
                         "bind/listen failed: " +
                             std::string(std::strerror(errno)));
  }
  return fd;
}

Result<std::uint16_t> TcpTransport::listen(NodeId id, std::uint16_t port) {
  auto fd = bind_listener(port);
  if (!fd) return fd.status();

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(fd.value(), reinterpret_cast<sockaddr*>(&bound), &len);
  const std::uint16_t actual = ntohs(bound.sin_port);

  std::uint64_t gen = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& ep = endpoints_[id];
    if (!ep) ep = std::make_unique<Endpoint>();
    if (ep->listen_fd >= 0) {
      ::close(ep->listen_fd);
      listeners_.erase(ep->listen_fd);
    }
    ep->listen_fd = fd.value();
    ep->port = actual;
    ep->want_listener = true;
    gen = next_gen_++;
    listeners_[fd.value()] = Listener{id, gen};
  }
  epoll_register(fd.value(), EPOLLIN, gen);
  return actual;
}

std::uint16_t TcpTransport::listen_port(NodeId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = endpoints_.find(id);
  return it == endpoints_.end() ? 0 : it->second->port;
}

Status TcpTransport::add_route(NodeId id, const std::string& host,
                               std::uint16_t port) {
  in_addr addr{};
  if (::inet_pton(AF_INET, host.c_str(), &addr) != 1) {
    // Resolve names like "localhost" HERE, off the event loop.
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    if (::getaddrinfo(host.c_str(), nullptr, &hints, &res) != 0 ||
        res == nullptr) {
      return Status::error(ErrorCode::kInvalidArgument,
                           "cannot resolve route host: " + host);
    }
    addr = reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
    ::freeaddrinfo(res);
  }
  std::lock_guard<std::mutex> lock(mu_);
  routes_[id] = Route{addr.s_addr, port};
  return Status::ok();
}

// --- Transport interface -----------------------------------------------------

void TcpTransport::attach(NodeId id, net::NetStackParams /*stack*/,
                          DeliveryHandler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& ep = endpoints_[id];
  if (!ep) ep = std::make_unique<Endpoint>();
  ep->handler = std::make_shared<DeliveryHandler>(std::move(handler));
}

void TcpTransport::detach(NodeId id) {
  run_sync([this, id] {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = endpoints_.find(id);
    if (it == endpoints_.end()) return;
    close_endpoint_sockets(*it->second);
    endpoints_.erase(it);
  });
}

bool TcpTransport::attached(NodeId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = endpoints_.find(id);
  return it != endpoints_.end() && it->second->handler != nullptr;
}

net::NodeCpu& TcpTransport::cpu(NodeId id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = endpoints_.find(id);
  assert(it != endpoints_.end());
  return it->second->cpu;
}

// Closes the listener (remembering the port for recover()). Loop-unsafe fd
// work is fine here: callers hold mu_ or run on the loop.
void TcpTransport::close_endpoint_sockets(Endpoint& ep) {
  if (ep.listen_fd >= 0) {
    listeners_.erase(ep.listen_fd);
    ::close(ep.listen_fd);
    ep.listen_fd = -1;
  }
}

void TcpTransport::crash(NodeId id) {
  run_sync([this, id] {
    bool others_alive = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = endpoints_.find(id);
      if (it == endpoints_.end()) return;
      it->second->crashed = true;
      close_endpoint_sockets(*it->second);
      // Under sharding a listener-only entry (handler lives on the home
      // shard) still represents a live co-hosted endpoint whose accepted
      // connections may land here — count it as alive so its traffic
      // survives a sibling's crash.
      const bool sharded =
          static_cast<bool>(options_.shard_hooks.deliver_elsewhere);
      for (const auto& [other, ep] : endpoints_) {
        if (other != id && !ep->crashed &&
            (ep->handler != nullptr || (sharded && ep->want_listener))) {
          others_alive = true;
        }
      }
    }
    // A machine failure takes the NIC with it: every established connection
    // dies, emptying both directions' in-flight bytes — the TCP analog of
    // SimNetwork's crash-epoch rule that pre-crash frames are never
    // delivered to a recovered node. When OTHER live endpoints co-host this
    // transport the shared connections stay up for them (delivery to the
    // crashed endpoint is already dropped); that weakens the no-pre-crash-
    // frames guarantee to per-transport granularity, so crash/rejoin
    // deployments give each replica its own transport (as TcpCluster and
    // real_cluster do).
    if (!others_alive) {
      std::vector<int> fds;
      fds.reserve(conns_.size());
      for (const auto& [fd, conn] : conns_) fds.push_back(fd);
      for (int fd : fds) close_conn(fd);
    }
  });
}

void TcpTransport::recover(NodeId id) {
  run_sync([this, id] {
    std::uint16_t port = 0;
    bool rebind = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = endpoints_.find(id);
      if (it == endpoints_.end()) return;
      it->second->crashed = false;
      rebind = it->second->want_listener && it->second->listen_fd < 0;
      port = it->second->port;
    }
    if (rebind) {
      // Best effort, like every other path back from a crash: a stolen port
      // leaves the node unreachable and the retry machinery in charge.
      auto rebound = listen(id, port);
      (void)rebound;
    }
  });
}

bool TcpTransport::is_crashed(NodeId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = endpoints_.find(id);
  return it != endpoints_.end() && it->second->crashed;
}

void TcpTransport::send(net::Packet packet) {
  if (on_loop_thread()) {
    do_send(std::move(packet));
    return;
  }
  post([this, p = std::move(packet)]() mutable { do_send(std::move(p)); });
}

// --- loop-side implementation ------------------------------------------------

void TcpTransport::do_send(net::Packet&& packet, bool forwarded) {
  const std::size_t payload_size = packet.payload_size();
  // A forwarded packet was already counted (and its source checked) on the
  // shard that originated it; this shard only owns the wire.
  if (!forwarded) {
    ++packets_sent_;
    bytes_sent_ += payload_size + net::kFrameHeaderSize;

    bool local_dst = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto src = endpoints_.find(packet.src);
      if (src == endpoints_.end() || src->second->crashed) {
        drop_packet();
        return;
      }
      local_dst = endpoints_.contains(packet.dst);
    }
    if (payload_size > options_.max_frame_payload) {
      drop_packet();
      return;
    }

    if (local_dst) {
      // Two endpoints sharing this transport (e.g. client + CAS in one
      // process): loop back without a socket, but asynchronously — handlers
      // never run inside the sender's call frame, matching the simulator.
      // post() would run INLINE here (do_send is on the loop thread), so the
      // deferral must go through the inbox explicitly.
      // No wake(): the loop checks the inbox before it next waits.
      packet.flatten();  // receivers only ever see contiguous payloads
      std::lock_guard<std::mutex> lock(inbox_mu_);
      inbox_.push_back(
          [this, p = std::move(packet)]() mutable { deliver(std::move(p)); });
      return;
    }
  } else if (payload_size > options_.max_frame_payload) {
    drop_packet();
    return;
  }

  Conn* conn = conn_for(packet.dst);
  if (conn == nullptr) {
    // No connection and nothing to dial here. Under sharding another shard
    // may own the accepted connection that carries this peer's traffic (or
    // home the destination endpoint): hand the packet over, once — a
    // forwarded send that still finds no connection drops on the shard that
    // owns the miss.
    if (!forwarded && options_.shard_hooks.egress_elsewhere &&
        options_.shard_hooks.egress_elsewhere(std::move(packet))) {
      return;
    }
    drop_packet();
    return;
  }

  // Overload shedding: the hard cap bounds memory whatever the priority; at
  // the high watermark only protocol-critical (kNormal) traffic still
  // queues — pacing probes and retransmits are the first to go.
  const std::size_t frame_bytes = payload_size + net::kFrameHeaderSize;
  if (conn->out_bytes + frame_bytes > options_.max_egress_bytes ||
      (packet.priority != net::PacketPriority::kNormal &&
       conn->out_bytes >= high_watermark())) {
    ++packets_shed_;
    drop_packet();
    return;
  }

  // Lay the frame into the egress queue: the header (and small payloads)
  // coalesce into the tail buffer; large payloads and scatter segments are
  // moved in and leave as their own sendmsg iovecs — never re-copied.
  std::uint8_t head[net::kFrameHeaderSize];
  store_le32(head, static_cast<std::uint32_t>(payload_size));
  store_le32(head + 4, packet.type);
  store_le64(head + 8, packet.src.value);
  store_le64(head + 16, packet.dst.value);
  out_append(*conn, BytesView(head, net::kFrameHeaderSize));
  if (packet.payload.size() >= kMoveThreshold) {
    out_move(*conn, std::move(packet.payload));
  } else {
    out_append(*conn, as_view(packet.payload));
  }
  const bool gathered = !packet.segments.empty();
  for (Bytes& seg : packet.segments) {
    if (seg.size() >= kMoveThreshold) {
      out_move(*conn, std::move(seg));
    } else {
      out_append(*conn, as_view(seg));
    }
  }
  // EPOLLOUT armed (a dial in progress, or a full socket buffer): the
  // writable event flushes. Otherwise cork: inside a loop pass the queue
  // leaves in the end-of-pass sweep as ONE gathered sendmsg with everything
  // else sent to this peer meanwhile, unless it already fills a coalescing
  // chunk or a sendmsg's iovecs. Outside a pass (stop()'s final drain)
  // nothing would sweep, so it leaves now. A gathered packet is a flushed
  // batch (recipe/batcher.h): its batcher already coalesced this peer's
  // traffic up to the end of the wake-up or a full batch, and a full batch
  // held for the rest of a long pass only idles the receiver — measured,
  // corking them halved bench_transport's batched throughput at pipeline
  // depth 64 on 4 cores. It leaves now, with whatever is corked before it.
  if (conn->write_armed) return;
  if (in_pass_ && !gathered && conn->out_bytes < kCoalesceChunk &&
      conn->outq.size() < static_cast<std::size_t>(kMaxIov)) {
    if (!conn->dirty) {
      conn->dirty = true;
      dirty_.emplace_back(conn->fd, conn->gen);
    }
    return;
  }
  flush_conn(*conn);
}

void TcpTransport::out_append(Conn& conn, BytesView data) {
  if (data.empty()) return;
  conn.out_bytes += data.size();
  egress_backlog_.fetch_add(data.size(), std::memory_order_relaxed);
  if (conn.outq.empty() || conn.outq.back().size() >= kCoalesceChunk) {
    conn.outq.emplace_back();
  }
  append(conn.outq.back(), data);
}

void TcpTransport::out_move(Conn& conn, Bytes&& data) {
  if (data.empty()) return;
  conn.out_bytes += data.size();
  egress_backlog_.fetch_add(data.size(), std::memory_order_relaxed);
  conn.outq.push_back(std::move(data));
}

// Applied to every connection, dialed or accepted, so both directions of a
// link behave identically.
void TcpTransport::apply_socket_options(int fd) const {
  if (options_.nodelay) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  if (options_.so_sndbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.so_sndbuf,
                 sizeof(options_.so_sndbuf));
  }
}

TcpTransport::Conn* TcpTransport::conn_for(NodeId peer) {
  const auto indexed = conn_by_peer_.find(peer.value);
  if (indexed != conn_by_peer_.end()) {
    const auto cit = conns_.find(indexed->second);
    if (cit != conns_.end()) return &cit->second;
    conn_by_peer_.erase(indexed);  // conn died; dial fresh below
  }

  // Dial backoff: after a failed connect this peer is off-limits until its
  // backoff expires — sends in the window drop (normal loss semantics)
  // instead of burning a connect() per packet against a dead address.
  const auto dial_it = dial_state_.find(peer.value);
  if (dial_it != dial_state_.end() &&
      timers_.now() < dial_it->second.next_attempt) {
    return nullptr;
  }

  Route route;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = routes_.find(peer);
    if (it == routes_.end()) return nullptr;
    route = it->second;
  }

  const int fd = set_nonblocking_socket();
  if (fd < 0) return nullptr;
  apply_socket_options(fd);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(route.port);
  addr.sin_addr.s_addr = route.addr_be;  // resolved in add_route()

  ++dials_attempted_;
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    record_dial_failure(peer.value);
    return nullptr;
  }

  auto [it, inserted] = conns_.emplace(fd, Conn{});
  Conn& conn = it->second;
  conn.fd = fd;
  conn.gen = next_gen_++;
  conn.connecting = rc != 0;
  conn.write_armed = true;
  conn.dial_peer = peer.value;
  conn.decoder = net::FrameDecoder(options_.max_frame_payload);
  conn_by_peer_[peer.value] = fd;
  if (options_.shard_hooks.peer_route) {
    options_.shard_hooks.peer_route(peer.value, /*up=*/true);
  }

  epoll_register(fd, EPOLLIN | EPOLLOUT, conn.gen);
  return &conn;
}

void TcpTransport::record_dial_failure(std::uint64_t peer) {
  ++dials_failed_;
  DialState& ds = dial_state_[peer];
  ds.backoff = ds.backoff == 0
                   ? options_.dial_backoff_min
                   : std::min(ds.backoff * 2, options_.dial_backoff_max);
  ds.next_attempt = timers_.now() + ds.backoff;
}

// Consumes `written` bytes from the front of the queue; a short write may
// stop mid-buffer (resumed via out_off next flush).
void TcpTransport::advance_outq(Conn& conn, std::size_t written) {
  conn.out_bytes -= written;
  egress_backlog_.fetch_sub(written, std::memory_order_relaxed);
  while (written > 0) {
    Bytes& front = conn.outq.front();
    const std::size_t avail = front.size() - conn.out_off;
    if (written < avail) {
      conn.out_off += written;
      break;
    }
    written -= avail;
    conn.out_off = 0;
    conn.outq.pop_front();
  }
}

void TcpTransport::flush_conn(Conn& conn) {
  // rpc_id is opaque at the socket layer; the span keys on the dialed peer
  // instead and carries bytes-written as detail. Recorded only when bytes
  // actually left (EAGAIN-only flushes are noise, not a write).
  struct WriteSpan {
    std::uint64_t peer;
    const std::size_t& written;
    bool rec = obs::FlightRecorder::global().enabled();
    std::uint64_t t0 = rec ? obs::FlightRecorder::now_ns() : 0;
    ~WriteSpan() {
      if (rec && written > 0) {
        obs::FlightRecorder::global().record(
            obs::SpanKind::kSocketWrite, /*rpc_id=*/0, peer, t0,
            obs::FlightRecorder::now_ns(), written);
      }
    }
  };
  std::size_t written_total = 0;
  WriteSpan span{conn.dial_peer, written_total};
  while (conn.out_bytes > 0) {
    // One gathered sendmsg per syscall: up to kMaxIov queued buffers leave
    // together. The front buffer may be partially consumed from an earlier
    // short write (tiny SO_SNDBUF, a slow receiver) — its iovec starts at
    // the resumption offset.
    iovec iov[kMaxIov];
    int iovcnt = 0;
    std::size_t skip = conn.out_off;
    for (Bytes& buf : conn.outq) {
      if (iovcnt == kMaxIov) break;
      iov[iovcnt].iov_base = buf.data() + skip;
      iov[iovcnt].iov_len = buf.size() - skip;
      skip = 0;
      ++iovcnt;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
    const ssize_t n = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      written_total += static_cast<std::size_t>(n);
      advance_outq(conn, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn.write_armed) {
        conn.write_armed = true;
        epoll_update(conn.fd, EPOLLIN | EPOLLOUT, conn.gen);
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    close_conn(conn.fd);
    return;
  }
  conn.outq.clear();
  conn.out_off = 0;
  if (conn.write_armed) {
    conn.write_armed = false;
    epoll_update(conn.fd, EPOLLIN, conn.gen);
  }
}

void TcpTransport::handle_writable(Conn& conn) {
  if (conn.connecting) {
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      // Connection refused / unreachable: everything queued dies, like a
      // dropped packet burst. The peer's dial backoff decides when the next
      // send may dial again.
      if (conn.dial_peer != kNoDialPeer) record_dial_failure(conn.dial_peer);
      drop_packet();
      close_conn(conn.fd);
      return;
    }
    conn.connecting = false;
    // A live peer: forget the backoff so the next failure starts small.
    if (conn.dial_peer != kNoDialPeer) dial_state_.erase(conn.dial_peer);
  }
  flush_conn(conn);
}

void TcpTransport::handle_readable(Conn& conn) {
  const int fd = conn.fd;
  const std::uint64_t gen = conn.gen;
  std::uint8_t buffer[kReadChunk];
  // Delivery may re-enter the transport (handlers send, which can insert
  // new conns, rehash the map, even close THIS conn and let a fresh dial
  // reuse its fd number) — re-resolve by (fd, gen) after every callback
  // instead of holding a reference across one.
  const auto resolve = [this, fd, gen]() -> Conn* {
    const auto it = conns_.find(fd);
    return it != conns_.end() && it->second.gen == gen ? &it->second : nullptr;
  };
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n == 0) {
      close_conn(fd);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_conn(fd);
      return;
    }
    if (Conn* c = resolve()) {
      c->decoder.feed(BytesView(buffer, static_cast<std::size_t>(n)));
    } else {
      return;
    }
    for (;;) {
      Conn* c = resolve();
      if (c == nullptr) return;
      if (c->decoder.corrupted()) {
        // Oversized length prefix: the stream cannot be resynchronized.
        close_conn(fd);
        return;
      }
      auto packet = c->decoder.next();
      if (!packet) break;
      // EVERY frame teaches a reply route: the remote transport may co-host
      // many endpoints (several clients, a client plus the CAS) behind this
      // one connection, and replies to each must find their way back.
      const bool learned =
          conn_by_peer_.try_emplace(packet->src.value, fd).second;
      if (learned && options_.shard_hooks.peer_route) {
        options_.shard_hooks.peer_route(packet->src.value, /*up=*/true);
      }
      deliver(std::move(*packet));
    }
    if (resolve() == nullptr) return;
    // A short read drained the socket: epoll is level-triggered, so it
    // reports the fd again when more arrives — skip the read that would
    // only return EAGAIN.
    if (static_cast<std::size_t>(n) < sizeof(buffer)) return;
  }
}

void TcpTransport::accept_ready(int listen_fd) {
  for (;;) {
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if ((errno == EMFILE || errno == ENFILE) && reserve_fd_ >= 0) {
        // fd table exhausted: release the reserve fd, accept-and-close to
        // shed ONE pending connection, re-arm the reserve, and return to
        // the loop. Linux allocates the fd before checking the backlog, so
        // EMFILE does NOT imply a connection is pending — looping here
        // would spin hot on an empty queue while the table stays full. The
        // level-triggered listener re-fires if real connections remain.
        ::close(reserve_fd_);
        reserve_fd_ = -1;
        const int shed = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
        if (shed >= 0) {
          ::close(shed);
          ++accepts_shed_;
        }
        reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
        return;
      }
      return;  // EAGAIN or a racing close
    }
    apply_socket_options(fd);
    auto [it, inserted] = conns_.emplace(fd, Conn{});
    it->second.fd = fd;
    it->second.gen = next_gen_++;
    it->second.decoder = net::FrameDecoder(options_.max_frame_payload);
    epoll_register(fd, EPOLLIN, it->second.gen);
  }
}

void TcpTransport::close_conn(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  egress_backlog_.fetch_sub(it->second.out_bytes, std::memory_order_relaxed);
  // A connection may carry reply routes for MANY peers; drop them all.
  for (auto indexed = conn_by_peer_.begin();
       indexed != conn_by_peer_.end();) {
    if (indexed->second == fd) {
      if (options_.shard_hooks.peer_route) {
        options_.shard_hooks.peer_route(indexed->first, /*up=*/false);
      }
      indexed = conn_by_peer_.erase(indexed);
    } else {
      ++indexed;
    }
  }
  ::close(fd);
  conns_.erase(it);
}

// Loop-thread only: hard-kill a connection. SO_LINGER {on, 0} turns the
// close into an RST — the far side sees ECONNRESET mid-stream, not a clean
// EOF — and everything queued on this side dies unsent.
void TcpTransport::abort_conn(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  struct linger lg {};
  lg.l_onoff = 1;
  lg.l_linger = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  ++resets_injected_;
  close_conn(fd);
}

void TcpTransport::reset_peer_connections(NodeId peer) {
  post([this, peer] {
    const auto indexed = conn_by_peer_.find(peer.value);
    if (indexed == conn_by_peer_.end()) return;
    abort_conn(indexed->second);
  });
}

void TcpTransport::reset_all_connections() {
  post([this] {
    std::vector<int> fds;
    fds.reserve(conns_.size());
    for (const auto& [fd, conn] : conns_) fds.push_back(fd);
    for (int fd : fds) abort_conn(fd);
  });
}

bool TcpTransport::overloaded(NodeId dst) const {
  const std::size_t hw = high_watermark();
  if (on_loop_thread()) {
    const auto indexed = conn_by_peer_.find(dst.value);
    if (indexed == conn_by_peer_.end()) return false;
    const auto cit = conns_.find(indexed->second);
    return cit != conns_.end() && cit->second.out_bytes >= hw;
  }
  return egress_backlog_.load(std::memory_order_relaxed) >= hw;
}

void TcpTransport::deliver(net::Packet&& packet) {
  std::shared_ptr<DeliveryHandler> handler;
  bool crashed_here = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = endpoints_.find(packet.dst);
    if (it != endpoints_.end()) {
      crashed_here = it->second->crashed;
      if (!crashed_here) handler = it->second->handler;
    }
  }
  if (handler == nullptr) {
    // Unknown endpoint, or a listener-only entry with no handler: under
    // sharding that means "homed on a sibling shard" — the connection that
    // carried the frame lives here, the endpoint's loop is elsewhere. A
    // crashed endpoint is dropped HERE: crash() fans out to every shard, so
    // local knowledge is authoritative.
    if (!crashed_here && options_.shard_hooks.deliver_elsewhere &&
        options_.shard_hooks.deliver_elsewhere(std::move(packet))) {
      return;
    }
    drop_packet();
    return;
  }
  ++packets_delivered_;
  (*handler)(std::move(packet));
}

}  // namespace recipe::transport
