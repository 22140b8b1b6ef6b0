// TcpTransport: the real-socket net::Transport — async epoll-driven TCP.
//
// One TcpTransport owns one event-loop thread, an epoll instance and a
// real-time TimerQueue. Every endpoint attached to it (replica, client, CAS)
// has ALL of its callbacks — packet delivery and Clock timers — run on that
// loop thread, so protocol code keeps the single-threaded discipline it has
// under the Simulator. A multi-threaded deployment is N transports: the
// in-process cluster (cluster/tcp_cluster.h) gives each replica its own
// transport thread; examples/real_cluster.cpp gives each replica its own
// process; ShardedTcpTransport (sharded_tcp_transport.h) composes N of these
// into ONE multi-core transport — SO_REUSEPORT listeners spread accepted
// connections across shard loops and the ShardHooks below stitch cross-shard
// traffic back together over lock-free MPSC queues.
//
// Wiring model:
//  * listen(id, port)  — endpoints that must be reachable bind a listening
//    socket (port 0 picks an ephemeral port, returned for route exchange);
//  * add_route(id, host, port) — where to dial for a remote node. Clients
//    need no listener: replies travel back on the connection that carried
//    the request.
//  * Connections are per remote TRANSPORT peer, established lazily by the
//    first send and shared by every local endpoint; each stream frame
//    carries (src, dst) so the far loop routes it to the right endpoint
//    (net/frame.h). An accepted connection learns reply routes from EVERY
//    frame it delivers (the remote transport may co-host many endpoints —
//    several clients, a client plus the CAS — all sharing one connection).
//
// Failure semantics mirror the Transport contract: anything unreachable —
// no route, refused connection, reset mid-stream, crashed endpoint — is a
// silent drop; recovery is the protocol stack's retry/timeout machinery,
// exactly as under the simulated network's loss model. crash(id) closes the
// endpoint's listener and every established connection (a dead machine's
// sockets die with it); recover(id) re-binds the same port.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "net/frame.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "transport/mpsc_queue.h"
#include "transport/timer_queue.h"

struct epoll_event;  // <sys/epoll.h>, included only by the .cpp

namespace recipe::transport {

// Wiring a single-loop TcpTransport into a ShardedTcpTransport (see
// sharded_tcp_transport.h). Each hook is invoked on THIS shard's loop thread;
// implementations hand the packet to a sibling shard's lock-free inbox and
// return true, or return false to fall back to this shard's normal behavior
// (usually a drop). Not part of the public deployment surface: leave these
// empty unless you are composing shards.
struct ShardHooks {
  // A frame arrived on a connection owned by this shard, but the destination
  // endpoint is not homed here. True = forwarded to the home shard.
  std::function<bool(net::Packet&&)> deliver_elsewhere;
  // This shard has neither an established connection nor a dialable route to
  // packet.dst. True = handed to the shard that owns a connection (or homes
  // the co-hosted destination endpoint).
  std::function<bool(net::Packet&&)> egress_elsewhere;
  // A reply route to `peer` was learned (up=true: a connection on this shard
  // now carries traffic for it) or dropped (up=false: that connection
  // closed). Maintains the transport-level peer->shard directory.
  std::function<void(std::uint64_t peer, bool up)> peer_route;
};

struct TcpTransportOptions {
  // Address listeners bind to. Loopback by default: the in-process cluster,
  // tests and benches never leave the machine; real_cluster.cpp passes
  // 0.0.0.0 for multi-machine runs.
  std::string bind_host = "127.0.0.1";
  // Frame decoder bound: a length prefix above this poisons the connection.
  std::size_t max_frame_payload = net::kMaxFramePayload;
  // TCP_NODELAY on every connection (dialed and accepted). The egress
  // pipeline does its own batching (recipe/batcher.h) and corks single
  // frames in user space until the end of the loop pass, so Nagle only adds
  // latency on top. It is disabled by default and there is deliberately no
  // TCP_CORK usage: the frames are complete when the syscall runs, there is
  // nothing to hold back. Turning this off re-enables Nagle (kernel-side
  // coalescing) for experiments comparing it against application-level
  // batching.
  bool nodelay = true;
  // When > 0, shrink/grow SO_SNDBUF on every connection. Production leaves
  // this 0 (kernel autotuning); tests set it tiny to force partial writes
  // and exercise the writev short-write resumption path.
  int so_sndbuf = 0;

  // --- degradation knobs ---------------------------------------------------

  // Hard per-connection egress bound: a send that would push a connection's
  // queued-but-unsent bytes past this is dropped (counted in
  // packets_shed()), whatever its priority. A receiver that stops reading
  // costs this much memory per connection, never more.
  std::size_t max_egress_bytes = 8 * 1024 * 1024;
  // High watermark: once a connection's egress queue reaches this, packets
  // with priority above kNormal (pacing probes, retransmits) are shed so
  // the remaining capacity carries protocol-critical traffic. 0 derives
  // max_egress_bytes / 2.
  std::size_t egress_high_watermark = 0;
  // Per-peer reconnect backoff after a failed dial: first failure waits
  // dial_backoff_min before the next attempt, doubling per consecutive
  // failure up to dial_backoff_max; any successful connect resets it.
  // Without this a refused connection is re-dialed on the very next send.
  sim::Time dial_backoff_min = 10 * sim::kMillisecond;
  sim::Time dial_backoff_max = 2 * sim::kSecond;
  // Chaos/test knob: when > 0, egress is paced byte-level — each connection
  // writes at most trickle_bytes per trickle_interval (plain send(), no
  // gathering), so frames arrive split at arbitrary byte boundaries and
  // receivers must reassemble across many reads.
  std::size_t trickle_bytes = 0;
  sim::Time trickle_interval = 1 * sim::kMillisecond;

  // --- sharding ------------------------------------------------------------

  // SO_REUSEPORT on listeners, so N sibling shards can bind the SAME port
  // and the kernel spreads accepted connections across them by 4-tuple hash.
  // Set by ShardedTcpTransport when shards > 1; pointless (but harmless) on
  // a standalone transport.
  bool reuseport = false;
  // Cross-shard forwarding hooks; empty on a standalone transport.
  ShardHooks shard_hooks{};

  // --- observability -------------------------------------------------------

  // When set, the transport registers read-callbacks for its packet/byte/
  // shedding counters under recipe_transport_* series (the existing atomics
  // are the single source of truth; no double counting). Must outlive the
  // transport. ShardedTcpTransport sets metrics_labels to shard="k" per
  // shard so sibling loops scrape as distinct series.
  obs::MetricsRegistry* metrics = nullptr;
  std::string metrics_labels{};
};

class TcpTransport final : public net::Transport {
 public:
  explicit TcpTransport(TcpTransportOptions options = {});
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  // --- deployment wiring ---------------------------------------------------

  // Binds a listening socket for `id` (before or after attach). Port 0
  // picks an ephemeral port; the bound port is returned either way.
  Result<std::uint16_t> listen(NodeId id, std::uint16_t port = 0);
  // The port `id` listens on (0 when it has no listener).
  std::uint16_t listen_port(NodeId id) const;

  // Registers where to dial for a remote node id. The name is resolved
  // HERE, on the calling thread — never on the event loop, where a slow
  // resolver would stall every endpoint and timer on this transport.
  Status add_route(NodeId id, const std::string& host, std::uint16_t port);

  // --- loop marshalling ----------------------------------------------------

  // Enqueues `fn` onto the event-loop thread (runs inline if called there,
  // or if the loop has been stopped).
  void post(std::function<void()> fn);
  // post() + wait for completion. THE way external threads touch endpoint
  // objects: node/client construction, client ops, crash orchestration all
  // run their bodies on the loop so endpoint state stays loop-affine.
  void run_sync(const std::function<void()>& fn);
  bool on_loop_thread() const;

  // Joins the loop thread; idempotent. Implied by the destructor. Endpoints
  // must be torn down (via run_sync) first.
  void stop();

  // --- net::Transport ------------------------------------------------------
  sim::Clock& clock() override { return timers_; }
  TimerQueue& timers() { return timers_; }

  void attach(NodeId id, net::NetStackParams stack,
              DeliveryHandler handler) override;
  void detach(NodeId id) override;
  bool attached(NodeId id) const override;
  void send(net::Packet packet) override;
  // do_send() understands scatter packets natively (each segment becomes a
  // sendmsg iovec): gather sends take the exact same path.
  void send_gather(net::Packet packet) override { send(std::move(packet)); }
  net::NodeCpu& cpu(NodeId id) override;
  void crash(NodeId id) override;
  void recover(NodeId id) override;
  bool is_crashed(NodeId id) const override;
  // True when egress toward `dst` is at/above the high watermark. Precise
  // (per-connection) on the loop thread; other threads see the transport-
  // wide backlog gauge, good enough for admission control.
  bool overloaded(NodeId dst) const override;

  // --- cross-shard data plane ----------------------------------------------
  // Lock-free handoff onto this loop: any thread pushes, the loop drains.
  // This is how sibling shards (and ShardedTcpTransport::send from foreign
  // threads) inject work without touching the mutex-guarded post() inbox —
  // the data plane never serializes on a lock. Each call wakes the loop via
  // eventfd after the push lands (see mpsc_queue.h for why "after").

  // Run the full egress path for `packet` on this loop, as if its source
  // endpoint had called send() here.
  void post_send(net::Packet&& packet);
  // Egress a packet ALREADY routed here by a sibling shard's
  // egress_elsewhere hook: skips the src-attached check and the
  // sent-packet/byte counters (the originating shard counted them) and
  // never re-forwards — cross-shard forwarding is one hop, ever.
  void post_forwarded_send(net::Packet&& packet);
  // Deliver a packet to an endpoint homed on this shard (the frame arrived
  // on a sibling shard's connection).
  void post_delivery(net::Packet&& packet);

  // --- chaos hooks ---------------------------------------------------------

  // Abruptly kills the established connection carrying traffic to `peer`
  // (SO_LINGER 0, so the far side sees a hard RST, not an orderly FIN).
  // Queued egress dies with it — exactly what a mid-stream network reset
  // does. ChaosTransport's reset schedule drives this.
  void reset_peer_connections(NodeId peer);
  // Same, for every established connection at once (a NIC bounce).
  void reset_all_connections();

  std::uint64_t packets_sent() const override { return packets_sent_; }
  std::uint64_t packets_delivered() const override {
    return packets_delivered_;
  }
  std::uint64_t packets_dropped() const override { return packets_dropped_; }
  std::uint64_t bytes_sent() const override { return bytes_sent_; }

  // --- degradation stats ---------------------------------------------------
  // Packets dropped by egress overload shedding (subset of packets_dropped).
  std::uint64_t packets_shed() const { return packets_shed_; }
  // connect() attempts actually issued / failed (dials suppressed by
  // backoff never reach the kernel and count in neither).
  std::uint64_t dials_attempted() const { return dials_attempted_; }
  std::uint64_t dials_failed() const { return dials_failed_; }
  // Pending connections accepted-and-closed under fd exhaustion (EMFILE).
  std::uint64_t accepts_shed() const { return accepts_shed_; }
  // Connections killed via the reset hooks.
  std::uint64_t resets_injected() const { return resets_injected_; }
  // Unsent egress bytes queued across all connections, right now.
  std::size_t egress_backlog() const {
    return egress_backlog_.load(std::memory_order_relaxed);
  }

 private:
  struct Endpoint {
    // Shared so delivery can invoke it outside the registry lock.
    std::shared_ptr<DeliveryHandler> handler;
    net::NodeCpu cpu;  // loop-thread accumulator; nothing reads it back
    int listen_fd{-1};
    std::uint16_t port{0};       // bound (or remembered-for-recover) port
    bool want_listener{false};   // had one before crash(); re-bind on recover
    bool crashed{false};
  };
  struct Route {
    std::uint32_t addr_be{0};  // resolved IPv4, network byte order
    std::uint16_t port{0};
  };
  struct Listener {
    NodeId id{};
    std::uint64_t gen{0};
  };
  struct Conn {
    int fd{-1};
    // Epoll registration generation: closed fds are recycled by the kernel,
    // so every registration carries (gen, fd) in the event payload and
    // stale events for a previous incarnation of the fd are discarded.
    std::uint64_t gen{0};
    bool connecting{false};
    // Whether EPOLLOUT is currently armed: epoll_ctl(MOD) only runs on
    // interest TRANSITIONS, not once per flushed message.
    bool write_armed{false};
    // Peer this connection was DIALED toward (accepted conns keep the
    // sentinel): connect failures feed that peer's dial backoff.
    std::uint64_t dial_peer{kNoDialPeer};
    // A trickle-pacing timer is in flight for this conn (trickle mode).
    bool trickle_armed{false};
    // Queued egress waits for the end-of-pass sweep (listed in dirty_).
    bool dirty{false};
    net::FrameDecoder decoder;
    // Egress queue: a sequence of byte buffers flushed with ONE gathered
    // sendmsg per syscall. Small pieces (frame headers, tiny payloads)
    // coalesce into the tail buffer; large payloads and batch-body segments
    // are MOVED in as their own elements — the scatter path from
    // shield_batch_parts() to the kernel never copies the body.
    std::deque<Bytes> outq;
    std::size_t out_off{0};    // consumed prefix of outq.front()
    std::size_t out_bytes{0};  // total unsent bytes across outq
  };

  // One pass per wake-up: posted tasks, cross-shard ops, due timers and
  // socket events, then the end-of-pass sweep — deferred callbacks (batch
  // flushes), then one write per dirty connection.
  void loop();
  void handle_event(const ::epoll_event& event);
  void flush_dirty();
  // epoll_pwait2 (nanosecond timeout) when the kernel has it, else
  // millisecond epoll_wait; keeps microsecond-scale timers from rounding up
  // to a whole millisecond of idle sleep.
  int wait_events(::epoll_event* events, int max_events,
                  std::int64_t timeout_ns);
  void wake();
  void drain_inbox();
  void epoll_register(int fd, std::uint32_t events, std::uint64_t gen);
  void epoll_update(int fd, std::uint32_t events, std::uint64_t gen);

  // Cross-shard op kinds, see post_send()/post_forwarded_send()/
  // post_delivery().
  struct XShardOp {
    enum class Kind : std::uint8_t { kSend, kForwardedSend, kDeliver };
    Kind kind{Kind::kSend};
    net::Packet packet{};
  };
  void push_xshard(XShardOp&& op);
  void drain_xshard();

  // All loop-thread only:
  void do_send(net::Packet&& packet, bool forwarded = false);
  Conn* conn_for(NodeId peer);
  void apply_socket_options(int fd) const;
  void out_append(Conn& conn, BytesView data);
  void out_move(Conn& conn, Bytes&& data);
  void flush_conn(Conn& conn);
  void trickle_flush(Conn& conn);
  void advance_outq(Conn& conn, std::size_t written);
  void handle_readable(Conn& conn);
  void handle_writable(Conn& conn);
  void accept_ready(int listen_fd);
  void close_conn(int fd);
  void abort_conn(int fd);
  void close_endpoint_sockets(Endpoint& ep);
  void deliver(net::Packet&& packet);
  void record_dial_failure(std::uint64_t peer);

  Result<int> bind_listener(std::uint16_t port);
  void drop_packet() { ++packets_dropped_; }
  std::size_t high_watermark() const {
    return options_.egress_high_watermark != 0 ? options_.egress_high_watermark
                                               : options_.max_egress_bytes / 2;
  }

  static constexpr std::uint64_t kNoDialPeer = ~std::uint64_t{0};

  TcpTransportOptions options_;
  TimerQueue timers_;

  int epoll_fd_{-1};
  int wake_fd_{-1};
  // Reserved fd released to accept-and-close under EMFILE, so a full fd
  // table cannot leave a pending connection busy-spinning the listener.
  int reserve_fd_{-1};
  std::thread thread_;
  std::atomic<bool> stop_requested_{false};
  // True only after the loop thread has been JOINED (flipped under
  // inbox_mu_): the gate for running posted tasks inline on the caller.
  std::atomic<bool> stopped_{false};

  // Registry: endpoints + routes; guarded by mu_ (queried cross-thread).
  mutable std::mutex mu_;
  std::unordered_map<NodeId, std::unique_ptr<Endpoint>> endpoints_;
  std::unordered_map<NodeId, Route> routes_;
  std::unordered_map<int, Listener> listeners_;  // listen fd -> endpoint

  // Task inbox for post(); guarded by inbox_mu_.
  std::mutex inbox_mu_;
  std::deque<std::function<void()>> inbox_;

  // Cross-shard data plane: lock-free, drained by the loop alongside the
  // inbox. Only the sharded composition pushes here.
  MpscQueue<XShardOp> xshard_;

  // Connections: loop-thread only. conn_by_peer_ learns a mapping from
  // EVERY frame a connection delivers (a remote transport co-hosting many
  // endpoints sends them all down one connection), and entries are pruned
  // when their connection closes.
  std::unordered_map<int, Conn> conns_;
  std::unordered_map<std::uint64_t, int> conn_by_peer_;
  // Corked connections as (fd, gen), written by flush_dirty(); in_pass_ is
  // true while a loop pass runs, the only time a sweep follows.
  std::vector<std::pair<int, std::uint64_t>> dirty_;
  bool in_pass_{false};
  // Per-peer dial backoff (loop-thread only): when the next attempt may
  // run and how long the current backoff is.
  struct DialState {
    sim::Time next_attempt{0};
    sim::Time backoff{0};
  };
  std::unordered_map<std::uint64_t, DialState> dial_state_;
  std::uint64_t next_gen_{1};
  int pwait2_state_{0};  // 0 untried, 1 available, -1 ENOSYS

  std::atomic<std::uint64_t> packets_sent_{0};
  std::atomic<std::uint64_t> packets_delivered_{0};
  std::atomic<std::uint64_t> packets_dropped_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> packets_shed_{0};
  std::atomic<std::uint64_t> dials_attempted_{0};
  std::atomic<std::uint64_t> dials_failed_{0};
  std::atomic<std::uint64_t> accepts_shed_{0};
  std::atomic<std::uint64_t> resets_injected_{0};
  // Sum of every connection's out_bytes; written on the loop thread, read
  // by overloaded()/egress_backlog() from anywhere.
  std::atomic<std::size_t> egress_backlog_{0};

  // Declared last: unregisters from options_.metrics before any state the
  // callbacks read is torn down.
  std::vector<obs::CallbackHandle> metric_handles_;
};

}  // namespace recipe::transport
