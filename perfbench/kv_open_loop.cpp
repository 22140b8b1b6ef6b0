// Fixed-rate open-loop benchmark of the shielded real-socket KV path.
//
// One run stands up an in-process 3-replica shielded CR cluster
// (cluster::TcpCluster over loopback, batching on, metrics on, the flight
// recorder as shipped), preloads the whole key space through KvClient puts,
// and then drives it from ONE KvClient on the client transport's loop with a
// seeded, precomputed Poisson schedule. Ops fire from timers on the client's
// home-loop sim::Clock (no busy-wait), each op is timed from its DUE time to
// its verified reply (no coordinated omission), and every reply is checked
// against the generator's model of the store.
//
// The whole process runs on ONE vCPU (see pin_to_one_cpu) and nothing
// saturates it: every offered rate keeps that core about half busy, because
// under host CPU steal a saturated chain builds a backlog that turns a
// run's median into milliseconds. Capacity is reported as CPU time per op
// (user + sys of every thread), which steal is not charged to.
//
//   perfbench --workload put_open|get_open|put_wal_open --seed N
//             --seconds S --trace 0|1 [--wal-root DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs an untraced window
// and then a traced one (flight-recorder drains in ring-sized epochs,
// counter scrapes, isolated timing of each layer's public calls) and prints
// the per-layer metrics plus the tracing overhead. The last stdout line is
// the result object {"correct", "attempted", "failed", "metrics"}; earlier
// lines record the configuration and the run's noise diagnostics. The exit
// code is non-zero when any op failed or returned a wrong value.
#include <sched.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "attest/bundle.h"
#include "cluster/tcp_cluster.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "host_probes.h"
#include "kvstore/kvstore.h"
#include "kvstore/wal.h"
#include "obs/flight_recorder.h"
#include "recipe/security.h"
#include "recipe/types.h"
#include "tee/enclave.h"
#include "tee/platform.h"

// The WAL medium. FileWalStorage fsyncs every append; on the checkout's
// disk each fsync is a device flush whose latency belongs to the host's
// shared disk, not to the sealed log (on a 4-vCPU VM with a virtio ext4
// disk, 97% of put_wal_open's ops failed at 4 000 puts/s). The benchmark
// gives the log tmpfs semantics instead: writes land in the page cache and
// fsync returns at once, exactly as on tmpfs, so put_wal_open measures the
// sealed WAL's own cost (sealing, group commit, compaction) while every
// file stays inside the checkout. This definition in the executable takes
// the place of libc's for the whole process.
extern "C" int fsync(int) { return 0; }

namespace perfbench {
namespace {

using recipe::Bytes;
using recipe::ClientReply;
using recipe::KvClient;
using recipe::NodeId;
using recipe::sim::Time;
using WallClock = std::chrono::steady_clock;

// --- fixed benchmark shape ---------------------------------------------------
constexpr std::size_t kKeys = 10'000;
constexpr std::size_t kValueBytes = 256;  // the paper's default value size
constexpr double kWarmupSeconds = 1.0;    // discarded before every timed window
constexpr int kSetups = 5;                // setup_s is the median of these
constexpr std::size_t kPreloadWindow = 8;  // outstanding preload puts
constexpr std::size_t kReadbackKeys = 1'000;
constexpr double kStallFactor = 10.0;  // a stall: slower than 10x the median
constexpr std::size_t kIsolatedOps = 2'000;  // inputs per isolated-call round
constexpr int kIsolatedRounds = 5;
// Traced epochs hold at most this many recorder events in total, so no
// per-thread ring (kRingSlots events) can wrap inside one.
constexpr std::size_t kEpochEventBudget = 2'000;
constexpr Time kEpochSettle = 2 * recipe::sim::kMillisecond;
constexpr Time kScheduleLead = 2 * recipe::sim::kMillisecond;
constexpr std::uint64_t kClientId = 2000;

struct Workload {
  const char* name;
  bool puts;          // puts to the chain head, else gets from the tail
  double rate;        // offered ops per second (Poisson)
  double zipf_theta;  // 0: uniform keys
  bool durable_wal;
};

// put_open exercises the whole write path (4 shielded hops, a batch queue on
// each, 3 applies); get_open bypasses chain, apply and WAL; put_wal_open is
// the only workload on kvstore/wal. Each rate keeps the one core about half
// busy; put_wal_open runs slowest because each replica's full-store
// compaction blocks the core for tens of milliseconds, and at 4 000/s the
// ops caught behind compactions made the median swing with host speed.
constexpr Workload kWorkloads[] = {
    {"put_open", true, 5'000.0, 0.0, false},
    {"get_open", false, 10'000.0, 0.99, false},
    {"put_wal_open", true, 2'000.0, 0.0, true},
};

recipe::cluster::TcpClusterOptions cluster_options(const Workload& w,
                                                   const std::string& wal_dir) {
  recipe::cluster::TcpClusterOptions o;
  o.protocol = "cr";
  o.replicas = 3;
  o.secured = true;
  o.batch.enabled = true;
  o.batch.max_count = 16;
  o.batch.max_delay = 50 * recipe::sim::kMicrosecond;
  o.batch.rtt_fraction = 0.5;
  o.metrics = true;
  o.durable_wal = w.durable_wal;
  o.wal_dir = wal_dir;
  return o;
}

// --- inputs --------------------------------------------------------------------

// Deterministic value for (seed, version): every write of a run is
// distinct, so a stale or misrouted reply cannot pass the check.
void fill_value(Bytes& out, std::uint64_t seed, std::uint64_t version) {
  out.resize(kValueBytes);
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL ^ version;
  for (std::size_t i = 0; i + 8 <= kValueBytes; i += 8) {
    const std::uint64_t word = recipe::splitmix64(state);
    std::memcpy(out.data() + i, &word, sizeof(word));
  }
}

struct Op {
  Time due;  // offset from the schedule's origin
  std::uint32_t key;
};

// Poisson arrivals at w.rate over `seconds`, keys uniform or zipfian; one
// independent stream per (seed, stream).
std::vector<Op> poisson_schedule(const Workload& w, std::uint64_t seed,
                                 std::uint64_t stream, double seconds) {
  recipe::Rng rng(seed ^ (stream * 0xD1B54A32D192ED03ULL));
  std::optional<recipe::ZipfianGenerator> zipf;
  if (w.zipf_theta > 0.0) zipf.emplace(kKeys, w.zipf_theta);
  std::vector<Op> ops;
  ops.reserve(static_cast<std::size_t>(w.rate * seconds * 1.1) + 16);
  const double horizon_ns = seconds * 1e9;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) * 1e9 / w.rate;
    if (t >= horizon_ns) break;
    const std::uint64_t key = zipf ? zipf->next(rng) : rng.below(kKeys);
    ops.push_back({static_cast<Time>(t), static_cast<std::uint32_t>(key)});
  }
  return ops;
}

// The generator's model of the store: the version of the last write issued
// to each key. Touched by the client loop while ops run and by the main
// thread only between runs (future handoffs order the two).
struct Model {
  std::uint64_t seed = 0;
  std::vector<std::string> keys;
  std::vector<std::uint64_t> version;
};

// --- deployment --------------------------------------------------------------

struct Deployment {
  std::unique_ptr<recipe::cluster::TcpCluster> cluster;
  KvClient* client = nullptr;
  recipe::transport::TcpTransport* home = nullptr;
  NodeId head{};
  NodeId tail{};
  std::vector<obs::MetricsRegistry*> registries;
};

// Runs `ops` through the client with `window` outstanding (each reply issues
// the next): the preload (puts) and the read-back check (gets).
class ClosedLoop : public std::enable_shared_from_this<ClosedLoop> {
 public:
  ClosedLoop(Deployment& d, Model& model, std::vector<std::uint32_t> keys,
             bool puts)
      : d_(d), model_(model), keys_(std::move(keys)), puts_(puts) {}

  // Returns the number of failed ops, or nullopt when replies went missing.
  std::optional<std::size_t> run(std::size_t window) {
    if (keys_.empty()) return 0;
    auto finished = done_.get_future();
    d_.home->run_sync([&] {
      for (std::size_t i = 0; i < window; ++i) issue();
    });
    if (finished.wait_for(std::chrono::seconds(60)) !=
        std::future_status::ready) {
      return std::nullopt;
    }
    return failed_;
  }

 private:
  void issue() {
    if (next_ >= keys_.size()) return;
    const std::uint32_t key = keys_[next_++];
    auto reply = [self = shared_from_this(), key](const ClientReply& r) {
      self->on_reply(key, r);
    };
    if (puts_) {
      model_.version[key] = key;
      Bytes value;
      fill_value(value, model_.seed, key);
      d_.client->put(d_.head, model_.keys[key], std::move(value),
                     std::move(reply));
    } else {
      d_.client->get(d_.tail, model_.keys[key], std::move(reply));
    }
  }

  void on_reply(std::uint32_t key, const ClientReply& r) {
    bool ok = r.ok && r.error == recipe::ErrorCode::kOk;
    if (ok && !puts_) {
      fill_value(expected_, model_.seed, model_.version[key]);
      ok = r.found && r.value == expected_;
    }
    if (!ok) ++failed_;
    if (++replies_ == keys_.size()) {
      done_.set_value();
    } else {
      issue();
    }
  }

  Deployment& d_;
  Model& model_;
  const std::vector<std::uint32_t> keys_;
  const bool puts_;
  std::size_t next_ = 0;
  std::size_t replies_ = 0;
  std::size_t failed_ = 0;
  Bytes expected_;
  std::promise<void> done_;
};

struct SetupTimes {
  double start_s = 0.0;    // TcpCluster stand-up + add_client + routing
  double preload_s = 0.0;  // every key written once through KvClient puts
};

std::optional<SetupTimes> stand_up(Deployment& d, const Workload& w,
                                   Model& model, const std::string& wal_dir) {
  SetupTimes t;
  const auto t0 = WallClock::now();
  d.cluster = std::make_unique<recipe::cluster::TcpCluster>(
      cluster_options(w, wal_dir));
  d.client = &d.cluster->add_client(kClientId);
  d.home = &d.cluster->client_home(0);
  d.head = d.cluster->write_coordinator();
  d.tail = d.cluster->read_replica();
  d.registries.clear();
  for (std::size_t i = 0; i < d.cluster->size(); ++i) {
    d.registries.push_back(&d.cluster->metrics(i));
  }
  d.registries.push_back(&d.cluster->client_metrics());
  const auto t1 = WallClock::now();
  std::vector<std::uint32_t> all(kKeys);
  for (std::uint32_t k = 0; k < kKeys; ++k) all[k] = k;
  auto preload = std::make_shared<ClosedLoop>(d, model, std::move(all), true);
  const auto failed = preload->run(kPreloadWindow);
  const auto t2 = WallClock::now();
  if (!failed || *failed != 0) return std::nullopt;
  t.start_s = std::chrono::duration<double>(t1 - t0).count();
  t.preload_s = std::chrono::duration<double>(t2 - t1).count();
  return t;
}

// --- the open-loop generator -------------------------------------------------

// Fires ops[begin, end) at their due times from timers on the client's home
// loop. All members are touched only on that loop while the run is live;
// the main thread reads the results after `finished` resolves.
class OpenLoop : public std::enable_shared_from_this<OpenLoop> {
 public:
  OpenLoop(Deployment& d, Model& model, const Workload& w,
           const std::vector<Op>& ops, std::size_t begin, std::size_t end,
           std::uint64_t version_base, bool time_calls)
      : d_(d),
        clock_(d.home->clock()),
        model_(model),
        puts_(w.puts),
        target_(w.puts ? d.head : d.tail),
        ops_(ops),
        begin_(begin),
        end_(end),
        version_base_(version_base),
        time_calls_(time_calls),
        lat_us_(end - begin, std::numeric_limits<double>::infinity()),
        lag_us_(end - begin, 0.0) {}

  // Anchors ops[begin] at now + kScheduleLead on the client clock; returns
  // the wall-clock time of that origin (for the main thread's CPU samples).
  WallClock::time_point start() {
    WallClock::time_point origin;
    d_.home->run_sync([&] {
      const Time now = clock_.now();
      t0_ = now + kScheduleLead - ops_[begin_].due;
      origin = WallClock::now() + std::chrono::nanoseconds(kScheduleLead);
      next_ = begin_;
      arm();
    });
    return origin;
  }

  bool wait(std::chrono::seconds bound) {
    return finished_.get_future().wait_for(bound) ==
           std::future_status::ready;
  }

  Time span() const { return ops_[end_ - 1].due - ops_[begin_].due; }
  const std::vector<double>& lat_us() const { return lat_us_; }
  const std::vector<double>& lag_us() const { return lag_us_; }
  std::size_t failed() const { return failed_; }
  double issue_ns_total() const { return issue_ns_total_; }

 private:
  void arm() {
    clock_.schedule_at(t0_ + ops_[next_].due,
                       [self = shared_from_this()] { self->fire(); });
  }

  void fire() {
    while (next_ < end_ && t0_ + ops_[next_].due <= clock_.now()) {
      issue(next_++);
    }
    if (next_ < end_) arm();
  }

  void issue(std::size_t i) {
    const Op& op = ops_[i];
    const Time due = t0_ + op.due;
    lag_us_[i - begin_] = static_cast<double>(clock_.now() - due) / 1e3;
    auto reply = [self = shared_from_this(), i, due](const ClientReply& r) {
      self->on_reply(i, due, r);
    };
    const std::uint64_t call_t0 = time_calls_ ? obs::FlightRecorder::now_ns() : 0;
    if (puts_) {
      const std::uint64_t version = version_base_ + i;
      model_.version[op.key] = version;
      Bytes value;
      fill_value(value, model_.seed, version);
      d_.client->put(target_, model_.keys[op.key], std::move(value),
                     std::move(reply));
    } else {
      d_.client->get(target_, model_.keys[op.key], std::move(reply));
    }
    if (time_calls_) {
      issue_ns_total_ +=
          static_cast<double>(obs::FlightRecorder::now_ns() - call_t0);
    }
  }

  void on_reply(std::size_t i, Time due, const ClientReply& r) {
    const Time now = clock_.now();
    bool ok = r.ok && r.error == recipe::ErrorCode::kOk;
    if (ok && !puts_) {
      const std::uint32_t key = ops_[i].key;
      fill_value(expected_, model_.seed, model_.version[key]);
      ok = r.found && r.value == expected_;
    }
    if (ok) {
      lat_us_[i - begin_] = static_cast<double>(now - due) / 1e3;
    } else {
      ++failed_;  // latency stays +inf: a failed op misses every limit
    }
    if (++replies_ == end_ - begin_) finished_.set_value();
  }

  Deployment& d_;
  recipe::sim::Clock& clock_;
  Model& model_;
  const bool puts_;
  const NodeId target_;
  const std::vector<Op>& ops_;
  const std::size_t begin_;
  const std::size_t end_;
  const std::uint64_t version_base_;
  const bool time_calls_;
  Time t0_ = 0;
  std::size_t next_ = 0;
  std::size_t replies_ = 0;
  std::size_t failed_ = 0;
  double issue_ns_total_ = 0.0;
  std::vector<double> lat_us_;
  std::vector<double> lag_us_;
  Bytes expected_;
  std::promise<void> finished_;
};

// One continuous open-loop window: warm-up ops, then timed ops.
struct WindowResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t timed_ok = 0;
  std::vector<double> lat_us;  // timed ops only
  std::vector<double> lag_us;
  double cpu_s = 0.0;
  double steal_pct = 0.0;
};

[[noreturn]] void die(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::fflush(stdout);
  std::fflush(stderr);
  // Replies may still be owed to live closures; skip teardown.
  std::_Exit(1);
}

WindowResult run_window(Deployment& d, Model& model, const Workload& w,
                        const std::vector<Op>& ops, std::size_t first_timed,
                        std::uint64_t version_base) {
  auto run = std::make_shared<OpenLoop>(d, model, w, ops, 0, ops.size(),
                                        version_base, false);
  const auto origin = run->start();
  std::this_thread::sleep_until(
      origin + std::chrono::nanoseconds(ops[first_timed].due - ops[0].due));
  const double cpu0 = process_cpu_seconds();
  const HostTicks ticks0 = host_ticks();
  const auto bound = std::chrono::seconds(
      30 + static_cast<long>(static_cast<double>(run->span()) / 1e9));
  if (!run->wait(bound)) die("open-loop replies went missing");
  WindowResult out;
  out.cpu_s = process_cpu_seconds() - cpu0;
  out.steal_pct = steal_pct(ticks0, host_ticks());
  out.attempted = ops.size();
  out.failed = run->failed();
  out.lat_us.assign(run->lat_us().begin() + static_cast<long>(first_timed),
                    run->lat_us().end());
  out.lag_us.assign(run->lag_us().begin() + static_cast<long>(first_timed),
                    run->lag_us().end());
  for (double lat : out.lat_us) out.timed_ok += std::isfinite(lat) ? 1 : 0;
  return out;
}

std::size_t first_at_or_after(const std::vector<Op>& ops, double seconds) {
  const auto at = static_cast<Time>(seconds * 1e9);
  std::size_t i = 0;
  while (i < ops.size() && ops[i].due < at) ++i;
  return i;
}

// Reads back a seeded sample of keys after a put workload and compares each
// with the last value written. Returns the number of mismatches.
std::size_t read_back(Deployment& d, Model& model) {
  recipe::Rng rng(model.seed ^ 0x5EEDBAC4ULL);
  std::vector<std::uint32_t> keys;
  for (std::size_t i = 0; i < kReadbackKeys; ++i) {
    keys.push_back(static_cast<std::uint32_t>(rng.below(kKeys)));
  }
  auto check = std::make_shared<ClosedLoop>(d, model, std::move(keys), false);
  const auto failed = check->run(kPreloadWindow);
  if (!failed) die("read-back replies went missing");
  return *failed;
}

// --- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

double per(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

struct LatencySummary {
  double p50 = 0, p90 = 0, p99 = 0, p999 = 0, lag_p99 = 0;
  std::size_t samples = 0, stalls = 0;
};

LatencySummary summarize(WindowResult& r) {
  LatencySummary s;
  s.samples = r.lat_us.size();
  s.p50 = quantile(r.lat_us, 0.50);
  s.p90 = quantile(r.lat_us, 0.90);
  s.p99 = quantile(r.lat_us, 0.99);
  s.p999 = quantile(r.lat_us, 0.999);
  s.lag_p99 = quantile(r.lag_us, 0.99);
  for (double lat : r.lat_us) s.stalls += lat > kStallFactor * s.p50 ? 1 : 0;
  return s;
}

// --- the traced run --------------------------------------------------------

struct SpanTotals {
  std::size_t count = 0;
  double total_ns = 0.0;
  std::vector<double> durations_us;  // kept for percentiles where needed

  double mean_us() const { return per(total_ns / 1e3, double(count)); }
};

struct TraceResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t ops = 0;  // ops of the epochs kept
  std::size_t epochs = 0;
  std::size_t wrapped_epochs = 0;
  double issue_ns_total = 0.0;
  double cpu_s = 0.0;
  std::map<obs::SpanKind, SpanTotals> spans;
};

// Traced window: the schedule is cut into epochs small enough that the
// flight recorder's per-thread rings cannot wrap; after each epoch the
// cluster settles and the recorder is drained (read-only) for the events
// that started inside it. An epoch whose events could have filled a ring is
// reported as wrapped and left out instead of being under-counted.
TraceResult run_traced(Deployment& d, Model& model, const Workload& w,
                       const std::vector<Op>& ops, std::uint64_t version_base) {
  TraceResult out;
  std::size_t epoch_ops = 64;
  const double cpu0 = process_cpu_seconds();
  for (std::size_t begin = 0; begin < ops.size();) {
    const std::size_t end = std::min(ops.size(), begin + epoch_ops);
    const std::uint64_t epoch_start_ns = obs::FlightRecorder::now_ns();
    auto run = std::make_shared<OpenLoop>(d, model, w, ops, begin, end,
                                          version_base, true);
    run->start();
    const auto bound = std::chrono::seconds(
        30 + static_cast<long>(static_cast<double>(run->span()) / 1e9));
    if (!run->wait(bound)) die("traced replies went missing");
    std::this_thread::sleep_for(std::chrono::nanoseconds(kEpochSettle));
    out.attempted += end - begin;
    out.failed += run->failed();
    const auto events = obs::FlightRecorder::global().snapshot();
    std::size_t in_epoch = 0;
    for (const auto& ev : events) in_epoch += ev.t0_ns >= epoch_start_ns;
    ++out.epochs;
    if (in_epoch >= obs::FlightRecorder::kRingSlots) {
      ++out.wrapped_epochs;
    } else {
      for (const auto& ev : events) {
        if (ev.t0_ns < epoch_start_ns) continue;
        SpanTotals& s = out.spans[ev.kind];
        const double ns = static_cast<double>(ev.t1_ns - ev.t0_ns);
        ++s.count;
        s.total_ns += ns;
        if (ev.kind == obs::SpanKind::kWalGroupCommit) {
          s.durations_us.push_back(ns / 1e3);
        }
      }
      out.ops += end - begin;
      out.issue_ns_total += run->issue_ns_total();
    }
    const double events_per_op =
        std::max(1.0, double(in_epoch) / double(end - begin));
    epoch_ops = std::clamp<std::size_t>(
        static_cast<std::size_t>(double(kEpochEventBudget) / events_per_op),
        16, 4096);
    begin = end;
  }
  out.cpu_s = process_cpu_seconds() - cpu0;
  return out;
}

// Counter series the traced run divides by, scraped over every registry.
constexpr const char* kCounters[] = {
    "recipe_client_ops_completed_total",
    "recipe_client_retries_total",
    "recipe_rpc_timeouts_total",
    "recipe_batch_messages_total",
    "recipe_batch_flushes_total",
    "recipe_transport_packets_sent_total",
    "recipe_transport_bytes_sent_total",
    "recipe_node_apply_us_count",
    "recipe_wal_entries_total",
    "recipe_wal_group_commits_total",
    "recipe_wal_compactions_total",
};

std::map<std::string, double> scrape(const Deployment& d) {
  std::map<std::string, double> out;
  for (const char* name : kCounters) out[name] = scrape_sum(d.registries, name);
  return out;
}

double mean_us_since(WallClock::time_point t0, std::size_t calls) {
  return std::chrono::duration<double, std::micro>(WallClock::now() - t0)
             .count() /
         double(calls);
}

// Median over rounds of the mean time per call of `body(i)` for i in [0, n).
template <typename Body>
double time_calls_us(std::size_t n, Body&& body) {
  std::vector<double> rounds;
  for (int r = 0; r < kIsolatedRounds; ++r) {
    const auto t0 = WallClock::now();
    for (std::size_t i = 0; i < n; ++i) body(i);
    rounds.push_back(mean_us_since(t0, n));
  }
  return median(rounds);
}

struct IsolatedCalls {
  double shield_us = 0, verify_us = 0;
  double kv_write_us = 0, kv_get_us = 0;
  double wal_append_us = 0, wal_commit_us = 0, wal_compact_us = 0;
};

// Each layer's public calls, timed alone on the workload's own inputs.
IsolatedCalls isolated_calls(const Workload& w, const Model& model,
                             const std::vector<Op>& ops,
                             const recipe::cluster::TcpClusterOptions& opts,
                             const std::string& wal_dir,
                             double entries_per_commit) {
  IsolatedCalls out;
  const std::size_t n = std::min(kIsolatedOps, ops.size());
  std::vector<Bytes> values(n);
  for (std::size_t i = 0; i < n; ++i) fill_value(values[i], model.seed, i);

  // Security: the client request frames of the workload, shielded by one
  // enclave and verified by another.
  recipe::tee::TeePlatform platform{1};
  recipe::tee::Enclave sender{platform, "recipe-replica", 1};
  recipe::tee::Enclave receiver{platform, "recipe-replica", 2};
  if (!sender.install_secret(recipe::attest::kClusterRootName, opts.root)
           .is_ok() ||
      !receiver.install_secret(recipe::attest::kClusterRootName, opts.root)
           .is_ok()) {
    die("enclave provisioning failed");
  }
  recipe::RecipeSecurity shield_side(sender, NodeId{1}, nullptr, nullptr);
  recipe::RecipeSecurity verify_side(receiver, NodeId{2}, nullptr, nullptr);
  std::vector<Bytes> payloads(n);
  for (std::size_t i = 0; i < n; ++i) {
    recipe::ClientRequest req;
    req.client = recipe::ClientId{kClientId};
    req.rid = recipe::RequestId{i + 1};
    req.op = w.puts ? recipe::OpType::kPut : recipe::OpType::kGet;
    req.key = model.keys[ops[i].key];
    if (w.puts) req.value = values[i];
    payloads[i] = req.serialize();
  }
  // Every round shields fresh frames, so verify never sees a replayed counter.
  std::vector<Bytes> wires(n);
  std::vector<double> shield_rounds, verify_rounds;
  for (int r = 0; r < kIsolatedRounds; ++r) {
    auto t0 = WallClock::now();
    for (std::size_t i = 0; i < n; ++i) {
      auto wire = shield_side.shield(NodeId{2}, recipe::ViewId{1},
                                     recipe::as_view(payloads[i]));
      if (!wire) die("isolated shield failed");
      wires[i] = std::move(wire.value());
    }
    shield_rounds.push_back(mean_us_since(t0, n));
    t0 = WallClock::now();
    for (std::size_t i = 0; i < n; ++i) {
      if (!verify_side.verify(NodeId{1}, recipe::as_view(wires[i]))) {
        die("isolated verify failed");
      }
    }
    verify_rounds.push_back(mean_us_since(t0, n));
  }
  out.shield_us = median(shield_rounds);
  out.verify_us = median(verify_rounds);

  // KvStore: a store holding the preloaded key space.
  recipe::kv::KvStore kv;
  for (std::size_t k = 0; k < kKeys; ++k) {
    kv.write(model.keys[k], recipe::as_view(values[k % n]));
  }
  out.kv_write_us = time_calls_us(n, [&](std::size_t i) {
    kv.write(model.keys[ops[i].key], recipe::as_view(values[i]));
  });
  out.kv_get_us = time_calls_us(n, [&](std::size_t i) {
    if (!kv.get(model.keys[ops[i].key])) die("isolated get missed");
  });

  if (!w.durable_wal) return out;
  // Wal: the same file-backed storage the replicas log to.
  recipe::kv::FileWalStorage storage(wal_dir);
  recipe::kv::Wal wal(storage, recipe::crypto::SymmetricKey{Bytes(32, 0xA7)},
                      /*boot_epoch=*/1, opts.wal);
  const std::size_t group =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   std::lround(entries_per_commit)));
  recipe::kv::Timestamp ts{1, 1};
  out.wal_append_us = time_calls_us(n, [&](std::size_t i) {
    wal.append(model.keys[ops[i].key], recipe::as_view(values[i]), ts);
    ++ts.counter;
  });
  if (!wal.commit()) die("isolated WAL commit failed");
  // Group commits of the size the live replicas drew; only commit() is timed.
  std::vector<double> commit_rounds;
  for (int r = 0; r < kIsolatedRounds; ++r) {
    double total_us = 0.0;
    const std::size_t commits = n / group;
    for (std::size_t c = 0; c < commits; ++c) {
      for (std::size_t g = 0; g < group; ++g) {
        const std::size_t i = c * group + g;
        wal.append(model.keys[ops[i].key], recipe::as_view(values[i]), ts);
        ++ts.counter;
      }
      const auto t0 = WallClock::now();
      if (!wal.commit()) die("isolated WAL commit failed");
      total_us += mean_us_since(t0, 1);
    }
    commit_rounds.push_back(per(total_us, double(commits)));
  }
  out.wal_commit_us = median(commit_rounds);
  std::uint64_t version = 1;
  out.wal_compact_us = time_calls_us(1, [&](std::size_t) {
    if (!wal.compact(kv, version++).is_ok()) die("isolated compaction failed");
  });
  return out;
}

// --- main --------------------------------------------------------------------

// Confines the process (and every thread it starts later) to the lowest CPU
// it may run on; returns that CPU, or -1 when the mask cannot be changed.
// Replicas, client and generator then hand work to each other without
// waking another vCPU: on a VM whose host is oversubscribed, each such
// wake-up can wait for the hypervisor, and with the threads spread over
// four vCPUs a period of 13-20% host steal moved put_open's median from
// about 250 us to 0.7-4.5 ms, where the same period moved it by about 10%
// on one vCPU.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return ::sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string wal_root = ".bench_build/perfbench-wal";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool seeded = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) a.workload = &w;
      }
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
      seeded = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--wal-root") {
      a.wal_root = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || a.workload == nullptr || !seeded || a.seconds <= 0.0) {
    return std::nullopt;
  }
  return a;
}

int run(const Args& args) {
  const Workload& w = *args.workload;
  const int cpu = pin_to_one_cpu();
  if (cpu < 0) die("cannot pin the process to one CPU");
  namespace fs = std::filesystem;
  const fs::path wal_root =
      fs::absolute(args.wal_root) / std::to_string(::getpid());
  fs::remove_all(wal_root);
  fs::create_directories(wal_root);
  const recipe::cluster::TcpClusterOptions opts =
      cluster_options(w, wal_root.string());

  Model model;
  model.seed = args.seed;
  for (std::size_t k = 0; k < kKeys; ++k) {
    model.keys.push_back("user" + std::to_string(k));
  }
  model.version.assign(kKeys, 0);

  // The traced run splits its time between an untraced and a traced window.
  const double window_s = args.trace ? args.seconds / 2.0 : args.seconds;
  const std::vector<Op> ops =
      poisson_schedule(w, args.seed, 1, kWarmupSeconds + window_s);
  const std::size_t first_timed = first_at_or_after(ops, kWarmupSeconds);

  std::printf(
      "{\"config\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"rate_per_s\": %s, \"op\": \"%s\", \"zipf_theta\": %s, "
      "\"keys\": %zu, \"value_bytes\": %zu, \"warmup_s\": %s, \"setups\": %d, "
      "\"preload_window\": %zu, \"protocol\": \"%s\", \"replicas\": %zu, "
      "\"secured\": %s, \"batch_enabled\": %s, \"batch_max_count\": %zu, "
      "\"batch_max_delay_us\": %s, \"batch_rtt_fraction\": %s, "
      "\"durable_wal\": %s, \"wal_fs\": \"%s\", \"wal_fsync\": \"elided\", "
      "\"nproc\": %ld, \"pinned_cpu\": %d, "
      "\"build_type\": \"%s\", \"scheduled_ops\": %zu}}\n",
      w.name, static_cast<unsigned long long>(args.seed),
      json_number(args.seconds).c_str(), args.trace ? 1 : 0,
      json_number(w.rate).c_str(), w.puts ? "put" : "get",
      json_number(w.zipf_theta).c_str(), kKeys, kValueBytes,
      json_number(kWarmupSeconds).c_str(), kSetups, kPreloadWindow,
      opts.protocol.c_str(), opts.replicas, opts.secured ? "true" : "false",
      opts.batch.enabled ? "true" : "false", opts.batch.max_count,
      json_number(double(opts.batch.max_delay) / 1e3).c_str(),
      json_number(opts.batch.rtt_fraction).c_str(),
      opts.durable_wal ? "true" : "false", fs_type(wal_root.string()).c_str(),
      ::sysconf(_SC_NPROCESSORS_ONLN), cpu, PERFBENCH_BUILD_TYPE, ops.size());
  std::fflush(stdout);

  // Set-up, several times: every stand-up but the last is torn down again.
  Deployment d;
  std::vector<double> setup_s, start_s, preload_s;
  for (int s = 0; s < kSetups; ++s) {
    d = Deployment{};
    model.version.assign(kKeys, 0);
    const std::string dir = (wal_root / ("setup" + std::to_string(s))).string();
    const auto t = stand_up(d, w, model, dir);
    if (!t) die("preload failed");
    start_s.push_back(t->start_s);
    preload_s.push_back(t->preload_s);
    setup_s.push_back(t->start_s + t->preload_s);
  }

  const auto counters0 = scrape(d);
  WindowResult window =
      run_window(d, model, w, ops, first_timed, /*version_base=*/kKeys);
  std::size_t attempted = window.attempted;
  std::size_t failed = window.failed;
  const LatencySummary lat = summarize(window);
  const double cpu_us_per_op = per(window.cpu_s * 1e6, double(window.timed_ok));

  std::string setups_json;
  for (double t : setup_s) {
    setups_json += (setups_json.empty() ? "" : ", ") + json_number(t);
  }
  std::printf(
      "{\"run\": {\"workload\": \"%s\", \"seed\": %llu, \"host_steal_pct\": "
      "%s, \"stalls\": %zu, \"lat_p90_us\": %s, \"lat_p99_us\": %s, "
      "\"lat_p999_us\": %s, \"lat_samples\": %zu, \"gen_lag_p99_us\": %s, "
      "\"setup_s\": [%s]}}\n",
      w.name, static_cast<unsigned long long>(args.seed),
      json_number(window.steal_pct).c_str(), lat.stalls,
      json_number(lat.p90).c_str(), json_number(lat.p99).c_str(),
      json_number(lat.p999).c_str(), lat.samples,
      json_number(lat.lag_p99).c_str(), setups_json.c_str());

  std::vector<Metric> metrics;
  bool counters_ok = true;
  if (!args.trace) {
    metrics = {
        {"lat_p50_us", lat.p50, "us"},
        {"cpu_us_per_op", cpu_us_per_op, "us"},
        {"setup_s", median(setup_s), "s"},
        {"rss_mb", 0.0, "MB"},
    };
  } else {
    const std::vector<Op> traced_ops =
        poisson_schedule(w, args.seed, 2, window_s);
    const auto counters1 = scrape(d);
    TraceResult trace = run_traced(d, model, w, traced_ops,
                                   /*version_base=*/kKeys + ops.size());
    const auto counters2 = scrape(d);
    attempted += trace.attempted;
    failed += trace.failed;
    auto delta = [&](const char* name) {
      return counters2.at(name) - counters1.at(name);
    };
    auto whole = [&](const char* name) {
      return counters2.at(name) - counters0.at(name);
    };
    // Counters the per-op ratios divide by must move on this workload.
    std::vector<const char*> must_move = {
        "recipe_client_ops_completed_total", "recipe_batch_messages_total",
        "recipe_batch_flushes_total", "recipe_transport_packets_sent_total",
        "recipe_transport_bytes_sent_total"};
    if (w.puts) must_move.push_back("recipe_node_apply_us_count");
    if (w.durable_wal) {
      must_move.push_back("recipe_wal_entries_total");
      must_move.push_back("recipe_wal_group_commits_total");
    }
    for (const char* name : must_move) {
      if (delta(name) <= 0.0) {
        std::fprintf(stderr, "perfbench: counter %s read zero\n", name);
        counters_ok = false;
      }
    }
    if (trace.ops == 0) {
      std::fprintf(stderr, "perfbench: every traced epoch wrapped\n");
      counters_ok = false;
    }
    const double ops_b = double(trace.ops);
    const double all_ops = double(window.attempted + trace.ops);
    const double commits = delta("recipe_wal_group_commits_total");
    const double entries_per_commit =
        per(delta("recipe_wal_entries_total"), commits);
    const IsolatedCalls calls =
        isolated_calls(w, model, traced_ops, opts,
                       (wal_root / "isolated").string(), entries_per_commit);
    auto span = [&](obs::SpanKind k) -> SpanTotals& { return trace.spans[k]; };
    SpanTotals& wal_spans = span(obs::SpanKind::kWalGroupCommit);
    const double traced_cpu_us_per_op = per(trace.cpu_s * 1e6, ops_b);
    metrics = {
        {"cluster.start_s", median(start_s), "s"},
        {"cluster.preload_s", median(preload_s), "s"},
        {"client.issue_us", per(trace.issue_ns_total / 1e3, ops_b), "us"},
        {"client.retries_per_op",
         per(whole("recipe_client_retries_total"), all_ops), "1/op"},
        {"rpc.timeouts_per_op",
         per(whole("recipe_rpc_timeouts_total"), all_ops), "1/op"},
        {"security.shield_us", span(obs::SpanKind::kShield).mean_us(), "us"},
        {"security.verify_us", span(obs::SpanKind::kVerify).mean_us(), "us"},
        {"security.verify_per_op",
         per(double(span(obs::SpanKind::kVerify).count), ops_b), "1/op"},
        {"security.shield_call_us", calls.shield_us, "us"},
        {"security.verify_call_us", calls.verify_us, "us"},
        {"batcher.queue_wait_us",
         span(obs::SpanKind::kBatchQueueWait).mean_us(), "us"},
        {"batcher.msgs_per_flush",
         per(delta("recipe_batch_messages_total"),
             delta("recipe_batch_flushes_total")),
         "count"},
        {"batcher.flushes_per_op",
         per(delta("recipe_batch_flushes_total"), ops_b), "1/op"},
        {"transport.writes_per_op",
         per(double(span(obs::SpanKind::kSocketWrite).count), ops_b), "1/op"},
        {"transport.write_us", span(obs::SpanKind::kSocketWrite).mean_us(),
         "us"},
        {"transport.bytes_per_op",
         per(delta("recipe_transport_bytes_sent_total"), ops_b), "B/op"},
        {"transport.packets_per_op",
         per(delta("recipe_transport_packets_sent_total"), ops_b), "1/op"},
        {"kvstore.apply_us", span(obs::SpanKind::kApply).mean_us(), "us"},
        {"kvstore.write_call_us", calls.kv_write_us, "us"},
        {"kvstore.get_call_us", calls.kv_get_us, "us"},
        {"wal.group_commit_us", wal_spans.mean_us(), "us"},
        {"wal.group_commit_p99_us", quantile(wal_spans.durations_us, 0.99),
         "us"},
        {"wal.entries_per_commit", entries_per_commit, "count"},
        {"wal.commits_per_op", per(commits, ops_b), "1/op"},
        {"wal.compactions", whole("recipe_wal_compactions_total"), "count"},
        {"wal.append_call_us", calls.wal_append_us, "us"},
        {"wal.commit_call_us", calls.wal_commit_us, "us"},
        {"wal.compact_call_us", calls.wal_compact_us, "us"},
        {"gen.lag_p99_us", lat.lag_p99, "us"},
        {"host.steal_pct", window.steal_pct, "%"},
        {"lat_p90_us", lat.p90, "us"},
        {"lat_p99_us", lat.p99, "us"},
        {"lat_p999_us", lat.p999, "us"},
        {"lat_samples", double(lat.samples), "count"},
        {"stalls", double(lat.stalls), "count"},
        {"trace.overhead_pct",
         100.0 * per(traced_cpu_us_per_op - cpu_us_per_op, cpu_us_per_op),
         "%"},
        {"trace.epochs", double(trace.epochs), "count"},
        {"trace.wrapped_epochs", double(trace.wrapped_epochs), "count"},
    };
  }

  if (w.puts) {
    const std::size_t mismatches = read_back(d, model);
    attempted += kReadbackKeys;
    failed += mismatches;
  }
  d = Deployment{};
  fs::remove_all(wal_root);
  for (Metric& m : metrics) {
    if (m.name == "rss_mb") m.value = peak_rss_mb();
  }

  const bool correct = failed == 0 && counters_ok;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              metrics_json(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto args = perfbench::parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload put_open|get_open|put_wal_open "
                 "--seed N --seconds S --trace 0|1 [--wal-root DIR]\n");
    return 2;
  }
  return perfbench::run(*args);
}
