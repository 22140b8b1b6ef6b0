// Host- and process-level probes for the open-loop benchmark: process CPU
// time (every thread), host CPU steal, peak resident set, the filesystem
// type behind a directory, and a counter scrape that sums every label set
// of a metrics-registry series.
#pragma once

#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

// User + system CPU seconds charged to this process, summed over all of
// its threads. Time the hypervisor steals is not charged here.
inline double process_cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

// Aggregate CPU ticks from the first line of /proc/stat.
struct HostTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

inline HostTicks host_ticks() {
  HostTicks out;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return out;
  // user nice system idle iowait irq softirq steal [guest guest_nice]:
  // guest time is already counted in user, so only the first eight add up.
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    out.total += v;
    if (field == 7) out.steal = v;
  }
  return out;
}

// Share of all host CPU time stolen between two samples, in percent.
inline double steal_pct(const HostTicks& a, const HostTicks& b) {
  if (b.total <= a.total) return 0.0;
  return 100.0 * static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

// Peak resident set (VmHWM) of this process, in MiB.
inline double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Name of the filesystem `path` lives on (the WAL's medium).
inline std::string fs_type(const std::string& path) {
  struct statfs st {};
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53UL:
      return "ext4";
    case 0x01021994UL:
      return "tmpfs";
    case 0x794C7630UL:
      return "overlay";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return hex;
    }
  }
}

// Sum of one series over every label set and every registry, read from the
// Prometheus rendering. Transport series carry a shard="k" label, so a
// label-less counter_value() lookup would read zero on a live cluster;
// histogram series are addressed by their `_count` / `_sum` lines.
inline double scrape_sum(const std::vector<obs::MetricsRegistry*>& registries,
                         std::string_view name) {
  double total = 0.0;
  for (const obs::MetricsRegistry* registry : registries) {
    std::istringstream text(registry->render_prometheus());
    std::string line;
    while (std::getline(text, line)) {
      if (line.empty() || line[0] == '#') continue;
      const std::size_t end = line.find_first_of("{ ");
      if (end == std::string::npos || std::string_view(line).substr(0, end) !=
                                          name) {
        continue;
      }
      total += std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
    }
  }
  return total;
}

// Linear-interpolated quantile of `values` (sorted in place).
inline double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double median(std::vector<double> values) {
  return quantile(values, 0.5);
}

}  // namespace perfbench
