// Simulated /proc filesystem for synthetic hosts.
//
// The thesis's probes read 5 procfs nodes (§4.1): /proc/loadavg, /proc/stat
// (cpu + disk_io), /proc/meminfo and /proc/net/dev. SimProcFs maintains the
// underlying counters for one simulated host and *renders genuine
// Linux-2.4-format procfs text*, so the very same parsing code the probe
// uses against a real kernel runs against simulated hosts.
//
// State evolves through tick(dt): cumulative counters (cpu jiffies, disk
// requests, interface bytes) advance at the currently configured rates, and
// the three load averages relax exponentially toward the offered load with
// the kernel's 1/5/15-minute time constants.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

namespace smartsock::sim {

struct HostActivity {
  double cpu_busy_fraction = 0.0;   // [0,1] share of jiffies that are busy
  double cpu_system_share = 0.1;    // of the busy share, fraction in kernel
  double offered_load = 0.0;        // run-queue length the loadavg chases
  std::uint64_t memory_used_bytes = 64ull << 20;
  double disk_read_reqps = 0.0;     // read requests per second
  double disk_write_reqps = 0.0;
  double disk_blocks_per_req = 8.0;
  double net_rx_bytesps = 0.0;      // eth0 receive rate
  double net_tx_bytesps = 0.0;
  double net_packet_bytes = 512.0;  // avg packet size for packet counters
};

class SimProcFs {
 public:
  SimProcFs(std::string hostname, double bogomips, std::uint64_t memory_total_bytes);

  // Movable despite the mutex (SimHost lives in vectors): the source is
  // locked while its state is copied out; the mutex itself is not moved.
  SimProcFs(SimProcFs&& other) noexcept;
  SimProcFs& operator=(SimProcFs&&) = delete;
  SimProcFs(const SimProcFs&) = delete;
  SimProcFs& operator=(const SimProcFs&) = delete;

  /// Advances all counters by dt seconds of the configured activity.
  /// Thread-safe against concurrent renders and setters: the harness ticks
  /// from its own thread while each host's probe renders the procfs text.
  void tick(double dt_seconds);

  /// Replaces the activity profile (takes effect from the next tick).
  void set_activity(const HostActivity& activity) {
    std::lock_guard<std::mutex> lock(mutex_);
    activity_ = activity;
  }
  HostActivity activity() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return activity_;
  }

  // --- procfs renderings -------------------------------------------------
  std::string render_loadavg() const;   // /proc/loadavg
  std::string render_stat() const;      // /proc/stat (cpu + disk_io lines)
  std::string render_meminfo() const;   // /proc/meminfo (2.4-style byte table)
  std::string render_netdev() const;    // /proc/net/dev
  std::string render_cpuinfo() const;   // /proc/cpuinfo (bogomips line)

  // --- direct state access (for tests and the workload generator) --------
  const std::string& hostname() const { return hostname_; }
  double bogomips() const { return bogomips_; }
  double load1() const { return locked(load1_); }
  double load5() const { return locked(load5_); }
  double load15() const { return locked(load15_); }
  std::uint64_t memory_total() const { return memory_total_; }
  std::uint64_t memory_used() const { return locked(activity_.memory_used_bytes); }
  std::uint64_t cpu_user_jiffies() const { return locked(cpu_user_); }
  std::uint64_t cpu_idle_jiffies() const { return locked(cpu_idle_); }

 private:
  template <typename T>
  T locked(const T& value) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return value;
  }

  std::string hostname_;   // immutable after construction, no lock
  double bogomips_;        // immutable after construction, no lock
  std::uint64_t memory_total_;  // immutable after construction, no lock

  // Guards everything below: tick() advances from the harness's loop timer
  // while probes render and tests read the scalars.
  mutable std::mutex mutex_;

  HostActivity activity_;

  // load averages
  double load1_ = 0.0;
  double load5_ = 0.0;
  double load15_ = 0.0;

  // cumulative jiffies (USER_HZ = 100)
  std::uint64_t cpu_user_ = 0;
  std::uint64_t cpu_nice_ = 0;
  std::uint64_t cpu_system_ = 0;
  std::uint64_t cpu_idle_ = 0;

  // cumulative disk_io counters
  std::uint64_t disk_rreq_ = 0;
  std::uint64_t disk_wreq_ = 0;
  std::uint64_t disk_rblocks_ = 0;
  std::uint64_t disk_wblocks_ = 0;

  // cumulative eth0 counters
  std::uint64_t net_rbytes_ = 0;
  std::uint64_t net_rpackets_ = 0;
  std::uint64_t net_tbytes_ = 0;
  std::uint64_t net_tpackets_ = 0;

  // fractional remainders so slow rates don't vanish under integer counters
  double cpu_frac_busy_ = 0.0;
  double cpu_frac_idle_ = 0.0;
  double disk_frac_r_ = 0.0;
  double disk_frac_w_ = 0.0;
};

}  // namespace smartsock::sim
