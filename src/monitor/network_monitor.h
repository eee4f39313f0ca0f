// Network monitor (§3.3.3).
//
// Each server group runs one network monitor; it probes the paths to every
// neighboring group and records (delay, bandwidth) pairs into the netdb.
// Probing is strictly sequential — "multiple probes should not run
// simultaneously" — and the interval should grow with the number of groups
// (total probes across the system are n·(n-1)).
//
// The measurement backend is injected per target, so the same monitor runs
// against simulated paths (sim::NetworkPath + the one-way UDP estimator) or
// real loopback echo responders.
#pragma once

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "bwest/estimate.h"
#include "ipc/status_store.h"
#include "net/reactor.h"
#include "util/clock.h"

namespace smartsock::monitor {

/// Measures the path to one remote group.
using MeasureFn = std::function<std::optional<bwest::BwEstimate>()>;

struct NetworkTarget {
  std::string group;
  MeasureFn measure;
};

struct NetworkMonitorConfig {
  std::string local_group = "local";
  util::Duration interval = std::chrono::seconds(2);
};

class NetworkMonitor {
 public:
  NetworkMonitor(NetworkMonitorConfig config, ipc::StatusStore& store);
  ~NetworkMonitor();

  NetworkMonitor(const NetworkMonitor&) = delete;
  NetworkMonitor& operator=(const NetworkMonitor&) = delete;

  void add_target(NetworkTarget target);

  /// Probes every target once, sequentially. Returns targets measured.
  std::size_t measure_all_once();

  /// Recommended probing interval for `groups` server groups: grows with the
  /// number of paths so system-wide probe traffic stays bounded.
  static util::Duration recommended_interval(std::size_t groups,
                                             util::Duration per_path = std::chrono::seconds(2));

  /// Measures at once, then config.interval after each measurement as the
  /// `netmon_measure` timer on `loop`. A measurement blocks the loop for as
  /// long as its targets take (an unreachable UDP echo: up to 16 probes x
  /// 250 ms), so daemons give this monitor a loop of its own, built from
  /// loop_config(). stop() cancels the timer; stop before `loop` is
  /// destroyed.
  bool start(net::Reactor& loop);
  void stop();

  /// Config for a loop of its own: blocking there is the job, so the stall
  /// watchdog, whose verdict is process-wide, stays off.
  static net::ReactorConfig loop_config();

  std::uint64_t measurements() const { return measurements_.load(std::memory_order_relaxed); }

 private:
  NetworkMonitorConfig config_;
  ipc::StatusStore* store_;
  std::vector<NetworkTarget> targets_;

  net::PeriodicJob cycle_;
  std::atomic<std::uint64_t> measurements_{0};
};

/// Backend factory: measures a simulated path with the thesis's one-way UDP
/// stream method (probe sizes auto-tuned to the path's MTU).
MeasureFn measure_sim_path(sim::NetworkPath& path);

/// Backend factory: fixed synthetic metrics (used when an experiment pins
/// group bandwidth, e.g. the massd rshaper runs of §5.3.2).
MeasureFn measure_fixed(double delay_ms, double bw_mbps);

/// Backend factory: measures a real UDP echo endpoint.
MeasureFn measure_udp_echo(const net::Endpoint& target);

}  // namespace smartsock::monitor
