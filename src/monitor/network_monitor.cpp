#include "monitor/network_monitor.h"

#include "bwest/one_way_udp_stream.h"
#include "util/counters.h"
#include "util/logging.h"

namespace smartsock::monitor {

NetworkMonitor::NetworkMonitor(NetworkMonitorConfig config, ipc::StatusStore& store)
    : config_(std::move(config)), store_(&store) {}

NetworkMonitor::~NetworkMonitor() { stop(); }

void NetworkMonitor::add_target(NetworkTarget target) {
  targets_.push_back(std::move(target));
}

std::size_t NetworkMonitor::measure_all_once() {
  std::size_t measured = 0;
  for (const NetworkTarget& target : targets_) {
    auto estimate = target.measure();
    if (!estimate || !estimate->valid()) {
      SMARTSOCK_LOG(kWarn, "network_monitor")
          << config_.local_group << "->" << target.group << ": measurement failed";
      continue;
    }
    ipc::NetRecord record;
    ipc::copy_fixed(record.from_group, ipc::kGroupLen, config_.local_group);
    ipc::copy_fixed(record.to_group, ipc::kGroupLen, target.group);
    record.delay_ms = estimate->delay_ms;
    record.bw_mbps = estimate->bw_mbps;
    record.updated_ns = ipc::steady_now_ns();
    store_->put_net(record);
    ++measured;
    measurements_.fetch_add(1, std::memory_order_relaxed);
  }
  return measured;
}

util::Duration NetworkMonitor::recommended_interval(std::size_t groups,
                                                    util::Duration per_path) {
  // n groups -> each monitor probes (n-1) paths; scale the interval linearly
  // so the whole system's probe rate stays constant as groups are added.
  std::size_t paths = groups > 1 ? groups - 1 : 1;
  return per_path * static_cast<int>(paths);
}

bool NetworkMonitor::start(net::Reactor& loop) {
  return cycle_.start(loop, config_.interval, [this] { measure_all_once(); }, "netmon_measure");
}

void NetworkMonitor::stop() { cycle_.stop(); }

net::ReactorConfig NetworkMonitor::loop_config() {
  net::ReactorConfig config;
  config.watchdog_stall_threshold = util::Duration::zero();
  return config;
}

MeasureFn measure_sim_path(sim::NetworkPath& path) {
  return [&path]() -> std::optional<bwest::BwEstimate> {
    bwest::SimProber prober(path);
    auto config =
        bwest::OneWayUdpStreamEstimator::optimal_sizes_for_mtu(path.config().mtu_bytes);
    config.probes_per_size = 10;
    bwest::OneWayUdpStreamEstimator estimator(config);
    auto estimate = estimator.estimate(prober);
    if (!estimate.valid()) return std::nullopt;
    // The estimator's delay is the probe RTT floor, which includes
    // serialization of a >MTU probe; report the path's base delay signal.
    return estimate;
  };
}

MeasureFn measure_fixed(double delay_ms, double bw_mbps) {
  return [delay_ms, bw_mbps]() -> std::optional<bwest::BwEstimate> {
    bwest::BwEstimate estimate;
    estimate.method = "fixed";
    estimate.delay_ms = delay_ms;
    estimate.bw_mbps = bw_mbps;
    estimate.bw_min_mbps = bw_mbps;
    estimate.bw_max_mbps = bw_mbps;
    return estimate;
  };
}

MeasureFn measure_udp_echo(const net::Endpoint& target) {
  return [target]() -> std::optional<bwest::BwEstimate> {
    bwest::UdpEchoProber prober(target);
    if (!prober.valid()) return std::nullopt;
    bwest::OneWayStreamConfig config;
    config.probes_per_size = 8;
    bwest::OneWayUdpStreamEstimator estimator(config);
    auto estimate = estimator.estimate(prober);
    if (!estimate.valid()) return std::nullopt;
    return estimate;
  };
}

}  // namespace smartsock::monitor
