#include "probe/server_probe.h"

#include <algorithm>

#include "net/tcp_socket.h"

#include "obs/metrics.h"
#include "util/counters.h"
#include "util/logging.h"

namespace smartsock::probe {

namespace {
double rate(std::uint64_t before, std::uint64_t after, double dt_seconds) {
  if (after <= before || dt_seconds <= 0.0) return 0.0;
  return static_cast<double>(after - before) / dt_seconds;
}
}  // namespace

StatusReport make_report(const ProbeConfig& config, const ProcSample& before,
                         const ProcSample& after, double dt_seconds) {
  StatusReport report;
  report.host = config.host;
  report.address = config.service_address;
  report.group = config.group;

  report.load1 = after.load1;
  report.load5 = after.load5;
  report.load15 = after.load15;
  report.bogomips = after.bogomips;

  std::uint64_t du = after.cpu_user - std::min(after.cpu_user, before.cpu_user);
  std::uint64_t dn = after.cpu_nice - std::min(after.cpu_nice, before.cpu_nice);
  std::uint64_t ds = after.cpu_system - std::min(after.cpu_system, before.cpu_system);
  std::uint64_t di = after.cpu_idle - std::min(after.cpu_idle, before.cpu_idle);
  std::uint64_t total = du + dn + ds + di;
  if (total > 0) {
    report.cpu_user = static_cast<double>(du) / static_cast<double>(total);
    report.cpu_nice = static_cast<double>(dn) / static_cast<double>(total);
    report.cpu_system = static_cast<double>(ds) / static_cast<double>(total);
    report.cpu_idle = static_cast<double>(di) / static_cast<double>(total);
  }

  report.mem_total_mb = static_cast<double>(after.mem_total) / (1024.0 * 1024.0);
  report.mem_used_mb = static_cast<double>(after.mem_used) / (1024.0 * 1024.0);
  report.mem_free_mb = static_cast<double>(after.mem_free) / (1024.0 * 1024.0);

  report.disk_rreq_ps = rate(before.disk_rreq, after.disk_rreq, dt_seconds);
  report.disk_rblocks_ps = rate(before.disk_rblocks, after.disk_rblocks, dt_seconds);
  report.disk_wreq_ps = rate(before.disk_wreq, after.disk_wreq, dt_seconds);
  report.disk_wblocks_ps = rate(before.disk_wblocks, after.disk_wblocks, dt_seconds);

  report.net_rbytes_ps = rate(before.net_rbytes, after.net_rbytes, dt_seconds);
  report.net_rpackets_ps = rate(before.net_rpackets, after.net_rpackets, dt_seconds);
  report.net_tbytes_ps = rate(before.net_tbytes, after.net_tbytes, dt_seconds);
  report.net_tpackets_ps = rate(before.net_tpackets, after.net_tpackets, dt_seconds);
  return report;
}

ServerProbe::ServerProbe(ProbeConfig config, std::unique_ptr<ProcSource> source)
    : config_(std::move(config)), source_(std::move(source)) {
  if (auto sock = net::UdpSocket::create()) {
    socket_ = std::move(*sock);
    socket_.set_traffic_counter(
        obs::MetricsRegistry::instance().traffic("system_probe"));
  }
  reports_counter_ = obs::MetricsRegistry::instance().counter("probe_reports_sent_total");
  sample_failures_ = obs::MetricsRegistry::instance().counter("probe_sample_failures_total");
}

ServerProbe::~ServerProbe() { stop(); }

std::optional<StatusReport> ServerProbe::build_report() {
  std::lock_guard<std::mutex> lock(sample_mu_);
  auto sample = source_->sample();
  if (!sample) return std::nullopt;
  util::Duration now = util::SteadyClock::instance().now();

  if (!previous_) {
    previous_ = sample;
    previous_time_ = now;
    // First report carries instantaneous fields with zero rates — the
    // monitor still learns the server exists immediately.
    return make_report(config_, *sample, *sample, 0.0);
  }

  double dt = util::to_seconds(now - previous_time_);
  StatusReport report = make_report(config_, *previous_, *sample, dt);
  previous_ = sample;
  previous_time_ = now;
  return report;
}

bool ServerProbe::probe_once() {
  auto report = build_report();
  if (!report) {
    sample_failures_->inc();
    return false;
  }
  std::string wire = report->to_wire_selected(config_.selected_keys);

  if (config_.use_tcp) {
    auto connection = net::TcpSocket::connect(config_.monitor, std::chrono::seconds(1));
    if (!connection) return false;
    connection->set_traffic_counter(socket_.traffic_counter());
    if (!connection->send_all(wire + "\n").ok()) return false;
    reports_sent_.fetch_add(1, std::memory_order_relaxed);
    reports_counter_->inc();
    return true;
  }

  if (!socket_.valid()) return false;
  auto result = socket_.send_to(wire, config_.monitor);
  if (result.ok()) {
    reports_sent_.fetch_add(1, std::memory_order_relaxed);
    reports_counter_->inc();
  }
  return result.ok();
}

bool ServerProbe::start(net::Reactor& loop) {
  return cycle_.start(
      loop, config_.interval,
      [this] {
        if (!probe_once()) {
          SMARTSOCK_LOG(kWarn, "probe") << config_.host << ": probe cycle failed";
        }
      },
      "probe_cycle");
}

void ServerProbe::stop() { cycle_.stop(); }

}  // namespace smartsock::probe
