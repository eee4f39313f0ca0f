// Server probe daemon (§3.2.1, §4.1).
//
// Runs on every server: samples the procfs source at a configurable interval
// (the thesis uses 2-10 s), converts two consecutive cumulative samples into
// rates, and fires the ASCII report at the system monitor over UDP. CPU
// rates come from jiffy deltas (interval-exact); disk/net rates divide by
// the steady-clock sampling gap.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "net/reactor.h"
#include "net/udp_socket.h"
#include "obs/metrics.h"
#include "probe/proc_reader.h"
#include "probe/status_report.h"
#include "util/clock.h"

namespace smartsock::probe {

struct ProbeConfig {
  std::string host;            // server identity in reports
  std::string service_address; // "ip:port" clients should connect to
  std::string group;           // server group (for netdb correlation)
  net::Endpoint monitor;       // system monitor endpoint (UDP, or TCP below)
  util::Duration interval = std::chrono::seconds(2);
  /// Ch. 6 ("UDP vs TCP"): long reports on congested networks should switch
  /// to TCP. When set, each report is a short TCP connection to the
  /// monitor's TCP endpoint ("<report>\n", then close).
  bool use_tcp = false;
  /// Ch. 6 ("Selected parameters"): report only these wire keys (see
  /// StatusReport::wire_keys()); empty = report everything.
  std::vector<std::string> selected_keys;
};

class ServerProbe {
 public:
  /// `source` provides procfs snapshots (real or simulated).
  ServerProbe(ProbeConfig config, std::unique_ptr<ProcSource> source);
  ~ServerProbe();

  ServerProbe(const ServerProbe&) = delete;
  ServerProbe& operator=(const ServerProbe&) = delete;

  /// Builds one report from the delta between the previous and a fresh
  /// sample. The first call primes the baseline and reports rate zeros.
  std::optional<StatusReport> build_report();

  /// build_report() + UDP send. Returns false if sampling or send failed.
  bool probe_once();

  /// Reports at once, then every config.interval as the `probe_cycle`
  /// timer on `loop`. stop() cancels it; stop before `loop` is destroyed.
  bool start(net::Reactor& loop);
  void stop();
  /// Moves the next report to now; false (and silent) when not started.
  bool report_now() { return cycle_.run_now(); }

  const ProbeConfig& config() const { return config_; }
  std::uint64_t reports_sent() const { return reports_sent_.load(std::memory_order_relaxed); }

 private:
  ProbeConfig config_;
  std::unique_ptr<ProcSource> source_;
  net::UdpSocket socket_;

  // Guards the sampling state: probe_once may be invoked both by the loop
  // timer and directly by a caller.
  std::mutex sample_mu_;
  std::optional<ProcSample> previous_;
  util::Duration previous_time_{0};

  net::PeriodicJob cycle_;
  std::atomic<std::uint64_t> reports_sent_{0};
  obs::Counter* reports_counter_ = nullptr;  // registry mirror of the above
  obs::Counter* sample_failures_ = nullptr;
};

/// Pure helper: turns two samples `dt_seconds` apart into a report (exposed
/// for unit tests).
StatusReport make_report(const ProbeConfig& config, const ProcSample& before,
                         const ProcSample& after, double dt_seconds);

}  // namespace smartsock::probe
