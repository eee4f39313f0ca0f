// smartsock_probe — standalone server-probe daemon (§3.2.1).
//
// Runs on every server in the pool; scans the real /proc and reports to the
// system monitor over UDP until killed.
//
//   smartsock_probe --monitor 10.0.0.2:1111 --host $(hostname) \
//                   --service 10.0.0.7:5000 --group lab --interval 2
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <memory>

#include "net/endpoint.h"
#include "net/reactor.h"
#include "obs/blackbox.h"
#include "obs/stats_server.h"
#include "probe/server_probe.h"
#include "util/args.h"

using namespace smartsock;

namespace {
volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }
}  // namespace

int main(int argc, char** argv) {
  util::Args args(argc, argv,
                  {"monitor", "host", "service", "group", "interval", "proc-root",
                   "stats-port", "stats-dump", "stats-dump-interval", "help"});
  if (!args.ok() || args.has("help") || !args.has("monitor")) {
    std::fprintf(stderr,
                 "usage: smartsock_probe --monitor ip:port [--host name] "
                 "[--service ip:port] [--group name] [--interval seconds] "
                 "[--proc-root /proc] [--stats-port port] [--stats-dump file] "
                 "[--stats-dump-interval seconds]\n");
    return args.has("help") ? 0 : 2;
  }
  obs::Blackbox::install("smartsock_probe");
  auto monitor = net::Endpoint::parse(args.get_or("monitor", ""));
  if (!monitor) {
    std::fprintf(stderr, "bad --monitor endpoint\n");
    return 2;
  }

  probe::ProbeConfig config;
  config.host = args.get_or("host", "unnamed-server");
  config.service_address = args.get_or("service", "0.0.0.0:0");
  config.group = args.get_or("group", "default");
  config.monitor = *monitor;
  config.interval = util::from_seconds(args.get_double_or("interval", 2.0));

  // One loop runs the reporting timer and, with --stats-port, the stats
  // server. Declared first, so it outlives everything started on it.
  net::Reactor loop;
  if (!loop.start()) {
    std::fprintf(stderr, "cannot start the probe loop\n");
    return 1;
  }
  probe::ServerProbe probe(
      config, std::make_unique<probe::FileProcSource>(args.get_or("proc-root", "/proc")));
  probe.start(loop);
  std::printf("probe '%s' reporting to %s every %.1fs (group %s)\n", config.host.c_str(),
              monitor->to_string().c_str(), util::to_seconds(config.interval),
              config.group.c_str());

  // Declared before `stats` so the server (whose config points at them)
  // destructs first.
  std::unique_ptr<obs::TimeSeriesRecorder> history;
  std::unique_ptr<obs::HealthEngine> health;
  std::unique_ptr<obs::StatsServer> stats;
  if (args.has("stats-port") || args.has("stats-dump")) {
    obs::StatsServerConfig stats_config;
    auto stats_port = static_cast<std::uint16_t>(
        std::clamp<std::int64_t>(args.get_int_or("stats-port", 0), 0, 65535));
    stats_config.bind = net::Endpoint("127.0.0.1", stats_port);
    stats_config.dump_path = args.get_or("stats-dump", "");
    stats_config.dump_interval =
        util::from_seconds(args.get_double_or("stats-dump-interval", 10.0));
    history = std::make_unique<obs::TimeSeriesRecorder>();
    health = std::make_unique<obs::HealthEngine>();
    stats_config.history = history.get();
    stats_config.health = health.get();
    stats_config.reactor = &loop;
    stats = std::make_unique<obs::StatsServer>(stats_config);
    if (!stats->valid() || !stats->start()) {
      std::fprintf(stderr, "cannot start stats endpoint on %s\n",
                   stats_config.bind.to_string().c_str());
      return 1;
    }
    std::printf("stats endpoint on %s\n", stats->endpoint().to_string().c_str());
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  while (!g_stop) {
    util::SteadyClock::instance().sleep_for(std::chrono::milliseconds(200));
  }
  if (stats) stats->stop();
  probe.stop();
  std::printf("probe stopped after %llu reports\n",
              static_cast<unsigned long long>(probe.reports_sent()));
  return 0;
}
