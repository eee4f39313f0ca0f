// smartsock_statsd — the fleet stats aggregator daemon (ISSUE 9).
//
// Scrapes every daemon stats endpoint in --scrape (or SMARTSOCK_FLEET) on a
// reactor timer and re-serves the merged view over the same one-line stats
// protocol: counters summed (restart-compensated), gauges per-instance
// under instance="host:port", histograms count-weight merged, fleet_*
// rollup series, cluster health (stock rules over the merged registry plus
// fleet reachability), and cross-process traces stitched from every
// daemon's span ring into one Chrome timeline.
//
//   smartsock_statsd --listen 127.0.0.1:1130 \
//     --scrape 127.0.0.1:19872,127.0.0.1:19882,127.0.0.1:19892
//
// Query it with smartsock-stats (json|prom|text|health|history|spans|
// trace [id]|fleet) — e.g. `smartsock-stats --connect 127.0.0.1:1130
// --trace-dump fleet.json` writes the stitched trace.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "net/reactor.h"
#include "obs/blackbox.h"
#include "obs/fleet.h"
#include "obs/stats_server.h"
#include "util/args.h"

using namespace smartsock;

namespace {
volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }
}  // namespace

int main(int argc, char** argv) {
  util::Args args(argc, argv,
                  {"listen", "scrape", "interval", "timeout-ms", "stale-after",
                   "no-spans", "stats-dump", "stats-dump-interval", "help"});
  if (!args.ok() || args.has("help")) {
    std::fprintf(stderr,
                 "usage: smartsock_statsd --listen ip:port "
                 "[--scrape ip:port,...] [--interval seconds] [--timeout-ms n] "
                 "[--stale-after seconds] [--no-spans] [--stats-dump file] "
                 "[--stats-dump-interval seconds]\n"
                 "  --scrape defaults to $SMARTSOCK_FLEET\n");
    return args.has("help") ? 0 : 2;
  }

  obs::Blackbox::install("smartsock_statsd");

  std::string scrape = args.get_or("scrape", "");
  if (scrape.empty()) {
    const char* env = std::getenv("SMARTSOCK_FLEET");
    if (env != nullptr) scrape = env;
  }
  std::string parse_error;
  auto endpoints = obs::parse_endpoint_list(scrape, &parse_error);
  if (!endpoints) {
    std::fprintf(stderr, "bad --scrape list: %s\n", parse_error.c_str());
    return 2;
  }

  auto listen = net::Endpoint::parse(args.get_or("listen", "127.0.0.1:1130"));
  if (!listen) {
    std::fprintf(stderr, "bad --listen endpoint\n");
    return 2;
  }

  obs::FleetConfig fleet_config;
  fleet_config.endpoints = *endpoints;
  fleet_config.scrape_interval =
      util::from_seconds(std::max(0.05, args.get_double_or("interval", 2.0)));
  fleet_config.scrape_timeout = util::from_millis(static_cast<double>(
      std::max<std::int64_t>(10, args.get_int_or("timeout-ms", 500))));
  fleet_config.stale_after =
      util::from_seconds(std::max(0.0, args.get_double_or("stale-after", 0.0)));
  fleet_config.scrape_spans = !args.has("no-spans");

  // One loop hosts everything: the sweep timer, every scrape connection,
  // and the admin clients the stats server multiplexes.
  net::Reactor reactor;
  obs::MetricsRegistry merged;
  obs::FleetAggregator aggregator(fleet_config, reactor, merged);
  obs::HealthEngine health(merged);
  aggregator.install_health_rules(health);
  obs::TimeSeriesRecorder history({}, merged);

  obs::StatsServerConfig stats_config;
  stats_config.bind = *listen;
  stats_config.health = &health;
  stats_config.history = &history;
  stats_config.reactor = &reactor;
  stats_config.dump_path = args.get_or("stats-dump", "");
  stats_config.dump_interval =
      util::from_seconds(args.get_double_or("stats-dump-interval", 10.0));
  stats_config.command_hook = [&aggregator](std::string_view command_line) {
    return aggregator.handle_command(command_line);
  };
  obs::StatsServer server(stats_config, merged);
  if (!server.valid()) {
    std::fprintf(stderr, "cannot bind stats endpoint on %s\n",
                 listen->to_string().c_str());
    return 1;
  }
  if (!reactor.start() || !server.start()) {
    std::fprintf(stderr, "cannot start aggregator loop\n");
    return 1;
  }
  aggregator.start();
  std::printf("statsd serving merged view on %s, scraping %zu endpoints every %.1fs\n",
              server.endpoint().to_string().c_str(), endpoints->size(),
              util::to_seconds(fleet_config.scrape_interval));

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  while (!g_stop) {
    util::SteadyClock::instance().sleep_for(std::chrono::milliseconds(200));
  }

  aggregator.stop();
  server.stop();
  reactor.stop();  // before ~FleetAggregator: scrape callbacks capture it
  std::printf("statsd stopped after %llu admin requests\n",
              static_cast<unsigned long long>(server.requests_served()));
  return 0;
}
