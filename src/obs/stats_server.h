// Live stats / introspection endpoint (ISSUE 2 tentpole, part 3; flight
// recorder commands added by ISSUE 4; reactor-hosted since ISSUE 6).
//
// Every daemon can serve its MetricsRegistry snapshot over a TCP admin port
// (the NEOS-style administrative status interface). Protocol: the client
// connects, sends one command line, and the server writes the rendered
// answer and closes. Commands:
//
//   json | prom | text          metrics snapshot (empty line/EOF = json)
//   health [text]               HealthEngine report (needs config.health)
//   history <metric> [seconds]  windowed time series (needs config.history)
//   spans [json]                span-ring summary (json: full records)
//   trace [id]                  Chrome trace_event JSON, whole ring or one trace
//   profile <seconds> [cpu|wall] [trace]
//                               sampling-profiler session (ISSUE 7): folded
//                               stacks (or Chrome trace JSON with `trace`);
//                               bounded at 30 s, one session at a time. On
//                               the reactor path the session runs off a loop
//                               timer so the event loop keeps serving.
//
// `smartsock_stats` is the matching CLI.
//
// Since ISSUE 6 the served side runs on a net::Reactor: started servers
// multiplex every admin client on one event loop (their own, or a shared
// per-daemon loop via config.reactor) instead of serving connections one at
// a time, and the command/write deadlines are loop timers.
//
// The same loop runs the server's periodic work: it samples the
// config.history recorder at start and then every recorder interval, and
// optionally appends a compact JSON snapshot line to a file every
// `dump_interval` (JSONL, one object per line) so the cluster harness can
// post-mortem a run without having polled the port.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>

#include "net/reactor.h"
#include "net/tcp_listener.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "util/clock.h"

namespace smartsock::obs {

struct StatsServerConfig {
  net::Endpoint bind = net::Endpoint::loopback(0);  // port 0 = ephemeral
  /// How long to wait for the client's command line before defaulting.
  /// Also the overall deadline for reading it: a client dripping one byte
  /// per timeout window cannot hold the stats thread past ~2x this value.
  util::Duration command_timeout = std::chrono::milliseconds(500);
  /// Send timeout for writing the snapshot, so a client that connects and
  /// never reads cannot wedge the stats thread behind a full socket buffer.
  util::Duration io_timeout = std::chrono::seconds(2);
  /// Periodic snapshot-to-file: both must be set to enable.
  util::Duration dump_interval{0};
  std::string dump_path;
  /// Flight-recorder surfaces (ISSUE 4). `spans` defaults to the process
  /// ring; `history`/`health` are opt-in because they carry their own
  /// state — a null pointer turns the command into a JSON error. A started
  /// server samples `history` on its loop.
  SpanStore* spans = &SpanStore::instance();
  TimeSeriesRecorder* history = nullptr;
  HealthEngine* health = nullptr;
  /// Shared per-daemon event loop; null = the server runs its own reactor.
  net::Reactor* reactor = nullptr;
  /// Extra verbs (ISSUE 9): consulted before the built-in dispatch; a
  /// returned body answers the command, nullopt falls through. Lets the
  /// fleet aggregator serve stitched traces and fleet status through a
  /// stock server without this class knowing about fleets. Runs on
  /// whichever thread serves the command (the loop thread for started
  /// servers) — must not block.
  std::function<std::optional<std::string>(std::string_view command_line)> command_hook;
};

class StatsServer {
 public:
  explicit StatsServer(StatsServerConfig config,
                       MetricsRegistry& registry = MetricsRegistry::instance());
  ~StatsServer();

  StatsServer(const StatsServer&) = delete;
  StatsServer& operator=(const StatsServer&) = delete;

  /// The TCP endpoint clients fetch snapshots from (resolved after bind).
  net::Endpoint endpoint() const { return endpoint_; }
  bool valid() const { return listener_.valid(); }

  bool start();
  void stop();

  /// Appends one compact snapshot line to `dump_path` now. Returns false if
  /// no dump path is configured or the file cannot be opened.
  bool dump_now();

  /// Renders the reply body for one command line (what a client is sent).
  /// Exposed so tests can exercise the protocol without a socket.
  std::string render(std::string_view command_line);

  std::uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  struct ClientState;

  void on_client(net::TcpSocket socket);        // loop thread
  void on_client_data(net::Connection& client);  // loop thread
  void reply(net::Connection& client, ClientState& state);

  StatsServerConfig config_;
  MetricsRegistry* registry_;
  net::TcpListener listener_;
  net::Endpoint endpoint_;

  std::unique_ptr<net::Reactor> own_reactor_;
  net::Reactor* reactor_ = nullptr;  // non-null while started
  net::ListenerId listener_id_ = 0;
  net::TimerId dump_timer_ = 0;
  net::PeriodicJob history_;  // samples config_.history
  std::unordered_set<net::Connection*> clients_;  // loop-thread-only

  std::atomic<std::uint64_t> requests_served_{0};
};

}  // namespace smartsock::obs
