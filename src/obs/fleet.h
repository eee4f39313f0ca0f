// Fleet observability plane (ISSUE 9 tentpole).
//
// Every surface below this file is per-process: one registry, one span
// ring, one health engine per daemon. PR 8 made the deployment a fleet —
// N wizard replicas, a monitor, probes — and "is the cluster healthy?"
// meant hand-polling every stats port. The FleetAggregator is the
// aggregation tier MDS2 argues dominates monitoring at scale: it
// periodically scrapes a configured list of stats endpoints from a reactor
// wheel timer (config-clock driven, so deterministic under
// sim::VirtualClock), parses the JSON snapshots with util::json, and
// maintains a merged view it republishes through a snapshot-time Collector
// on a dedicated registry:
//
//   * counters    summed across instances, reset-compensated: a restarted
//                 daemon's counter rewind is detected (raw < previous raw)
//                 and the pre-restart total is folded into a base, so the
//                 merged series stays monotone across restarts
//   * gauges      kept per-instance under an `instance="host:port"` label
//                 (summing "queue depth" across replicas is meaningless)
//   * histograms  merged with util::merge_latency_summaries (bucket counts
//                 sum exactly, quantiles count-weighted)
//   * fleet_*     rollup series: instances configured/reachable, per-
//                 endpoint up/latency/staleness/failures
//
// Per-endpoint scrape timeouts and circuit breakers mean one wedged daemon
// never stalls a sweep — its fetch times out on its own wheel timer while
// the others complete, and while its breaker is open it is skipped
// entirely (still counted unreachable).
//
// The aggregator also pulls each daemon's span ring (`spans json`) and
// stitches distributed traces: spans grouped by the trace_id that already
// crosses the wire, exported as one Chrome trace with one named process
// lane per daemon (SpanStore::to_stitched_chrome_trace), so a
// client→wizard→transmitter→receiver query renders end-to-end.
//
// smartsock-statsd is the daemon wrapper: a stock StatsServer over the
// merged registry (json|prom|text|health) plus hook verbs (spans, trace,
// fleet) served from here, with cluster health = the stock HealthEngine
// rules evaluated over the merged registry plus the reachability rules
// install_health_rules adds (unreachable replica → degraded, all
// unreachable → critical).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/endpoint.h"
#include "net/reactor.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/retry.h"

namespace smartsock::obs {

/// Parses "a:p,b:p,..." (commas or semicolons, whitespace tolerated) into
/// endpoints — the --scrape/--cluster/SMARTSOCK_FLEET list format, same
/// semantics as the wizard replica list (core/ is above obs/, so the
/// parser lives here). Rejects malformed entries and duplicates with a
/// message in `error`.
std::optional<std::vector<net::Endpoint>> parse_endpoint_list(std::string_view text,
                                                              std::string* error = nullptr);

/// Injects `instance="value"` into a metric name that may already carry a
/// {label="..."} suffix (the registry's raw-label convention; escaping
/// happens at Prometheus exposition). Exposed for the conformance tests.
std::string with_instance_label(std::string_view name, std::string_view instance);

struct FleetConfig {
  /// Stats endpoints to scrape (each daemon's --stats-port).
  std::vector<net::Endpoint> endpoints;
  util::Duration scrape_interval = std::chrono::seconds(2);
  /// Per-endpoint budget for one fetch; a wedged daemon costs a sweep at
  /// most this, concurrently with the healthy endpoints' fetches.
  util::Duration scrape_timeout = std::chrono::milliseconds(500);
  /// An instance is "reachable" while its newest good scrape is younger
  /// than this; zero derives 3x scrape_interval.
  util::Duration stale_after{0};
  /// Per-endpoint scrape breaker: while open the endpoint is skipped
  /// (counted unreachable) instead of re-probed every sweep.
  util::CircuitBreakerConfig breaker{};
  /// Also pull each daemon's span ring (`spans json`) for trace stitching.
  bool scrape_spans = true;
};

class FleetAggregator {
 public:
  /// `reactor` hosts the sweep timer and all scrape I/O; `merged` is the
  /// registry the merged view is published into (the aggregator registers
  /// a snapshot-time collector on it — callers serve that registry through
  /// a stock StatsServer). Both must outlive the aggregator.
  FleetAggregator(FleetConfig config, net::Reactor& reactor,
                  MetricsRegistry& merged);
  ~FleetAggregator();

  FleetAggregator(const FleetAggregator&) = delete;
  FleetAggregator& operator=(const FleetAggregator&) = delete;

  /// Schedules the periodic sweep (first sweep fires immediately). Safe to
  /// call with the reactor running or stepped manually via run_once().
  void start();
  /// Cancels the sweep timer. In-flight fetches complete harmlessly.
  void stop();

  /// Kicks one sweep right now (loop thread, or reactor not running).
  /// No-op while a sweep is still in flight.
  void sweep_now();

  /// Completed sweeps (every endpoint's fetches delivered or skipped) —
  /// the synchronization point for deterministic tests.
  std::uint64_t sweeps_completed() const;

  /// Adds the fleet-reachability rules to `health` (subsystem "fleet"):
  /// any unreachable instance → degraded naming it, all unreachable →
  /// critical. `health` should evaluate the merged registry so the stock
  /// per-subsystem rules see the merged series too.
  void install_health_rules(HealthEngine& health);

  /// Chrome trace with one process lane per instance; empty `trace_id`
  /// exports every scraped span, otherwise just that trace's.
  std::string stitched_trace(std::string_view trace_id = {}) const;

  /// All scraped spans of one trace, lane-labeled. Exposed for tests.
  std::vector<SpanStore::InstanceSpans> find_trace(std::string_view trace_id) const;

  /// Per-instance status table: {"instances":[{"instance":...,"up":...,
  /// "staleness_seconds":...,...}]} — the `fleet` hook verb.
  std::string status_json() const;

  /// Serves the fleet verbs (`spans [json]`, `trace [id]`, `fleet`) for
  /// StatsServerConfig::command_hook; nullopt for anything else.
  std::optional<std::string> handle_command(std::string_view command_line) const;

  std::size_t instances_configured() const { return config_.endpoints.size(); }
  std::size_t instances_reachable() const;

 private:
  struct CounterState {
    std::uint64_t base = 0;      // carried over from pre-restart lifetimes
    std::uint64_t last_raw = 0;  // newest scraped raw value
  };

  struct InstanceState {
    net::Endpoint endpoint;
    std::string label;  // "host:port", the instance label value
    std::unique_ptr<util::CircuitBreaker> breaker;
    bool ever_reached = false;
    std::uint64_t last_success_us = 0;  // config clock, µs
    std::uint64_t last_latency_us = 0;
    std::uint64_t scrapes_total = 0;
    std::uint64_t scrape_failures = 0;
    std::uint64_t counter_resets = 0;
    std::string last_error;
    std::map<std::string, CounterState> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<HistogramStats> histograms;
    std::vector<SpanRecord> spans;  // newest scraped ring contents
  };

  void begin_sweep();                 // loop thread
  void finish_one(std::size_t slot);  // loop thread: one endpoint fully done
  void apply_snapshot(InstanceState& instance, const std::string& body);
  void apply_spans(InstanceState& instance, const std::string& body);
  void collect(Snapshot& snap) const;  // the merged-view collector
  bool reachable_locked(const InstanceState& instance, std::uint64_t now_us) const;
  std::uint64_t clock_now_us() const;

  FleetConfig config_;
  net::Reactor* reactor_;
  MetricsRegistry* merged_;
  std::uint64_t collector_id_ = 0;
  net::PeriodicJob sweep_;

  mutable std::mutex mu_;
  std::vector<InstanceState> instances_;

  // Loop-thread-only sweep bookkeeping.
  std::size_t inflight_ = 0;
  bool sweep_active_ = false;
  std::atomic<std::uint64_t> sweeps_completed_{0};
};

}  // namespace smartsock::obs
