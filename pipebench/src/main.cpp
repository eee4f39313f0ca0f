// pipebench — end-to-end benchmark of the smartsock pipeline.
//
//   pipebench --workload cached_queries|churn_match|report_flood
//             --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics on untraced pipelines; --trace 1
// runs the same workload through a traced pipeline and reports the
// per-layer metrics (METRICS.md lists every name). Either way the run is
// checked by the correctness oracle; a run that fails it prints the
// violation on stderr, no numbers, and exits 1. The last stdout line is the
// result object {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "layers.h"
#include "obs/metrics.h"
#include "pipeline.h"
#include "stats.h"
#include "util/args.h"
#include "workload.h"

namespace {

using namespace smartsock;
using namespace pipebench;

/// Seconds of un-timed load before each measured phase, so requirement
/// caches, lazy allocations and the push cadence are warm.
constexpr double kWarmupSeconds = 1.0;
/// Highest percentile an end-to-end tail is taken at. On a shared virtual
/// machine the top 1–2% of requests are the ones a host stall hit, so a p99
/// moves with the host from run to run; a p95 does not.
constexpr double kEndToEndTailCap = 95.0;
/// Length of one rate step of the capacity search.
constexpr double kCapacityStepSeconds = 0.6;

std::string number(double value) {
  char buffer[64];
  auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  if (ec != std::errc() || !std::isfinite(value)) return "0";
  return std::string(buffer, end);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
  }

  /// Human-readable table, then the one-line result object.
  void print(std::uint64_t attempted, std::uint64_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("  %-36s %16s %s\n", m.name.c_str(), number(m.value).c_str(), m.unit.c_str());
    }
    std::string json = "{\"correct\": true, \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + number(m.value) +
              ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
};

[[noreturn]] void fail(const std::string& why) {
  std::fprintf(stderr, "pipebench: FAILED: %s\n", why.c_str());
  std::exit(1);
}

void check(const PhaseResult& phase, const char* what) {
  if (phase.violation) fail(std::string(what) + ": oracle violation: " + *phase.violation);
}

std::uint64_t counter(const std::string& name) {
  return obs::MetricsRegistry::instance().counter(name)->value();
}

/// Registry counters read around a phase; the deltas are the layer counts.
struct Counters {
  std::uint64_t reply_hits, reply_misses, requirement_hits, requirement_misses;
  std::uint64_t sysmon_reports, sysmon_rejected, sysmon_quarantined, sysmon_batches,
      sysmon_datagrams;

  static Counters read() {
    return Counters{counter("wizard_reply_cache_hits_total"),
                    counter("wizard_reply_cache_misses_total"),
                    counter("wizard_requirement_cache_hits_total"),
                    counter("wizard_requirement_cache_misses_total"),
                    counter("sysmon_reports_total"),
                    counter("sysmon_reports_rejected_total"),
                    counter("sysmon_quarantined_reports_dropped_total"),
                    counter("sysmon_report_batches_total"),
                    counter("sysmon_shard_datagrams_total{shard=\"0\"}")};
  }
};

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

std::vector<double> marker_lags_ms(const PhaseResult& phase) {
  std::vector<double> lags;
  for (const MarkerSample& sample : phase.markers) {
    lags.push_back(ms(sample.reflected_ns - sample.sent_ns));
  }
  return lags;
}

PhaseConfig measured_phase(const WorkloadSpec& spec, double seconds, std::uint64_t seed,
                           bool markers) {
  PhaseConfig config;
  config.seconds = seconds;
  config.query_qps = spec.query_qps;
  config.report_rps = spec.report_rps;
  config.markers = markers;
  config.seed = seed;
  return config;
}

void warm_up(Generator& generator, Pipeline& pipeline, const WorkloadSpec& spec,
             std::uint64_t seed) {
  check(generator.run_phase(pipeline,
                            measured_phase(spec, kWarmupSeconds, seed ^ 0x3a3aull, false)),
        "warm-up");
}

/// Query half of a measured run: the workload's queries and reports, no
/// markers. Every marker invalidates every cached reply, so queries are
/// timed apart from them.
PhaseResult query_half(Generator& generator, Pipeline& pipeline, const WorkloadSpec& spec,
                       double seconds, std::uint64_t seed) {
  PhaseResult phase = generator.run_phase(pipeline, measured_phase(spec, seconds, seed, false));
  check(phase, "query phase");
  return phase;
}

/// Freshness half: the same reports plus the markers, and no queries. Each
/// marker poll is a full match; a query queued ahead of it would add a
/// whole match to the lag as often as not.
PhaseResult fresh_half(Generator& generator, Pipeline& pipeline, const WorkloadSpec& spec,
                       double seconds, std::uint64_t seed) {
  PhaseConfig config = measured_phase(spec, seconds, seed ^ 0xf2e5ull, true);
  config.query_qps = 0;
  PhaseResult phase = generator.run_phase(pipeline, config);
  check(phase, "freshness phase");
  return phase;
}

void print_record(const RunInputs& inputs, const Generator& generator, double seconds,
                  bool traced) {
  const WorkloadSpec& spec = *inputs.spec;
  core::WizardConfig wizard;
  monitor::SystemMonitorConfig monitor;
  std::printf(
      "# pipebench {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"seconds\": %s, "
      "\"nproc\": %u, \"commit\": \"%s\", \"hosts\": %zu, \"report_rps\": %s, "
      "\"query_qps\": %s, \"requirements\": %zu, \"bad_requirements\": %zu, "
      "\"servers_per_query\": %zu, \"marker_period_ms\": %s, \"probe_interval_s\": %s, "
      "\"stale_factor\": %d, \"push_interval_ms\": %s, \"setups\": %d, "
      "\"sut\": {\"monitor_ingest_shards\": %zu, \"monitor_max_batch\": %zu, "
      "\"wizard_ingest_shards\": %zu, \"wizard_handler_threads\": %zu, \"match_threads\": %zu, "
      "\"cache_size\": %zu, \"stores\": \"in-memory\"}, "
      "\"generator\": {\"threads\": %zu, \"sockets\": %zu, \"process\": \"same\"}, "
      "\"core_split\": \"%s\"}\n",
      spec.name, static_cast<unsigned long long>(inputs.seed), traced ? 1 : 0,
      number(seconds).c_str(), std::max(1u, std::thread::hardware_concurrency()),
      obs::build_info().commit.c_str(), spec.hosts, number(spec.report_rps).c_str(),
      number(spec.query_qps).c_str(), spec.requirements, spec.bad_requirements,
      spec.servers_per_query, number(spec.marker_period_ms).c_str(),
      number(kProbeIntervalS).c_str(), kStaleFactor, number(spec.push_interval_ms).c_str(),
      spec.setups, monitor.ingest_shards, monitor.max_batch, wizard.ingest_shards,
      wizard.handler_threads, wizard.match_threads, wizard.cache_size, Generator::kThreads,
      generator.sockets_used(), describe_cpu_split().c_str());
}

/// Sizes of a typical request and reply, for the bare UDP echo.
std::pair<std::size_t, std::size_t> payload_sizes(const RunInputs& inputs) {
  const WorkloadSpec& spec = *inputs.spec;
  core::UserRequest request;
  request.sequence = 1u << 24;
  request.server_num = static_cast<std::uint16_t>(spec.servers_per_query);
  request.detail = inputs.requirements.texts.back();
  core::WizardReply reply;
  reply.sequence = request.sequence;
  reply.version = 100000;
  for (std::size_t i = 1; i <= spec.servers_per_query && i < inputs.fleet.hosts.size(); ++i) {
    reply.servers.push_back(
        core::ServerEntry{inputs.fleet.hosts[i].host, inputs.fleet.hosts[i].address});
  }
  return {request.to_wire().size(), reply.to_wire().size()};
}

int run_untraced(const RunInputs& inputs, double seconds) {
  const WorkloadSpec& spec = *inputs.spec;
  Generator generator(inputs);
  if (!generator.error().empty()) fail(generator.error());

  std::vector<double> setups;
  std::unique_ptr<Pipeline> pipeline;
  for (int i = 0; i < spec.setups; ++i) {
    pipeline.reset();  // one pipeline at a time
    double setup_s = 0;
    std::string error;
    pipeline = generator.boot_and_fill(false, &setup_s, &error);
    if (!pipeline) fail("set-up: " + error);
    setups.push_back(setup_s);
  }
  warm_up(generator, *pipeline, spec, inputs.seed);
  PhaseResult phase = query_half(generator, *pipeline, spec, seconds / 2, inputs.seed);
  PhaseResult fresh_phase = fresh_half(generator, *pipeline, spec, seconds / 2, inputs.seed);
  if (auto bad = generator.quiesce_and_check(*pipeline, nullptr)) fail("quiesce: " + *bad);
  pipeline.reset();

  print_record(inputs, generator, seconds, false);
  std::vector<double> latency = phase.latency_us;
  Summary query = summarize(latency, kEndToEndTailCap);
  std::vector<double> lags = marker_lags_ms(fresh_phase);
  Summary fresh = summarize(lags, kEndToEndTailCap);
  std::vector<double> late = phase.late_us;
  std::printf("# samples: queries %zu (tail p%s, p50 %s us), markers %zu (tail p%s, p50 %s ms, "
              "%llu lost), query_fail_ratio %s of %llu, ingest_loss_ratio %s of %llu, "
              "gen_late_p99_us %s\n",
              query.count, number(query.tail_pct).c_str(), number(query.p50).c_str(), fresh.count,
              number(fresh.tail_pct).c_str(), number(fresh.p50).c_str(),
              static_cast<unsigned long long>(fresh_phase.markers_lost),
              number(Ratio{phase.queries_failed, phase.queries_attempted}.value()).c_str(),
              static_cast<unsigned long long>(phase.queries_attempted),
              number(1.0 - Ratio{phase.reports_landed, phase.reports_sent}.value()).c_str(),
              static_cast<unsigned long long>(phase.reports_sent),
              number(percentile(late, tail_percentile(late.size()))).c_str());
  if (query.count == 0 || fresh.count == 0) fail("no query or marker completed");

  Report report;
  report.add("setup_s", median(setups), "s");
  report.add("query_mean_us", query.mean, "us");
  report.add("query_p95_us", query.tail, "us");
  report.add("query_ok_ratio",
             1.0 - Ratio{phase.queries_failed, phase.queries_attempted}.value(), "ratio");
  report.add("fresh_mean_ms", fresh.mean, "ms");
  report.add("fresh_p95_ms", fresh.tail, "ms");
  report.add("ingest_goodput_rps", static_cast<double>(phase.reports_landed) / phase.elapsed_s,
             "1/s");
  report.add("ingest_landed_ratio", Ratio{phase.reports_landed, phase.reports_sent}.value(),
             "ratio");
  report.add("rss_peak_mb", peak_rss_mb(), "MB");
  report.print(phase.queries_attempted + fresh_phase.queries_attempted +
                   fresh_phase.markers.size() + fresh_phase.markers_lost,
               phase.queries_failed + fresh_phase.queries_failed + fresh_phase.markers_lost);
  return 0;
}

/// Highest rung of a geometric rate ladder at which the tail stays under
/// the workload's limit, nothing fails and the backlog does not grow.
double capacity_search(Generator& generator, Pipeline& pipeline, const WorkloadSpec& spec,
                       std::uint64_t seed) {
  double capacity = 0;
  double rate = spec.query_qps;
  for (int step = 0; step < 8; ++step, rate *= 1.5) {
    PhaseConfig config;
    config.seconds = kCapacityStepSeconds;
    config.query_qps = rate;
    config.report_rps = spec.report_rps;
    config.markers = false;
    config.seed = seed + static_cast<std::uint64_t>(step);
    PhaseResult phase = generator.run_phase(pipeline, config);
    check(phase, "capacity search");
    std::vector<double> latency = phase.latency_us;
    Summary summary = summarize(latency);
    std::vector<double> late = phase.late_us;
    bool generator_kept_up = percentile(late, 99) < spec.latency_limit_us / 2;
    bool pass = phase.queries_failed == 0 && summary.tail < spec.latency_limit_us &&
                !backlog_grows(phase.latency_us, spec.latency_limit_us / 10);
    if (!pass || !generator_kept_up) break;
    capacity = rate;
  }
  return capacity;
}

int run_traced(const RunInputs& inputs, double seconds) {
  const WorkloadSpec& spec = *inputs.spec;
  // An untraced query half for the overhead reference, then a traced
  // query half and a traced freshness half.
  const double quarter = std::max(1.0, seconds / 4);
  auto [request_bytes, reply_bytes] = payload_sizes(inputs);
  // Before the generator opens its sockets: the echo pair is two more.
  double echo_us = udp_echo_p50_us(request_bytes, reply_bytes, 2000);

  Generator generator(inputs);
  if (!generator.error().empty()) fail(generator.error());
  std::string error;
  double setup_s = 0;

  // Untraced reference for the tracing overhead.
  double untraced_p50 = 0;
  {
    auto pipeline = generator.boot_and_fill(false, &setup_s, &error);
    if (!pipeline) fail("set-up: " + error);
    warm_up(generator, *pipeline, spec, inputs.seed);
    PhaseResult phase = query_half(generator, *pipeline, spec, quarter, inputs.seed);
    untraced_p50 = median(phase.latency_us);
  }

  auto pipeline = generator.boot_and_fill(true, &setup_s, &error);
  if (!pipeline) fail("set-up: " + error);
  TimedStore& monitor_store = *pipeline->monitor_timed();
  TimedStore& wizard_store = *pipeline->wizard_timed();
  warm_up(generator, *pipeline, spec, inputs.seed);

  monitor_store.reset();
  wizard_store.reset();
  obs::MetricsRegistry::instance().histogram("wizard_query_latency_us")->reset();
  Counters before = Counters::read();
  std::uint64_t wizard_drops = udp_socket_drops(pipeline->wizard().endpoint().port());
  std::uint64_t monitor_drops = udp_socket_drops(pipeline->monitor().endpoint().port());

  PhaseResult phase = query_half(generator, *pipeline, spec, quarter, inputs.seed);

  Counters after = Counters::read();
  wizard_drops = udp_socket_drops(pipeline->wizard().endpoint().port()) - wizard_drops;
  monitor_drops = udp_socket_drops(pipeline->monitor().endpoint().port()) - monitor_drops;
  const util::LatencyRecorder& handle =
      *obs::MetricsRegistry::instance().histogram("wizard_query_latency_us");
  // The registry's P² sketch is sharper than its ~6.5%-wide buckets where
  // it has an estimate (p50, p99); other tail percentiles walk the buckets.
  const std::uint64_t handle_count = handle.count();
  double handle_tail_pct = tail_percentile(handle_count);
  double handle_p50 = handle.sketch_percentile(50);
  double handle_tail = handle_tail_pct == 99.0 ? handle.sketch_percentile(99)
                                               : handle.percentile(handle_tail_pct);
  std::uint64_t wizard_snapshot_calls = wizard_store.calls(TimedStore::kSnapshot);
  std::uint64_t wizard_snapshot_busy = wizard_store.busy_ns(TimedStore::kSnapshot);
  std::uint64_t wizard_rebuilds = wizard_store.snapshot_rebuilds();
  std::vector<double> wizard_put = wizard_store.put_sys_us();
  std::vector<double> monitor_put = monitor_store.put_sys_us();
  std::uint64_t monitor_puts = monitor_store.calls(TimedStore::kPutSys);

  const std::string sentinel = inputs.fleet.hosts[0].address;
  monitor_store.watch_sys(sentinel);
  wizard_store.watch_sys(sentinel);
  PhaseResult fresh_phase = fresh_half(generator, *pipeline, spec, quarter, inputs.seed);

  // Freshness split: the first monitor-store write of each marker's value
  // after its send, then the first wizard-store write after that.
  std::vector<TimedStore::WatchedWrite> monitor_writes = monitor_store.watched_writes();
  std::vector<TimedStore::WatchedWrite> wizard_writes = wizard_store.watched_writes();
  std::vector<double> to_store, to_wizard, to_reply;
  for (const MarkerSample& sample : fresh_phase.markers) {
    auto first_after = [&](const std::vector<TimedStore::WatchedWrite>& writes,
                           std::uint64_t after) -> std::uint64_t {
      for (const TimedStore::WatchedWrite& write : writes) {
        if (write.at_ns >= after && write.value == marker_value(sample.state)) return write.at_ns;
      }
      return 0;
    };
    std::uint64_t stored = first_after(monitor_writes, sample.sent_ns);
    std::uint64_t replicated = stored ? first_after(wizard_writes, stored) : 0;
    if (!stored || !replicated) fail("freshness split: a reflected marker left no store write");
    double a = ms(stored - sample.sent_ns);
    double b = ms(replicated - stored);
    // Signed: the last segment is computed, not clamped, so the three
    // always sum to the lag exactly.
    double c = (static_cast<double>(sample.reflected_ns) - static_cast<double>(replicated)) / 1e6;
    double lag = ms(sample.reflected_ns - sample.sent_ns);
    if (std::fabs(a + b + c - lag) > 1e-6) fail("freshness split does not sum to the lag");
    to_store.push_back(a);
    to_wizard.push_back(b);
    to_reply.push_back(c);
  }

  ipc::SnapshotPtr final_snapshot;
  if (auto bad = generator.quiesce_and_check(*pipeline, &final_snapshot)) {
    fail("quiesce: " + *bad);
  }
  std::string probe_requirement;
  for (std::size_t i = 0; i < inputs.requirements.texts.size(); ++i) {
    if (inputs.requirements.compiles[i]) probe_requirement = inputs.requirements.texts[i];
  }
  double client_us =
      client_overhead_us(generator, *pipeline, probe_requirement, spec.servers_per_query, 500);
  double capacity = capacity_search(generator, *pipeline, spec, inputs.seed ^ 0xca9ull);
  pipeline.reset();

  MatchCost match = replay_query_layers(*final_snapshot, inputs.requirements,
                                        spec.servers_per_query);
  double parse_ns = report_parse_ns(inputs.reports);
  IngestCost ingest = detached_monitor_ingest(inputs);
  PushCost push = detached_push(*final_snapshot, inputs);

  print_record(inputs, generator, seconds, true);
  std::vector<double> latency = phase.latency_us;
  Summary query = summarize(latency);
  std::vector<double> late = phase.late_us;
  std::vector<double> lags = marker_lags_ms(fresh_phase);
  std::printf("# samples: queries %zu, handle %llu (tail p%s), markers %zu, pushes %llu\n",
              query.count, static_cast<unsigned long long>(handle_count),
              number(handle_tail_pct).c_str(), lags.size(),
              static_cast<unsigned long long>(push.pushes));
  if (query.count == 0 || lags.empty()) fail("no query or marker completed");
  std::uint64_t reply_lookups =
      (after.reply_hits - before.reply_hits) + (after.reply_misses - before.reply_misses);
  std::uint64_t requirement_lookups = (after.requirement_hits - before.requirement_hits) +
                                      (after.requirement_misses - before.requirement_misses);
  std::uint64_t batches = after.sysmon_batches - before.sysmon_batches;
  Summary push_summary = summarize(push.push_us);
  Summary monitor_put_summary = summarize(monitor_put);

  Report report;
  report.add("bench.offered_qps", static_cast<double>(phase.queries_attempted) / phase.elapsed_s,
             "1/s");
  report.add("bench.offered_rps", static_cast<double>(phase.reports_sent) / phase.elapsed_s,
             "1/s");
  report.add("bench.gen_late_p99_us", percentile(late, tail_percentile(late.size())), "us");
  report.add("bench.traced_query_p50_us", query.p50, "us");
  report.add("net.udp_echo_p50_us", echo_us, "us");
  report.add("net.wizard_kernel_drops", static_cast<double>(wizard_drops), "count");
  report.add("net.monitor_kernel_drops", static_cast<double>(monitor_drops), "count");
  report.add("core.handle_p50_us", handle_p50, "us");
  report.add("core.handle_p99_us", handle_tail, "us");
  report.add("core.queue_us", query.p50 - handle_p50 - echo_us, "us");
  report.add("core.reply_cache_hit_ratio",
             Ratio{after.reply_hits - before.reply_hits, reply_lookups}.value(), "ratio");
  report.add("core.reply_cache_lookups", static_cast<double>(reply_lookups), "count");
  report.add("core.requirement_cache_hit_ratio",
             Ratio{after.requirement_hits - before.requirement_hits, requirement_lookups}.value(),
             "ratio");
  report.add("core.requirement_cache_lookups", static_cast<double>(requirement_lookups), "count");
  report.add("core.match_us", match.match_us, "us");
  report.add("core.match_ns_per_record", match.ns_per_record, "ns");
  report.add("core.wire_ns", match.wire_ns, "ns");
  report.add("core.client_overhead_us", client_us, "us");
  report.add("core.query_capacity_qps", capacity, "1/s");
  report.add("core.store_to_reply_ms", median(to_reply), "ms");
  report.add("lang.compile_us", match.compile_us, "us");
  report.add("ipc.wizard_snapshot_calls", static_cast<double>(wizard_snapshot_calls), "count");
  report.add("ipc.wizard_snapshot_rebuilds", static_cast<double>(wizard_rebuilds), "count");
  report.add("ipc.wizard_snapshot_us",
             wizard_snapshot_calls == 0
                 ? 0.0
                 : static_cast<double>(wizard_snapshot_busy) / 1e3 /
                       static_cast<double>(wizard_snapshot_calls),
             "us");
  report.add("ipc.wizard_put_us", median(wizard_put), "us");
  report.add("ipc.monitor_puts", static_cast<double>(monitor_puts), "count");
  report.add("ipc.monitor_put_p50_us", monitor_put_summary.p50, "us");
  report.add("ipc.monitor_put_p99_us", monitor_put_summary.tail, "us");
  report.add("monitor.reports_ingested",
             static_cast<double>(after.sysmon_reports - before.sysmon_reports), "count");
  report.add("monitor.reports_rejected",
             static_cast<double>((after.sysmon_rejected - before.sysmon_rejected) +
                                 (after.sysmon_quarantined - before.sysmon_quarantined)),
             "count");
  report.add("monitor.batch_mean",
             batches == 0 ? 0.0
                          : static_cast<double>(after.sysmon_datagrams - before.sysmon_datagrams) /
                                static_cast<double>(batches),
             "count");
  report.add("monitor.parse_ns", parse_ns, "ns");
  report.add("monitor.ingest_us_per_report", ingest.us_per_report, "us");
  report.add("monitor.report_to_store_ms", median(to_store), "ms");
  report.add("transport.push_p50_us", push_summary.p50, "us");
  report.add("transport.push_p99_us", push_summary.tail, "us");
  report.add("transport.bytes_per_push", push.bytes_per_push, "B");
  report.add("transport.delta_push_ratio", Ratio{push.delta_pushes, push.pushes}.value(),
             "ratio");
  report.add("transport.monitor_to_wizard_ms", median(to_wizard), "ms");
  report.add("obs.trace_overhead_pct",
             untraced_p50 > 0 ? 100.0 * (query.p50 - untraced_p50) / untraced_p50 : 0.0, "%");
  report.print(phase.queries_attempted + fresh_phase.queries_attempted +
                   fresh_phase.markers.size() + fresh_phase.markers_lost,
               phase.queries_failed + fresh_phase.queries_failed + fresh_phase.markers_lost);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Args args(argc, argv, {"workload", "seed", "seconds", "trace"});
  const WorkloadSpec* spec = find_workload(args.get_or("workload", ""));
  if (!args.ok() || spec == nullptr) {
    std::fprintf(stderr,
                 "usage: pipebench --workload cached_queries|churn_match|report_flood "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  auto seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));
  double seconds = std::clamp(args.get_double_or("seconds", 10.0), 1.0, 60.0);
  bool traced = args.get_int_or("trace", 0) != 0;
  // The daemons' warnings (e.g. a malformed report) go to stderr; keep
  // stdout for the record, the table and the result line.
  pin_to_generator_cpu();
  RunInputs inputs = make_inputs(*spec, seed, seconds);
  return traced ? run_traced(inputs, seconds) : run_untraced(inputs, seconds);
}
