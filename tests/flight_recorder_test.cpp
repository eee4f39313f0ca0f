// Flight recorder tests (ISSUE 4): P² quantile sketch accuracy, the span
// ring (wraparound + concurrent writers) and its Chrome trace export, trace
// reconstruction of a real client→wizard query and of replication pushes
// and pulls, metric time-series history on a virtual clock, the health/SLO
// engine's degraded→ok transitions, the new StatsServer commands, and span
// line quoting edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/smart_client.h"
#include "core/wizard.h"
#include "ipc/in_memory_store.h"
#include "log_capture.h"
#include "net/tcp_socket.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/stats_server.h"
#include "obs/timeseries.h"
#include "sim/virtual_clock.h"
#include "transport/receiver.h"
#include "transport/transmitter.h"
#include "util/quantile.h"
#include "util/rng.h"

namespace smartsock {
namespace {

using namespace std::chrono_literals;

bool braces_balanced(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    if (depth < 0) return false;
  }
  return depth == 0 && !in_string;
}

// --- P² quantile sketch ------------------------------------------------------

TEST(P2Quantile, ExactForSmallStreams) {
  util::P2Quantile median(0.5);
  EXPECT_EQ(median.value(), 0.0);  // empty
  median.add(30);
  median.add(10);
  EXPECT_EQ(median.count(), 2u);
  median.add(20);
  // Fewer than 5 observations: the estimate comes from the sorted buffer.
  EXPECT_DOUBLE_EQ(median.value(), 20.0);
}

TEST(P2Quantile, TracksUniformStreamWithin5Percent) {
  util::Rng rng(42);
  std::vector<double> samples;
  util::P2Quantile p50(0.50), p90(0.90), p99(0.99);
  for (int i = 0; i < 20000; ++i) {
    double x = rng.uniform(0.0, 1000.0);
    samples.push_back(x);
    p50.add(x);
    p90.add(x);
    p99.add(x);
  }
  std::sort(samples.begin(), samples.end());
  auto exact = [&](double q) { return samples[static_cast<std::size_t>(q * (samples.size() - 1))]; };
  EXPECT_NEAR(p50.value(), exact(0.50), exact(0.50) * 0.05);
  EXPECT_NEAR(p90.value(), exact(0.90), exact(0.90) * 0.05);
  EXPECT_NEAR(p99.value(), exact(0.99), exact(0.99) * 0.05);
}

TEST(P2Quantile, TracksSkewedStream) {
  // Latency-shaped: lognormal-ish heavy tail via exp of a uniform square.
  util::Rng rng(7);
  std::vector<double> samples;
  util::P2Quantile p99(0.99);
  for (int i = 0; i < 50000; ++i) {
    double u = rng.uniform(0.0, 1.0);
    double x = 50.0 + 5000.0 * u * u * u * u;  // most small, few huge
    samples.push_back(x);
    p99.add(x);
  }
  std::sort(samples.begin(), samples.end());
  double exact = samples[static_cast<std::size_t>(0.99 * (samples.size() - 1))];
  EXPECT_NEAR(p99.value(), exact, exact * 0.05);
}

TEST(QuantileSketch, SnapshotPercentileAndReset) {
  util::QuantileSketch sketch;
  for (int i = 1; i <= 1000; ++i) sketch.add(static_cast<double>(i));
  util::QuantileSketch::Values values = sketch.snapshot();
  EXPECT_EQ(values.count, 1000u);
  EXPECT_NEAR(values.p50, 500, 50);
  EXPECT_NEAR(values.p90, 900, 50);
  EXPECT_NEAR(values.p99, 990, 50);
  // percentile() maps to the nearest tracked quantile.
  EXPECT_DOUBLE_EQ(sketch.percentile(50), values.p50);
  EXPECT_DOUBLE_EQ(sketch.percentile(90), values.p90);
  EXPECT_DOUBLE_EQ(sketch.percentile(99), values.p99);
  sketch.reset();
  EXPECT_EQ(sketch.snapshot().count, 0u);
  EXPECT_EQ(sketch.snapshot().p99, 0.0);
}

TEST(QuantileSketch, FeedsHistogramSnapshotPercentiles) {
  // The registry's histogram percentiles are the recorder's sketch values.
  obs::MetricsRegistry registry;
  obs::Histogram* latency = registry.histogram("lat_us");
  for (int i = 1; i <= 100; ++i) latency->record_us(static_cast<double>(i));
  obs::Snapshot snap = registry.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const obs::HistogramStats& stats = snap.histograms[0];
  EXPECT_EQ(stats.count, 100u);
  EXPECT_NEAR(stats.p50_us, 50, 10);
  EXPECT_NEAR(stats.p99_us, 99, 10);
  EXPECT_GT(stats.p99_us, stats.p50_us);
}

// --- span store --------------------------------------------------------------

obs::SpanRecord make_span(obs::SpanStore& store, const std::string& trace,
                          const std::string& name) {
  obs::SpanRecord span;
  span.trace_id = trace;
  span.span_id = store.next_span_id();
  span.component = "test";
  span.name = name;
  span.start_us = span.span_id;  // deterministic ordering key
  return span;
}

TEST(SpanStore, RecordsAndSnapshotsInOrder) {
  obs::SpanStore store(16);
  for (int i = 0; i < 5; ++i) {
    store.record(make_span(store, "aaaa", "s" + std::to_string(i)));
  }
  std::vector<obs::SpanRecord> spans = store.snapshot();
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_EQ(spans.front().name, "s0");
  EXPECT_EQ(spans.back().name, "s4");
  EXPECT_EQ(store.recorded(), 5u);
  EXPECT_EQ(store.dropped(), 0u);
}

TEST(SpanStore, WraparoundKeepsNewestCapacitySpans) {
  obs::SpanStore store(8);
  for (int i = 0; i < 30; ++i) {
    store.record(make_span(store, "bbbb", "s" + std::to_string(i)));
  }
  std::vector<obs::SpanRecord> spans = store.snapshot();
  ASSERT_EQ(spans.size(), 8u);
  // The ring keeps the newest 8, oldest first.
  EXPECT_EQ(spans.front().name, "s22");
  EXPECT_EQ(spans.back().name, "s29");
  EXPECT_EQ(store.recorded(), 30u);

  store.clear();
  EXPECT_TRUE(store.snapshot().empty());
}

TEST(SpanStore, ConcurrentWritersNeverBlockOrCrash) {
  obs::SpanStore store(64);
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        obs::SpanRecord span;
        span.trace_id = "cccc";
        span.span_id = store.next_span_id();
        span.component = "writer" + std::to_string(t);
        span.name = "s";
        store.record(std::move(span));
      }
    });
  }
  // A reader racing the writers must only ever see fully-written spans.
  std::atomic<bool> done{false};
  std::thread reader([&store, &done] {
    while (!done.load()) {
      for (const obs::SpanRecord& span : store.snapshot()) {
        ASSERT_EQ(span.trace_id, "cccc");
        ASSERT_FALSE(span.component.empty());
      }
    }
  });
  for (auto& thread : threads) thread.join();
  done.store(true);
  reader.join();

  EXPECT_EQ(store.recorded(), static_cast<std::uint64_t>(kThreads * kSpansPerThread));
  std::vector<obs::SpanRecord> spans = store.snapshot();
  EXPECT_LE(spans.size(), store.capacity());
  // Contended slots drop rather than block; the ledger must still balance.
  EXPECT_LE(store.dropped(), store.recorded());
}

TEST(Span, RaiiRecordsWithTagsAndParent) {
  obs::SpanStore store(16);
  std::uint64_t parent_id = 0;
  {
    obs::Span parent("client", "query", "dddd00000000dddd", 0, store);
    parent_id = parent.id();
    parent.tag("requested", 3u).tag("mode", "strict");
    {
      obs::Span child("client", "connect", "dddd00000000dddd", parent.id(), store);
      child.tag("ratio", 0.5).tag("ok", true);
    }
    // end() is idempotent; later tags are dropped.
    parent.end();
    parent.end();
    parent.tag("late", "ignored");
  }
  std::vector<obs::SpanRecord> spans = store.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // The child ends (and records) first.
  EXPECT_EQ(spans[0].name, "connect");
  EXPECT_EQ(spans[0].parent_id, parent_id);
  EXPECT_EQ(spans[1].name, "query");
  EXPECT_EQ(spans[1].parent_id, 0u);
  ASSERT_EQ(spans[1].tags.size(), 2u);  // "late" was dropped
  EXPECT_EQ(spans[1].tags[0].first, "requested");
  EXPECT_EQ(spans[1].tags[0].second, "3");
  EXPECT_EQ(spans[1].tags[1].second, "strict");
  EXPECT_EQ(spans[0].tags[0].second, "0.5");
  EXPECT_EQ(spans[0].tags[1].second, "true");
}

TEST(SpanStore, FindTraceFiltersById) {
  obs::SpanStore store(16);
  store.record(make_span(store, "1111111111111111", "a"));
  store.record(make_span(store, "2222222222222222", "b"));
  store.record(make_span(store, "1111111111111111", "c"));
  std::vector<obs::SpanRecord> trace = store.find_trace("1111111111111111");
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].name, "a");
  EXPECT_EQ(trace[1].name, "c");
  EXPECT_TRUE(store.find_trace("3333333333333333").empty());
}

// --- Chrome trace export -----------------------------------------------------

TEST(ChromeTrace, ExportsWellFormedEventsWithEscaping) {
  obs::SpanStore store(16);
  {
    obs::Span span("wizard", "handle", "eeee0000eeee0000", 0, store);
    // Tag values exercising the JSON escaper: embedded quote, newline,
    // backslash and whitespace.
    span.tag("quoted", "say \"hi\"");
    span.tag("multiline", std::string_view("a\nb"));
    span.tag("path", "C:\\tmp");
    span.tag("spaced", "two words");
  }
  std::string json =
      obs::SpanStore::to_stitched_chrome_trace({{"wizard-lane", store.snapshot()}});
  EXPECT_TRUE(braces_balanced(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);  // thread_name metadata
  EXPECT_NE(json.find("\"name\": \"wizard\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"wizard-lane\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\": \"eeee0000eeee0000\""), std::string::npos);
  // Escapes: " -> \",  newline -> \n,  backslash -> \\.
  EXPECT_NE(json.find("say \\\"hi\\\""), std::string::npos) << json;
  EXPECT_NE(json.find("a\\nb"), std::string::npos) << json;
  EXPECT_NE(json.find("C:\\\\tmp"), std::string::npos) << json;
  EXPECT_NE(json.find("two words"), std::string::npos);
  // No raw newline may survive inside any string literal.
  EXPECT_EQ(json.find("a\nb"), std::string::npos);
}

TEST(ChromeTrace, EmptyStoreStillValidJson) {
  std::string json = obs::SpanStore::to_stitched_chrome_trace({});
  EXPECT_TRUE(braces_balanced(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

// --- end-to-end trace reconstruction ----------------------------------------

void populate_store(ipc::InMemoryStatusStore& store, std::size_t hosts) {
  std::vector<ipc::SysRecord> sys(hosts);
  std::vector<ipc::SecRecord> sec(hosts);
  for (std::size_t i = 0; i < hosts; ++i) {
    std::string host = "host" + std::to_string(i);
    ipc::copy_fixed(sys[i].host, ipc::kHostNameLen, host);
    ipc::copy_fixed(sys[i].address, ipc::kAddressLen, "127.0.0.1:500" + std::to_string(i));
    sys[i].load1 = 0.5;
    sys[i].cpu_idle = 0.9;
    sys[i].mem_total_mb = 1024;
    sys[i].mem_free_mb = 512;
    ipc::copy_fixed(sec[i].host, ipc::kHostNameLen, host);
    sec[i].level = 1;
  }
  store.replace_sys(sys);
  store.replace_sec(sec);
}

TEST(FlightRecorder, ReconstructsClientWizardQueryAsOneTrace) {
  obs::SpanStore::instance().clear();

  ipc::InMemoryStatusStore store;
  populate_store(store, 2);
  core::WizardConfig wizard_config;
  core::Wizard wizard(wizard_config, store);
  ASSERT_TRUE(wizard.valid()) << wizard.bind_error();
  ASSERT_TRUE(wizard.start());

  core::SmartClientConfig client_config;
  client_config.wizard = wizard.endpoint();
  client_config.seed = 99;
  core::SmartClient client(client_config);
  ASSERT_TRUE(client.valid());

  core::WizardReply reply = client.query("host_system_load1 < 4\n", 1);
  wizard.stop();
  ASSERT_TRUE(reply.ok) << reply.error;

  // The client span carries the minted id; every wizard-side hop of this
  // query must be retrievable under the same id.
  std::vector<obs::SpanRecord> all = obs::SpanStore::instance().snapshot();
  std::string trace_id;
  for (const obs::SpanRecord& span : all) {
    if (span.component == "smart_client" && span.name == "query") trace_id = span.trace_id;
  }
  ASSERT_EQ(trace_id.size(), 16u);

  std::vector<obs::SpanRecord> trace = obs::SpanStore::instance().find_trace(trace_id);
  auto find = [&](const char* component, const char* name) -> const obs::SpanRecord* {
    for (const obs::SpanRecord& span : trace) {
      if (span.component == component && span.name == name) return &span;
    }
    return nullptr;
  };
  const obs::SpanRecord* query = find("smart_client", "query");
  const obs::SpanRecord* request = find("wizard", "request");
  const obs::SpanRecord* handle = find("wizard", "handle");
  const obs::SpanRecord* match = find("wizard", "match");
  ASSERT_NE(query, nullptr);
  ASSERT_NE(request, nullptr);
  ASSERT_NE(handle, nullptr);
  ASSERT_NE(match, nullptr);
  // Parent links nest the wizard's work: request -> handle -> match.
  EXPECT_EQ(handle->parent_id, request->span_id);
  EXPECT_EQ(match->parent_id, handle->span_id);
  // The client's query wraps the wizard's handling in wall-clock time.
  EXPECT_GE(query->duration_us, handle->duration_us);

  // The Chrome export of this trace is valid JSON naming every hop.
  std::string json = obs::SpanStore::to_stitched_chrome_trace({{"client+wizard", trace}});
  EXPECT_TRUE(braces_balanced(json)) << json;
  for (const char* needle : {"smart_client", "\"query\"", "\"request\"", "\"handle\"",
                             "\"match\"", "thread_name"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << "missing " << needle;
  }
}

// --- time series -------------------------------------------------------------

TEST(TimeSeries, FoldsSamplesIntoWindows) {
  obs::MetricsRegistry registry;
  obs::Counter* requests = registry.counter("requests_total");
  obs::Gauge* depth = registry.gauge("queue_depth");
  obs::Histogram* latency = registry.histogram("wizard_query_latency_us");

  sim::VirtualClock clock;
  obs::TimeSeriesConfig config;
  config.interval = 1s;
  config.capacity = 600;
  obs::TimeSeriesRecorder recorder(config, registry, clock);

  // 6 samples at t = 0..5 s: counter grows 10/s, gauge wanders, histogram
  // accumulates latency samples.
  for (int t = 0; t < 6; ++t) {
    requests->inc(10);
    depth->set(static_cast<double>(t));
    latency->record_us(100.0 + 10.0 * t);
    recorder.sample_once();
    clock.advance(1s);
  }
  EXPECT_EQ(recorder.samples_taken(), 6u);

  // 2 s windows over 6 seconds of history => 3 windows.
  obs::TimeSeriesRecorder::History history = recorder.history("requests_total", 2s);
  ASSERT_TRUE(history.found);
  EXPECT_EQ(history.kind, obs::TimeSeriesRecorder::Kind::kCounter);
  ASSERT_GE(history.windows.size(), 2u);
  EXPECT_EQ(history.windows.size(), 3u);
  const auto& w0 = history.windows[0];
  EXPECT_EQ(w0.samples, 2u);
  EXPECT_DOUBLE_EQ(w0.min, 10.0);
  EXPECT_DOUBLE_EQ(w0.max, 20.0);
  // 10 more requests over the 1 s between the window's two samples.
  EXPECT_NEAR(w0.rate_per_sec, 10.0, 1e-9);

  obs::TimeSeriesRecorder::History gauges = recorder.history("queue_depth", 2s);
  ASSERT_TRUE(gauges.found);
  EXPECT_EQ(gauges.kind, obs::TimeSeriesRecorder::Kind::kGauge);
  EXPECT_DOUBLE_EQ(gauges.windows.back().last, 5.0);

  obs::TimeSeriesRecorder::History lat = recorder.history("wizard_query_latency_us", 2s);
  ASSERT_TRUE(lat.found);
  EXPECT_EQ(lat.kind, obs::TimeSeriesRecorder::Kind::kHistogram);
  ASSERT_GE(lat.windows.size(), 2u);
  // Each window carries the sketch tail at its newest sample.
  EXPECT_GT(lat.windows.back().p50, 0.0);
  EXPECT_GE(lat.windows.back().p99, lat.windows.back().p50);

  std::string json = lat.to_json();
  EXPECT_TRUE(braces_balanced(json)) << json;
  EXPECT_NE(json.find("\"found\": true"), std::string::npos);
  EXPECT_NE(json.find("\"p99_us\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"histogram\""), std::string::npos);

  // Unknown metric: found=false error body, still valid JSON.
  obs::TimeSeriesRecorder::History missing = recorder.history("nope", 2s);
  EXPECT_FALSE(missing.found);
  std::string missing_json = missing.to_json();
  EXPECT_TRUE(braces_balanced(missing_json));
  EXPECT_NE(missing_json.find("\"found\": false"), std::string::npos);
}

TEST(TimeSeries, RingDropsOldestBeyondCapacity) {
  obs::MetricsRegistry registry;
  obs::Gauge* gauge = registry.gauge("g");
  sim::VirtualClock clock;
  obs::TimeSeriesConfig config;
  config.interval = 1s;
  config.capacity = 4;
  obs::TimeSeriesRecorder recorder(config, registry, clock);
  for (int t = 0; t < 10; ++t) {
    gauge->set(static_cast<double>(t));
    recorder.sample_once();
    clock.advance(1s);
  }
  // Only the newest 4 points (values 6..9) survive; windows of 100 s fold
  // them into one.
  obs::TimeSeriesRecorder::History history = recorder.history("g", 100s);
  ASSERT_TRUE(history.found);
  ASSERT_EQ(history.windows.size(), 1u);
  EXPECT_EQ(history.windows[0].samples, 4u);
  EXPECT_DOUBLE_EQ(history.windows[0].min, 6.0);
  EXPECT_DOUBLE_EQ(history.windows[0].last, 9.0);
}

std::string fetch_stats(const net::Endpoint& endpoint, const std::string& command);

TEST(TimeSeries, StatsServerSamplesOnItsLoop) {
  obs::MetricsRegistry registry;
  registry.counter("ticks")->inc();
  obs::TimeSeriesConfig config;
  config.interval = std::chrono::milliseconds(10);
  obs::TimeSeriesRecorder recorder(config, registry);
  obs::Histogram* site = obs::MetricsRegistry::instance().histogram(
      "reactor_callback_us{site=\"stats_history\"}");
  std::uint64_t site_before = site->count();

  obs::StatsServerConfig stats_config;
  stats_config.history = &recorder;
  obs::StatsServer server(stats_config, registry);
  ASSERT_TRUE(server.valid());
  ASSERT_TRUE(server.start());
  for (int i = 0; i < 100 && recorder.samples_taken() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::string history = fetch_stats(server.endpoint(), "history ticks 1\n");
  server.stop();
  std::uint64_t taken = recorder.samples_taken();
  EXPECT_GE(taken, 3u);
  EXPECT_TRUE(recorder.history("ticks", 1s).found);
  // The periodic samples ran as the server loop's stats_history timer, and
  // the history verb serves them.
  EXPECT_GE(site->count() - site_before, 2u);
  EXPECT_NE(history.find("\"found\": true"), std::string::npos) << history;
  EXPECT_NE(history.find("\"start_us\""), std::string::npos) << history;

  // Stopping the server stops the sampling.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(recorder.samples_taken(), taken);
}

// --- health engine -----------------------------------------------------------

TEST(Health, EmptyRegistryIsSilentlyOk) {
  obs::MetricsRegistry registry;
  obs::HealthEngine engine(registry);
  obs::HealthReport report = engine.evaluate();
  EXPECT_EQ(report.overall, obs::HealthLevel::kOk);
  EXPECT_TRUE(report.subsystems.empty());  // nothing applicable
  std::string json = report.to_json();
  EXPECT_TRUE(braces_balanced(json)) << json;
  EXPECT_NE(json.find("\"overall\": \"ok\""), std::string::npos);
}

TEST(Health, StaleWizardDegradesThenRecovers) {
  obs::MetricsRegistry registry;
  obs::Gauge* degraded = registry.gauge("wizard_degraded");
  registry.counter("wizard_stale_replies_total")->inc();
  obs::HealthEngine engine(registry);

  degraded->set(1);
  obs::HealthReport stale = engine.evaluate();
  EXPECT_EQ(stale.overall, obs::HealthLevel::kDegraded);
  ASSERT_EQ(stale.subsystems.size(), 1u);
  EXPECT_EQ(stale.subsystems[0].name, "wizard");
  ASSERT_FALSE(stale.subsystems[0].reasons.empty());
  EXPECT_NE(stale.subsystems[0].reasons[0].find("stale"), std::string::npos);
  EXPECT_NE(stale.to_json().find("\"degraded\""), std::string::npos);

  // Feed recovers: the very next evaluation is clean.
  degraded->set(0);
  obs::HealthReport recovered = engine.evaluate();
  EXPECT_EQ(recovered.overall, obs::HealthLevel::kOk);
  ASSERT_EQ(recovered.subsystems.size(), 1u);
  EXPECT_TRUE(recovered.subsystems[0].reasons.empty());
}

TEST(Health, LatencyP99Thresholds) {
  obs::MetricsRegistry registry;
  obs::Histogram* latency = registry.histogram("wizard_query_latency_us");
  obs::HealthThresholds thresholds;
  thresholds.latency_p99_degraded_us = 1000;
  thresholds.latency_p99_critical_us = 100000;
  obs::HealthEngine engine(registry, thresholds);

  for (int i = 0; i < 100; ++i) latency->record_us(100.0);
  EXPECT_EQ(engine.evaluate().overall, obs::HealthLevel::kOk);

  for (int i = 0; i < 1000; ++i) latency->record_us(50000.0);
  obs::HealthReport slow = engine.evaluate();
  EXPECT_EQ(slow.overall, obs::HealthLevel::kDegraded) << slow.to_text();

  for (int i = 0; i < 10000; ++i) latency->record_us(900000.0);
  obs::HealthReport critical = engine.evaluate();
  EXPECT_EQ(critical.overall, obs::HealthLevel::kCritical) << critical.to_text();
}

TEST(Health, BreakerStateAndQuarantine) {
  obs::MetricsRegistry registry;
  obs::Gauge* breaker = registry.gauge("transmitter_breaker_state");
  obs::Gauge* quarantined = registry.gauge("sysmon_quarantined_hosts");
  obs::HealthEngine engine(registry);

  breaker->set(0);
  quarantined->set(0);
  EXPECT_EQ(engine.evaluate().overall, obs::HealthLevel::kOk);

  breaker->set(1);  // open
  obs::HealthReport open = engine.evaluate();
  EXPECT_EQ(open.overall, obs::HealthLevel::kCritical);

  breaker->set(2);  // half-open
  quarantined->set(3);
  obs::HealthReport probing = engine.evaluate();
  EXPECT_EQ(probing.overall, obs::HealthLevel::kDegraded);
  // Both transport and sysmon report reasons.
  EXPECT_EQ(probing.subsystems.size(), 2u);
}

TEST(Health, CounterDeltasDegradeOnlyWhileMoving) {
  obs::MetricsRegistry registry;
  obs::Counter* malformed = registry.counter("receiver_malformed_frames_total");
  obs::HealthEngine engine(registry);

  // First evaluation is the baseline: an already-nonzero total is history,
  // not a fresh fault.
  malformed->inc(5);
  EXPECT_EQ(engine.evaluate().overall, obs::HealthLevel::kOk);

  malformed->inc(2);
  obs::HealthReport moving = engine.evaluate();
  EXPECT_EQ(moving.overall, obs::HealthLevel::kDegraded);
  ASSERT_FALSE(moving.subsystems.empty());
  EXPECT_NE(moving.to_text().find("2 malformed"), std::string::npos)
      << moving.to_text();

  // No further movement: healthy again.
  EXPECT_EQ(engine.evaluate().overall, obs::HealthLevel::kOk);
}

TEST(Health, SysdbRecordAgeRules) {
  obs::MetricsRegistry registry;
  std::uint64_t collector = registry.add_collector([](obs::Snapshot& snap) {
    snap.gauges.emplace_back("sysdb_record_age_seconds{host=\"alpha\"}", 5.0);
    snap.gauges.emplace_back("sysdb_record_age_seconds{host=\"beta\"}", 45.0);
  });
  obs::HealthEngine engine(registry);
  obs::HealthReport report = engine.evaluate();
  EXPECT_EQ(report.overall, obs::HealthLevel::kDegraded);
  bool found = false;
  for (const auto& subsystem : report.subsystems) {
    if (subsystem.name != "sysdb") continue;
    found = true;
    ASSERT_FALSE(subsystem.reasons.empty());
    // The oldest host is named in the reason.
    EXPECT_NE(subsystem.reasons[0].find("beta"), std::string::npos)
        << subsystem.reasons[0];
  }
  EXPECT_TRUE(found);
  registry.remove_collector(collector);
}

TEST(Health, CustomChecksJoinTheRollup) {
  obs::MetricsRegistry registry;
  registry.gauge("queue_depth")->set(150);
  obs::HealthEngine engine(registry);
  engine.add_check("app", "queue-depth", [](const obs::Snapshot& snap) {
    const double* depth = obs::HealthEngine::find_gauge(snap, "queue_depth");
    if (depth == nullptr) return obs::HealthEngine::Finding{obs::HealthLevel::kOk, "", false};
    if (*depth > 100) {
      return obs::HealthEngine::Finding{obs::HealthLevel::kCritical, "queue flooded"};
    }
    return obs::HealthEngine::Finding{};
  });
  obs::HealthReport report = engine.evaluate();
  EXPECT_EQ(report.overall, obs::HealthLevel::kCritical);
  ASSERT_EQ(report.subsystems.size(), 1u);
  EXPECT_EQ(report.subsystems[0].name, "app");
  EXPECT_EQ(report.subsystems[0].reasons[0], "queue-depth: queue flooded");
}

// --- stats server commands ---------------------------------------------------

std::string fetch_stats(const net::Endpoint& endpoint, const std::string& command) {
  auto socket = net::TcpSocket::connect(endpoint, 2s);
  if (!socket) return "";
  socket->set_receive_timeout(2s);
  if (!socket->send_all(command).ok()) return "";
  std::string body, chunk;
  while (socket->receive_some(chunk, 64 * 1024).ok()) body += chunk;
  return body;
}

TEST(StatsServerCommands, HealthHistorySpansAndTrace) {
  obs::MetricsRegistry registry;
  registry.gauge("wizard_degraded")->set(1);
  registry.histogram("wizard_query_latency_us")->record_us(120.0);

  sim::VirtualClock clock;
  obs::TimeSeriesConfig ts_config;
  ts_config.interval = 1s;
  obs::TimeSeriesRecorder recorder(ts_config, registry, clock);
  for (int t = 0; t < 12; ++t) {
    registry.histogram("wizard_query_latency_us")->record_us(100.0 + t);
    recorder.sample_once();
    clock.advance(1s);
  }
  obs::HealthEngine engine(registry);
  obs::SpanStore spans(16);
  {
    obs::Span span("wizard", "handle", "abab0000abab0000", 0, spans);
    span.tag("seq", 7u);
  }

  obs::StatsServerConfig config;
  config.spans = &spans;
  config.history = &recorder;
  config.health = &engine;
  obs::StatsServer server(config, registry);
  ASSERT_TRUE(server.valid());
  ASSERT_TRUE(server.start());

  std::string health = fetch_stats(server.endpoint(), "health\n");
  EXPECT_TRUE(braces_balanced(health)) << health;
  EXPECT_NE(health.find("\"overall\": \"degraded\""), std::string::npos) << health;
  EXPECT_NE(health.find("stale"), std::string::npos);

  std::string health_text = fetch_stats(server.endpoint(), "health text\n");
  EXPECT_NE(health_text.find("health: degraded"), std::string::npos) << health_text;

  // 10 s default window over 12 s of samples => at least 2 windows, each
  // carrying the sketch tail (the ISSUE's acceptance shape).
  std::string history = fetch_stats(server.endpoint(), "history wizard_query_latency_us\n");
  EXPECT_TRUE(braces_balanced(history)) << history;
  EXPECT_NE(history.find("\"found\": true"), std::string::npos) << history;
  EXPECT_NE(history.find("\"p50_us\""), std::string::npos);
  EXPECT_NE(history.find("\"p99_us\""), std::string::npos);
  std::size_t windows = 0;
  for (std::size_t pos = 0; (pos = history.find("\"start_us\"", pos)) != std::string::npos;
       ++windows, ++pos) {
  }
  EXPECT_GE(windows, 2u) << history;

  std::string narrow = fetch_stats(server.endpoint(), "history wizard_query_latency_us 5\n");
  EXPECT_NE(narrow.find("\"window_seconds\": 5"), std::string::npos) << narrow;

  std::string missing = fetch_stats(server.endpoint(), "history no_such_metric\n");
  EXPECT_NE(missing.find("\"found\": false"), std::string::npos) << missing;

  std::string usage = fetch_stats(server.endpoint(), "history\n");
  EXPECT_NE(usage.find("\"error\""), std::string::npos) << usage;

  std::string span_list = fetch_stats(server.endpoint(), "spans\n");
  EXPECT_NE(span_list.find("wizard/handle"), std::string::npos) << span_list;
  EXPECT_NE(span_list.find("abab0000abab0000"), std::string::npos);
  EXPECT_NE(span_list.find("seq=7"), std::string::npos);

  std::string trace = fetch_stats(server.endpoint(), "trace\n");
  EXPECT_TRUE(braces_balanced(trace)) << trace;
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"handle\""), std::string::npos);
  // One lane, named by the endpoint that served it.
  EXPECT_NE(trace.find("\"name\": \"" + server.endpoint().to_string() + "\""),
            std::string::npos)
      << trace;

  std::string one = fetch_stats(server.endpoint(), "trace abab0000abab0000\n");
  EXPECT_NE(one.find("\"handle\""), std::string::npos);
  std::string none = fetch_stats(server.endpoint(), "trace ffff0000ffff0000\n");
  EXPECT_TRUE(braces_balanced(none)) << none;
  EXPECT_EQ(none.find("\"handle\""), std::string::npos);

  server.stop();
}

TEST(StatsServerCommands, MissingEnginesReportErrors) {
  obs::MetricsRegistry registry;
  obs::StatsServerConfig config;
  config.history = nullptr;
  config.health = nullptr;
  obs::StatsServer server(config, registry);
  ASSERT_TRUE(server.valid());
  EXPECT_NE(server.render("health").find("\"error\""), std::string::npos);
  EXPECT_NE(server.render("history x").find("\"error\""), std::string::npos);
  EXPECT_NE(server.render("history wizard_query_latency_us bogus").find("\"error\""),
            std::string::npos);
  // Unknown verbs keep the historical JSON default.
  EXPECT_NE(server.render("whatever").find("\"counters\""), std::string::npos);
  // The default span store is wired in even with no engines.
  EXPECT_NE(server.render("spans").find("spans retained="), std::string::npos);
}

// --- span line quoting -------------------------------------------------------

TEST(SpanLine, EmbeddedQuotesNewlinesAndWhitespace) {
  LogCapture capture;
  obs::SpanStore store(4);
  {
    obs::Span span("test", "edge", "0123456789abcdef", 0, store);
    span.tag("quoted", "say \"hi\"")
        .tag("newline", std::string_view("line1\nline2"))
        .tag("tabbed", std::string_view("a\tb"))
        .tag("empty", std::string_view(""))
        .tag("plain", "word");
  }
  auto lines = capture.grep("event=edge");
  ASSERT_EQ(lines.size(), 1u);
  const std::string& line = lines[0];
  // Quotes inside values are rewritten to ' so one line stays one event.
  EXPECT_NE(line.find("quoted=\"say 'hi'\""), std::string::npos) << line;
  // Newlines collapse to spaces: a multi-line value cannot fork the line.
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("newline=\"line1 line2\""), std::string::npos) << line;
  EXPECT_NE(line.find("tabbed=\"a\tb\""), std::string::npos) << line;
  EXPECT_NE(line.find("empty=\"\""), std::string::npos) << line;
  EXPECT_NE(line.find("plain=word"), std::string::npos) << line;
  // The ring keeps the values as tagged; only the line is quoted.
  EXPECT_EQ(store.snapshot()[0].tags[0].second, "say \"hi\"");
}

TEST(SpanLine, MintedIdsDeterministicUnderSeededRng) {
  // Two RNGs with the same seed mint the same id sequence; the stream
  // advances (no repeats) and every id is 16 lowercase hex chars.
  util::Rng a(12345), b(12345);
  std::vector<std::string> ids;
  for (int i = 0; i < 8; ++i) {
    std::string id = obs::mint_trace_id(a);
    EXPECT_EQ(id, obs::mint_trace_id(b));
    EXPECT_EQ(id.size(), 16u);
    EXPECT_EQ(id.find_first_not_of("0123456789abcdef"), std::string::npos);
    for (const std::string& seen : ids) EXPECT_NE(id, seen);
    ids.push_back(id);
  }
}

// --- client outcome tags -----------------------------------------------------

std::vector<std::string> tag_values(const obs::SpanRecord& span, std::string_view key) {
  std::vector<std::string> values;
  for (const auto& [k, v] : span.tags) {
    if (k == key) values.push_back(v);
  }
  return values;
}

TEST(FlightRecorder, StrictFreshQueryTagsItsOutcomeOnce) {
  // The wizard's only record is stale: both attempts of a strict-fresh
  // client get a stale reply, and the query fails. The query span carries
  // that outcome once; each reply is tagged on its own attempt span.
  ipc::InMemoryStatusStore store;
  ipc::SysRecord record;
  ipc::copy_fixed(record.host, ipc::kHostNameLen, "laggy");
  ipc::copy_fixed(record.address, ipc::kAddressLen, "9.9.9.9:3");
  record.cpu_idle = 0.9;
  record.updated_ns = ipc::steady_now_ns() - 500'000'000ull;
  store.put_sys(record);
  core::WizardConfig wizard_config;
  wizard_config.staleness_bound = 100ms;
  core::Wizard wizard(wizard_config, store);
  ASSERT_TRUE(wizard.start());

  obs::SpanStore spans(64);
  core::SmartClientConfig config;
  config.wizard = wizard.endpoint();
  config.seed = 11;
  config.reply_timeout = 200ms;
  config.retries = 1;
  config.retry.initial_backoff = 10ms;
  config.freshness = core::FreshnessMode::kStrictFresh;
  config.spans = &spans;
  core::SmartClient client(config);
  core::WizardReply reply = client.query("host_cpu_free > 0.5", 1);
  wizard.stop();
  ASSERT_FALSE(reply.ok);

  const obs::SpanRecord* query = nullptr;
  std::vector<const obs::SpanRecord*> attempts;
  std::vector<obs::SpanRecord> recorded = spans.snapshot();
  for (const obs::SpanRecord& span : recorded) {
    if (span.name == "query") query = &span;
    if (span.name == "attempt") attempts.push_back(&span);
  }
  ASSERT_NE(query, nullptr);
  EXPECT_EQ(tag_values(*query, "ok"), std::vector<std::string>{"false"});
  EXPECT_EQ(tag_values(*query, "attempts"), std::vector<std::string>{"2"});
  ASSERT_EQ(attempts.size(), 2u);
  for (const obs::SpanRecord* attempt : attempts) {
    EXPECT_EQ(attempt->parent_id, query->span_id);
    EXPECT_EQ(attempt->trace_id, query->trace_id);
    EXPECT_EQ(tag_values(*attempt, "ok"), std::vector<std::string>{"true"});
    EXPECT_EQ(tag_values(*attempt, "stale"), std::vector<std::string>{"true"});
  }
}

// --- replication traces ------------------------------------------------------

/// The one span of `component`/`name` in the process ring.
const obs::SpanRecord* only_span(const std::vector<obs::SpanRecord>& spans,
                                 std::string_view component, std::string_view name) {
  const obs::SpanRecord* found = nullptr;
  for (const obs::SpanRecord& span : spans) {
    if (span.component != component || span.name != name) continue;
    if (found != nullptr) return nullptr;
    found = &span;
  }
  return found;
}

TEST(FlightRecorder, ReplicationPushAndPullShareOneTraceId) {
  ipc::InMemoryStatusStore monitor_store;
  ipc::SysRecord record;
  ipc::copy_fixed(record.host, ipc::kHostNameLen, "replicated");
  ipc::copy_fixed(record.address, ipc::kAddressLen, "10.0.0.1:1");
  monitor_store.put_sys(record);

  // Push: the transmitter mints the id and sends it in the kTraceContext
  // frame ahead of the databases.
  {
    ipc::InMemoryStatusStore wizard_store;
    transport::Receiver receiver(transport::ReceiverConfig{}, wizard_store);
    ASSERT_TRUE(receiver.valid());
    ASSERT_TRUE(receiver.start());
    transport::TransmitterConfig tx_config;
    tx_config.mode = transport::TransferMode::kCentralized;
    tx_config.receiver = receiver.endpoint();
    transport::Transmitter transmitter(tx_config, monitor_store);

    obs::SpanStore::instance().clear();
    LogCapture capture;
    EXPECT_TRUE(transmitter.transmit_once());
    // The ingest span ends when the receiver's loop sees the push close.
    for (int i = 0; i < 1000 && receiver.snapshots_received() == 0; ++i) {
      std::this_thread::sleep_for(2ms);
    }
    receiver.stop();
    ASSERT_EQ(receiver.snapshots_received(), 1u);
    ASSERT_EQ(wizard_store.sys_records().size(), 1u);

    std::vector<obs::SpanRecord> spans = obs::SpanStore::instance().snapshot();
    const obs::SpanRecord* push = only_span(spans, "transmitter", "push");
    const obs::SpanRecord* ingest = only_span(spans, "receiver", "ingest");
    ASSERT_NE(push, nullptr);
    ASSERT_NE(ingest, nullptr);
    ASSERT_EQ(push->trace_id.size(), 16u);
    EXPECT_EQ(ingest->trace_id, push->trace_id);
    auto push_lines = capture.grep("transmitter: event=push ");
    auto ingest_lines = capture.grep("receiver: event=ingest ");
    ASSERT_EQ(push_lines.size(), 1u);
    ASSERT_EQ(ingest_lines.size(), 1u);
    EXPECT_EQ(line_trace_id(push_lines[0]), push->trace_id);
    EXPECT_EQ(line_trace_id(ingest_lines[0]), push->trace_id);
    EXPECT_NE(ingest_lines[0].find(" peer=127.0.0.1:"), std::string::npos) << ingest_lines[0];
  }

  // Pull: the receiver mints the id and sends it in the kUpdateRequest
  // payload; the transmitter echoes it.
  {
    ipc::InMemoryStatusStore wizard_store;
    transport::TransmitterConfig tx_config;
    tx_config.mode = transport::TransferMode::kDistributed;
    transport::Transmitter transmitter(tx_config, monitor_store);
    ASSERT_TRUE(transmitter.start());
    transport::Receiver receiver(transport::ReceiverConfig{}, wizard_store);

    obs::SpanStore::instance().clear();
    LogCapture capture;
    EXPECT_TRUE(receiver.pull_from(transmitter.endpoint()));
    transmitter.stop();
    ASSERT_EQ(wizard_store.sys_records().size(), 1u);

    std::vector<obs::SpanRecord> spans = obs::SpanStore::instance().snapshot();
    const obs::SpanRecord* push = only_span(spans, "transmitter", "push");
    const obs::SpanRecord* ingest = only_span(spans, "receiver", "ingest");
    ASSERT_NE(push, nullptr);
    ASSERT_NE(ingest, nullptr);
    ASSERT_EQ(ingest->trace_id.size(), 16u);
    EXPECT_EQ(push->trace_id, ingest->trace_id);
    auto push_lines = capture.grep("transmitter: event=push ");
    auto ingest_lines = capture.grep("receiver: event=ingest ");
    ASSERT_EQ(push_lines.size(), 1u);
    ASSERT_EQ(ingest_lines.size(), 1u);
    EXPECT_EQ(line_trace_id(push_lines[0]), ingest->trace_id);
    EXPECT_EQ(line_trace_id(ingest_lines[0]), ingest->trace_id);
    EXPECT_NE(ingest_lines[0].find(" peer=127.0.0.1:"), std::string::npos) << ingest_lines[0];
    EXPECT_NE(ingest_lines[0].find(" transmitter=" + transmitter.endpoint().to_string()),
              std::string::npos)
        << ingest_lines[0];
  }
}

}  // namespace
}  // namespace smartsock
