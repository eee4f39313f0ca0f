// Observability tests (ISSUE 2): metrics registry identity + concurrency,
// snapshot renderings, trace-id propagation across a real client→wizard
// round trip, the TCP stats endpoint, and the Logger sink/env hooks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.h"
#include "core/smart_client.h"
#include "core/wizard.h"
#include "ipc/in_memory_store.h"
#include "log_capture.h"
#include "net/tcp_socket.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/stats_server.h"
#include "util/logging.h"
#include "util/rng.h"

namespace smartsock {
namespace {

using namespace std::chrono_literals;

// --- registry ----------------------------------------------------------------

TEST(MetricsRegistry, GetOrCreateReturnsSameObject) {
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.counter("requests_total");
  obs::Counter* b = registry.counter("requests_total");
  EXPECT_EQ(a, b);
  a->inc(3);
  EXPECT_EQ(b->value(), 3u);

  EXPECT_EQ(registry.gauge("depth"), registry.gauge("depth"));
  EXPECT_EQ(registry.histogram("lat"), registry.histogram("lat"));
  // Traffic counters are intentionally NOT deduplicated: every socket owner
  // gets its own, merged by component name at snapshot time.
  EXPECT_NE(registry.traffic("probe"), registry.traffic("probe"));
}

TEST(MetricsRegistry, ConcurrentUpdatesAreLossless) {
  obs::MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Registration races with other threads; updates race with snapshots.
      obs::Counter* counter = registry.counter("shared_total");
      obs::Gauge* gauge = registry.gauge("shared_gauge");
      obs::Histogram* histogram = registry.histogram("shared_lat");
      for (int i = 0; i < kIters; ++i) {
        counter->inc();
        gauge->add(1.0);
        histogram->record_us(static_cast<double>(i % 1000) + 1.0);
      }
    });
  }
  // Snapshot concurrently with the writers — must not crash or hang.
  for (int i = 0; i < 50; ++i) (void)registry.snapshot();
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(registry.counter("shared_total")->value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_DOUBLE_EQ(registry.gauge("shared_gauge")->value(), double(kThreads) * kIters);
  EXPECT_EQ(registry.histogram("shared_lat")->count(),
            static_cast<std::uint64_t>(kThreads) * kIters);

  obs::Snapshot snapshot = registry.snapshot();
  auto counter_it = std::find_if(snapshot.counters.begin(), snapshot.counters.end(),
                                 [](const auto& kv) { return kv.first == "shared_total"; });
  ASSERT_NE(counter_it, snapshot.counters.end());
  EXPECT_EQ(counter_it->second, static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(MetricsRegistry, TrafficMergedByComponent) {
  obs::MetricsRegistry registry;
  util::TrafficCounter* a = registry.traffic("probe");
  util::TrafficCounter* b = registry.traffic("probe");
  util::TrafficCounter* c = registry.traffic("wizard");
  a->add_sent(100);
  b->add_sent(11);
  c->add_received(7);

  obs::Snapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.traffic.size(), 2u);  // probe + wizard, merged
  for (const auto& usage : snapshot.traffic) {
    if (usage.component == "probe") {
      EXPECT_EQ(usage.bytes_sent, 111u);
    } else {
      EXPECT_EQ(usage.component, "wizard");
      EXPECT_EQ(usage.bytes_received, 7u);
    }
  }
}

TEST(MetricsRegistry, CollectorRunsAtSnapshotAndUnregisters) {
  obs::MetricsRegistry registry;
  std::uint64_t id = registry.add_collector([](obs::Snapshot& snapshot) {
    snapshot.gauges.emplace_back("dynamic_gauge", 42.0);
  });
  obs::Snapshot with = registry.snapshot();
  EXPECT_TRUE(std::any_of(with.gauges.begin(), with.gauges.end(),
                          [](const auto& kv) { return kv.first == "dynamic_gauge"; }));
  registry.remove_collector(id);
  obs::Snapshot without = registry.snapshot();
  EXPECT_FALSE(std::any_of(without.gauges.begin(), without.gauges.end(),
                           [](const auto& kv) { return kv.first == "dynamic_gauge"; }));
}

TEST(MetricsRegistry, ResetAllZeroesButKeepsRegistration) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.counter("c");
  counter->inc(9);
  registry.histogram("h")->record_us(5.0);
  registry.traffic("t")->add_sent(3);
  registry.reset_all();
  EXPECT_EQ(counter->value(), 0u);
  EXPECT_EQ(registry.counter("c"), counter);  // same object survives
  EXPECT_EQ(registry.histogram("h")->count(), 0u);
  obs::Snapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.traffic.size(), 1u);
  EXPECT_EQ(snapshot.traffic[0].bytes_sent, 0u);
}

// --- snapshot renderings -----------------------------------------------------

bool braces_balanced(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') --depth;
    if (depth < 0) return false;
  }
  return depth == 0 && !in_string;
}

TEST(Snapshot, JsonCarriesEveryMetricKind) {
  obs::MetricsRegistry registry;
  registry.counter("reqs_total")->inc(5);
  registry.gauge("queue_depth")->set(2.5);
  obs::Histogram* histogram = registry.histogram("query_latency_us");
  histogram->record_us(10.0);
  histogram->record_us(100.0);
  registry.traffic("wizard")->add_sent(64);

  std::string json = registry.snapshot().to_json();
  EXPECT_TRUE(braces_balanced(json)) << json;
  EXPECT_NE(json.find("\"reqs_total\""), std::string::npos);
  EXPECT_NE(json.find("\"queue_depth\""), std::string::npos);
  EXPECT_NE(json.find("\"query_latency_us\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
  EXPECT_NE(json.find("\"traffic\""), std::string::npos);
  EXPECT_NE(json.find("\"ts_us\""), std::string::npos);

  std::string pretty = registry.snapshot().to_json(true);
  EXPECT_TRUE(braces_balanced(pretty)) << pretty;
  EXPECT_NE(pretty.find('\n'), std::string::npos);
}

TEST(Snapshot, PrometheusExposition) {
  obs::MetricsRegistry registry;
  registry.counter("wizard_requests_total")->inc(2);
  registry.gauge("sysdb_records")->set(7);
  registry.histogram("wizard_query_latency_us")->record_us(42.0);
  registry.traffic("wizard")->add_sent(10);

  std::string prom = registry.snapshot().to_prometheus();
  EXPECT_NE(prom.find("wizard_requests_total 2"), std::string::npos) << prom;
  EXPECT_NE(prom.find("sysdb_records"), std::string::npos);
  EXPECT_NE(prom.find("wizard_query_latency_us_count 1"), std::string::npos) << prom;
  EXPECT_NE(prom.find("component=\"wizard\""), std::string::npos) << prom;
}

TEST(Snapshot, JsonEscape) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(Snapshot, PrometheusNameAndLabelHelpers) {
  EXPECT_EQ(obs::prom_sanitize_name("wizard_requests_total"), "wizard_requests_total");
  EXPECT_EQ(obs::prom_sanitize_name("weird-name.total"), "weird_name_total");
  EXPECT_EQ(obs::prom_sanitize_name("9lives"), "_9lives");
  EXPECT_EQ(obs::prom_sanitize_name(""), "_");
  EXPECT_EQ(obs::prom_sanitize_name("ns:metric"), "ns:metric");  // colons are legal
  EXPECT_EQ(obs::prom_escape_label_value("plain"), "plain");
  EXPECT_EQ(obs::prom_escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
}

TEST(Snapshot, PrometheusExpositionIsFormatValid) {
  // Hostile inputs: invalid name characters, a leading digit, a labelled
  // gauge family with two members, label values holding spaces and
  // backslashes, a traffic component with a space.
  obs::MetricsRegistry registry;
  registry.counter("weird-name.total")->inc(1);
  registry.counter("9starts_with_digit_total")->inc(2);
  registry.gauge("sysdb_record_age_seconds{host=\"al pha\"}")->set(3);
  registry.gauge("sysdb_record_age_seconds{host=\"be\\ta\"}")->set(4);
  registry.histogram("wizard_query_latency_us")->record_us(42.0);
  registry.traffic("net probe")->add_sent(9);

  std::string prom = registry.snapshot().to_prometheus();

  auto valid_name = [](const std::string& token) {
    if (token.empty()) return false;
    char head = token[0];
    if (!(std::isalpha(static_cast<unsigned char>(head)) || head == '_' || head == ':')) {
      return false;
    }
    for (char c : token) {
      if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':')) {
        return false;
      }
    }
    return true;
  };

  // Walk every line of the exposition: comments must be # HELP/# TYPE with a
  // valid family name; samples must be `name[{labels}] value` with a valid
  // name, an even number of unescaped quotes and a numeric value.
  std::map<std::string, int> type_lines;
  std::istringstream stream(prom);
  std::string line;
  while (std::getline(stream, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream header(line);
      std::string hash, kind, family;
      header >> hash >> kind >> family;
      EXPECT_TRUE(kind == "HELP" || kind == "TYPE") << line;
      EXPECT_TRUE(valid_name(family)) << line;
      if (kind == "TYPE") ++type_lines[family];
      continue;
    }
    std::string name = line.substr(0, line.find_first_of("{ "));
    EXPECT_TRUE(valid_name(name)) << line;
    std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string value = line.substr(space + 1);
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    EXPECT_TRUE(end != nullptr && *end == '\0') << line;
    int quotes = 0;
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (line[i] == '"' && (i == 0 || line[i - 1] != '\\')) ++quotes;
    }
    EXPECT_EQ(quotes % 2, 0) << line;
  }
  for (const auto& [family, count] : type_lines) {
    EXPECT_EQ(count, 1) << "duplicate # TYPE for " << family;
  }

  // Name sanitization, family merging and label escaping all visible.
  EXPECT_NE(prom.find("weird_name_total 1"), std::string::npos) << prom;
  EXPECT_NE(prom.find("_9starts_with_digit_total 2"), std::string::npos) << prom;
  EXPECT_EQ(type_lines["sysdb_record_age_seconds"], 1);  // one TYPE, two samples
  EXPECT_NE(prom.find("host=\"al pha\"} 3"), std::string::npos) << prom;
  EXPECT_NE(prom.find("host=\"be\\\\ta\"} 4"), std::string::npos) << prom;
  EXPECT_NE(prom.find("component=\"net probe\""), std::string::npos) << prom;
  // The histogram's sketch tails ride along as sibling gauge families.
  for (const char* family : {"wizard_query_latency_us_p50", "wizard_query_latency_us_p90",
                             "wizard_query_latency_us_p99"}) {
    EXPECT_EQ(type_lines[family], 1) << family;
  }
}

// --- tracing -----------------------------------------------------------------

TEST(Trace, MintIsDeterministicHex16) {
  util::Rng a(1234), b(1234);
  std::string id = obs::mint_trace_id(a);
  EXPECT_EQ(id.size(), 16u);
  EXPECT_EQ(id.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_EQ(id, obs::mint_trace_id(b));            // seeded => reproducible
  EXPECT_NE(id, obs::mint_trace_id(a));            // stream advances
}

TEST(Trace, EventFormatsKeyValues) {
  LogCapture capture;
  obs::SpanStore store(4);
  std::uint64_t span_id = 0;
  {
    obs::Span span("test", "demo", "00ff00ff00ff00ff", 7, store);
    span_id = span.id();
    span.tag("seq", 12u).tag("host", "alpha").tag("note", "two words").tag("ok", true);
  }
  auto lines = capture.grep("event=demo");
  ASSERT_EQ(lines.size(), 1u);
  const std::string& line = lines[0];
  EXPECT_EQ(line.rfind("test: event=demo trace_id=00ff00ff00ff00ff span=", 0), 0u) << line;
  EXPECT_NE(line.find(" span=" + std::to_string(span_id) + " parent=7 ts_us="),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("ts_us="), std::string::npos);
  EXPECT_NE(line.find(" dur_us="), std::string::npos);
  EXPECT_NE(line.find("seq=12"), std::string::npos);
  EXPECT_NE(line.find("host=alpha"), std::string::npos);
  EXPECT_NE(line.find("note=\"two words\""), std::string::npos);
  EXPECT_NE(line.find("ok=true"), std::string::npos);

  // An untraced span leaves trace_id= out.
  { obs::Span untraced("test", "bare", "", 0, store); }
  auto bare = capture.grep("event=bare");
  ASSERT_EQ(bare.size(), 1u);
  EXPECT_EQ(bare[0].find("trace_id="), std::string::npos) << bare[0];
}

TEST(Trace, DisabledLevelEmitsNothing) {
  LogCapture capture;
  util::Logger::instance().set_level(util::LogLevel::kWarn);
  obs::SpanStore store(4);
  obs::Span span("test", "quiet", "0011223344556677", 0, store);
  span.tag("x", 1).tag("note", "two words");
  // At warn the line is never formatted: ending the span allocates nothing.
  start_counting_allocations();
  span.end();
  EXPECT_EQ(stop_counting_allocations(), 0u);
  EXPECT_TRUE(capture.grep("event=quiet").empty());
  // The ring still records the hop.
  ASSERT_EQ(store.snapshot().size(), 1u);
  EXPECT_EQ(store.snapshot()[0].name, "quiet");

  // At debug the same span formats and logs its line.
  util::Logger::instance().set_level(util::LogLevel::kDebug);
  obs::Span loud("test", "loud", "0011223344556677", 0, store);
  start_counting_allocations();
  loud.end();
  EXPECT_GT(stop_counting_allocations(), 0u);
  EXPECT_EQ(capture.grep("event=loud").size(), 1u);
}

TEST(Trace, IdPropagatesClientToWizardAndBack) {
  ipc::InMemoryStatusStore store;
  std::vector<ipc::SysRecord> sys(2);
  std::vector<ipc::SecRecord> sec(2);
  for (std::size_t i = 0; i < sys.size(); ++i) {
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

  core::WizardConfig wizard_config;
  core::Wizard wizard(wizard_config, store);
  ASSERT_TRUE(wizard.valid()) << wizard.bind_error();

  LogCapture capture;  // after construction: capture only the query's lines
  ASSERT_TRUE(wizard.start());

  core::SmartClientConfig client_config;
  client_config.wizard = wizard.endpoint();
  client_config.seed = 77;
  core::SmartClient client(client_config);
  ASSERT_TRUE(client.valid());

  core::WizardReply reply = client.query("host_system_load1 < 4\n", 1);
  wizard.stop();
  ASSERT_TRUE(reply.ok) << reply.error;

  // The client's query span carries the minted id; every hop's line must
  // carry the same one. This is the "one grep reconstructs the query"
  // contract.
  auto queries = capture.grep("smart_client: event=query ");
  ASSERT_EQ(queries.size(), 1u);
  std::string trace_id = line_trace_id(queries[0]);
  ASSERT_EQ(trace_id.size(), 16u);

  for (const char* event : {"smart_client: event=query ", "smart_client: event=attempt ",
                            "wizard: event=request ", "wizard: event=handle ",
                            "wizard: event=match "}) {
    auto lines = capture.grep(event);
    ASSERT_EQ(lines.size(), 1u) << "missing " << event;
    EXPECT_EQ(line_trace_id(lines[0]), trace_id) << event << ": " << lines[0];
    EXPECT_NE(lines[0].find(" ts_us="), std::string::npos) << lines[0];
    EXPECT_NE(lines[0].find(" dur_us="), std::string::npos) << lines[0];
  }
}

// --- stats endpoint ----------------------------------------------------------

std::string fetch_stats(const net::Endpoint& endpoint, const std::string& command) {
  auto socket = net::TcpSocket::connect(endpoint, 2s);
  if (!socket) return "";
  socket->set_receive_timeout(2s);
  if (!socket->send_all(command).ok()) return "";
  std::string body, chunk;
  while (socket->receive_some(chunk, 64 * 1024).ok()) body += chunk;
  return body;
}

TEST(StatsServer, ServesJsonPromAndText) {
  obs::MetricsRegistry registry;
  registry.counter("wizard_requests_total")->inc(3);
  registry.histogram("wizard_query_latency_us")->record_us(25.0);
  registry.traffic("wizard")->add_sent(128);

  obs::StatsServerConfig config;
  obs::StatsServer server(config, registry);
  ASSERT_TRUE(server.valid());
  ASSERT_TRUE(server.start());

  std::string json = fetch_stats(server.endpoint(), "json\n");
  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(braces_balanced(json)) << json;
  EXPECT_NE(json.find("\"wizard_requests_total\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"wizard_query_latency_us\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
  EXPECT_NE(json.find("\"traffic\""), std::string::npos);

  std::string prom = fetch_stats(server.endpoint(), "prom\n");
  EXPECT_NE(prom.find("wizard_requests_total 3"), std::string::npos) << prom;

  std::string text = fetch_stats(server.endpoint(), "text\n");
  EXPECT_NE(text.find("wizard_requests_total"), std::string::npos) << text;

  // EOF without a command defaults to json.
  std::string default_body = fetch_stats(server.endpoint(), "\n");
  EXPECT_NE(default_body.find("\"counters\""), std::string::npos);

  server.stop();
  EXPECT_GE(server.requests_served(), 4u);
}

TEST(StatsServer, DumpsJsonlSnapshots) {
  obs::MetricsRegistry registry;
  registry.counter("c")->inc();

  obs::StatsServerConfig config;
  config.dump_path = ::testing::TempDir() + "stats_dump_test.jsonl";
  std::remove(config.dump_path.c_str());
  obs::StatsServer server(config, registry);
  ASSERT_TRUE(server.valid());
  EXPECT_TRUE(server.dump_now());
  EXPECT_TRUE(server.dump_now());

  std::FILE* file = std::fopen(config.dump_path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  std::string contents;
  char buffer[4096];
  std::size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) contents.append(buffer, n);
  std::fclose(file);
  std::remove(config.dump_path.c_str());

  // Two lines, each a balanced JSON object.
  EXPECT_EQ(std::count(contents.begin(), contents.end(), '\n'), 2);
  EXPECT_TRUE(braces_balanced(contents));
  EXPECT_NE(contents.find("\"c\""), std::string::npos);
}

// --- logger hooks ------------------------------------------------------------

TEST(Logger, SinkReceivesRecordsAndNullRestoresStderr) {
  std::vector<std::string> seen;
  util::Logger::instance().set_sink(
      [&seen](util::LogLevel level, std::string_view component, std::string_view message) {
        seen.push_back(std::string(util::log_level_tag(level)) + "|" +
                       std::string(component) + "|" + std::string(message));
      });
  util::Logger::instance().log(util::LogLevel::kError, "test", "captured");
  util::Logger::instance().set_sink(nullptr);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "ERROR|test|captured");
}

TEST(Logger, SetLevelGatesEnabled) {
  util::LogLevel previous = util::Logger::instance().level();
  util::Logger::instance().set_level(util::LogLevel::kError);
  EXPECT_FALSE(util::Logger::instance().enabled(util::LogLevel::kInfo));
  EXPECT_TRUE(util::Logger::instance().enabled(util::LogLevel::kError));
  util::Logger::instance().set_level(previous);
}

TEST(Logger, ResetFromEnvHonorsVariableAndFallback) {
  util::LogLevel previous = util::Logger::instance().level();
  ::setenv("SMARTSOCK_LOG", "debug", 1);
  util::Logger::instance().reset_from_env();
  EXPECT_EQ(util::Logger::instance().level(), util::LogLevel::kDebug);
  ::unsetenv("SMARTSOCK_LOG");
  util::Logger::instance().reset_from_env(util::LogLevel::kError);
  EXPECT_EQ(util::Logger::instance().level(), util::LogLevel::kError);
  util::Logger::instance().set_level(previous);
}

}  // namespace
}  // namespace smartsock
