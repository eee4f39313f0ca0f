// Monitor tests: system monitor ingest + staleness, network monitor probing,
// security monitor sources.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <thread>

#include "ipc/in_memory_store.h"
#include "monitor/network_monitor.h"
#include "monitor/security_monitor.h"
#include "monitor/system_monitor.h"
#include "net/reactor.h"
#include "obs/health.h"
#include "sim/testbed.h"

namespace smartsock::monitor {
namespace {

using namespace std::chrono_literals;

probe::StatusReport sample_report(const std::string& host, const std::string& addr) {
  probe::StatusReport report;
  report.host = host;
  report.address = addr;
  report.group = "g1";
  report.load1 = 0.3;
  report.cpu_idle = 0.8;
  report.mem_free_mb = 100;
  return report;
}

// --- conversion -----------------------------------------------------------------

TEST(ToSysRecord, CopiesEverything) {
  probe::StatusReport report = sample_report("alpha", "1.2.3.4:80");
  report.bogomips = 4771.02;
  report.net_tbytes_ps = 12345;
  ipc::SysRecord record = to_sys_record(report, 777);
  EXPECT_EQ(record.host_str(), "alpha");
  EXPECT_EQ(record.address_str(), "1.2.3.4:80");
  EXPECT_EQ(record.group_str(), "g1");
  EXPECT_DOUBLE_EQ(record.bogomips, 4771.02);
  EXPECT_DOUBLE_EQ(record.net_tbytes_ps, 12345);
  EXPECT_EQ(record.updated_ns, 777u);
}

// --- system monitor ----------------------------------------------------------

TEST(SystemMonitorTest, IngestsReports) {
  ipc::InMemoryStatusStore store;
  SystemMonitorConfig config;
  SystemMonitor monitor(config, store);
  ASSERT_TRUE(monitor.valid());

  auto probe_sock = net::UdpSocket::create();
  ASSERT_TRUE(probe_sock);
  probe_sock->send_to(sample_report("a", "1.1.1.1:1").to_wire(), monitor.endpoint());
  EXPECT_EQ(monitor.poll_batch(500ms), 1u);
  EXPECT_EQ(monitor.reports_received(), 1u);
  ASSERT_EQ(store.sys_records().size(), 1u);
  EXPECT_EQ(store.sys_records()[0].host_str(), "a");
}

TEST(SystemMonitorTest, UpsertsByAddress) {
  ipc::InMemoryStatusStore store;
  SystemMonitor monitor(SystemMonitorConfig{}, store);
  auto sock = net::UdpSocket::create();
  ASSERT_TRUE(sock);

  auto r1 = sample_report("a", "1.1.1.1:1");
  r1.load1 = 0.1;
  auto r2 = sample_report("a", "1.1.1.1:1");
  r2.load1 = 0.9;
  sock->send_to(r1.to_wire(), monitor.endpoint());
  EXPECT_EQ(monitor.poll_batch(500ms), 1u);
  sock->send_to(r2.to_wire(), monitor.endpoint());
  EXPECT_EQ(monitor.poll_batch(500ms), 1u);
  ASSERT_EQ(store.sys_records().size(), 1u);
  EXPECT_DOUBLE_EQ(store.sys_records()[0].load1, 0.9);
}

TEST(SystemMonitorTest, RejectsMalformedReports) {
  ipc::InMemoryStatusStore store;
  SystemMonitor monitor(SystemMonitorConfig{}, store);
  auto sock = net::UdpSocket::create();
  ASSERT_TRUE(sock);
  sock->send_to("garbage not a report", monitor.endpoint());
  EXPECT_EQ(monitor.poll_batch(500ms), 0u);
  EXPECT_EQ(monitor.reports_rejected(), 1u);
  EXPECT_TRUE(store.sys_records().empty());
}

TEST(SystemMonitorTest, SweepsStaleRecords) {
  ipc::InMemoryStatusStore store;
  SystemMonitorConfig config;
  config.probe_interval = 20ms;
  config.stale_factor = 3;  // 60 ms staleness budget
  SystemMonitor monitor(config, store);
  auto sock = net::UdpSocket::create();
  ASSERT_TRUE(sock);

  sock->send_to(sample_report("old", "1.1.1.1:1").to_wire(), monitor.endpoint());
  ASSERT_EQ(monitor.poll_batch(500ms), 1u);
  std::this_thread::sleep_for(100ms);  // exceed 3 intervals
  sock->send_to(sample_report("fresh", "1.1.1.2:1").to_wire(), monitor.endpoint());
  ASSERT_EQ(monitor.poll_batch(500ms), 1u);

  EXPECT_EQ(monitor.sweep_stale(), 1u);
  auto records = store.sys_records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].host_str(), "fresh");
}

TEST(SystemMonitorTest, BackgroundThreadIngests) {
  ipc::InMemoryStatusStore store;
  SystemMonitor monitor(SystemMonitorConfig{}, store);
  ASSERT_TRUE(monitor.start());
  auto sock = net::UdpSocket::create();
  ASSERT_TRUE(sock);
  sock->send_to(sample_report("bg", "1.1.1.3:1").to_wire(), monitor.endpoint());
  for (int i = 0; i < 50 && store.sys_records().empty(); ++i) {
    std::this_thread::sleep_for(10ms);
  }
  monitor.stop();
  EXPECT_EQ(store.sys_records().size(), 1u);
}

// --- network monitor ----------------------------------------------------------

TEST(NetworkMonitorTest, RecordsMeasurements) {
  ipc::InMemoryStatusStore store;
  NetworkMonitorConfig config;
  config.local_group = "home";
  NetworkMonitor monitor(config, store);
  monitor.add_target({"away", measure_fixed(12.5, 42.0)});

  EXPECT_EQ(monitor.measure_all_once(), 1u);
  auto records = store.net_records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].from_str(), "home");
  EXPECT_EQ(records[0].to_str(), "away");
  EXPECT_DOUBLE_EQ(records[0].delay_ms, 12.5);
  EXPECT_DOUBLE_EQ(records[0].bw_mbps, 42.0);
}

TEST(NetworkMonitorTest, MeasuresSimPath) {
  ipc::InMemoryStatusStore store;
  NetworkMonitor monitor(NetworkMonitorConfig{}, store);
  sim::NetworkPath path(sim::sagit_to_suna(1500));
  monitor.add_target({"suna", measure_sim_path(path)});
  EXPECT_EQ(monitor.measure_all_once(), 1u);
  auto records = store.net_records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_NEAR(records[0].bw_mbps, path.available_bw_mbps(), 15.0);
}

TEST(NetworkMonitorTest, SkipsFailedTargets) {
  ipc::InMemoryStatusStore store;
  NetworkMonitor monitor(NetworkMonitorConfig{}, store);
  monitor.add_target({"dead", []() { return std::nullopt; }});
  monitor.add_target({"alive", measure_fixed(1.0, 10.0)});
  EXPECT_EQ(monitor.measure_all_once(), 1u);
  EXPECT_EQ(store.net_records().size(), 1u);
}

TEST(NetworkMonitorTest, RecommendedIntervalScalesWithGroups) {
  // §3.3.3: more groups -> more paths -> larger interval.
  auto small = NetworkMonitor::recommended_interval(2, std::chrono::seconds(2));
  auto large = NetworkMonitor::recommended_interval(10, std::chrono::seconds(2));
  EXPECT_EQ(small, std::chrono::seconds(2));
  EXPECT_EQ(large, std::chrono::seconds(18));
}

TEST(NetworkMonitorTest, BlockingMeasurementOnItsOwnLoopLeavesHealthOk) {
  // A measurement against an unreachable echo target blocks for seconds.
  // On the loop a daemon gives this monitor, that is the job, not a stall:
  // the reactor's health must stay ok, and the next measurement waits one
  // interval after the slow one returned instead of firing late at once.
  ipc::InMemoryStatusStore store;
  NetworkMonitorConfig config;
  config.interval = 50ms;
  NetworkMonitor monitor(config, store);
  monitor.add_target({"slow", [] {
                        std::this_thread::sleep_for(600ms);
                        return measure_fixed(1.0, 10.0)();
                      }});
  net::Reactor loop(NetworkMonitor::loop_config());
  obs::HealthEngine health;
  health.evaluate();  // baseline for the counter-delta checks, loop included
  ASSERT_TRUE(loop.start());
  ASSERT_TRUE(monitor.start(loop));
  for (int i = 0; i < 300 && monitor.measurements() < 2; ++i) {
    std::this_thread::sleep_for(10ms);
  }
  monitor.stop();
  loop.stop();
  EXPECT_GE(monitor.measurements(), 2u);

  obs::HealthReport report = health.evaluate();
  auto reactor = std::find_if(report.subsystems.begin(), report.subsystems.end(),
                              [](const auto& subsystem) { return subsystem.name == "reactor"; });
  ASSERT_NE(reactor, report.subsystems.end()) << report.to_text();
  EXPECT_EQ(reactor->level, obs::HealthLevel::kOk) << report.to_text();
}

// --- security monitor ------------------------------------------------------------

TEST(SecurityLog, Parsing) {
  auto levels = parse_security_log(
      "# security log\n"
      "alpha 3\n"
      "beta 1 # trusted-ish\n"
      "malformed line here\n"
      "gamma notanumber\n"
      "delta -2\n");
  EXPECT_EQ(levels.size(), 3u);
  EXPECT_EQ(levels.at("alpha"), 3);
  EXPECT_EQ(levels.at("beta"), 1);
  EXPECT_EQ(levels.at("delta"), -2);
}

TEST(SecurityMonitorTest, RefreshesFromStaticSource) {
  ipc::InMemoryStatusStore store;
  auto source = std::make_unique<StaticSecuritySource>();
  StaticSecuritySource* raw = source.get();
  SecurityMonitor monitor(SecurityMonitorConfig{}, std::move(source), store);

  raw->set_level("hostA", 2);
  EXPECT_EQ(monitor.refresh_once(), 1u);
  ASSERT_EQ(store.sec_records().size(), 1u);
  EXPECT_EQ(store.sec_records()[0].level, 2);

  raw->set_level("hostA", 7);  // upsert on refresh
  EXPECT_EQ(monitor.refresh_once(), 1u);
  ASSERT_EQ(store.sec_records().size(), 1u);
  EXPECT_EQ(store.sec_records()[0].level, 7);
}

TEST(SecurityMonitorTest, FileSourceReadsDummyLog) {
  std::string path = testing::TempDir() + "/smartsock_security.log";
  {
    std::ofstream out(path);
    out << "# dummy security log (thesis §3.4.1)\nserver1 1\nserver2 5\n";
  }
  ipc::InMemoryStatusStore store;
  SecurityMonitor monitor(SecurityMonitorConfig{},
                          std::make_unique<FileSecuritySource>(path), store);
  EXPECT_EQ(monitor.refresh_once(), 2u);
  EXPECT_EQ(store.sec_records().size(), 2u);
  std::remove(path.c_str());
}

TEST(SecurityMonitorTest, MissingFileYieldsNothing) {
  ipc::InMemoryStatusStore store;
  SecurityMonitor monitor(SecurityMonitorConfig{},
                          std::make_unique<FileSecuritySource>("/no/such/log"), store);
  EXPECT_EQ(monitor.refresh_once(), 0u);
}

}  // namespace
}  // namespace smartsock::monitor
