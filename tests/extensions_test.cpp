// Tests for the Chapter 6 future-work extensions implemented here:
//  * rank_by ordering ("3 servers with largest memory"),
//  * TCP probe reporting ("UDP vs TCP"),
//  * selected-parameter reports ("Selected parameters").
#include <gtest/gtest.h>

#include "core/server_matcher.h"
#include "core/smart_client.h"
#include "core/wizard.h"
#include "ipc/in_memory_store.h"
#include "monitor/system_monitor.h"
#include "probe/server_probe.h"
#include "probe/sim_proc_reader.h"
#include "sim/testbed.h"

namespace smartsock {
namespace {

using namespace std::chrono_literals;

// --- rank_by -------------------------------------------------------------------

ipc::SysRecord ranked_record(const std::string& host, double mem_free) {
  ipc::SysRecord record;
  ipc::copy_fixed(record.host, ipc::kHostNameLen, host);
  ipc::copy_fixed(record.address, ipc::kAddressLen, host + ":1");
  record.cpu_idle = 0.95;
  record.mem_free_mb = mem_free;
  return record;
}

TEST(RankBy, LargestMemoryFirst) {
  // The thesis's Ch. 6 wish verbatim: "3 servers with largest memory".
  core::MatchInput input;
  input.sys = {ranked_record("small", 64), ranked_record("large", 512),
               ranked_record("mid", 256), ranked_record("tiny", 16)};
  auto requirement = lang::Requirement::compile(
      "host_cpu_free > 0.5\nrank_by = host_memory_free\n");
  ASSERT_TRUE(requirement);
  core::ServerMatcher matcher;
  auto result = matcher.match(*requirement, input, 3);
  ASSERT_EQ(result.selected.size(), 3u);
  EXPECT_EQ(result.selected[0].host, "large");
  EXPECT_EQ(result.selected[1].host, "mid");
  EXPECT_EQ(result.selected[2].host, "small");
}

TEST(RankBy, ExpressionRank) {
  core::MatchInput input;
  input.sys = {ranked_record("a", 100), ranked_record("b", 50)};
  input.sys[0].bogomips = 1000;
  input.sys[1].bogomips = 9000;
  // Rank by a composite: bogomips per MB — b wins despite less memory.
  auto requirement = lang::Requirement::compile(
      "host_cpu_free > 0.5\nrank_by = host_cpu_bogomips / host_memory_free\n");
  ASSERT_TRUE(requirement);
  core::ServerMatcher matcher;
  auto result = matcher.match(*requirement, input, 2);
  ASSERT_EQ(result.selected.size(), 2u);
  EXPECT_EQ(result.selected[0].host, "b");
}

TEST(RankBy, AbsentRankKeepsReportOrder) {
  core::MatchInput input;
  input.sys = {ranked_record("first", 10), ranked_record("second", 999)};
  auto requirement = lang::Requirement::compile("host_cpu_free > 0.5\n");
  ASSERT_TRUE(requirement);
  core::ServerMatcher matcher;
  auto result = matcher.match(*requirement, input, 2);
  ASSERT_EQ(result.selected.size(), 2u);
  EXPECT_EQ(result.selected[0].host, "first");  // the thesis's scan order
}

TEST(RankBy, PreferredStillBeatRank) {
  core::MatchInput input;
  input.sys = {ranked_record("huge", 1024), ranked_record("fav", 8)};
  auto requirement = lang::Requirement::compile(
      "host_cpu_free > 0.5\nrank_by = host_memory_free\nuser_preferred_host1 = fav\n");
  ASSERT_TRUE(requirement);
  core::ServerMatcher matcher;
  auto result = matcher.match(*requirement, input, 2);
  ASSERT_EQ(result.selected.size(), 2u);
  EXPECT_EQ(result.selected[0].host, "fav");
  EXPECT_EQ(result.selected[1].host, "huge");
}

TEST(RankBy, OutcomeExposesRankValue) {
  auto requirement = lang::Requirement::compile("rank_by = host_memory_free * 2\n");
  ASSERT_TRUE(requirement);
  auto outcome = requirement->evaluate({{"host_memory_free", 21.0}});
  ASSERT_TRUE(outcome.rank.has_value());
  EXPECT_DOUBLE_EQ(*outcome.rank, 42.0);

  auto plain = lang::Requirement::compile("host_memory_free > 1\n");
  ASSERT_TRUE(plain);
  EXPECT_FALSE(plain->evaluate({{"host_memory_free", 21.0}}).rank.has_value());
}

// --- TCP probe reporting -----------------------------------------------------

TEST(TcpReporting, ProbeReportsOverTcp) {
  ipc::InMemoryStatusStore store;
  monitor::SystemMonitorConfig config;
  config.accept_tcp = true;
  monitor::SystemMonitor monitor(config, store);
  ASSERT_TRUE(monitor.valid());
  ASSERT_TRUE(monitor.tcp_endpoint().valid());
  ASSERT_TRUE(monitor.start());

  sim::SimHost host(*sim::find_paper_host("dione"));
  host.procfs().tick(5.0);
  probe::ProbeConfig probe_config;
  probe_config.host = "dione";
  probe_config.service_address = "127.0.0.1:9000";
  probe_config.monitor = monitor.tcp_endpoint();
  probe_config.use_tcp = true;
  probe::ServerProbe probe(probe_config,
                           std::make_unique<probe::SimProcSource>(&host.procfs()));

  ASSERT_TRUE(probe.probe_once());
  for (int i = 0; i < 100 && monitor.reports_received() == 0; ++i) {
    std::this_thread::sleep_for(10ms);
  }
  monitor.stop();
  auto records = store.sys_records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].host_str(), "dione");
}

TEST(TcpReporting, MalformedTcpReportRejected) {
  ipc::InMemoryStatusStore store;
  monitor::SystemMonitor monitor(monitor::SystemMonitorConfig{}, store);
  ASSERT_TRUE(monitor.start());
  auto conn = net::TcpSocket::connect(monitor.tcp_endpoint(), 1s);
  ASSERT_TRUE(conn);
  ASSERT_TRUE(conn->send_all("not a report\n").ok());
  for (int i = 0; i < 100 && monitor.reports_rejected() == 0; ++i) {
    std::this_thread::sleep_for(10ms);
  }
  monitor.stop();
  EXPECT_EQ(monitor.reports_rejected(), 1u);
  EXPECT_TRUE(store.sys_records().empty());
}

TEST(TcpReporting, BackgroundLoopHandlesBothTransports) {
  ipc::InMemoryStatusStore store;
  monitor::SystemMonitor monitor(monitor::SystemMonitorConfig{}, store);
  ASSERT_TRUE(monitor.start());

  sim::SimHost host_a(*sim::find_paper_host("sagit"));
  sim::SimHost host_b(*sim::find_paper_host("lhost"));
  probe::ProbeConfig udp_config;
  udp_config.host = "sagit";
  udp_config.service_address = "127.0.0.1:1001";
  udp_config.monitor = monitor.endpoint();
  probe::ServerProbe udp_probe(udp_config,
                               std::make_unique<probe::SimProcSource>(&host_a.procfs()));

  probe::ProbeConfig tcp_config;
  tcp_config.host = "lhost";
  tcp_config.service_address = "127.0.0.1:1002";
  tcp_config.monitor = monitor.tcp_endpoint();
  tcp_config.use_tcp = true;
  probe::ServerProbe tcp_probe(tcp_config,
                               std::make_unique<probe::SimProcSource>(&host_b.procfs()));

  ASSERT_TRUE(udp_probe.probe_once());
  ASSERT_TRUE(tcp_probe.probe_once());
  for (int i = 0; i < 100 && store.sys_records().size() < 2; ++i) {
    std::this_thread::sleep_for(10ms);
  }
  monitor.stop();
  EXPECT_EQ(store.sys_records().size(), 2u);
}

// --- selected parameters ------------------------------------------------------

TEST(SelectedParameters, FilteredWireSmaller) {
  probe::StatusReport report;
  report.host = "x";
  report.address = "127.0.0.1:1";
  report.load1 = 0.5;
  report.cpu_idle = 0.9;
  report.mem_free_mb = 100;
  std::string full = report.to_wire();
  std::string filtered = report.to_wire_selected({"l1", "ci", "mf"});
  EXPECT_LT(filtered.size(), full.size() / 2);
}

TEST(SelectedParameters, FilteredReportStillParses) {
  probe::StatusReport report;
  report.host = "x";
  report.address = "127.0.0.1:1";
  report.load1 = 0.5;
  report.mem_free_mb = 123;
  report.net_tbytes_ps = 999;  // not selected below
  auto parsed =
      probe::StatusReport::from_wire(report.to_wire_selected({"l1", "mf"}));
  ASSERT_TRUE(parsed);
  EXPECT_DOUBLE_EQ(parsed->load1, 0.5);
  EXPECT_DOUBLE_EQ(parsed->mem_free_mb, 123.0);
  EXPECT_DOUBLE_EQ(parsed->net_tbytes_ps, 0.0);  // unreported -> zero
}

TEST(SelectedParameters, WireKeysListedForFilters) {
  auto keys = probe::StatusReport::wire_keys();
  EXPECT_EQ(keys.size(), 19u);  // 19 numeric parameters on the wire
  EXPECT_NE(std::find(keys.begin(), keys.end(), "l1"), keys.end());
  EXPECT_NE(std::find(keys.begin(), keys.end(), "ntp"), keys.end());
}

TEST(SelectedParameters, ProbeEndToEndWithFilter) {
  ipc::InMemoryStatusStore store;
  monitor::SystemMonitor monitor(monitor::SystemMonitorConfig{}, store);

  sim::SimHost host(*sim::find_paper_host("mimas"));
  host.procfs().tick(5.0);
  probe::ProbeConfig config;
  config.host = "mimas";
  config.service_address = "127.0.0.1:1003";
  config.monitor = monitor.endpoint();
  config.selected_keys = {"l1", "ci", "mf"};
  probe::ServerProbe probe(config,
                           std::make_unique<probe::SimProcSource>(&host.procfs()));
  ASSERT_TRUE(probe.probe_once());
  ASSERT_EQ(monitor.poll_batch(1s), 1u);
  auto records = store.sys_records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_GT(records[0].mem_free_mb, 0.0);
  EXPECT_DOUBLE_EQ(records[0].bogomips, 0.0);  // filtered out
}

// --- find_replacement (§1.1 recovery) ------------------------------------------

TEST(Replacement, AvoidsExcludedHosts) {
  auto live_a = net::TcpListener::listen(net::Endpoint::loopback(0));
  auto live_b = net::TcpListener::listen(net::Endpoint::loopback(0));
  ASSERT_TRUE(live_a && live_b);

  ipc::InMemoryStatusStore store;
  auto make_record = [&](const std::string& host, const net::Endpoint& ep) {
    ipc::SysRecord record;
    ipc::copy_fixed(record.host, ipc::kHostNameLen, host);
    ipc::copy_fixed(record.address, ipc::kAddressLen, ep.to_string());
    record.cpu_idle = 0.9;
    return record;
  };
  store.put_sys(make_record("alpha", live_a->local_endpoint()));
  store.put_sys(make_record("beta", live_b->local_endpoint()));

  core::Wizard wizard(core::WizardConfig{}, store);
  ASSERT_TRUE(wizard.start());
  core::SmartClientConfig config;
  config.wizard = wizard.endpoint();
  config.seed = 55;
  core::SmartClient client(config);

  auto replacement = client.find_replacement("host_cpu_free > 0.5", {"alpha"});
  ASSERT_TRUE(replacement.has_value());
  EXPECT_EQ(replacement->server.host, "beta");
  wizard.stop();
}

TEST(Replacement, NoneLeftReturnsEmpty) {
  auto live = net::TcpListener::listen(net::Endpoint::loopback(0));
  ASSERT_TRUE(live);
  ipc::InMemoryStatusStore store;
  ipc::SysRecord record;
  ipc::copy_fixed(record.host, ipc::kHostNameLen, "only");
  ipc::copy_fixed(record.address, ipc::kAddressLen, live->local_endpoint().to_string());
  record.cpu_idle = 0.9;
  store.put_sys(record);

  core::Wizard wizard(core::WizardConfig{}, store);
  ASSERT_TRUE(wizard.start());
  core::SmartClientConfig config;
  config.wizard = wizard.endpoint();
  config.seed = 56;
  core::SmartClient client(config);
  EXPECT_FALSE(client.find_replacement("host_cpu_free > 0.5", {"only"}).has_value());
  wizard.stop();
}

TEST(Replacement, SkipsDeadCandidatesConnects) {
  // First candidate's service refuses connections; recovery must move on.
  auto dead_listener = net::TcpListener::listen(net::Endpoint::loopback(0));
  ASSERT_TRUE(dead_listener);
  net::Endpoint dead = dead_listener->local_endpoint();
  dead_listener->close();
  auto live = net::TcpListener::listen(net::Endpoint::loopback(0));
  ASSERT_TRUE(live);

  ipc::InMemoryStatusStore store;
  ipc::SysRecord r1;
  ipc::copy_fixed(r1.host, ipc::kHostNameLen, "deadhost");
  ipc::copy_fixed(r1.address, ipc::kAddressLen, dead.to_string());
  r1.cpu_idle = 0.9;
  store.put_sys(r1);
  ipc::SysRecord r2;
  ipc::copy_fixed(r2.host, ipc::kHostNameLen, "livehost");
  ipc::copy_fixed(r2.address, ipc::kAddressLen, live->local_endpoint().to_string());
  r2.cpu_idle = 0.9;
  store.put_sys(r2);

  core::Wizard wizard(core::WizardConfig{}, store);
  ASSERT_TRUE(wizard.start());
  core::SmartClientConfig config;
  config.wizard = wizard.endpoint();
  config.connect_timeout = std::chrono::milliseconds(200);
  config.seed = 57;
  core::SmartClient client(config);
  auto replacement = client.find_replacement("host_cpu_free > 0.5", {"failed-elsewhere"});
  ASSERT_TRUE(replacement.has_value());
  EXPECT_EQ(replacement->server.host, "livehost");
  wizard.stop();
}

}  // namespace
}  // namespace smartsock
