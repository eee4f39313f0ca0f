// Probe tests: procfs parsers, wire format, rate computation, UDP reporting.
#include <gtest/gtest.h>
#include <bit>
#include <thread>

#include "core/server_matcher.h"
#include "monitor/system_monitor.h"
#include "net/reactor.h"
#include "net/udp_socket.h"
#include "probe/proc_reader.h"
#include "probe/server_probe.h"
#include "probe/sim_proc_reader.h"
#include "probe/status_report.h"
#include "sim/testbed.h"

namespace smartsock::probe {
namespace {

using namespace std::chrono_literals;

// --- parsers -----------------------------------------------------------------

TEST(ParseLoadavg, RealFormat) {
  ProcSample sample;
  ASSERT_TRUE(parse_loadavg("0.20 0.18 0.12 1/80 12345\n", sample));
  EXPECT_DOUBLE_EQ(sample.load1, 0.20);
  EXPECT_DOUBLE_EQ(sample.load5, 0.18);
  EXPECT_DOUBLE_EQ(sample.load15, 0.12);
}

TEST(ParseLoadavg, RejectsShortInput) {
  ProcSample sample;
  EXPECT_FALSE(parse_loadavg("0.20 0.18", sample));
  EXPECT_FALSE(parse_loadavg("", sample));
  EXPECT_FALSE(parse_loadavg("a b c", sample));
}

TEST(ParseStat, CpuAndDiskIo) {
  ProcSample sample;
  const char* text =
      "cpu  1000 50 300 8650\n"
      "cpu0 1000 50 300 8650\n"
      "disk_io: (8,0):(150,100,800,50,400)\n"
      "ctxt 999\n";
  ASSERT_TRUE(parse_stat(text, sample));
  EXPECT_EQ(sample.cpu_user, 1000u);
  EXPECT_EQ(sample.cpu_nice, 50u);
  EXPECT_EQ(sample.cpu_system, 300u);
  EXPECT_EQ(sample.cpu_idle, 8650u);
  EXPECT_EQ(sample.disk_rreq, 100u);
  EXPECT_EQ(sample.disk_rblocks, 800u);
  EXPECT_EQ(sample.disk_wreq, 50u);
  EXPECT_EQ(sample.disk_wblocks, 400u);
}

TEST(ParseStat, SumsMultipleDisks) {
  ProcSample sample;
  ASSERT_TRUE(parse_stat("cpu  1 2 3 4\ndisk_io: (8,0):(15,10,80,5,40) (8,1):(3,2,16,1,8)\n",
                         sample));
  EXPECT_EQ(sample.disk_rreq, 12u);
  EXPECT_EQ(sample.disk_wreq, 6u);
}

TEST(ParseStat, MissingCpuLineFails) {
  ProcSample sample;
  EXPECT_FALSE(parse_stat("intr 1 2 3\n", sample));
}

TEST(ParseMeminfo, OldByteTable) {
  ProcSample sample;
  const char* text =
      "        total:    used:    free:  shared: buffers:  cached:\n"
      "Mem:  262213632 121085952 141127680 0 18284544 82911232\n"
      "Swap: 536870912 0 536870912\n";
  ASSERT_TRUE(parse_meminfo(text, sample));
  EXPECT_EQ(sample.mem_total, 262213632u);
  EXPECT_EQ(sample.mem_used, 121085952u);
  EXPECT_EQ(sample.mem_free, 141127680u);
}

TEST(ParseMeminfo, ModernKbLines) {
  ProcSample sample;
  ASSERT_TRUE(parse_meminfo("MemTotal:  1024 kB\nMemFree:  256 kB\n", sample));
  EXPECT_EQ(sample.mem_total, 1024u * 1024u);
  EXPECT_EQ(sample.mem_free, 256u * 1024u);
  EXPECT_EQ(sample.mem_used, 768u * 1024u);
}

TEST(ParseMeminfo, RejectsGarbage) {
  ProcSample sample;
  EXPECT_FALSE(parse_meminfo("nothing useful", sample));
}

TEST(ParseNetdev, SkipsLoopbackTakesFirstPhysical) {
  ProcSample sample;
  const char* text =
      "Inter-|   Receive ...\n"
      " face |bytes packets errs drop fifo frame compressed multicast|bytes packets ...\n"
      "    lo: 999 9 0 0 0 0 0 0 999 9 0 0 0 0 0 0\n"
      "  eth0: 12345 100 0 0 0 0 0 0 6789 50 0 0 0 0 0 0\n"
      "  eth1: 1 1 0 0 0 0 0 0 1 1 0 0 0 0 0 0\n";
  ASSERT_TRUE(parse_netdev(text, sample));
  EXPECT_EQ(sample.net_rbytes, 12345u);
  EXPECT_EQ(sample.net_rpackets, 100u);
  EXPECT_EQ(sample.net_tbytes, 6789u);
  EXPECT_EQ(sample.net_tpackets, 50u);
}

TEST(ParseNetdev, FailsWithOnlyLoopback) {
  ProcSample sample;
  EXPECT_FALSE(parse_netdev("    lo: 1 1 0 0 0 0 0 0 1 1 0 0 0 0 0 0\n", sample));
}

TEST(ParseCpuinfo, Bogomips) {
  ProcSample sample;
  ASSERT_TRUE(parse_cpuinfo("processor : 0\nmodel name : P3\nbogomips : 1730.15\n", sample));
  EXPECT_DOUBLE_EQ(sample.bogomips, 1730.15);
}

TEST(FileProcSourceTest, ReadsRealProc) {
  // The build machine runs Linux; the probe must cope with a modern /proc.
  FileProcSource source("/proc");
  auto sample = source.sample();
  ASSERT_TRUE(sample);
  EXPECT_GT(sample->mem_total, 0u);
  EXPECT_GE(sample->load1, 0.0);
}

TEST(FileProcSourceTest, MissingRootFails) {
  FileProcSource source("/nonexistent_proc");
  EXPECT_FALSE(source.sample());
}

// --- status report wire format -------------------------------------------------

StatusReport sample_report() {
  StatusReport report;
  report.host = "dalmatian";
  report.address = "127.0.0.1:5001";
  report.group = "seg1";
  report.load1 = 0.25;
  report.load5 = 0.18;
  report.load15 = 0.1;
  report.cpu_user = 0.2;
  report.cpu_system = 0.05;
  report.cpu_idle = 0.75;
  report.bogomips = 4771.02;
  report.mem_total_mb = 512;
  report.mem_used_mb = 130.5;
  report.mem_free_mb = 381.5;
  report.disk_rreq_ps = 3.5;
  report.net_tbytes_ps = 200000;
  return report;
}

TEST(StatusReportWire, RoundTrips) {
  StatusReport report = sample_report();
  auto parsed = StatusReport::from_wire(report.to_wire());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->host, "dalmatian");
  EXPECT_EQ(parsed->address, "127.0.0.1:5001");
  EXPECT_EQ(parsed->group, "seg1");
  EXPECT_DOUBLE_EQ(parsed->load1, 0.25);
  EXPECT_DOUBLE_EQ(parsed->bogomips, 4771.02);
  EXPECT_DOUBLE_EQ(parsed->mem_used_mb, 130.5);
  EXPECT_DOUBLE_EQ(parsed->net_tbytes_ps, 200000);
}

TEST(StatusReportWire, StaysNearThesisSize) {
  // §3.2.1: "less than 200 bytes"; ours carries identity strings too, so
  // allow a small margin but keep the same order of magnitude.
  EXPECT_LT(sample_report().to_wire().size(), 300u);
}

TEST(StatusReportWire, RejectsWrongMagic) {
  EXPECT_FALSE(StatusReport::from_wire("XXX1 host=a"));
  EXPECT_FALSE(StatusReport::from_wire(""));
}

TEST(StatusReportWire, RejectsMissingHost) {
  EXPECT_FALSE(StatusReport::from_wire("SSR1 addr=1.2.3.4:1 l1=0.5"));
}

TEST(StatusReportWire, RejectsMalformedNumber) {
  EXPECT_FALSE(StatusReport::from_wire("SSR1 host=a l1=abc"));
}

TEST(StatusReportWire, SkipsUnknownKeysForForwardCompat) {
  auto parsed = StatusReport::from_wire("SSR1 host=a newfangled=7 l1=0.5");
  ASSERT_TRUE(parsed);
  EXPECT_DOUBLE_EQ(parsed->load1, 0.5);
}

TEST(StatusReportAttrs, BindsServerVariables) {
  // Through the monitor's sysdb record, the matcher's slot table binds 21 of
  // the 22 server-side variables; the 22nd (host_security_level) comes from
  // secdb, 0 for a host without a row, and monitor_* stay unbound without a
  // netdb row.
  core::MatchInput input;
  input.sys.push_back(monitor::to_sys_record(sample_report(), 0));
  const lang::SlotMask every_slot = (lang::SlotMask{1} << lang::kServerSlotCount) - 1;
  lang::Binding binding;
  core::RecordBinder(input, every_slot).bind(input.sys[0], binding);
  auto slot = [](std::string_view name) {
    return static_cast<std::size_t>(*lang::find_server_slot(name));
  };
  std::size_t from_record = 0;
  for (const std::string& name : lang::server_variable_names()) {
    if (name != "host_security_level") from_record += (binding.bound >> slot(name)) & 1u;
  }
  EXPECT_EQ(from_record, 21u);
  EXPECT_EQ(std::popcount(binding.bound), 22);
  EXPECT_DOUBLE_EQ(binding.values[slot("host_security_level")], 0.0);
  EXPECT_DOUBLE_EQ(binding.values[slot("host_system_load1")], 0.25);
  EXPECT_DOUBLE_EQ(binding.values[slot("host_cpu_free")], 0.75);
  EXPECT_DOUBLE_EQ(binding.values[slot("host_cpu_bogomips")], 4771.02);
  EXPECT_DOUBLE_EQ(binding.values[slot("host_memory_free")], 381.5);
  EXPECT_DOUBLE_EQ(binding.values[slot("host_network_tbytesps")], 200000.0);
}

// --- rate computation ----------------------------------------------------------

TEST(MakeReport, CpuRatesFromJiffyDeltas) {
  ProbeConfig config;
  config.host = "h";
  ProcSample before, after;
  before.cpu_user = 1000;
  before.cpu_idle = 9000;
  after = before;
  after.cpu_user += 250;  // 25% busy over the interval
  after.cpu_idle += 750;
  StatusReport report = make_report(config, before, after, 10.0);
  EXPECT_NEAR(report.cpu_user, 0.25, 1e-9);
  EXPECT_NEAR(report.cpu_idle, 0.75, 1e-9);
  EXPECT_NEAR(report.cpu_free(), 0.75, 1e-9);
}

TEST(MakeReport, IoRatesUseWallClock) {
  ProbeConfig config;
  ProcSample before, after;
  after.net_tbytes = before.net_tbytes + 5000;
  after.disk_rreq = before.disk_rreq + 20;
  StatusReport report = make_report(config, before, after, 5.0);
  EXPECT_DOUBLE_EQ(report.net_tbytes_ps, 1000.0);
  EXPECT_DOUBLE_EQ(report.disk_rreq_ps, 4.0);
}

TEST(MakeReport, CounterWrapYieldsZeroNotGarbage) {
  ProbeConfig config;
  ProcSample before, after;
  before.net_tbytes = 5000;
  after.net_tbytes = 100;  // counter reset (reboot)
  StatusReport report = make_report(config, before, after, 5.0);
  EXPECT_DOUBLE_EQ(report.net_tbytes_ps, 0.0);
}

TEST(MakeReport, ZeroIntervalNoRates) {
  ProbeConfig config;
  ProcSample sample;
  sample.mem_total = 100 << 20;
  StatusReport report = make_report(config, sample, sample, 0.0);
  EXPECT_DOUBLE_EQ(report.net_tbytes_ps, 0.0);
  EXPECT_NEAR(report.mem_total_mb, 100.0, 0.01);
}

// --- probe end to end -------------------------------------------------------------

TEST(ServerProbe, ReportsOverUdp) {
  auto monitor = net::UdpSocket::bind(net::Endpoint::loopback(0));
  ASSERT_TRUE(monitor);

  auto spec = sim::find_paper_host("helene");
  ASSERT_TRUE(spec);
  sim::SimHost host(*spec);
  host.procfs().tick(10.0);

  ProbeConfig config;
  config.host = "helene";
  config.service_address = "127.0.0.1:9999";
  config.group = "seg3";
  config.monitor = monitor->local_endpoint();
  ServerProbe probe(config, std::make_unique<SimProcSource>(&host.procfs()));

  ASSERT_TRUE(probe.probe_once());
  auto datagram = monitor->receive(500ms);
  ASSERT_TRUE(datagram);
  auto report = StatusReport::from_wire(datagram->payload);
  ASSERT_TRUE(report);
  EXPECT_EQ(report->host, "helene");
  EXPECT_EQ(report->group, "seg3");
  EXPECT_DOUBLE_EQ(report->bogomips, spec->bogomips);
}

TEST(ServerProbe, LoopTimerSendsRepeatedly) {
  auto monitor = net::UdpSocket::bind(net::Endpoint::loopback(0));
  ASSERT_TRUE(monitor);

  sim::SimHost host(*sim::find_paper_host("phoebe"));
  ProbeConfig config;
  config.host = "phoebe";
  config.monitor = monitor->local_endpoint();
  config.interval = 30ms;
  net::Reactor loop;
  ASSERT_TRUE(loop.start());
  ServerProbe probe(config, std::make_unique<SimProcSource>(&host.procfs()));

  ASSERT_TRUE(probe.start(loop));
  EXPECT_FALSE(probe.start(loop));  // already started
  int received = 0;
  for (int i = 0; i < 5; ++i) {
    if (monitor->receive(500ms)) ++received;
  }
  probe.stop();
  EXPECT_GE(received, 3);
  EXPECT_GE(probe.reports_sent(), 3u);

  // No cycle runs once stop() has returned, and a stopped probe stays
  // silent when asked to report now.
  std::uint64_t sent = probe.reports_sent();
  EXPECT_FALSE(probe.report_now());
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(probe.reports_sent(), sent);
}

}  // namespace
}  // namespace smartsock::probe
