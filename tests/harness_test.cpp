// Integration tests: the full probe → monitor → transmitter → receiver →
// wizard → client pipeline over loopback, in both transfer modes, plus the
// experiment runners.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.h"
#include "obs/metrics.h"

namespace smartsock::harness {
namespace {

using namespace std::chrono_literals;

HarnessOptions small_options() {
  HarnessOptions options;
  options.hosts = {*sim::find_paper_host("dalmatian"), *sim::find_paper_host("telesto"),
                   *sim::find_paper_host("sagit")};
  return options;
}

TEST(Harness, BootsAndCollectsAllReports) {
  ClusterHarness cluster(small_options());
  ASSERT_TRUE(cluster.start());
  EXPECT_TRUE(cluster.wait_for_all_reports(5s));
  EXPECT_EQ(cluster.wizard_store().sys_records().size(), 3u);
  EXPECT_FALSE(cluster.wizard_store().net_records().empty());
  EXPECT_FALSE(cluster.wizard_store().sec_records().empty());
  cluster.stop();
}

TEST(Harness, PeriodicJobsRunOnTheHarnessLoop) {
  // Each periodic job is a timer on the harness's loop, so its time shows up
  // under its own reactor_callback_us site.
  auto samples = [](const std::string& site) {
    return obs::MetricsRegistry::instance()
        .histogram("reactor_callback_us{site=\"" + site + "\"}")
        ->count();
  };
  const std::vector<std::string> sites = {"probe_cycle", "netmon_measure", "secmon_refresh",
                                          "harness_tick"};
  std::vector<std::uint64_t> before;
  for (const std::string& site : sites) before.push_back(samples(site));

  HarnessOptions options = small_options();
  options.probe_interval = 50ms;
  options.transfer_interval = 50ms;
  ClusterHarness cluster(options);
  ASSERT_TRUE(cluster.start());
  std::this_thread::sleep_for(300ms);  // a few probe intervals
  cluster.stop();

  for (std::size_t i = 0; i < sites.size(); ++i) {
    EXPECT_GT(samples(sites[i]), before[i]) << sites[i];
  }
  // Every host's probe ran at least its first and one periodic cycle.
  EXPECT_GE(samples("probe_cycle") - before[0], 2 * options.hosts.size());
}

TEST(Harness, EndToEndSmartQuery) {
  ClusterHarness cluster(small_options());
  ASSERT_TRUE(cluster.start());
  ASSERT_TRUE(cluster.wait_for_all_reports(5s));

  core::SmartClient client = cluster.make_client(17);
  // Only the P4 2.4 GHz box clears bogomips > 4000.
  core::WizardReply reply = client.query("host_cpu_bogomips > 4000", 3);
  ASSERT_TRUE(reply.ok) << reply.error;
  ASSERT_EQ(reply.servers.size(), 1u);
  EXPECT_EQ(reply.servers[0].host, "dalmatian");
  cluster.stop();
}

TEST(Harness, WorkloadVisibleToWizard) {
  ClusterHarness cluster(small_options());
  ASSERT_TRUE(cluster.start());
  ASSERT_TRUE(cluster.wait_for_all_reports(5s));

  cluster.set_workload("dalmatian", apps::WorkloadKind::kSuperPi);
  ASSERT_TRUE(cluster.refresh_now());

  core::SmartClient client = cluster.make_client(18);
  core::WizardReply reply = client.query("host_system_load1 < 0.5", 3);
  ASSERT_TRUE(reply.ok) << reply.error;
  std::vector<std::string> names = names_of(reply.servers);
  EXPECT_EQ(names.size(), 2u);
  for (const std::string& name : names) EXPECT_NE(name, "dalmatian");
  cluster.stop();
}

TEST(Harness, SecurityLevelFlowsThrough) {
  ClusterHarness cluster(small_options());
  ASSERT_TRUE(cluster.start());
  ASSERT_TRUE(cluster.wait_for_all_reports(5s));

  cluster.set_security_level("telesto", 9);
  ASSERT_TRUE(cluster.refresh_now());

  core::SmartClient client = cluster.make_client(19);
  core::WizardReply reply = client.query("host_security_level >= 5", 3);
  ASSERT_TRUE(reply.ok) << reply.error;
  ASSERT_EQ(reply.servers.size(), 1u);
  EXPECT_EQ(reply.servers[0].host, "telesto");
  cluster.stop();
}

TEST(Harness, DistributedModePullsOnDemand) {
  HarnessOptions options = small_options();
  options.mode = transport::TransferMode::kDistributed;
  ClusterHarness cluster(options);
  ASSERT_TRUE(cluster.start());
  ASSERT_TRUE(cluster.wait_for_all_reports(5s));

  core::SmartClient client = cluster.make_client(20);
  core::WizardReply reply = client.query("host_cpu_free > 0.5", 3);
  ASSERT_TRUE(reply.ok) << reply.error;
  EXPECT_EQ(reply.servers.size(), 3u);
  cluster.stop();
}

TEST(Harness, DeadProbeExpiresFromPool) {
  HarnessOptions options = small_options();
  options.probe_interval = 50ms;
  ClusterHarness cluster(options);
  ASSERT_TRUE(cluster.start());
  ASSERT_TRUE(cluster.wait_for_all_reports(5s));

  // Kill one probe; after 3 intervals its record must be swept.
  cluster.host("telesto")->probe->stop();
  util::SteadyClock::instance().sleep_for(400ms);
  cluster.system_monitor()->sweep_stale();
  ASSERT_TRUE(cluster.refresh_now());

  core::SmartClient client = cluster.make_client(21);
  core::WizardReply reply = client.query("host_cpu_free > 0.1", 3);
  ASSERT_TRUE(reply.ok) << reply.error;
  for (const auto& server : reply.servers) EXPECT_NE(server.host, "telesto");
  EXPECT_LE(reply.servers.size(), 2u);
  cluster.stop();
}

TEST(Harness, MatmulExperimentSmartBeatsSlowCast) {
  HarnessOptions options = matmul_harness_options(/*time_scale=*/0.004);
  options.hosts = {*sim::find_paper_host("dalmatian"), *sim::find_paper_host("dione"),
                   *sim::find_paper_host("telesto"), *sim::find_paper_host("mimas")};
  ClusterHarness cluster(options);
  ASSERT_TRUE(cluster.start());
  ASSERT_TRUE(cluster.wait_for_all_reports(5s));

  MatmulExperiment experiment;
  experiment.n = 1500;
  experiment.block = 300;

  auto pool = cluster.all_servers();
  auto slow_cast = pick_named(pool, {"telesto", "mimas"});
  auto fast_cast = smart_selection(cluster, "host_cpu_bogomips > 4000", 2);
  ASSERT_EQ(fast_cast.size(), 2u);

  ExperimentRow slow = run_matmul(cluster, slow_cast, experiment, "slow");
  ExperimentRow fast = run_matmul(cluster, fast_cast, experiment, "smart");
  ASSERT_TRUE(slow.ok) << slow.error;
  ASSERT_TRUE(fast.ok) << fast.error;
  EXPECT_LT(fast.matmul_virtual_seconds, slow.matmul_virtual_seconds);
  cluster.stop();
}

TEST(Harness, MassdExperimentTracksGroupBandwidth) {
  HarnessOptions options = massd_harness_options();
  options.hosts = {*sim::find_paper_host("lhost"), *sim::find_paper_host("pandora-x")};
  ClusterHarness cluster(options);
  ASSERT_TRUE(cluster.start());
  ASSERT_TRUE(cluster.wait_for_all_reports(5s));

  cluster.set_group_metrics("group-1", 0.5, 8.0);   // lhost: 8 Mbps = 1 MB/s
  cluster.set_group_metrics("group-2", 0.5, 1.6);   // pandora-x: 200 KB/s
  ASSERT_TRUE(cluster.refresh_now());

  MassdExperiment experiment;
  experiment.data_kb = 400;
  experiment.block_kb = 50;

  auto pool = cluster.all_servers();
  auto fast = smart_selection(cluster, "monitor_network_bw > 6", 1);
  ASSERT_EQ(fast.size(), 1u);
  EXPECT_EQ(fast[0].host, "lhost");

  ExperimentRow fast_row = run_massd(cluster, fast, experiment, "smart");
  ExperimentRow slow_row =
      run_massd(cluster, pick_named(pool, {"pandora-x"}), experiment, "slow");
  ASSERT_TRUE(fast_row.ok) << fast_row.error;
  ASSERT_TRUE(slow_row.ok) << slow_row.error;
  EXPECT_GT(fast_row.throughput_kbps, slow_row.throughput_kbps * 2.0);
  cluster.stop();
}

TEST(Selection, RandomSelectionProperties) {
  std::vector<core::ServerEntry> pool;
  for (int i = 0; i < 10; ++i) {
    pool.push_back({"h" + std::to_string(i), "127.0.0.1:" + std::to_string(1000 + i)});
  }
  util::Rng rng(3);
  auto picked = random_selection(pool, 4, rng);
  ASSERT_EQ(picked.size(), 4u);
  std::set<std::string> unique;
  for (const auto& entry : picked) unique.insert(entry.host);
  EXPECT_EQ(unique.size(), 4u);
}

TEST(Selection, PickNamedPreservesOrderSkipsMissing) {
  std::vector<core::ServerEntry> pool = {{"a", "1:1"}, {"b", "1:2"}, {"c", "1:3"}};
  auto picked = pick_named(pool, {"c", "zz", "a"});
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked[0].host, "c");
  EXPECT_EQ(picked[1].host, "a");
}

}  // namespace
}  // namespace smartsock::harness
