// Golden list of the metric series the two UDP daemons publish.
//
// Each test starts one daemon configuration and compares every registered
// counter, gauge and histogram named wizard_*, sysmon_* or udp_rcvbuf_*
// against a fixed list, so adding, renaming or dropping a series is a
// deliberate edit to this file. The registry is process-wide and keeps every
// series it ever registered, so each test needs a process of its own; ctest
// runs each discovered test in a fresh one.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/wizard.h"
#include "ipc/in_memory_store.h"
#include "ipc/sharded_store.h"
#include "monitor/system_monitor.h"
#include "obs/metrics.h"

namespace smartsock {
namespace {

std::vector<std::string> daemon_series() {
  obs::Snapshot snap = obs::MetricsRegistry::instance().snapshot();
  std::vector<std::string> names;
  auto keep = [&names](const std::string& name) {
    for (const char* prefix : {"wizard_", "sysmon_", "udp_rcvbuf_"}) {
      if (name.rfind(prefix, 0) == 0) {
        names.push_back(name);
        return;
      }
    }
  };
  for (const auto& [name, value] : snap.counters) keep(name);
  for (const auto& [name, value] : snap.gauges) keep(name);
  for (const auto& histogram : snap.histograms) keep(histogram.name);
  std::sort(names.begin(), names.end());
  return names;
}

constexpr const char* kNeedsFreshProcess =
    "daemon series already registered by an earlier test in this process; run "
    "each MetricSeries test on its own (ctest does)";

const std::vector<std::string> kWizardCommon = {
    "udp_rcvbuf_dropped_total",
    "wizard_degraded",
    "wizard_malformed_requests_total",
    "wizard_query_errors_total",
    "wizard_query_latency_us",
    "wizard_reply_cache_hits_total",
    "wizard_reply_cache_misses_total",
    "wizard_requests_total",
    "wizard_requirement_cache_hits_total",
    "wizard_requirement_cache_misses_total",
    "wizard_stale_replies_total",
};

const std::vector<std::string> kMonitorCommon = {
    "sysmon_last_batch_ingested",
    "sysmon_last_batch_received",
    "sysmon_quarantine_trips_total",
    "sysmon_quarantined_hosts",
    "sysmon_quarantined_reports_dropped_total",
    "sysmon_report_batches_total",
    "sysmon_reports_rejected_total",
    "sysmon_reports_total",
    "udp_rcvbuf_dropped_total",
};

/// The per-shard series the group publishes for `daemon` with `shards`.
std::vector<std::string> shard_series(const std::string& daemon, int shards) {
  std::vector<std::string> names;
  for (int i = 0; i < shards; ++i) {
    std::string shard = "{shard=\"" + std::to_string(i) + "\"}";
    names.push_back(daemon + "_shard_batches_total" + shard);
    names.push_back(daemon + "_shard_datagrams_total" + shard);
    names.push_back("udp_rcvbuf_dropped_total{daemon=\"" + daemon + "\",shard=\"" +
                    std::to_string(i) + "\"}");
  }
  return names;
}

std::vector<std::string> concat(std::vector<std::string> a, const std::vector<std::string>& b) {
  a.insert(a.end(), b.begin(), b.end());
  std::sort(a.begin(), a.end());
  return a;
}

void expect_started_wizard_publishes(std::size_t shards) {
  if (!daemon_series().empty()) GTEST_SKIP() << kNeedsFreshProcess;
  ipc::InMemoryStatusStore store;
  core::WizardConfig config;
  config.ingest_shards = shards;
  config.pin_shards = false;
  core::Wizard wizard(config, store);
  ASSERT_TRUE(wizard.valid()) << wizard.bind_error();
  ASSERT_EQ(shards, wizard.ingest_shards());
  ASSERT_TRUE(wizard.start());
  EXPECT_EQ(concat(kWizardCommon, shard_series("wizard", static_cast<int>(shards))),
            daemon_series());
  wizard.stop();
}

void expect_started_monitor_publishes(std::size_t shards) {
  if (!daemon_series().empty()) GTEST_SKIP() << kNeedsFreshProcess;
  ipc::ShardedStatusStore store(shards);
  monitor::SystemMonitorConfig config;
  config.ingest_shards = shards;
  config.pin_shards = false;
  monitor::SystemMonitor monitor(config, store);
  ASSERT_TRUE(monitor.valid());
  ASSERT_EQ(shards, monitor.ingest_shards());
  ASSERT_TRUE(monitor.start());
  EXPECT_EQ(concat(kMonitorCommon, shard_series("sysmon", static_cast<int>(shards))),
            daemon_series());
  monitor.stop();
}

TEST(MetricSeries, WizardOneShard) { expect_started_wizard_publishes(1); }
TEST(MetricSeries, WizardTwoShards) { expect_started_wizard_publishes(2); }
TEST(MetricSeries, MonitorOneShard) { expect_started_monitor_publishes(1); }
TEST(MetricSeries, MonitorTwoShards) { expect_started_monitor_publishes(2); }

}  // namespace
}  // namespace smartsock
