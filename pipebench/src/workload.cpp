#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "lang/requirement.h"
#include "util/rng.h"

namespace pipebench {

using namespace smartsock;

const std::vector<WorkloadSpec>& workloads() {
  // Marker periods are deliberately not multiples of the push interval, so
  // successive markers land at spread-out phases of the push tick.
  static const std::vector<WorkloadSpec> specs = {
      {"cached_queries",
       "1k hosts, report trickle, 8 requirements: >=99% reply-cache hits isolate the "
       "serving path (kernel UDP, wizard loop, wire codec, cache lock)",
       1000, 0.1, 3000.0, 8, 0, 10, 211.0, 1.0, 1000.0, 20.0, 50000.0, 3},
      {"churn_match",
       "2k hosts reporting ~1/s and 72 requirements (8 do not compile): every push "
       "bumps the version, so queries miss and run lang, the matcher and snapshots",
       2000, 2000.0, 40.0, 72, 8, 20, 97.0, 2.0, 1000.0, 20.0, 100000.0, 3},
      {"report_flood",
       "10k hosts reported open loop at over half of monitor ingest capacity, low query "
       "and marker rates: exposes per-report costs linear in the keyspace",
       10000, 1200.0, 8.0, 8, 1, 10, 251.0, 10.0, 10.0, 20.0, 500000.0, 3},
  };
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

namespace {

void randomize_status(probe::StatusReport& report, util::Rng& rng) {
  report.load1 = rng.uniform(0.0, 4.0);
  report.load5 = rng.uniform(0.0, 4.0);
  report.load15 = rng.uniform(0.0, 4.0);
  report.cpu_idle = rng.uniform(0.0, 1.0);
  report.cpu_user = (1.0 - report.cpu_idle) * 0.7;
  report.cpu_system = (1.0 - report.cpu_idle) * 0.3;
  report.mem_total_mb = 4096;
  report.mem_free_mb = rng.uniform(64.0, 4000.0);
  report.mem_used_mb = report.mem_total_mb - report.mem_free_mb;
  report.disk_rreq_ps = rng.uniform(0.0, 200.0);
  report.disk_wreq_ps = rng.uniform(0.0, 200.0);
  report.net_rbytes_ps = rng.uniform(0.0, 1e7);
  report.net_tbytes_ps = rng.uniform(0.0, 1e7);
}

}  // namespace

Fleet make_fleet(std::size_t hosts, std::uint64_t seed) {
  util::Rng rng(seed ^ 0xf1ee7ull);
  Fleet fleet;
  fleet.hosts.reserve(hosts);
  for (std::size_t i = 0; i < hosts; ++i) {
    probe::StatusReport report;
    report.host = i == 0 ? std::string(kSentinelHost) : "h" + std::to_string(i);
    report.address = "10." + std::to_string(i / 65536) + "." +
                     std::to_string((i / 256) % 256) + "." + std::to_string(i % 256) +
                     ":5000";
    report.group = "g" + std::to_string(i % 4);
    randomize_status(report, rng);
    // Fleet hosts sit far above the marker values; the sentinel starts in
    // the last marker state so the first marker is a change.
    report.bogomips = i == 0 ? marker_value(kMarkerStates - 1)
                             : std::floor(rng.uniform(1000.0, 6000.0));
    fleet.address_of[report.host] = report.address;
    fleet.hosts.push_back(std::move(report));
  }
  return fleet;
}

std::vector<std::string> make_report_stream(const Fleet& fleet, std::size_t count,
                                            std::uint64_t seed) {
  util::Rng rng(seed ^ 0x5eedull);
  std::vector<std::size_t> order(fleet.hosts.size() - 1);
  std::iota(order.begin(), order.end(), 1);
  std::shuffle(order.begin(), order.end(), rng.engine());
  std::vector<std::string> wires;
  wires.reserve(count);
  for (std::size_t i = 0; i < count && !order.empty(); ++i) {
    probe::StatusReport report = fleet.hosts[order[i % order.size()]];
    randomize_status(report, rng);
    wires.push_back(report.to_wire());
  }
  return wires;
}

RequirementMix make_requirements(std::size_t distinct, std::size_t bad, std::uint64_t seed) {
  util::Rng rng(seed ^ 0x7e9ull);
  static const char* kBroken[] = {
      "host_cpu_free > > 0.5\n",
      "(host_memory_free >= 100\n",
      "host_system_load1 <\n",
      "&& host_cpu_free > 0.2\n",
  };
  RequirementMix mix;
  char buffer[256];
  for (std::size_t i = 0; i < distinct; ++i) {
    std::string text;
    if (i < bad) {
      text = kBroken[i % 4];
      text += "host_memory_free >= " + std::to_string(i) + "\n";
    } else {
      // One shape for every requirement, three conjuncts over independent
      // attributes, so the seed moves thresholds but not the match cost.
      // The thresholds keep a healthy share of the fleet qualifying.
      std::snprintf(buffer, sizeof buffer,
                    "host_cpu_free > %.2f && host_memory_free >= %d && "
                    "host_system_load1 < %.1f\n",
                    rng.uniform(0.05, 0.6), static_cast<int>(rng.uniform_int(64, 1500)),
                    rng.uniform(1.5, 4.0));
      text = buffer;
    }
    std::string error;
    bool compiles = lang::Requirement::compile(text, &error).has_value();
    mix.texts.push_back(std::move(text));
    mix.compiles.push_back(compiles);
  }
  return mix;
}

std::vector<std::uint32_t> make_query_mix(std::size_t count, std::size_t distinct,
                                          std::uint64_t seed) {
  util::Rng rng(seed ^ 0x9e7ull);
  std::vector<std::uint32_t> mix(count);
  for (std::uint32_t& pick : mix) {
    pick = static_cast<std::uint32_t>(rng.uniform_int(0, static_cast<std::int64_t>(distinct) - 1));
  }
  return mix;
}

double marker_value(int state) { return 1.0 + static_cast<double>(state); }

std::string marker_requirement(int state) {
  char buffer[128];
  double value = marker_value(state);
  std::snprintf(buffer, sizeof buffer, "host_cpu_bogomips > %.1f && host_cpu_bogomips < %.1f\n",
                value - 0.5, value + 0.5);
  return buffer;
}

std::string marker_report_wire(const Fleet& fleet, int state) {
  probe::StatusReport report = fleet.hosts[0];
  report.bogomips = marker_value(state);
  return report.to_wire();
}

}  // namespace pipebench
