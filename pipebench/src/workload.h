// Workloads and seeded inputs for the pipeline benchmark.
//
// A workload fixes the fleet size, the open-loop report and query rates,
// the requirement mix and the freshness-marker cadence. Everything the
// system under test receives — probe reports, requirement texts, which
// requirement each query carries — is generated here from the run's seed,
// before the clock starts, so the same seed replays the same inputs.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "probe/status_report.h"

namespace pipebench {

struct WorkloadSpec {
  const char* name;
  const char* why;
  std::size_t hosts;              // fleet size, sentinel included
  double report_rps;              // probe reports per second (open loop)
  double query_qps;               // wizard queries per second (open loop)
  std::size_t requirements;       // distinct requirement texts in the mix
  std::size_t bad_requirements;   // of which do not compile
  std::size_t servers_per_query;  // Server Num asked for
  double marker_period_ms;        // one freshness marker per period
  double marker_poll_ms;          // SmartClient poll spacing while one is open
  double marker_resend_ms;        // resend an unreflected marker this often
  double push_interval_ms;        // transmitter push interval
  double latency_limit_us;        // p99 limit for the capacity search
  int setups;                     // set-ups per run; setup_s is their median
};

/// The benchmark's workloads; nullptr for an unknown name.
const WorkloadSpec* find_workload(const std::string& name);
const std::vector<WorkloadSpec>& workloads();

/// Probe interval and stale factor every workload runs the monitor with:
/// long enough that no host expires during a run.
inline constexpr double kProbeIntervalS = 60.0;
inline constexpr int kStaleFactor = 3;

/// Host 0 of every fleet: touched only by freshness markers.
inline constexpr const char* kSentinelHost = "sentinel";

struct Fleet {
  std::vector<smartsock::probe::StatusReport> hosts;  // [0] is the sentinel
  std::unordered_map<std::string, std::string> address_of;  // host -> address
};

Fleet make_fleet(std::size_t hosts, std::uint64_t seed);

/// `count` report wires cycling over every non-sentinel host in a seeded
/// order, each carrying fresh seeded status values.
std::vector<std::string> make_report_stream(const Fleet& fleet, std::size_t count,
                                            std::uint64_t seed);

struct RequirementMix {
  std::vector<std::string> texts;
  std::vector<bool> compiles;  // per text, by lang::Requirement::compile
};

RequirementMix make_requirements(std::size_t distinct, std::size_t bad, std::uint64_t seed);

/// Which requirement each of `count` queries carries (indices into the mix).
std::vector<std::uint32_t> make_query_mix(std::size_t count, std::size_t distinct,
                                          std::uint64_t seed);

/// The marker protocol: the sentinel alternates between two states, told
/// apart by host_cpu_bogomips values no fleet host reports. A reply to
/// marker_requirement(s) lists the sentinel exactly when the wizard sees
/// state s.
inline constexpr int kMarkerStates = 2;
double marker_value(int state);
std::string marker_requirement(int state);
std::string marker_report_wire(const Fleet& fleet, int state);

}  // namespace pipebench
