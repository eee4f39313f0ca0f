// The system under test, assembled in-process, and the load generator that
// drives it.
//
// Pipeline wires the daemons' public classes exactly as smartsock-monitor
// and smartsock-wizard do, with their shipped defaults (1 ingest shard, 1
// handler thread, match_threads 1, cache_size 128): SystemMonitor → monitor
// store → Transmitter → Receiver → wizard store → Wizard. Only endpoints,
// the probe interval and the push interval are set by the workload. In the
// traced run both stores sit behind a TimedStore.
//
// Generator owns every socket the load uses (reports, queries, markers and
// one SmartClient) and runs open-loop phases: one load thread follows the
// report and query schedules and times each reply from its query's due
// time, checking it against the oracle; the calling thread runs the
// freshness markers through SmartClient::query. Both sleep between events,
// so the generator's CPU is mostly idle and leaves the host's cores to the
// daemons.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/smart_client.h"
#include "core/wizard.h"
#include "ipc/in_memory_store.h"
#include "monitor/system_monitor.h"
#include "net/udp_socket.h"
#include "oracle.h"
#include "stats.h"
#include "timed_store.h"
#include "transport/receiver.h"
#include "transport/transmitter.h"
#include "workload.h"

namespace pipebench {

class Pipeline {
 public:
  Pipeline(const WorkloadSpec& spec, bool traced);
  ~Pipeline();

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Empty when every component bound and started.
  const std::string& error() const { return error_; }

  smartsock::ipc::StatusStore& monitor_store();
  smartsock::ipc::StatusStore& wizard_store();
  /// Null in untraced pipelines.
  TimedStore* monitor_timed() { return monitor_timed_.get(); }
  TimedStore* wizard_timed() { return wizard_timed_.get(); }

  smartsock::monitor::SystemMonitor& monitor() { return *monitor_; }
  smartsock::transport::Receiver& receiver() { return *receiver_; }
  smartsock::core::Wizard& wizard() { return *wizard_; }
  smartsock::transport::Transmitter& transmitter() { return *transmitter_; }

 private:
  smartsock::ipc::InMemoryStatusStore monitor_inner_;
  smartsock::ipc::InMemoryStatusStore wizard_inner_;
  std::unique_ptr<TimedStore> monitor_timed_;
  std::unique_ptr<TimedStore> wizard_timed_;
  std::unique_ptr<smartsock::monitor::SystemMonitor> monitor_;
  std::unique_ptr<smartsock::transport::Receiver> receiver_;
  std::unique_ptr<smartsock::core::Wizard> wizard_;
  std::unique_ptr<smartsock::transport::Transmitter> transmitter_;
  std::string error_;
};

/// Inputs shared by every phase of one run, all derived from the seed.
struct RunInputs {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
  Fleet fleet;
  std::vector<std::string> fleet_wires;  // one initial report per host
  std::vector<std::string> reports;      // measured-phase report stream (cycled)
  RequirementMix requirements;
};

RunInputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed, double seconds);

struct PhaseConfig {
  double seconds = 0;
  double query_qps = 0;
  double report_rps = 0;
  bool markers = true;
  std::uint64_t seed = 0;  // query mix and schedule phases
};

struct MarkerSample {
  int state = 0;
  std::uint64_t sent_ns = 0;       // first send of the marker report
  std::uint64_t reflected_ns = 0;  // first SmartClient reply listing the change
};

struct PhaseResult {
  std::uint64_t queries_attempted = 0;
  std::uint64_t queries_failed = 0;  // no reply, late reply or unexpected ERR
  std::vector<double> latency_us;  // answered queries, in due order
  std::vector<double> late_us;     // generator lateness per query
  std::uint64_t reports_sent = 0;  // fleet reports plus marker datagrams
  std::uint64_t reports_landed = 0;
  std::uint64_t marker_datagrams = 0;
  std::vector<MarkerSample> markers;
  std::uint64_t markers_lost = 0;
  /// The schedule's length, stretched to the last ingest the monitor made
  /// after it (reports still queued when the schedule ended).
  double elapsed_s = 0;
  std::optional<std::string> violation;  // first oracle violation
};

class Generator {
 public:
  Generator(const RunInputs& inputs);

  /// Empty when every generator socket opened.
  const std::string& error() const { return error_; }

  /// Boots a fresh pipeline and sends every fleet host's first report,
  /// paced so none is dropped, until the wizard store holds the whole
  /// fleet. `seconds` receives the time from boot to that point.
  std::unique_ptr<Pipeline> boot_and_fill(bool traced, double* seconds, std::string* error);

  /// One open-loop phase against `pipeline`.
  PhaseResult run_phase(Pipeline& pipeline, const PhaseConfig& config);

  /// Stops nothing (the phase already ended): waits for the monitor to
  /// drain, forces one final push, and checks the oracle's quiesce rules.
  /// Returns the violation, or nullopt. `final_snapshot` receives the
  /// wizard store's final contents.
  std::optional<std::string> quiesce_and_check(Pipeline& pipeline,
                                               smartsock::ipc::SnapshotPtr* final_snapshot);

  /// One raw request/reply round trip on the query socket; nullopt on
  /// timeout. `rtt_us` receives the round-trip time.
  std::optional<smartsock::core::WizardReply> raw_query(Pipeline& pipeline,
                                                        const std::string& requirement,
                                                        std::size_t count, double* rtt_us);

  smartsock::core::SmartClient& client(Pipeline& pipeline);

  std::size_t sockets_used() const;
  static constexpr std::size_t kThreads = 2;  // load thread, marker/main thread

 private:
  const RunInputs* inputs_;
  std::string error_;
  smartsock::net::UdpSocket report_socket_;
  smartsock::net::UdpSocket query_socket_;
  smartsock::net::UdpSocket marker_socket_;
  std::unique_ptr<smartsock::core::SmartClient> client_;
  smartsock::net::Endpoint client_target_;
  ReplyOracle oracle_;
  int sentinel_state_ = kMarkerStates - 1;
  std::uint32_t phase_tag_ = 0;
  std::uint32_t raw_sequence_ = 0;
};

/// Core split between the system under test and the load generator. With
/// two or more usable CPUs the generator's threads run on the last one and
/// every thread the daemons start runs on the others, so a long match on
/// the wizard thread never preempts the thread that keeps the schedule.
/// Pins the calling thread to the generator's CPU.
void pin_to_generator_cpu();
/// E.g. "monitor cpu 0; wizard cpu 1; transport cpu 2; generator cpu 3",
/// or "none" on one CPU.
std::string describe_cpu_split();

/// Which of the system under test's CPUs a scope pins to. Each daemon gets
/// a CPU of its own — the monitor, the wizard, and the receiver with the
/// transmitter — shared round-robin when there are fewer. Left to itself
/// the scheduler sometimes stacks the monitor and the wizard on one CPU
/// for a whole run, which doubles the wizard's match time in that run.
enum class SutRole { kAny, kMonitor, kWizard, kTransport };

/// While alive, the calling thread — and so every thread it starts —
/// runs on the system under test's CPUs for `role`.
class SutCpuScope {
 public:
  explicit SutCpuScope(SutRole role = SutRole::kAny);
  ~SutCpuScope();
  SutCpuScope(const SutCpuScope&) = delete;
  SutCpuScope& operator=(const SutCpuScope&) = delete;
};

/// Peak resident set of this process so far, in MB (VmHWM).
double peak_rss_mb();

/// Kernel receive-queue drops so far on the IPv4 UDP socket bound to
/// `port` (the drops column of /proc/net/udp); 0 when not found.
std::uint64_t udp_socket_drops(std::uint16_t port);

}  // namespace pipebench
