#include "pipeline.h"

#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_set>

namespace pipebench {

using namespace smartsock;

namespace {

std::uint64_t now_ns() { return ipc::steady_now_ns(); }

/// Wake-ups land within a microsecond or two of their deadline instead of
/// the default 50 µs timer slack.
void tighten_timer_slack() { prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0); }

/// Waits until `fd` is readable or `deadline_ns` passes.
void wait_readable(int fd, std::uint64_t deadline_ns) {
  std::uint64_t now = now_ns();
  if (deadline_ns <= now) return;
  std::uint64_t wait = deadline_ns - now;
  timespec timeout{static_cast<time_t>(wait / 1'000'000'000ULL),
                   static_cast<long>(wait % 1'000'000'000ULL)};
  pollfd entry{fd, POLLIN, 0};
  ppoll(&entry, 1, &timeout, nullptr);
}

void sleep_until_ns(std::uint64_t deadline_ns) {
  std::uint64_t now = now_ns();
  if (deadline_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

/// Reports in flight while filling the fleet: well under what a default
/// receive buffer holds, so set-up never loses a report to the kernel.
constexpr std::uint64_t kFillWindow = 64;
/// A query answered later than this after its due time counts as failed.
constexpr std::uint64_t kQueryTimeoutNs = 1'000'000'000;
/// A marker not reflected within this long is counted lost.
constexpr std::uint64_t kMarkerTimeoutNs = 3'000'000'000;
/// Receive-slot size for wizard replies (60 servers stay far below it).
constexpr std::size_t kMaxReplyBytes = 16 * 1024;
/// Sequence numbers carry the phase in their top bits so a late reply to an
/// earlier phase is never mistaken for one of this phase.
constexpr int kSeqIndexBits = 24;

double ms_to_ns(double ms) { return ms * 1e6; }

}  // namespace

// --- Pipeline ----------------------------------------------------------------

Pipeline::Pipeline(const WorkloadSpec& spec, bool traced) {
  // Each daemon's threads inherit the CPU of the scope they start in.
  if (traced) {
    monitor_timed_ = std::make_unique<TimedStore>(monitor_inner_);
    wizard_timed_ = std::make_unique<TimedStore>(wizard_inner_);
  }

  monitor::SystemMonitorConfig monitor_config;
  monitor_config.bind = net::Endpoint::loopback(0);
  monitor_config.probe_interval = util::from_seconds(kProbeIntervalS);
  monitor_config.stale_factor = kStaleFactor;
  {
    SutCpuScope on_monitor_cpu(SutRole::kMonitor);
    monitor_ = std::make_unique<monitor::SystemMonitor>(monitor_config, monitor_store());
    if (!monitor_->valid() || !monitor_->start()) {
      error_ = "system monitor failed to start";
      return;
    }
  }

  transport::ReceiverConfig receiver_config;
  receiver_config.bind = net::Endpoint::loopback(0);
  receiver_ = std::make_unique<transport::Receiver>(receiver_config, wizard_store());
  if (!receiver_->valid()) {
    error_ = "receiver failed to bind";
    return;
  }

  {
    SutCpuScope on_transport_cpu(SutRole::kTransport);
    receiver_->start();
  }

  core::WizardConfig wizard_config;
  wizard_config.bind = net::Endpoint::loopback(0);
  {
    SutCpuScope on_wizard_cpu(SutRole::kWizard);
    wizard_ = std::make_unique<core::Wizard>(wizard_config, wizard_store(), receiver_.get());
    if (!wizard_->valid()) {
      error_ = wizard_->bind_error();
      return;
    }
    wizard_->start();
  }

  transport::TransmitterConfig transmitter_config;
  transmitter_config.mode = transport::TransferMode::kCentralized;
  transmitter_config.receivers.push_back(receiver_->endpoint());
  transmitter_config.receiver = receiver_->endpoint();
  transmitter_config.interval = util::from_millis(spec.push_interval_ms);
  SutCpuScope on_transport_cpu(SutRole::kTransport);
  transmitter_ = std::make_unique<transport::Transmitter>(transmitter_config, monitor_store());
  if (!transmitter_->start()) error_ = "transmitter failed to start";
}

Pipeline::~Pipeline() {
  // The daemons' own shutdown order: transmitter, wizard, receiver, monitor.
  if (transmitter_) transmitter_->stop();
  if (wizard_) wizard_->stop();
  if (receiver_) receiver_->stop();
  if (monitor_) monitor_->stop();
}

ipc::StatusStore& Pipeline::monitor_store() {
  return monitor_timed_ ? static_cast<ipc::StatusStore&>(*monitor_timed_) : monitor_inner_;
}

ipc::StatusStore& Pipeline::wizard_store() {
  return wizard_timed_ ? static_cast<ipc::StatusStore&>(*wizard_timed_) : wizard_inner_;
}

// --- inputs ------------------------------------------------------------------

RunInputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed, double seconds) {
  RunInputs inputs;
  inputs.spec = &spec;
  inputs.seed = seed;
  inputs.fleet = make_fleet(spec.hosts, seed);
  for (const probe::StatusReport& host : inputs.fleet.hosts) {
    inputs.fleet_wires.push_back(host.to_wire());
  }
  // Enough distinct reports for one phase, capped at four rounds of the
  // fleet; the stream is cycled beyond that.
  auto wanted = static_cast<std::size_t>(spec.report_rps * (seconds + 1.0)) + 1;
  inputs.reports = make_report_stream(inputs.fleet, std::min(wanted, 4 * spec.hosts), seed);
  inputs.requirements = make_requirements(spec.requirements, spec.bad_requirements, seed);
  return inputs;
}

// --- Generator ---------------------------------------------------------------

Generator::Generator(const RunInputs& inputs)
    : inputs_(&inputs), oracle_(inputs.fleet.address_of) {
  auto report = net::UdpSocket::bind(net::Endpoint::loopback(0));
  auto query = net::UdpSocket::bind(net::Endpoint::loopback(0));
  auto marker = net::UdpSocket::bind(net::Endpoint::loopback(0));
  if (!report || !query || !marker) {
    error_ = "cannot open generator sockets";
    return;
  }
  report_socket_ = std::move(*report);
  query_socket_ = std::move(*query);
  marker_socket_ = std::move(*marker);
}

std::size_t Generator::sockets_used() const { return 3 + (client_ ? 1 : 0); }

core::SmartClient& Generator::client(Pipeline& pipeline) {
  if (!client_ || !(client_target_ == pipeline.wizard().endpoint())) {
    core::SmartClientConfig config;
    config.wizard = pipeline.wizard().endpoint();
    config.seed = inputs_->seed ^ 0xc11e47ull;
    client_.reset();  // at most one client socket open at a time
    client_ = std::make_unique<core::SmartClient>(config);
    client_target_ = config.wizard;
  }
  return *client_;
}

std::unique_ptr<Pipeline> Generator::boot_and_fill(bool traced, double* seconds,
                                                   std::string* error) {
  const WorkloadSpec& spec = *inputs_->spec;
  std::uint64_t started = now_ns();
  auto pipeline = std::make_unique<Pipeline>(spec, traced);
  if (!pipeline->error().empty()) {
    *error = pipeline->error();
    return nullptr;
  }
  monitor::SystemMonitor& monitor = pipeline->monitor();
  const net::Endpoint target = monitor.endpoint();
  const std::vector<std::string>& wires = inputs_->fleet_wires;

  // Windowed send: never more than kFillWindow reports ahead of ingest.
  std::uint64_t base = monitor.reports_received();
  std::uint64_t sent = 0;
  auto landed = [&] { return monitor.reports_received() - base; };
  auto send_paced = [&](const std::string& wire) {
    std::uint64_t deadline = now_ns() + 5'000'000'000ULL;
    while (sent - landed() >= kFillWindow && now_ns() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    report_socket_.send_to(wire, target);
    ++sent;
  };
  auto wait_landed = [&] {
    std::uint64_t last = landed();
    std::uint64_t last_change = now_ns();
    while (landed() < sent && now_ns() - last_change < 200'000'000ULL) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      if (landed() != last) {
        last = landed();
        last_change = now_ns();
      }
    }
  };
  for (const std::string& wire : wires) send_paced(wire);
  wait_landed();
  // A report lost anyway is resent until the monitor store holds every host.
  for (int round = 0; round < 5; ++round) {
    ipc::SnapshotPtr snap = pipeline->monitor_store().snapshot();
    if (snap->sys.size() >= wires.size()) break;
    std::unordered_set<std::string> present;
    for (const ipc::SysRecord& record : snap->sys) {
      present.insert(ipc::read_fixed(record.address, ipc::kAddressLen));
    }
    for (std::size_t i = 0; i < wires.size(); ++i) {
      if (!present.count(inputs_->fleet.hosts[i].address)) send_paced(wires[i]);
    }
    wait_landed();
  }
  std::uint64_t target_version = pipeline->monitor_store().version();
  if (pipeline->monitor_store().snapshot()->sys.size() != wires.size()) {
    *error = "monitor store never held the whole fleet";
    return nullptr;
  }
  std::uint64_t deadline = now_ns() + 60'000'000'000ULL;
  while (pipeline->receiver().replicated_version() < target_version) {
    if (now_ns() > deadline) {
      *error = "wizard store never caught up with the fleet";
      return nullptr;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  *seconds = static_cast<double>(now_ns() - started) / 1e9;
  if (pipeline->wizard_store().snapshot()->sys.size() != wires.size()) {
    *error = "wizard store does not hold the whole fleet after set-up";
    return nullptr;
  }
  sentinel_state_ = kMarkerStates - 1;
  return pipeline;
}

PhaseResult Generator::run_phase(Pipeline& pipeline, const PhaseConfig& config) {
  const WorkloadSpec& spec = *inputs_->spec;
  const RequirementMix& requirements = inputs_->requirements;
  PhaseResult result;
  util::Rng rng(config.seed);

  OpenLoopSchedule queries(config.query_qps, config.seconds, rng.uniform(0.0, 1.0));
  OpenLoopSchedule reports(config.report_rps, config.seconds, rng.uniform(0.0, 1.0));
  std::vector<std::uint32_t> mix =
      make_query_mix(queries.size(), requirements.texts.size(), config.seed);
  const std::uint32_t tag = (++phase_tag_ % 127 + 1) << kSeqIndexBits;
  const std::size_t n = std::min<std::size_t>(queries.size(), (1u << kSeqIndexBits) - 2);

  const net::Endpoint monitor_target = pipeline.monitor().endpoint();
  const net::Endpoint wizard_target = pipeline.wizard().endpoint();
  const std::uint64_t landed_before = pipeline.monitor().reports_received();

  // Drop anything left on the query socket by an earlier phase.
  {
    std::string stale;
    net::Endpoint peer;
    while (query_socket_.try_receive_from(stale, peer).ok()) {
    }
  }

  const std::uint64_t t0 = now_ns() + 20'000'000;  // the load thread is up by then
  const std::uint64_t end_ns = t0 + static_cast<std::uint64_t>(config.seconds * 1e9);
  std::vector<double> late_us;
  late_us.reserve(n);
  std::uint64_t reports_sent = 0;
  std::vector<double> latency(n, -1.0);
  std::uint64_t failed = 0;
  std::optional<std::string> violation;

  // One thread follows both schedules and drains replies, waiting in
  // ppoll() for whichever comes first: the next due time or a reply.
  std::thread load([&] {
    tighten_timer_slack();
    std::vector<net::Datagram> batch;
    core::UserRequest request;
    request.server_num = static_cast<std::uint16_t>(spec.servers_per_query);
    std::vector<bool> answered(n, false);
    std::size_t answered_count = 0;
    std::string payload;
    net::Endpoint peer;
    const std::uint64_t last_due = n == 0 ? 0 : t0 + queries.due_ns(n - 1);
    std::size_t next_query = 0;
    std::size_t next_report = 0;
    for (;;) {
      std::uint64_t now = now_ns();
      std::uint64_t elapsed = now > t0 ? now - t0 : 0;
      std::size_t reports_due = reports.due_by(elapsed);
      if (reports_due > next_report && !inputs_->reports.empty()) {
        batch.clear();
        for (; next_report < reports_due; ++next_report) {
          batch.push_back(net::Datagram{
              inputs_->reports[next_report % inputs_->reports.size()], monitor_target});
        }
        reports_sent += report_socket_.send_batch(batch);
      }
      std::size_t queries_due = std::min(queries.due_by(elapsed), n);
      for (; next_query < queries_due; ++next_query) {
        request.sequence = tag | static_cast<std::uint32_t>(next_query + 1);
        request.detail = requirements.texts[mix[next_query]];
        query_socket_.send_to(request.to_wire(), wizard_target);
        late_us.push_back(latency_from_due_us(t0 + queries.due_ns(next_query), now_ns()));
      }
      while (query_socket_.try_receive_from(payload, peer, kMaxReplyBytes).ok()) {
        std::uint64_t at = now_ns();
        auto reply = core::WizardReply::from_wire(payload);
        if (!reply) {
          if (!violation) violation = "unparseable wizard reply";
          continue;
        }
        if ((reply->sequence & ~((1u << kSeqIndexBits) - 1)) != tag) continue;  // other phase
        std::size_t index = (reply->sequence & ((1u << kSeqIndexBits) - 1)) - 1;
        if (index >= n || answered[index]) {
          if (!violation) violation = "reply to an unknown or already answered sequence";
          continue;
        }
        answered[index] = true;
        ++answered_count;
        ReplyExpectation expect{reply->sequence, spec.servers_per_query,
                                requirements.compiles[mix[index]]};
        if (auto bad = oracle_.check(*reply, expect); bad && !violation) violation = bad;
        std::uint64_t due = t0 + queries.due_ns(index);
        if (at - due > kQueryTimeoutNs || (expect.compiles && !reply->ok)) {
          ++failed;
          continue;
        }
        latency[index] = latency_from_due_us(due, at);
      }
      bool all_sent = next_query == n && next_report == reports.size();
      if (all_sent && (answered_count == n || now > last_due + kQueryTimeoutNs)) break;
      // Block until a reply arrives or the next item falls due.
      std::uint64_t wake = all_sent ? last_due + kQueryTimeoutNs : UINT64_MAX;
      if (next_query < n) wake = std::min(wake, t0 + queries.due_ns(next_query));
      if (next_report < reports.size()) wake = std::min(wake, t0 + reports.due_ns(next_report));
      wait_readable(query_socket_.fd(), wake);
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!answered[i]) ++failed;
    }
  });

  // Freshness markers, on this thread, through the client library.
  if (config.markers && spec.marker_period_ms > 0) {
    tighten_timer_slack();
    core::SmartClient& client = this->client(pipeline);
    OpenLoopSchedule marker_schedule(1000.0 / spec.marker_period_ms, config.seconds,
                                     rng.uniform(0.0, 1.0));
    std::optional<std::string> marker_violation;
    const auto resend_ns = static_cast<std::uint64_t>(ms_to_ns(spec.marker_resend_ms));
    const auto poll_ns = static_cast<std::uint64_t>(ms_to_ns(spec.marker_poll_ms));
    std::size_t next = 0;
    while (next < marker_schedule.size()) {
      std::uint64_t due = t0 + marker_schedule.due_ns(next);
      if (due >= end_ns) break;
      sleep_until_ns(due);
      int state = (sentinel_state_ + 1) % kMarkerStates;
      std::string wire = marker_report_wire(inputs_->fleet, state);
      std::string requirement = marker_requirement(state);
      MarkerSample sample;
      sample.state = state;
      sample.sent_ns = now_ns();
      marker_socket_.send_to(wire, monitor_target);
      ++result.marker_datagrams;
      std::uint64_t last_send = sample.sent_ns;
      for (;;) {
        core::WizardReply reply = client.query(requirement, 1);
        std::uint64_t at = now_ns();
        ReplyExpectation expect{reply.sequence, 1, true};
        if (reply.ok) {
          if (auto bad = oracle_.check(reply, expect); bad && !marker_violation) {
            marker_violation = bad;
          }
        }
        bool reflected = reply.ok && std::any_of(reply.servers.begin(), reply.servers.end(),
                                                 [](const core::ServerEntry& server) {
                                                   return server.host == kSentinelHost;
                                                 });
        if (reflected) {
          sample.reflected_ns = at;
          result.markers.push_back(sample);
          break;
        }
        if (at - sample.sent_ns > kMarkerTimeoutNs) {
          ++result.markers_lost;
          break;
        }
        if (at - last_send >= resend_ns) {
          marker_socket_.send_to(wire, monitor_target);
          ++result.marker_datagrams;
          last_send = at;
        }
        sleep_until_ns(at + poll_ns);
      }
      sentinel_state_ = state;
      // Skip marker slots that passed while this one was outstanding.
      std::uint64_t elapsed = now_ns() - t0;
      next = std::max(next + 1, marker_schedule.due_by(elapsed));
    }
    result.violation = marker_violation;
  }

  load.join();
  if (!result.violation) result.violation = violation;

  // Reports still queued in the monitor's socket land within a few batches;
  // wait until ingest goes quiet so "landed" is complete.
  std::uint64_t last_change = now_ns();
  {
    std::uint64_t last = pipeline.monitor().reports_received();
    while (now_ns() - last_change < 100'000'000ULL) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      std::uint64_t current = pipeline.monitor().reports_received();
      if (current != last) {
        last = current;
        last_change = now_ns();
      }
    }
  }

  result.queries_attempted = n;
  result.queries_failed = failed;
  for (double value : latency) {
    if (value >= 0) result.latency_us.push_back(value);
  }
  result.late_us = std::move(late_us);
  result.reports_sent = reports_sent + result.marker_datagrams;
  result.reports_landed = pipeline.monitor().reports_received() - landed_before;
  result.elapsed_s =
      std::max(config.seconds, static_cast<double>(last_change - t0) / 1e9);
  return result;
}

std::optional<core::WizardReply> Generator::raw_query(Pipeline& pipeline,
                                                      const std::string& requirement,
                                                      std::size_t count, double* rtt_us) {
  core::UserRequest request;
  // Raw queries carry phase tag 0, which phases never take.
  raw_sequence_ = raw_sequence_ % ((1u << kSeqIndexBits) - 1) + 1;
  request.sequence = raw_sequence_;
  request.server_num = static_cast<std::uint16_t>(count);
  request.detail = requirement;
  std::string wire = request.to_wire();
  query_socket_.set_receive_timeout(std::chrono::milliseconds(500));
  std::uint64_t started = now_ns();
  query_socket_.send_to(wire, pipeline.wizard().endpoint());
  std::string payload;
  net::Endpoint peer;
  while (query_socket_.receive_from(payload, peer).ok()) {
    auto reply = core::WizardReply::from_wire(payload);
    if (reply && reply->sequence == request.sequence) {
      if (rtt_us) *rtt_us = static_cast<double>(now_ns() - started) / 1e3;
      return reply;
    }
  }
  return std::nullopt;
}

std::optional<std::string> Generator::quiesce_and_check(Pipeline& pipeline,
                                                         ipc::SnapshotPtr* final_snapshot) {
  const WorkloadSpec& spec = *inputs_->spec;
  // Writes have stopped; one final push carries whatever the last tick
  // missed, and the receiver must commit the monitor's current version.
  std::uint64_t target = pipeline.monitor_store().version();
  pipeline.transmitter().transmit_once();
  std::uint64_t deadline = now_ns() + 10'000'000'000ULL;
  while (pipeline.receiver().replicated_version() < target) {
    if (now_ns() > deadline) return "wizard never committed the monitor's final version";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ipc::SnapshotPtr monitor_snap = pipeline.monitor_store().snapshot();
  ipc::SnapshotPtr wizard_snap = pipeline.wizard_store().snapshot();
  if (auto bad = compare_stores(*monitor_snap, *wizard_snap)) return bad;
  if (wizard_snap->sys.size() != inputs_->fleet.hosts.size()) {
    return "quiesced stores hold " + std::to_string(wizard_snap->sys.size()) +
           " hosts, fleet has " + std::to_string(inputs_->fleet.hosts.size());
  }

  std::vector<std::string> texts = inputs_->requirements.texts;
  for (int state = 0; state < kMarkerStates; ++state) texts.push_back(marker_requirement(state));
  core::WizardConfig defaults;
  for (const std::string& text : texts) {
    auto reply = raw_query(pipeline, text, spec.servers_per_query, nullptr);
    if (!reply) return "no reply at quiesce";
    if (auto bad = compare_with_matcher(*reply, text, spec.servers_per_query, *wizard_snap,
                                        defaults.local_group)) {
      return bad;
    }
  }
  if (final_snapshot) *final_snapshot = wizard_snap;
  return std::nullopt;
}

// --- core split ----------------------------------------------------------------

namespace {

struct CpuPlan {
  std::vector<int> sut;
  int generator = -1;  // -1: no split
};

const CpuPlan& cpu_plan() {
  static const CpuPlan plan = [] {
    CpuPlan p;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return p;
    std::vector<int> cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
    if (cpus.size() < 2) return p;
    p.generator = cpus.back();
    cpus.pop_back();
    p.sut = cpus;
    return p;
  }();
  return plan;
}

void set_affinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

/// Called only with a split, so the SUT has at least one CPU.
std::vector<int> role_cpus(SutRole role) {
  const CpuPlan& plan = cpu_plan();
  if (role == SutRole::kAny) return plan.sut;
  auto slot = static_cast<std::size_t>(role) - 1;
  return {plan.sut[slot % plan.sut.size()]};
}

}  // namespace

void pin_to_generator_cpu() {
  if (cpu_plan().generator >= 0) set_affinity({cpu_plan().generator});
}

std::string describe_cpu_split() {
  const CpuPlan& plan = cpu_plan();
  if (plan.generator < 0) return "none";
  return "monitor cpu " + std::to_string(role_cpus(SutRole::kMonitor)[0]) + "; wizard cpu " +
         std::to_string(role_cpus(SutRole::kWizard)[0]) + "; transport cpu " +
         std::to_string(role_cpus(SutRole::kTransport)[0]) + "; generator cpu " +
         std::to_string(plan.generator);
}

SutCpuScope::SutCpuScope(SutRole role) {
  if (cpu_plan().generator >= 0) set_affinity(role_cpus(role));
}

SutCpuScope::~SutCpuScope() { pin_to_generator_cpu(); }

// --- process probes ------------------------------------------------------------

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::uint64_t udp_socket_drops(std::uint16_t port) {
  std::ifstream table("/proc/net/udp");
  std::string line;
  std::getline(table, line);  // header
  char wanted[8];
  std::snprintf(wanted, sizeof wanted, ":%04X", port);
  while (std::getline(table, line)) {
    std::istringstream fields(line);
    std::string slot, local;
    fields >> slot >> local;
    if (local.size() < 5 || local.compare(local.size() - 5, 5, wanted) != 0) continue;
    // The drops column is the last one.
    std::string field, last;
    while (fields >> field) last = field;
    return std::strtoull(last.c_str(), nullptr, 10);
  }
  return 0;
}

}  // namespace pipebench
