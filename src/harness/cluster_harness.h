// Cluster harness — one-process reconstruction of the thesis's testbed.
//
// Boots, over real loopback sockets, everything Fig 3.1 shows:
//   * one simulated host per Table 5.1 machine, each with a server probe
//     reporting its (simulated) procfs over UDP,
//   * optionally a matmul worker and/or a massd file server per host — the
//     "service" whose endpoint the probe advertises,
//   * system, network and security monitors filling the monitor-side store,
//   * a transmitter shipping the databases to a receiver feeding the
//     wizard-side store (centralized push or distributed pull),
//   * the wizard answering client requests over UDP.
//
// A loop timer advances every simulated procfs in real time so probe rates
// are meaningful; workload changes are fast-forwarded so load averages
// converge immediately (the kernel would need minutes). That timer, every
// probe and the network and security monitors share one net::Reactor.
#pragma once

#include <map>
#include <memory>
#include <optional>

#include "apps/massd/file_server.h"
#include "apps/matmul/worker.h"
#include "apps/workload/workload_generator.h"
#include "core/smart_client.h"
#include "core/wizard.h"
#include "ipc/in_memory_store.h"
#include "monitor/network_monitor.h"
#include "monitor/security_monitor.h"
#include "monitor/system_monitor.h"
#include "net/reactor.h"
#include "obs/span.h"
#include "obs/stats_server.h"
#include "probe/server_probe.h"
#include "sim/testbed.h"
#include "transport/receiver.h"
#include "transport/transmitter.h"

namespace smartsock::harness {

struct HarnessOptions {
  std::vector<sim::HostSpec> hosts = sim::paper_hosts();
  transport::TransferMode mode = transport::TransferMode::kCentralized;
  util::Duration probe_interval = std::chrono::milliseconds(150);
  util::Duration transfer_interval = std::chrono::milliseconds(150);

  bool start_workers = false;        // matmul service per host
  bool start_file_servers = false;   // massd service per host
  apps::ComputeMode worker_mode = apps::ComputeMode::kCostModel;
  double matmul_time_scale = 0.01;   // real seconds per virtual second
  double matmul_flops_multiplier = 1.0;  // see WorkerConfig::flops_multiplier

  /// Group assignment per host; defaults to "seg<N>" from the testbed
  /// topology. massd experiments override with group-1/group-2.
  std::function<std::string(const sim::HostSpec&)> group_fn;

  /// Group the wizard treats as the client's location (netdb lookups).
  std::string local_group = "client";

  /// Wizard replica set (ISSUE 8): how many wizard+receiver+store stacks to
  /// boot. The transmitter fans every push out to all of them and
  /// make_client() hands clients the full cluster. 1 = the classic
  /// single-wizard testbed, unchanged.
  std::size_t wizard_replicas = 1;

  /// Fleet observability (ISSUE 9): give every wizard replica its own span
  /// ring + TCP stats endpoint, plus one client-side ring/endpoint, so the
  /// FleetAggregator can scrape the in-process "fleet" exactly like real
  /// daemons and stitch one query's spans across process lanes.
  bool stats_servers = false;

  /// Seeded randomness for the harness's random-selection baseline.
  std::uint64_t seed = 42;
};

/// One booted host: simulation state + daemons.
struct HarnessHost {
  sim::SimHost sim;
  std::string group;
  std::unique_ptr<apps::MatmulWorker> worker;
  std::unique_ptr<apps::FileServer> file_server;
  std::unique_ptr<probe::ServerProbe> probe;
  net::Endpoint service;  // what the probe advertises
  /// Hosts with no requested service still need a unique, connectable
  /// endpoint (sysdb is keyed by address); a bare listener provides one —
  /// the kernel completes connects from its backlog without an accept loop.
  net::TcpListener placeholder;

  explicit HarnessHost(sim::HostSpec spec) : sim(std::move(spec)) {}
};

class ClusterHarness {
 public:
  explicit ClusterHarness(HarnessOptions options);
  ~ClusterHarness();

  ClusterHarness(const ClusterHarness&) = delete;
  ClusterHarness& operator=(const ClusterHarness&) = delete;

  /// Boots all components. False if any socket failed to come up.
  bool start();
  void stop();

  /// Blocks until the wizard-side store sees every host (or timeout).
  bool wait_for_all_reports(util::Duration timeout);

  // --- access ------------------------------------------------------------
  net::Endpoint wizard_endpoint() const;
  HarnessHost* host(const std::string& name);
  std::vector<core::ServerEntry> all_servers() const;
  /// Clients are handed the whole replica set (a single replica degenerates
  /// to the classic one-wizard config).
  core::SmartClient make_client(std::uint64_t seed = 0) const;
  ipc::StatusStore& wizard_store() { return replicas_[0]->store; }
  ipc::StatusStore& monitor_store() { return monitor_store_; }
  core::Wizard* wizard() { return replicas_[0]->wizard.get(); }
  monitor::SystemMonitor* system_monitor() { return system_monitor_.get(); }
  const HarnessOptions& options() const { return options_; }
  /// The loop that runs the procfs ticker, the probes and the network and
  /// security monitors (restart a stopped probe on it).
  net::Reactor& loop() { return loop_; }

  // --- wizard replica set (ISSUE 8) ---------------------------------------
  std::size_t wizard_replica_count() const { return replicas_.size(); }
  /// Endpoint of one replica's wizard; invalid after kill_wizard_replica().
  net::Endpoint wizard_endpoint(std::size_t index) const;
  /// All replica endpoints in boot order (killed replicas keep their old
  /// endpoint so client cluster configs stay stable across a kill).
  std::vector<net::Endpoint> wizard_endpoints() const;
  core::WizardClusterConfig wizard_cluster() const;
  ipc::StatusStore& wizard_store(std::size_t index) { return replicas_[index]->store; }
  core::Wizard* wizard(std::size_t index) { return replicas_[index]->wizard.get(); }
  transport::Receiver* receiver(std::size_t index) {
    return replicas_[index]->receiver.get();
  }
  bool wizard_replica_alive(std::size_t index) const {
    return index < replicas_.size() && replicas_[index]->wizard != nullptr;
  }
  /// In-process SIGKILL analogue: tears the replica's wizard and receiver
  /// down abruptly (sockets close, endpoint goes dark) while the transmitter
  /// keeps trying to push to it — and, with stats_servers, its stats
  /// endpoint goes dark too, like the whole process died. Returns false for
  /// an unknown or already-dead replica.
  bool kill_wizard_replica(std::size_t index);

  // --- fleet observability (ISSUE 9) --------------------------------------
  /// Every scrapeable endpoint: each live-booted replica's stats port plus
  /// the client-side one. Empty unless options.stats_servers.
  std::vector<net::Endpoint> fleet_endpoints() const;
  /// One replica's stats endpoint (keeps its pre-kill value after a kill,
  /// like wizard_endpoint).
  net::Endpoint replica_stats_endpoint(std::size_t index) const;
  net::Endpoint client_stats_endpoint() const;
  obs::SpanStore* replica_spans(std::size_t index) {
    return index < replicas_.size() ? replicas_[index]->spans.get() : nullptr;
  }
  obs::SpanStore* client_spans() { return client_spans_.get(); }

  // --- experiment knobs ---------------------------------------------------
  /// Applies a workload profile and fast-forwards the host's procfs so the
  /// next report reflects it.
  void set_workload(const std::string& host, apps::WorkloadKind kind);

  /// Sets the security clearance reported for a host.
  void set_security_level(const std::string& host, int level);

  /// Sets the (delay, bandwidth) the network monitor reports for a group,
  /// and shapes the group's file servers to that bandwidth.
  void set_group_metrics(const std::string& group, double delay_ms, double bw_mbps);

  /// Nudges every probe/monitor/transmitter chain to publish fresh state
  /// now and waits for it to land in the wizard store.
  bool refresh_now(util::Duration timeout = std::chrono::seconds(2));

 private:
  /// One wizard replica: its own store, receiver, and wizard daemon. The
  /// slot outlives a kill (store included) so endpoints and indices stay
  /// stable; only the daemons are destroyed.
  struct WizardReplica {
    ipc::InMemoryStatusStore store;
    std::unique_ptr<transport::Receiver> receiver;
    std::unique_ptr<core::Wizard> wizard;
    net::Endpoint endpoint;  // remembered across a kill
    /// Fleet observability (ISSUE 9, options.stats_servers): the replica's
    /// own span ring and admin endpoint, mirroring one-per-process daemons.
    std::unique_ptr<obs::SpanStore> spans;
    std::unique_ptr<obs::StatsServer> stats;
    net::Endpoint stats_endpoint;  // remembered across a kill
  };

  HarnessOptions options_;

  // Declared before every component started on it, so each is stopped
  // before the loop is destroyed.
  net::Reactor loop_;

  std::vector<std::unique_ptr<HarnessHost>> hosts_;
  ipc::InMemoryStatusStore monitor_store_;

  std::unique_ptr<monitor::SystemMonitor> system_monitor_;
  std::unique_ptr<monitor::NetworkMonitor> network_monitor_;
  monitor::StaticSecuritySource* security_source_ = nullptr;  // owned by monitor
  std::unique_ptr<monitor::SecurityMonitor> security_monitor_;
  std::unique_ptr<transport::Transmitter> transmitter_;
  std::vector<std::unique_ptr<WizardReplica>> replicas_;

  // Client-side lane (ISSUE 9): clients made while stats_servers is on
  // record their query spans here, served by their own stats endpoint.
  std::unique_ptr<obs::SpanStore> client_spans_;
  std::unique_ptr<obs::StatsServer> client_stats_;

  // group -> (delay, bw) served by the network monitor's measure functions
  std::mutex metrics_mu_;
  std::map<std::string, std::pair<double, double>> group_metrics_;

  net::PeriodicJob ticker_;
  bool started_ = false;
};

}  // namespace smartsock::harness
