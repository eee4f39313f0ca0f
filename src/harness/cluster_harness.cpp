#include "harness/cluster_harness.h"

#include <algorithm>
#include <set>

#include "probe/sim_proc_reader.h"
#include "util/logging.h"

namespace smartsock::harness {

ClusterHarness::ClusterHarness(HarnessOptions options) : options_(std::move(options)) {
  if (!options_.group_fn) {
    options_.group_fn = [](const sim::HostSpec& spec) {
      return "seg" + std::to_string(spec.segment);
    };
  }
  // Replica slots (and their stores) exist from construction so
  // wizard_store() is usable before start(); the daemons boot in start().
  std::size_t replicas = std::max<std::size_t>(1, options_.wizard_replicas);
  for (std::size_t i = 0; i < replicas; ++i) {
    replicas_.push_back(std::make_unique<WizardReplica>());
  }
}

ClusterHarness::~ClusterHarness() { stop(); }

bool ClusterHarness::start() {
  if (started_) return false;

  // --- monitors (monitor machine) ---------------------------------------
  monitor::SystemMonitorConfig sys_config;
  sys_config.probe_interval = options_.probe_interval;
  system_monitor_ = std::make_unique<monitor::SystemMonitor>(sys_config, monitor_store_);
  if (!system_monitor_->valid()) return false;

  monitor::NetworkMonitorConfig net_config;
  net_config.local_group = options_.local_group;
  net_config.interval = options_.transfer_interval;
  network_monitor_ = std::make_unique<monitor::NetworkMonitor>(net_config, monitor_store_);

  auto security_source = std::make_unique<monitor::StaticSecuritySource>();
  security_source_ = security_source.get();
  monitor::SecurityMonitorConfig sec_config;
  sec_config.interval = options_.transfer_interval;
  security_monitor_ = std::make_unique<monitor::SecurityMonitor>(
      sec_config, std::move(security_source), monitor_store_);

  // --- hosts + services + probes -----------------------------------------
  std::set<std::string> groups;
  for (const sim::HostSpec& spec : options_.hosts) {
    auto host = std::make_unique<HarnessHost>(spec);
    host->group = options_.group_fn(spec);
    groups.insert(host->group);

    if (options_.start_workers) {
      apps::WorkerConfig worker_config;
      worker_config.mode = options_.worker_mode;
      worker_config.mflops = spec.matmul_mflops;
      worker_config.time_scale = options_.matmul_time_scale;
      worker_config.flops_multiplier = options_.matmul_flops_multiplier;
      host->worker = std::make_unique<apps::MatmulWorker>(worker_config);
      if (!host->worker->valid() || !host->worker->start()) return false;
      host->service = host->worker->endpoint();
    }
    if (options_.start_file_servers) {
      apps::FileServerConfig fs_config;
      host->file_server = std::make_unique<apps::FileServer>(fs_config);
      if (!host->file_server->valid() || !host->file_server->start()) return false;
      // When both services run, the file server is the advertised service
      // (massd experiments); matmul experiments use worker endpoints via
      // host lookup.
      host->service = host->file_server->endpoint();
    }
    if (!host->service.valid()) {
      auto placeholder = net::TcpListener::listen(net::Endpoint::loopback(0));
      if (!placeholder) return false;
      host->placeholder = std::move(*placeholder);
      host->service = host->placeholder.local_endpoint();
    }

    probe::ProbeConfig probe_config;
    probe_config.host = spec.name;
    probe_config.service_address = host->service.to_string();
    probe_config.group = host->group;
    probe_config.monitor = system_monitor_->endpoint();
    probe_config.interval = options_.probe_interval;
    host->probe = std::make_unique<probe::ServerProbe>(
        probe_config, std::make_unique<probe::SimProcSource>(&host->sim.procfs()));

    security_source_->set_level(spec.name, 1);  // default clearance
    hosts_.push_back(std::move(host));
  }

  // Network monitor targets: one per group, served from the shared metrics
  // map (default: LAN-quality metrics).
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    for (const std::string& group : groups) {
      group_metrics_.emplace(group, std::make_pair(0.3, 95.0));
    }
  }
  for (const std::string& group : groups) {
    network_monitor_->add_target(monitor::NetworkTarget{
        group, [this, group]() -> std::optional<bwest::BwEstimate> {
          std::lock_guard<std::mutex> lock(metrics_mu_);
          auto it = group_metrics_.find(group);
          if (it == group_metrics_.end()) return std::nullopt;
          bwest::BwEstimate estimate;
          estimate.method = "harness";
          estimate.delay_ms = it->second.first;
          estimate.bw_mbps = it->second.second;
          estimate.bw_min_mbps = estimate.bw_mbps;
          estimate.bw_max_mbps = estimate.bw_mbps;
          return estimate;
        }});
  }

  // --- transport + wizard machines (one stack per replica) ---------------
  for (auto& replica : replicas_) {
    transport::ReceiverConfig receiver_config;
    replica->receiver =
        std::make_unique<transport::Receiver>(receiver_config, replica->store);
    if (!replica->receiver->valid()) return false;
  }

  transport::TransmitterConfig tx_config;
  tx_config.mode = options_.mode;
  tx_config.interval = options_.transfer_interval;
  tx_config.receiver = replicas_[0]->receiver->endpoint();
  for (auto& replica : replicas_) {
    tx_config.receivers.push_back(replica->receiver->endpoint());
  }
  transmitter_ = std::make_unique<transport::Transmitter>(tx_config, monitor_store_);

  for (auto& replica : replicas_) {
    core::WizardConfig wizard_config;
    wizard_config.mode = options_.mode;
    wizard_config.local_group = options_.local_group;
    if (options_.stats_servers) {
      // Each replica gets its own span ring + stats endpoint (ISSUE 9), so
      // the fleet aggregator sees N distinct "processes" on loopback.
      replica->spans = std::make_unique<obs::SpanStore>();
      wizard_config.spans = replica->spans.get();
    }
    replica->wizard = std::make_unique<core::Wizard>(wizard_config, replica->store,
                                                     replica->receiver.get());
    if (!replica->wizard->valid()) return false;
    replica->endpoint = replica->wizard->endpoint();
    if (options_.mode == transport::TransferMode::kDistributed) {
      replica->wizard->add_transmitter(transmitter_->endpoint());
    }
    if (options_.stats_servers) {
      obs::StatsServerConfig stats_config;
      stats_config.spans = replica->spans.get();
      replica->stats = std::make_unique<obs::StatsServer>(stats_config);
      if (!replica->stats->valid() || !replica->stats->start()) return false;
      replica->stats_endpoint = replica->stats->endpoint();
    }
  }
  if (options_.stats_servers) {
    client_spans_ = std::make_unique<obs::SpanStore>();
    obs::StatsServerConfig stats_config;
    stats_config.spans = client_spans_.get();
    client_stats_ = std::make_unique<obs::StatsServer>(stats_config);
    if (!client_stats_->valid() || !client_stats_->start()) return false;
  }

  // --- ignition -----------------------------------------------------------
  // Give every simulated host a minute of history so rates and loads exist.
  for (auto& host : hosts_) {
    apps::warm_up(host->sim, 90.0);
  }

  if (!system_monitor_->start()) return false;
  security_monitor_->refresh_once();
  network_monitor_->measure_all_once();
  security_monitor_->start(loop_);
  network_monitor_->start(loop_);

  if (options_.mode == transport::TransferMode::kCentralized) {
    for (auto& replica : replicas_) {
      if (!replica->receiver->start()) return false;
    }
    if (!transmitter_->start()) return false;
  } else {
    if (!transmitter_->start()) return false;  // passive listener
  }
  for (auto& replica : replicas_) {
    if (!replica->wizard->start()) return false;
  }

  for (auto& host : hosts_) {
    host->probe->start(loop_);
  }
  ticker_.start(
      loop_, std::chrono::milliseconds(25),
      [this, last = util::SteadyClock::instance().now()]() mutable {
        util::Duration now = util::SteadyClock::instance().now();
        double dt = util::to_seconds(now - last);
        last = now;
        for (auto& host : hosts_) {
          host->sim.procfs().tick(dt);
        }
      },
      "harness_tick");
  if (!loop_.start()) return false;
  started_ = true;
  return true;
}

void ClusterHarness::stop() {
  if (!started_) return;
  ticker_.stop();
  for (auto& host : hosts_) {
    if (host->probe) host->probe->stop();
    if (host->worker) host->worker->stop();
    if (host->file_server) host->file_server->stop();
  }
  for (auto& replica : replicas_) {
    if (replica->wizard) replica->wizard->stop();
  }
  if (transmitter_) transmitter_->stop();
  for (auto& replica : replicas_) {
    if (replica->receiver) replica->receiver->stop();
    if (replica->stats) replica->stats->stop();
  }
  if (client_stats_) client_stats_->stop();
  if (network_monitor_) network_monitor_->stop();
  if (security_monitor_) security_monitor_->stop();
  if (system_monitor_) system_monitor_->stop();
  loop_.stop();
  started_ = false;
}

bool ClusterHarness::wait_for_all_reports(util::Duration timeout) {
  util::Clock& clock = util::SteadyClock::instance();
  util::Duration deadline = clock.now() + timeout;
  while (clock.now() < deadline) {
    bool all = true;
    for (const auto& replica : replicas_) {
      if (replica->wizard == nullptr) continue;  // killed replicas don't gate
      if (replica->store.sys_records().size() < hosts_.size() ||
          replica->store.net_records().empty() || replica->store.sec_records().empty()) {
        all = false;
        break;
      }
    }
    if (all) return true;
    if (options_.mode == transport::TransferMode::kDistributed) {
      // Distributed mode only refreshes on wizard requests; pull explicitly
      // while waiting for steady state.
      for (auto& replica : replicas_) {
        if (replica->receiver) replica->receiver->pull_from(transmitter_->endpoint());
      }
    }
    clock.sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

net::Endpoint ClusterHarness::wizard_endpoint() const {
  return replicas_[0]->wizard ? replicas_[0]->wizard->endpoint()
                              : replicas_[0]->endpoint;
}

net::Endpoint ClusterHarness::wizard_endpoint(std::size_t index) const {
  return index < replicas_.size() ? replicas_[index]->endpoint : net::Endpoint();
}

std::vector<net::Endpoint> ClusterHarness::wizard_endpoints() const {
  std::vector<net::Endpoint> out;
  out.reserve(replicas_.size());
  for (const auto& replica : replicas_) {
    out.push_back(replica->endpoint);
  }
  return out;
}

core::WizardClusterConfig ClusterHarness::wizard_cluster() const {
  core::WizardClusterConfig cluster;
  cluster.wizards = wizard_endpoints();
  return cluster;
}

bool ClusterHarness::kill_wizard_replica(std::size_t index) {
  if (index >= replicas_.size() || replicas_[index]->wizard == nullptr) return false;
  WizardReplica& replica = *replicas_[index];
  // Abrupt teardown: sockets close and the endpoint goes dark, like a
  // SIGKILLed wizard process. The slot (and its endpoint) survives so the
  // transmitter keeps probing it and client cluster configs stay valid.
  replica.wizard->stop();
  replica.wizard.reset();
  if (replica.receiver) {
    replica.receiver->stop();
    replica.receiver.reset();
  }
  if (replica.stats) {
    // The "process" died, so its admin port dies with it; the fleet
    // aggregator must see the endpoint go dark, not a live server over a
    // dead wizard.
    replica.stats->stop();
    replica.stats.reset();
  }
  return true;
}

std::vector<net::Endpoint> ClusterHarness::fleet_endpoints() const {
  std::vector<net::Endpoint> out;
  for (const auto& replica : replicas_) {
    if (replica->stats) out.push_back(replica->stats_endpoint);
  }
  if (client_stats_) out.push_back(client_stats_->endpoint());
  return out;
}

net::Endpoint ClusterHarness::replica_stats_endpoint(std::size_t index) const {
  return index < replicas_.size() ? replicas_[index]->stats_endpoint : net::Endpoint();
}

net::Endpoint ClusterHarness::client_stats_endpoint() const {
  return client_stats_ ? client_stats_->endpoint() : net::Endpoint();
}

HarnessHost* ClusterHarness::host(const std::string& name) {
  for (auto& host : hosts_) {
    if (host->sim.spec().name == name) return host.get();
  }
  return nullptr;
}

std::vector<core::ServerEntry> ClusterHarness::all_servers() const {
  std::vector<core::ServerEntry> out;
  out.reserve(hosts_.size());
  for (const auto& host : hosts_) {
    out.push_back(core::ServerEntry{host->sim.spec().name, host->service.to_string()});
  }
  return out;
}

core::SmartClient ClusterHarness::make_client(std::uint64_t seed) const {
  core::SmartClientConfig config;
  config.wizard = replicas_[0]->endpoint;
  if (replicas_.size() > 1) config.cluster = wizard_cluster();
  config.seed = seed;
  config.reply_timeout = std::chrono::milliseconds(800);
  // Fleet mode: the client's spans land in the client-side lane's ring so
  // the aggregator can stitch them against the wizard lanes.
  if (client_spans_) config.spans = client_spans_.get();
  return core::SmartClient(config);
}

void ClusterHarness::set_workload(const std::string& name, apps::WorkloadKind kind) {
  HarnessHost* h = host(name);
  if (!h) return;
  apps::apply_workload(h->sim, kind);
  apps::warm_up(h->sim, 120.0);  // let load averages converge
  if (h->worker) {
    // The competing workload also steals CPU from the matmul service: a
    // Super_PI-loaded host computes at the idle share of its speed.
    double idle = 1.0 - h->sim.procfs().activity().cpu_busy_fraction;
    h->worker->set_speed_factor(kind == apps::WorkloadKind::kIdle
                                    ? 1.0
                                    : std::max(0.5, idle + 0.45));
  }
}

void ClusterHarness::set_security_level(const std::string& name, int level) {
  if (security_source_) security_source_->set_level(name, level);
}

void ClusterHarness::set_group_metrics(const std::string& group, double delay_ms,
                                       double bw_mbps) {
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    group_metrics_[group] = {delay_ms, bw_mbps};
  }
  double bytes_per_sec = bw_mbps * 1e6 / 8.0;
  for (auto& host : hosts_) {
    if (host->group == group && host->file_server) {
      host->file_server->set_rate(bytes_per_sec);
    }
  }
}

bool ClusterHarness::refresh_now(util::Duration timeout) {
  // Force a full pipeline turn: live probes fire, monitors ingest, the
  // transmitter ships, the receiver applies. Stopped probes stay silent —
  // their hosts are supposed to age out, not resurrect.
  std::uint64_t fired_at = ipc::steady_now_ns();
  std::size_t live = 0;
  for (auto& host : hosts_) {
    if (host->probe->report_now()) ++live;
  }
  // Wait until the monitor has ingested a fresh record per live probe.
  util::Clock& clock = util::SteadyClock::instance();
  util::Duration deadline = clock.now() + timeout;
  for (;;) {
    std::size_t fresh = 0;
    for (const ipc::SysRecord& record : monitor_store_.sys_records()) {
      if (record.updated_ns >= fired_at) ++fresh;
    }
    if (fresh >= live || clock.now() >= deadline) break;
    clock.sleep_for(std::chrono::milliseconds(10));
  }
  // On the loop, so a forced cycle never overlaps a periodic one (§3.3.3:
  // probes must not run simultaneously).
  loop_.run_on_loop([this] {
    security_monitor_->refresh_once();
    network_monitor_->measure_all_once();
  });
  if (options_.mode == transport::TransferMode::kCentralized) {
    if (!transmitter_->transmit_once()) return false;
    // transmit_once returns once the snapshot is *sent*; the receiver
    // threads apply it asynchronously. Wait until the fresh records are
    // visible in every live replica's wizard store before reporting success.
    for (;;) {
      bool all = true;
      for (const auto& replica : replicas_) {
        if (replica->wizard == nullptr) continue;  // killed: will never apply
        std::size_t fresh = 0;
        for (const ipc::SysRecord& record : replica->store.sys_records()) {
          if (record.updated_ns >= fired_at) ++fresh;
        }
        if (fresh < live) {
          all = false;
          break;
        }
      }
      if (all) return true;
      if (clock.now() >= deadline) return false;
      clock.sleep_for(std::chrono::milliseconds(5));
    }
  }
  bool any = false;
  for (auto& replica : replicas_) {
    if (replica->receiver && replica->receiver->pull_from(transmitter_->endpoint())) {
      any = true;
    }
  }
  return any;
}

}  // namespace smartsock::harness
