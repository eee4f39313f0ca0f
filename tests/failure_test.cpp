// Failure injection and robustness:
//  * servers join and leave at any time (§3.2.2's explicit requirement),
//  * daemons survive malformed/adversarial wire input (fuzz-ish sweeps),
//  * receiver restart, transmitter outage, wizard under concurrent clients.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "core/smart_client.h"
#include "core/wizard.h"
#include "harness/cluster_harness.h"
#include "ipc/in_memory_store.h"
#include "monitor/system_monitor.h"
#include "net/fault.h"
#include "net/tcp_listener.h"
#include "obs/metrics.h"
#include "probe/sim_proc_reader.h"
#include "transport/receiver.h"
#include "transport/transmitter.h"
#include "util/rng.h"

namespace smartsock {
namespace {

using namespace std::chrono_literals;

// --- join/leave -----------------------------------------------------------------

TEST(Failure, ServerJoinsLate) {
  harness::HarnessOptions options;
  options.hosts = {*sim::find_paper_host("sagit")};
  harness::ClusterHarness cluster(options);
  ASSERT_TRUE(cluster.start());
  ASSERT_TRUE(cluster.wait_for_all_reports(5s));

  // A second "server" joins by simply starting to report — no registration
  // step anywhere, exactly as the thesis describes.
  sim::SimHost late(*sim::find_paper_host("dione"));
  late.procfs().tick(60.0);
  probe::ProbeConfig config;
  config.host = "dione";
  config.service_address = "127.0.0.1:60001";
  config.group = "seg4";
  config.monitor = cluster.system_monitor()->endpoint();
  probe::ServerProbe probe(config,
                           std::make_unique<probe::SimProcSource>(&late.procfs()));
  ASSERT_TRUE(probe.probe_once());
  ASSERT_TRUE(cluster.refresh_now());

  core::SmartClient client = cluster.make_client(31);
  auto reply = client.query("host_cpu_free > 0.1", 5);
  ASSERT_TRUE(reply.ok) << reply.error;
  bool found = false;
  for (const auto& server : reply.servers) {
    if (server.host == "dione") found = true;
  }
  EXPECT_TRUE(found);
  cluster.stop();
}

TEST(Failure, ProbeResumesAfterExpiry) {
  harness::HarnessOptions options;
  options.hosts = {*sim::find_paper_host("sagit"), *sim::find_paper_host("dione")};
  options.probe_interval = 40ms;
  harness::ClusterHarness cluster(options);
  ASSERT_TRUE(cluster.start());
  ASSERT_TRUE(cluster.wait_for_all_reports(5s));

  // Stop, let it expire, then resume — the thesis: "No more task will be
  // assigned to that expired server, until the server probe resumes."
  cluster.host("dione")->probe->stop();
  util::SteadyClock::instance().sleep_for(300ms);
  cluster.system_monitor()->sweep_stale();
  ASSERT_TRUE(cluster.refresh_now());
  {
    core::SmartClient client = cluster.make_client(32);
    auto reply = client.query("host_cpu_free > 0.1", 2);
    ASSERT_TRUE(reply.ok);
    EXPECT_EQ(reply.servers.size(), 1u);
  }

  ASSERT_TRUE(cluster.host("dione")->probe->start());
  util::SteadyClock::instance().sleep_for(150ms);
  ASSERT_TRUE(cluster.refresh_now());
  {
    core::SmartClient client = cluster.make_client(33);
    auto reply = client.query("host_cpu_free > 0.1", 2);
    ASSERT_TRUE(reply.ok);
    EXPECT_EQ(reply.servers.size(), 2u);
  }
  cluster.stop();
}

// --- malformed wire input ----------------------------------------------------

TEST(Failure, MonitorSurvivesGarbageFlood) {
  ipc::InMemoryStatusStore store;
  monitor::SystemMonitor monitor(monitor::SystemMonitorConfig{}, store);
  ASSERT_TRUE(monitor.valid());

  auto attacker = net::UdpSocket::create();
  ASSERT_TRUE(attacker);
  util::Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    std::size_t len = static_cast<std::size_t>(rng.uniform_int(0, 400));
    std::string junk(len, '\0');
    for (char& c : junk) c = static_cast<char>(rng.uniform_int(0, 255));
    attacker->send_to(junk, monitor.endpoint());
  }
  // Truncated/mutated but valid-looking reports too.
  probe::StatusReport report;
  report.host = "real";
  report.address = "127.0.0.1:1";
  std::string wire = report.to_wire();
  for (int i = 0; i < 50; ++i) {
    std::size_t cut = static_cast<std::size_t>(rng.uniform_int(1, (int)wire.size()));
    attacker->send_to(wire.substr(0, cut), monitor.endpoint());
  }
  attacker->send_to(wire, monitor.endpoint());  // one genuine report

  // Drain until the socket stays quiet: poll_batch returns only the
  // reports it ingested, so count processed datagrams instead.
  for (int polls = 0; polls < 300; ++polls) {
    std::uint64_t before = monitor.reports_received() + monitor.reports_rejected();
    monitor.poll_batch(50ms);
    if (monitor.reports_received() + monitor.reports_rejected() == before) break;
  }
  // The genuine report made it; junk either rejected or parsed as harmless
  // partial reports for host "real".
  auto records = store.sys_records();
  ASSERT_GE(records.size(), 1u);
  for (const auto& record : records) {
    EXPECT_EQ(record.host_str(), "real");
  }
  EXPECT_GT(monitor.reports_rejected(), 100u);
}

TEST(Failure, WizardSurvivesGarbageRequests) {
  ipc::InMemoryStatusStore store;
  core::Wizard wizard(core::WizardConfig{}, store);
  ASSERT_TRUE(wizard.start());

  auto attacker = net::UdpSocket::create();
  ASSERT_TRUE(attacker);
  util::Rng rng(123);
  for (int i = 0; i < 100; ++i) {
    std::size_t len = static_cast<std::size_t>(rng.uniform_int(0, 200));
    std::string junk(len, 'A');
    for (char& c : junk) c = static_cast<char>(rng.uniform_int(32, 126));
    attacker->send_to(junk, wizard.endpoint());
  }

  // A real client still gets served afterwards.
  core::SmartClientConfig config;
  config.wizard = wizard.endpoint();
  config.seed = 5;
  core::SmartClient client(config);
  auto reply = client.query("100 > 0", 1);
  wizard.stop();
  EXPECT_TRUE(reply.ok) << reply.error;
}

TEST(Failure, ReceiverSurvivesGarbageFrames) {
  ipc::InMemoryStatusStore store;
  transport::Receiver receiver(transport::ReceiverConfig{}, store);
  ASSERT_TRUE(receiver.start());

  util::Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    // Connects may be refused while the receiver sits in its (bounded)
    // io_timeout on an earlier garbage stream — that is acceptable
    // backpressure, not a failure.
    auto attacker = net::TcpSocket::connect(receiver.endpoint(), 200ms);
    if (!attacker) continue;
    std::size_t len = static_cast<std::size_t>(rng.uniform_int(1, 64));
    std::string junk(len, '\0');
    for (char& c : junk) c = static_cast<char>(rng.uniform_int(0, 255));
    attacker->send_all(junk);
  }

  // A genuine transmitter still mirrors successfully afterwards (retry past
  // any garbage stream the receiver is still timing out on).
  ipc::InMemoryStatusStore monitor_store;
  ipc::SysRecord record;
  ipc::copy_fixed(record.host, ipc::kHostNameLen, "genuine");
  ipc::copy_fixed(record.address, ipc::kAddressLen, "1.1.1.1:1");
  monitor_store.put_sys(record);
  transport::TransmitterConfig tx_config;
  tx_config.receiver = receiver.endpoint();
  transport::Transmitter transmitter(tx_config, monitor_store);
  bool delivered = false;
  for (int attempt = 0; attempt < 20 && !delivered; ++attempt) {
    transmitter.transmit_once();
    for (int i = 0; i < 50 && store.sys_records().empty(); ++i) {
      std::this_thread::sleep_for(10ms);
    }
    delivered = !store.sys_records().empty();
  }
  receiver.stop();
  ASSERT_EQ(store.sys_records().size(), 1u);
  EXPECT_EQ(store.sys_records()[0].host_str(), "genuine");
}

// --- component restarts --------------------------------------------------------

TEST(Failure, TransmitterRidesOutReceiverOutage) {
  ipc::InMemoryStatusStore monitor_store;
  ipc::InMemoryStatusStore wizard_store;
  ipc::SysRecord record;
  ipc::copy_fixed(record.host, ipc::kHostNameLen, "persistent");
  ipc::copy_fixed(record.address, ipc::kAddressLen, "2.2.2.2:1");
  monitor_store.put_sys(record);

  net::Endpoint receiver_endpoint;
  {
    transport::Receiver first(transport::ReceiverConfig{}, wizard_store);
    receiver_endpoint = first.endpoint();
    // Receiver dies here without ever accepting.
  }

  transport::TransmitterConfig tx_config;
  tx_config.receiver = receiver_endpoint;
  tx_config.interval = 30ms;
  transport::Transmitter transmitter(tx_config, monitor_store);
  ASSERT_TRUE(transmitter.start());
  std::this_thread::sleep_for(100ms);  // pushes fail silently meanwhile

  // Receiver comes back on the same port.
  transport::ReceiverConfig rx_config;
  rx_config.bind = receiver_endpoint;
  transport::Receiver second(rx_config, wizard_store);
  ASSERT_TRUE(second.valid());
  ASSERT_TRUE(second.start());
  for (int i = 0; i < 200 && wizard_store.sys_records().empty(); ++i) {
    std::this_thread::sleep_for(10ms);
  }
  transmitter.stop();
  second.stop();
  ASSERT_EQ(wizard_store.sys_records().size(), 1u);
  EXPECT_EQ(wizard_store.sys_records()[0].host_str(), "persistent");
}

// --- concurrency ---------------------------------------------------------------

TEST(Failure, WizardServesConcurrentClients) {
  ipc::InMemoryStatusStore store;
  for (int i = 0; i < 10; ++i) {
    ipc::SysRecord record;
    ipc::copy_fixed(record.host, ipc::kHostNameLen, "h" + std::to_string(i));
    ipc::copy_fixed(record.address, ipc::kAddressLen,
                    "10.0.0." + std::to_string(i) + ":1");
    record.cpu_idle = 0.9;
    store.put_sys(record);
  }
  core::Wizard wizard(core::WizardConfig{}, store);
  ASSERT_TRUE(wizard.start());

  const int kClients = 8;
  const int kQueriesPerClient = 10;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      core::SmartClientConfig config;
      config.wizard = wizard.endpoint();
      config.seed = 1000 + static_cast<std::uint64_t>(c);
      config.reply_timeout = 2s;
      core::SmartClient client(config);
      for (int q = 0; q < kQueriesPerClient; ++q) {
        auto reply = client.query("host_cpu_free > 0.5", 5);
        if (!reply.ok || reply.servers.size() != 5u) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  wizard.stop();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(wizard.requests_served(), kClients * kQueriesPerClient);
}

// --- client resilience ------------------------------------------------------------

TEST(Failure, ClientRetriesThroughLossyWizardPath) {
  // A relay that drops the first request entirely; the client's resend must
  // still get an answer.
  ipc::InMemoryStatusStore store;
  ipc::SysRecord record;
  ipc::copy_fixed(record.host, ipc::kHostNameLen, "only");
  ipc::copy_fixed(record.address, ipc::kAddressLen, "3.3.3.3:1");
  record.cpu_idle = 0.9;
  store.put_sys(record);
  core::Wizard wizard(core::WizardConfig{}, store);
  ASSERT_TRUE(wizard.valid());

  auto relay = net::UdpSocket::bind(net::Endpoint::loopback(0));
  ASSERT_TRUE(relay);
  std::atomic<bool> stop{false};
  std::thread relay_thread([&] {
    int seen = 0;
    while (!stop.load()) {
      auto datagram = relay->receive(50ms);
      if (!datagram) continue;
      if (++seen == 1) continue;  // drop the first request
      // Forward to the wizard and pipe the reply back.
      core::UserRequest request = *core::UserRequest::from_wire(datagram->payload);
      core::WizardReply reply = wizard.handle(request);
      relay->send_to(reply.to_wire(), datagram->peer);
    }
  });

  core::SmartClientConfig config;
  config.wizard = relay->local_endpoint();
  config.reply_timeout = 200ms;
  config.retries = 2;
  config.seed = 77;
  core::SmartClient client(config);
  auto reply = client.query("host_cpu_free > 0.5", 1);
  stop.store(true);
  relay_thread.join();
  ASSERT_TRUE(reply.ok) << reply.error;
  EXPECT_EQ(reply.servers.size(), 1u);
}

// --- chaos: the full pipeline under injected faults ------------------------------

TEST(Failure, ChaosEndToEndSurvivesLossAndTransmitterOutage) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  auto counter_value = [&](const char* name) {
    return registry.counter(name)->value();
  };
  // The registry is process-global and other tests in this binary touch the
  // same counters, so every assertion below is on deltas from here.
  std::uint64_t retries_before = counter_value("client_query_retries_total");
  std::uint64_t stale_before = counter_value("wizard_stale_replies_total");

  // The "service" the selected servers expose: a real listener that accepts
  // and holds smart_connect's sockets.
  auto service = net::TcpListener::listen(net::Endpoint::loopback(0));
  ASSERT_TRUE(service);
  std::atomic<bool> stop_service{false};
  std::thread service_thread([&] {
    std::vector<net::TcpSocket> held;
    while (!stop_service.load()) {
      if (auto conn = service->accept(20ms)) held.push_back(std::move(*conn));
    }
  });
  std::string service_address = service->local_endpoint().to_string();

  ipc::InMemoryStatusStore monitor_store;
  ipc::InMemoryStatusStore wizard_store;

  // Feeder: stands in for probe+monitor, refreshing one healthy record's
  // timestamp continuously so feed age is governed purely by the transport.
  std::atomic<bool> stop_feeder{false};
  std::thread feeder([&] {
    while (!stop_feeder.load()) {
      ipc::SysRecord record;
      ipc::copy_fixed(record.host, ipc::kHostNameLen, "chaos1");
      ipc::copy_fixed(record.address, ipc::kAddressLen, service_address);
      record.cpu_idle = 0.9;
      record.updated_ns = ipc::steady_now_ns();
      monitor_store.put_sys(record);
      std::this_thread::sleep_for(25ms);
    }
  });

  transport::Receiver receiver(transport::ReceiverConfig{}, wizard_store);
  ASSERT_TRUE(receiver.start());

  transport::TransmitterConfig tx_config;
  tx_config.receiver = receiver.endpoint();
  tx_config.interval = 40ms;
  tx_config.push_retry.max_attempts = 3;
  tx_config.push_retry.initial_backoff = 10ms;
  auto transmitter =
      std::make_unique<transport::Transmitter>(tx_config, monitor_store);
  ASSERT_TRUE(transmitter->start());

  core::WizardConfig wizard_config;
  wizard_config.staleness_bound = 250ms;
  core::Wizard wizard(wizard_config, wizard_store);
  ASSERT_TRUE(wizard.start());

  // 20% loss on every UDP datagram — requests and replies alike.
  net::FaultConfig faults;
  faults.seed = 20250806;
  faults.udp_drop_send = 0.2;
  net::FaultInjector injector(faults);
  net::ScopedGlobalFaults scoped(injector);

  core::SmartClientConfig client_config;
  client_config.wizard = wizard.endpoint();
  client_config.seed = 1234;
  client_config.reply_timeout = 150ms;
  client_config.retries = 5;
  client_config.retry.initial_backoff = 20ms;
  core::SmartClient client(client_config);

  // Phase 1: healthy pipeline end to end, through the lossy sockets.
  for (int i = 0; i < 200 && wizard_store.sys_records().empty(); ++i) {
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_FALSE(wizard_store.sys_records().empty());
  auto healthy = client.smart_connect("host_cpu_free > 0.5", 1);
  ASSERT_TRUE(healthy.ok) << healthy.error;
  ASSERT_EQ(healthy.sockets.size(), 1u);
  EXPECT_FALSE(healthy.stale);

  // Phase 2: kill the transmitter mid-run. The wizard-side mirror ages past
  // the staleness bound; the wizard keeps answering but flags replies.
  transmitter.reset();
  std::this_thread::sleep_for(400ms);
  auto degraded = client.smart_connect("host_cpu_free > 0.5", 1);
  ASSERT_TRUE(degraded.ok) << degraded.error;
  ASSERT_EQ(degraded.sockets.size(), 1u);
  EXPECT_TRUE(degraded.stale);
  EXPECT_TRUE(wizard.degraded());
  EXPECT_EQ(registry.gauge("wizard_degraded")->value(), 1.0);
  EXPECT_GT(counter_value("wizard_stale_replies_total"), stale_before);

  // Phase 3: transmitter restarts; the next snapshot clears the flag.
  transmitter =
      std::make_unique<transport::Transmitter>(tx_config, monitor_store);
  ASSERT_TRUE(transmitter->start());
  for (int i = 0; i < 300 && wizard.degraded(); ++i) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_FALSE(wizard.degraded());
  auto recovered = client.query("host_cpu_free > 0.5", 1);
  ASSERT_TRUE(recovered.ok) << recovered.error;
  EXPECT_FALSE(recovered.stale);
  EXPECT_EQ(registry.gauge("wizard_degraded")->value(), 0.0);

  // With 20% loss the client's resend path must fire; loop until the retry
  // counter shows it (bounded — each query is at most ~1s of attempts).
  for (int i = 0;
       i < 50 && counter_value("client_query_retries_total") == retries_before;
       ++i) {
    client.query("host_cpu_free > 0.5", 1);
  }
  EXPECT_GT(counter_value("client_query_retries_total"), retries_before);
  EXPECT_GT(injector.stats().udp_dropped_send, 0u);

  transmitter->stop();
  wizard.stop();
  receiver.stop();
  stop_feeder.store(true);
  feeder.join();
  stop_service.store(true);
  service_thread.join();
}

}  // namespace
}  // namespace smartsock
