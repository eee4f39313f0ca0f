// Sharded UDP data plane (ISSUE 10): SO_REUSEPORT group binding, batched
// mmsg I/O (and its forced single-syscall fallback), per-datagram fault
// determinism across both paths, SO_RXQ_OVFL kernel-drop accounting, the
// key-hash partitioned ShardedStatusStore with its epoch-consistent merged
// view, the reactor's raw-fd watch primitive, and the sharded monitor /
// wizard daemons end to end — including wire compatibility with a stock
// (pre-shard) client.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/wire.h"
#include "core/wizard.h"
#include "ipc/in_memory_store.h"
#include "ipc/sharded_store.h"
#include "monitor/system_monitor.h"
#include "net/fault.h"
#include "net/reactor.h"
#include "net/udp_socket.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "probe/status_report.h"

namespace {

using namespace smartsock;
using namespace std::chrono_literals;

ipc::SysRecord make_sys(const std::string& host, const std::string& address,
                        double load1 = 0.5) {
  ipc::SysRecord record;
  ipc::copy_fixed(record.host, ipc::kHostNameLen, host);
  ipc::copy_fixed(record.address, ipc::kAddressLen, address);
  ipc::copy_fixed(record.group, ipc::kGroupLen, "g0");
  record.load1 = load1;
  record.cpu_idle = 0.9;
  record.mem_total_mb = 1024;
  record.mem_free_mb = 512;
  record.updated_ns = 1;
  return record;
}

probe::StatusReport make_report(const std::string& host, const std::string& address) {
  probe::StatusReport report;
  report.host = host;
  report.address = address;
  report.group = "g0";
  report.load1 = 0.5;
  report.cpu_idle = 0.9;
  report.mem_total_mb = 1024;
  report.mem_free_mb = 512;
  return report;
}

/// Drains `sock` until `want` datagrams arrived or ~2 s passed; payloads
/// are accumulated into `out`.
std::size_t drain_until(net::UdpSocket& sock, std::size_t want,
                        std::vector<std::string>& out) {
  std::vector<net::Datagram> batch;
  auto deadline = std::chrono::steady_clock::now() + 2s;
  while (out.size() < want && std::chrono::steady_clock::now() < deadline) {
    std::size_t n = sock.try_receive_batch(batch, 64);
    for (std::size_t i = 0; i < n; ++i) out.push_back(batch[i].payload);
    if (n == 0) std::this_thread::sleep_for(5ms);
  }
  return out.size();
}

// --- batched socket I/O ----------------------------------------------------

TEST(UdpBatchIo, ReusePortGroupBind) {
  net::UdpBindOptions options;
  options.reuse_port = true;
  auto first = net::UdpSocket::bind(net::Endpoint::loopback(0), options);
  ASSERT_TRUE(first);
  // A second member joins the same port only with reuse_port set.
  auto member = net::UdpSocket::bind(first->local_endpoint(), options);
  EXPECT_TRUE(member);
  auto interloper = net::UdpSocket::bind(first->local_endpoint());
  EXPECT_FALSE(interloper);
}

TEST(UdpBatchIo, BatchRoundTripMmsgAndFallback) {
  for (bool fallback : {false, true}) {
    SCOPED_TRACE(fallback ? "fallback" : "mmsg");
    auto rx = net::UdpSocket::bind(net::Endpoint::loopback(0));
    auto tx = net::UdpSocket::bind(net::Endpoint::loopback(0));
    ASSERT_TRUE(rx && tx);
    rx->set_force_syscall_fallback(fallback);
    tx->set_force_syscall_fallback(fallback);

    std::vector<net::Datagram> batch(17);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i].payload = "datagram-" + std::to_string(i);
      batch[i].peer = rx->local_endpoint();
    }
    EXPECT_EQ(batch.size(), tx->send_batch(batch));

    std::vector<std::string> got;
    ASSERT_EQ(batch.size(), drain_until(*rx, batch.size(), got));
    std::sort(got.begin(), got.end());
    std::set<std::string> expect;
    for (const auto& d : batch) expect.insert(d.payload);
    EXPECT_EQ(std::vector<std::string>(expect.begin(), expect.end()), got);
  }
}

TEST(UdpBatchIo, TryReceiveBatchNeverBlocks) {
  auto sock = net::UdpSocket::bind(net::Endpoint::loopback(0));
  ASSERT_TRUE(sock);
  // No SO_RCVTIMEO set at all: a blocking call would hang forever.
  std::vector<net::Datagram> batch;
  net::IoResult result;
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(0u, sock->try_receive_batch(batch, 8, 2048, &result));
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 1s);
  EXPECT_EQ(net::IoStatus::kTimeout, result.status);
}

/// The injector draws send-side decisions per-datagram in batch order before
/// any syscall, so the mmsg path and the fallback path drop the *same*
/// datagrams for the same seed.
TEST(UdpBatchIo, SendFaultsDeterministicAcrossPaths) {
  auto run = [](bool fallback) {
    net::FaultConfig config;
    config.seed = 42;
    config.udp_drop_send = 0.5;
    net::FaultInjector injector(config);

    auto rx = net::UdpSocket::bind(net::Endpoint::loopback(0));
    auto tx = net::UdpSocket::bind(net::Endpoint::loopback(0));
    EXPECT_TRUE(rx && tx);
    tx->set_force_syscall_fallback(fallback);
    tx->set_fault_injector(&injector);

    std::vector<net::Datagram> batch(32);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i].payload = "d" + std::to_string(i);
      batch[i].peer = rx->local_endpoint();
    }
    std::size_t sent = tx->send_batch(batch);
    std::vector<std::string> got;
    drain_until(*rx, sent, got);
    std::sort(got.begin(), got.end());
    return std::make_pair(injector.stats().udp_dropped_send, got);
  };

  auto mmsg = run(false);
  auto fallback = run(true);
  EXPECT_GT(mmsg.first, 0u);                 // faults actually fired
  EXPECT_LT(mmsg.second.size(), 32u);        // ... and removed datagrams
  EXPECT_EQ(mmsg.first, fallback.first);     // same RNG consumption
  EXPECT_EQ(mmsg.second, fallback.second);   // same survivors, both paths
}

/// Receive-side drops likewise apply per-datagram inside a batch and
/// reproduce across the two receive paths.
TEST(UdpBatchIo, ReceiveFaultsDeterministicAcrossPaths) {
  auto run = [](bool fallback) {
    net::FaultConfig config;
    config.seed = 7;
    config.udp_drop_recv = 0.4;
    net::FaultInjector injector(config);

    auto rx = net::UdpSocket::bind(net::Endpoint::loopback(0));
    auto tx = net::UdpSocket::bind(net::Endpoint::loopback(0));
    EXPECT_TRUE(rx && tx);
    rx->set_force_syscall_fallback(fallback);

    std::vector<net::Datagram> batch(24);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i].payload = "r" + std::to_string(i);
      batch[i].peer = rx->local_endpoint();
    }
    EXPECT_EQ(batch.size(), tx->send_batch(batch));
    // Let the kernel queue everything before the faulted drain starts, so
    // both runs see the full batch in one try_receive_batch call.
    std::this_thread::sleep_for(50ms);
    rx->set_fault_injector(&injector);

    std::vector<std::string> got;
    drain_until(*rx, batch.size(), got);
    std::sort(got.begin(), got.end());
    return std::make_pair(injector.stats().udp_dropped_recv, got);
  };

  auto mmsg = run(false);
  auto fallback = run(true);
  EXPECT_GT(mmsg.first, 0u);
  EXPECT_EQ(mmsg.first, fallback.first);
  EXPECT_EQ(mmsg.second, fallback.second);
}

#ifdef __linux__
TEST(UdpBatchIo, KernelDropsSurfacedViaRxqOvfl) {
  net::UdpBindOptions options;
  options.rcvbuf_bytes = 4096;  // tiny queue so the blast overflows it
  options.track_kernel_drops = true;
  auto rx = net::UdpSocket::bind(net::Endpoint::loopback(0), options);
  auto tx = net::UdpSocket::bind(net::Endpoint::loopback(0));
  ASSERT_TRUE(rx && tx);

  std::vector<net::Datagram> burst(64);
  for (auto& d : burst) {
    d.payload.assign(512, 'x');
    d.peer = rx->local_endpoint();
  }
  // Nothing reads while we blast, so most of this burst hits a full queue.
  for (int round = 0; round < 32; ++round) tx->send_batch(burst);

  std::vector<net::Datagram> batch;
  while (rx->try_receive_batch(batch, 64) > 0) {
  }
  // The kernel stamps its cumulative drop count onto datagrams enqueued
  // *after* the drops — the pre-overflow queue contents carry zero. Send
  // one post-overflow datagram and read it to observe the counter.
  std::vector<net::Datagram> probe(1);
  probe[0].payload = "post-overflow";
  probe[0].peer = rx->local_endpoint();
  ASSERT_EQ(1u, tx->send_batch(probe));
  std::this_thread::sleep_for(50ms);
  ASSERT_EQ(1u, rx->try_receive_batch(batch, 4));
  EXPECT_GT(rx->kernel_drops(), 0u);
}
#endif

TEST(UdpBatchIo, SetReceiveBufferApplies) {
  auto sock = net::UdpSocket::bind(net::Endpoint::loopback(0));
  ASSERT_TRUE(sock);
  ASSERT_TRUE(sock->set_receive_buffer(1 << 16));
  // The kernel doubles the request for bookkeeping; only assert a floor.
  EXPECT_GE(sock->receive_buffer_bytes(), 1 << 16);
}

// --- sharded status store --------------------------------------------------

TEST(ShardedStore, RoutesByKeyHashNotArrivalOrder) {
  ipc::ShardedStatusStore store(4);
  for (int i = 0; i < 64; ++i) {
    std::string address = "10.0.0." + std::to_string(i) + ":5000";
    ipc::SysRecord record = make_sys("h" + std::to_string(i), address);
    ASSERT_TRUE(store.put_sys(record));
    std::size_t home = store.shard_of_sys(record.address);
    ASSERT_LT(home, store.shards());
    // The record lives in exactly its home partition.
    for (std::size_t p = 0; p < store.shards(); ++p) {
      bool found = false;
      for (const auto& r : store.partition(p).sys_records())
        if (std::string(r.address) == address) found = true;
      EXPECT_EQ(p == home, found) << address << " partition " << p;
    }
  }
  EXPECT_EQ(64u, store.sys_records().size());
  // Re-put of the same key is an in-place upsert, not a duplicate.
  ASSERT_TRUE(store.put_sys(make_sys("h0", "10.0.0.0:5000", 3.0)));
  EXPECT_EQ(64u, store.sys_records().size());
}

TEST(ShardedStore, VersionNeverMissesACommittedWrite) {
  ipc::ShardedStatusStore store(2);
  std::uint64_t v0 = store.version();
  store.put_sys(make_sys("a", "10.0.0.1:1"));
  EXPECT_GT(store.version(), v0);
  std::uint64_t v1 = store.version();
  store.erase_sys(ipc::sys_key_of(make_sys("a", "10.0.0.1:1")));
  EXPECT_GT(store.version(), v1);
}

TEST(ShardedStore, MergedSnapshotIsCachedAndCopyFree) {
  ipc::ShardedStatusStore store(2);
  store.put_sys(make_sys("a", "10.0.0.1:1"));
  store.put_sys(make_sys("b", "10.0.0.2:1"));

  ipc::SnapshotPtr first = store.snapshot();
  ASSERT_TRUE(first);
  EXPECT_EQ(2u, first->sys.size());
  EXPECT_FALSE(first->delta_capable);  // cross-partition deltas undefined
  // No mutation between reads: the same merged object is handed out.
  EXPECT_EQ(first.get(), store.snapshot().get());

  store.put_sys(make_sys("c", "10.0.0.3:1"));
  ipc::SnapshotPtr second = store.snapshot();
  EXPECT_NE(first.get(), second.get());
  EXPECT_EQ(3u, second->sys.size());
  EXPECT_GT(second->version, first->version);
  // The old pointer is immutable and still readable (COW contract).
  EXPECT_EQ(2u, first->sys.size());
}

TEST(ShardedStore, SingleShardKeepsDeltaSupport) {
  ipc::ShardedStatusStore store(1);
  store.put_sys(make_sys("a", "10.0.0.1:1"));
  ipc::SnapshotPtr snap = store.snapshot();
  ASSERT_TRUE(snap);
  EXPECT_TRUE(snap->delta_capable);  // pure delegation to the one partition
  EXPECT_EQ(store.version(), snap->version);
}

TEST(ShardedStore, ReplaceAndClearAreAtomicAcrossPartitions) {
  ipc::ShardedStatusStore store(4);
  std::vector<ipc::SysRecord> fleet;
  for (int i = 0; i < 40; ++i)
    fleet.push_back(make_sys("h" + std::to_string(i),
                             "10.1.0." + std::to_string(i) + ":1"));
  store.replace_sys(fleet);
  EXPECT_EQ(fleet.size(), store.sys_records().size());
  std::size_t populated = 0;
  for (std::size_t p = 0; p < store.shards(); ++p)
    populated += store.partition(p).sys_records().empty() ? 0 : 1;
  EXPECT_GT(populated, 1u) << "40 keys should hash across partitions";
  store.clear();
  EXPECT_TRUE(store.sys_records().empty());
  EXPECT_TRUE(store.snapshot()->sys.empty());
}

/// Epoch-consistency under concurrent shard writers, bulk replaces and a
/// snapshot reader — the TSan job runs this file, so any lock-discipline
/// slip in the merge path surfaces as a data-race report. The reader
/// asserts the merge contract: versions never go backwards and a merged
/// view never contains a torn replace (duplicate keys).
TEST(ShardedStore, EpochConsistentMergeUnderConcurrency) {
  ipc::ShardedStatusStore store(4);
  constexpr int kWriters = 4;
  constexpr int kKeysPerWriter = 16;
  std::atomic<bool> stop{false};

  std::vector<ipc::SysRecord> fleet;
  for (int w = 0; w < kWriters; ++w)
    for (int k = 0; k < kKeysPerWriter; ++k)
      fleet.push_back(make_sys("w" + std::to_string(w) + "-" + std::to_string(k),
                               "10.2." + std::to_string(w) + "." +
                                   std::to_string(k) + ":1"));

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      double load = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int k = 0; k < kKeysPerWriter; ++k)
          store.put_sys(fleet[static_cast<std::size_t>(w * kKeysPerWriter + k)]);
        load += 0.1;
      }
    });
  }
  std::thread replacer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      store.replace_sys(fleet);
      std::this_thread::sleep_for(1ms);
    }
  });

  std::uint64_t last_version = 0;
  auto deadline = std::chrono::steady_clock::now() + 500ms;
  std::size_t reads = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    ipc::SnapshotPtr snap = store.snapshot();
    ASSERT_TRUE(snap);
    EXPECT_GE(snap->version, last_version) << "version went backwards";
    last_version = snap->version;
    std::set<std::string> keys;
    for (const auto& r : snap->sys) keys.insert(std::string(r.address));
    EXPECT_EQ(keys.size(), snap->sys.size()) << "duplicate keys: torn merge";
    EXPECT_LE(snap->sys.size(), fleet.size());
    ++reads;
  }
  stop.store(true);
  for (auto& t : writers) t.join();
  replacer.join();
  EXPECT_GT(reads, 0u);

  // Quiesced: the merged view converges on exactly the full fleet.
  store.replace_sys(fleet);
  ipc::SnapshotPtr final_snap = store.snapshot();
  EXPECT_EQ(fleet.size(), final_snap->sys.size());
}

// --- reactor fd watch ------------------------------------------------------

TEST(ReactorFdWatch, DispatchesReadableAndRemoves) {
  auto rx = net::UdpSocket::bind(net::Endpoint::loopback(0));
  auto tx = net::UdpSocket::bind(net::Endpoint::loopback(0));
  ASSERT_TRUE(rx && tx);
  rx->set_nonblocking(true);

  net::Reactor reactor;
  ASSERT_TRUE(reactor.start());
  std::atomic<int> fired{0};
  net::FdWatchId watch = reactor.add_fd_watch(rx->fd(), [&] {
    std::string payload;
    net::Endpoint peer;
    while (rx->try_receive_from(payload, peer).ok()) fired.fetch_add(1);
  });
  ASSERT_NE(0u, watch);

  tx->send_to("ping", rx->local_endpoint());
  auto deadline = std::chrono::steady_clock::now() + 2s;
  while (fired.load() == 0 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  EXPECT_EQ(1, fired.load());

  EXPECT_TRUE(reactor.remove_fd_watch(watch));
  EXPECT_FALSE(reactor.remove_fd_watch(watch));  // already gone
  tx->send_to("after-remove", rx->local_endpoint());
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(1, fired.load());  // no dispatch after removal
  reactor.stop();
}

TEST(ReactorFdWatch, RejectsBadArguments) {
  net::Reactor reactor;
  ASSERT_TRUE(reactor.start());
  EXPECT_EQ(0u, reactor.add_fd_watch(-1, [] {}));
  EXPECT_EQ(0u, reactor.add_fd_watch(0, nullptr));
  EXPECT_FALSE(reactor.remove_fd_watch(12345));
  reactor.stop();
}

// --- sharded system monitor ------------------------------------------------

TEST(MonitorSharded, IngestsAcrossReusePortShards) {
  ipc::ShardedStatusStore store(2);
  monitor::SystemMonitorConfig config;
  config.ingest_shards = 2;
  config.accept_tcp = false;
  config.probe_interval = 60s;  // no expiry during the test
  monitor::SystemMonitor monitor(config, store);
  ASSERT_TRUE(monitor.valid());
  ASSERT_EQ(2u, monitor.ingest_shards());
  ASSERT_TRUE(monitor.start());

  // Several sender sockets: reuseport steers each 4-tuple to one shard, so
  // multiple sockets give both shards a chance to see traffic. Every host
  // is unique, so the store count proves nothing was lost or duplicated.
  constexpr std::size_t kSenders = 4;
  constexpr std::size_t kHostsPerSender = 25;
  for (std::size_t s = 0; s < kSenders; ++s) {
    auto sock = net::UdpSocket::bind(net::Endpoint::loopback(0));
    ASSERT_TRUE(sock);
    std::vector<net::Datagram> batch(kHostsPerSender);
    for (std::size_t k = 0; k < kHostsPerSender; ++k) {
      std::string host = "m" + std::to_string(s) + "-" + std::to_string(k);
      batch[k].payload =
          make_report(host, "10.3." + std::to_string(s) + "." + std::to_string(k) +
                                ":5000")
              .to_wire();
      batch[k].peer = monitor.endpoint();
    }
    ASSERT_EQ(batch.size(), sock->send_batch(batch));
  }

  constexpr std::size_t kExpected = kSenders * kHostsPerSender;
  auto deadline = std::chrono::steady_clock::now() + 5s;
  while (monitor.reports_received() < kExpected &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(5ms);
  monitor.stop();

  EXPECT_EQ(kExpected, monitor.reports_received());
  EXPECT_EQ(kExpected, store.sys_records().size());
}

TEST(MonitorSharded, SplitsLastBatchGaugesReceivedVsIngested) {
  ipc::InMemoryStatusStore store;
  monitor::SystemMonitorConfig config;
  config.accept_tcp = false;
  monitor::SystemMonitor monitor(config, store);
  ASSERT_TRUE(monitor.valid());

  auto sock = net::UdpSocket::bind(net::Endpoint::loopback(0));
  ASSERT_TRUE(sock);
  std::vector<net::Datagram> batch(3);
  batch[0].payload = make_report("ok-host", "10.4.0.1:5000").to_wire();
  batch[1].payload = "definitely not a status report";
  batch[2].payload = make_report("ok-host2", "10.4.0.2:5000").to_wire();
  for (auto& d : batch) d.peer = monitor.endpoint();
  ASSERT_EQ(batch.size(), sock->send_batch(batch));
  std::this_thread::sleep_for(50ms);

  // poll_batch reports *ingested* reports: 3 datagrams drained, 2 parsed.
  EXPECT_EQ(2u, monitor.poll_batch(1s));
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  EXPECT_EQ(3.0, registry.gauge("sysmon_last_batch_received")->value());
  EXPECT_EQ(2.0, registry.gauge("sysmon_last_batch_ingested")->value());
  EXPECT_EQ(2u, store.sys_records().size());  // ...but only 2 reports landed
}

// --- sharded wizard --------------------------------------------------------

/// A stock pre-shard client: one plain socket, UserRequest/WizardReply wire.
/// Running it against a 2-shard wizard proves wire compatibility — the
/// client cannot tell which shard served it.
TEST(WizardSharded, ServesStockClientsAcrossShards) {
  ipc::ShardedStatusStore store(2);
  std::vector<ipc::SysRecord> fleet;
  for (int i = 0; i < 20; ++i)
    fleet.push_back(make_sys("h" + std::to_string(i),
                             "10.5.0." + std::to_string(i) + ":1"));
  store.replace_sys(fleet);

  core::WizardConfig config;
  config.ingest_shards = 2;
  core::Wizard wizard(config, store);
  ASSERT_TRUE(wizard.valid());
  ASSERT_EQ(2u, wizard.ingest_shards());
  ASSERT_TRUE(wizard.start());

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kRequestsPerClient = 8;
  for (std::size_t c = 0; c < kClients; ++c) {
    auto sock = net::UdpSocket::bind(net::Endpoint::loopback(0));
    ASSERT_TRUE(sock);
    sock->set_receive_timeout(2s);
    for (std::size_t i = 0; i < kRequestsPerClient; ++i) {
      core::UserRequest request;
      request.sequence = static_cast<std::uint32_t>(c * 100 + i + 1);
      request.server_num = 5;
      request.detail = "host_system_load1 < 4\n";
      ASSERT_TRUE(sock->send_to(request.to_wire(), wizard.endpoint()).ok());
      std::string payload;
      net::Endpoint peer;
      ASSERT_TRUE(sock->receive_from(payload, peer).ok())
          << "client " << c << " request " << i;
      auto reply = core::WizardReply::from_wire(payload);
      ASSERT_TRUE(reply);
      EXPECT_EQ(request.sequence, reply->sequence);
      EXPECT_TRUE(reply->ok);
      EXPECT_EQ(5u, reply->servers.size());
    }
  }
  EXPECT_EQ(kClients * kRequestsPerClient, wizard.requests_served());

  // Malformed datagrams are counted and dropped without wedging the shard.
  auto rogue = net::UdpSocket::bind(net::Endpoint::loopback(0));
  ASSERT_TRUE(rogue);
  rogue->set_receive_timeout(500ms);
  rogue->send_to("garbage request", wizard.endpoint());
  std::string payload;
  net::Endpoint peer;
  EXPECT_FALSE(rogue->receive_from(payload, peer).ok());  // no reply
  core::UserRequest request;
  request.sequence = 999;
  request.server_num = 1;
  request.detail = "host_system_load1 < 4\n";
  rogue->set_receive_timeout(2s);
  ASSERT_TRUE(rogue->send_to(request.to_wire(), wizard.endpoint()).ok());
  EXPECT_TRUE(rogue->receive_from(payload, peer).ok());
  wizard.stop();
}

TEST(WizardSharded, SingleShardDefaultRunsTheShardDrain) {
  ipc::InMemoryStatusStore store;
  store.put_sys(make_sys("solo", "10.6.0.1:1"));
  core::Wizard wizard(core::WizardConfig{}, store);
  ASSERT_TRUE(wizard.valid());
  EXPECT_EQ(1u, wizard.ingest_shards());
  // One shard is the group's trivial case: its datagrams show up in the
  // same per-shard series a sharded wizard publishes.
  obs::Counter* datagrams =
      obs::MetricsRegistry::instance().counter("wizard_shard_datagrams_total{shard=\"0\"}");
  std::uint64_t datagrams_before = datagrams->value();
  ASSERT_TRUE(wizard.start());
  auto sock = net::UdpSocket::bind(net::Endpoint::loopback(0));
  ASSERT_TRUE(sock);
  sock->set_receive_timeout(2s);
  core::UserRequest request;
  request.sequence = 1;
  request.server_num = 1;
  request.detail = "host_system_load1 < 4\n";
  ASSERT_TRUE(sock->send_to(request.to_wire(), wizard.endpoint()).ok());
  std::string payload;
  net::Endpoint peer;
  ASSERT_TRUE(sock->receive_from(payload, peer).ok());
  auto reply = core::WizardReply::from_wire(payload);
  ASSERT_TRUE(reply);
  EXPECT_TRUE(reply->ok);
  EXPECT_EQ(1u, datagrams->value() - datagrams_before);
  wizard.stop();
}

// --- health rule -----------------------------------------------------------

TEST(HealthIngest, RcvbufOverflowFlagsDegraded) {
  obs::MetricsRegistry registry;  // isolated: no cross-test counter bleed
  obs::HealthEngine engine(registry);
  // Metric absent: the rule is not applicable, so ingest reports no finding
  // about receive-queue overflow.
  obs::HealthReport baseline = engine.evaluate();
  for (const auto& subsystem : baseline.subsystems)
    if (subsystem.name == "ingest")
      for (const auto& reason : subsystem.reasons)
        EXPECT_EQ(std::string::npos, reason.find("SO_RCVBUF")) << reason;

  registry.counter("udp_rcvbuf_dropped_total");  // metric appears, zero
  engine.evaluate();                             // baseline for the delta
  registry.counter("udp_rcvbuf_dropped_total")->inc(17);
  obs::HealthReport report = engine.evaluate();

  bool found = false;
  for (const auto& subsystem : report.subsystems) {
    if (subsystem.name != "ingest") continue;
    EXPECT_GE(static_cast<int>(subsystem.level),
              static_cast<int>(obs::HealthLevel::kDegraded));
    for (const auto& reason : subsystem.reasons)
      if (reason.find("SO_RCVBUF") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found) << report.to_text();

  // Overflow stopped: the next interval's delta is zero and ingest recovers.
  obs::HealthReport recovered = engine.evaluate();
  for (const auto& subsystem : recovered.subsystems)
    if (subsystem.name == "ingest")
      EXPECT_EQ(obs::HealthLevel::kOk, subsystem.level);
}

}  // namespace
