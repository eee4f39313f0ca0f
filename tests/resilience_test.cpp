// Resilience layer (ISSUE 3): retry/backoff, circuit breaker, fault
// injector, flap quarantine, stats-server stall hardening and client
// sequence hygiene — the unit/component half of the chaos story (the full
// pipeline under injected faults lives in failure_test.cpp).
#include <gtest/gtest.h>

#include <dirent.h>

#include <atomic>
#include <thread>

#include "apps/massd/file_server.h"
#include "core/smart_client.h"
#include "core/wizard.h"
#include "ipc/in_memory_store.h"
#include "monitor/system_monitor.h"
#include "net/fault.h"
#include "net/reactor.h"
#include "obs/metrics.h"
#include "obs/stats_server.h"
#include "probe/status_report.h"
#include "sim/virtual_clock.h"
#include "transport/receiver.h"
#include "transport/record_codec.h"
#include "transport/transmitter.h"
#include "util/retry.h"

namespace smartsock {
namespace {

using namespace std::chrono_literals;

// --- RetryState ---------------------------------------------------------------

TEST(RetryState, ExponentialBackoffWithJitterBounds) {
  util::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff = 100ms;
  policy.multiplier = 2.0;
  policy.max_backoff = 1s;
  policy.jitter = 0.2;

  sim::VirtualClock clock;
  util::Rng rng(42);
  util::RetryState retry(policy, rng, clock);

  util::Duration before = clock.now();
  ASSERT_TRUE(retry.backoff());  // attempt 2
  util::Duration first = clock.now() - before;
  EXPECT_GE(first, 80ms);
  EXPECT_LE(first, 120ms);

  before = clock.now();
  ASSERT_TRUE(retry.backoff());  // attempt 3
  util::Duration second = clock.now() - before;
  EXPECT_GE(second, 160ms);
  EXPECT_LE(second, 240ms);

  before = clock.now();
  ASSERT_TRUE(retry.backoff());  // attempt 4 (the last allowed)
  EXPECT_FALSE(retry.backoff());
  EXPECT_EQ(retry.attempts(), 4);
}

TEST(RetryState, MaxBackoffCapsDelay) {
  util::RetryPolicy policy;
  policy.max_attempts = 10;
  policy.initial_backoff = 100ms;
  policy.multiplier = 10.0;
  policy.max_backoff = 300ms;
  policy.jitter = 0.0;

  sim::VirtualClock clock;
  util::Rng rng(1);
  util::RetryState retry(policy, rng, clock);
  ASSERT_TRUE(retry.backoff());  // 100ms
  util::Duration before = clock.now();
  ASSERT_TRUE(retry.backoff());  // would be 1s, capped at 300ms
  EXPECT_EQ(clock.now() - before, 300ms);
}

TEST(RetryState, BudgetCutsRetriesShort) {
  util::RetryPolicy policy;
  policy.max_attempts = 100;
  policy.initial_backoff = 100ms;
  policy.multiplier = 1.0;
  policy.jitter = 0.0;
  policy.budget = 250ms;

  sim::VirtualClock clock;
  util::Rng rng(1);
  util::RetryState retry(policy, rng, clock);
  ASSERT_TRUE(retry.backoff());   // t = 100ms
  ASSERT_TRUE(retry.backoff());   // t = 200ms
  EXPECT_FALSE(retry.backoff());  // next sleep would land past the budget
  EXPECT_LE(clock.now(), util::Duration(250ms));
}

TEST(RetryState, SingleAttemptPolicyNeverRetries) {
  util::RetryPolicy policy;
  policy.max_attempts = 1;
  sim::VirtualClock clock;
  util::Rng rng(1);
  util::RetryState retry(policy, rng, clock);
  EXPECT_FALSE(retry.can_retry());
  EXPECT_FALSE(retry.backoff());
  EXPECT_EQ(clock.now(), util::Duration::zero());  // no sleep on refusal
}

// --- CircuitBreaker -----------------------------------------------------------

TEST(CircuitBreaker, OpensAfterConsecutiveFailuresAndProbesHalfOpen) {
  util::CircuitBreakerConfig config;
  config.failures_to_open = 3;
  config.cooldown = 100ms;
  sim::VirtualClock clock;
  util::CircuitBreaker breaker(config, clock);

  EXPECT_EQ(breaker.state(), util::CircuitBreaker::State::kClosed);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(breaker.allow());
    breaker.record_failure();
  }
  EXPECT_EQ(breaker.state(), util::CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);
  EXPECT_FALSE(breaker.allow());  // cooldown not elapsed

  clock.advance(150ms);
  EXPECT_TRUE(breaker.allow());  // half-open: one probe
  EXPECT_EQ(breaker.state(), util::CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.allow());  // second caller in the probe window

  breaker.record_success();
  EXPECT_EQ(breaker.state(), util::CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow());
}

TEST(CircuitBreaker, FailedProbeReopensWithEscalatedCooldown) {
  util::CircuitBreakerConfig config;
  config.failures_to_open = 1;
  config.cooldown = 100ms;
  config.cooldown_multiplier = 2.0;
  config.max_cooldown = 1s;
  sim::VirtualClock clock;
  util::CircuitBreaker breaker(config, clock);

  EXPECT_TRUE(breaker.allow());
  breaker.record_failure();  // trip 1, cooldown 100ms
  clock.advance(150ms);
  EXPECT_TRUE(breaker.allow());  // probe
  breaker.record_failure();      // trip 2, cooldown now 200ms
  EXPECT_EQ(breaker.trips(), 2u);

  clock.advance(150ms);
  EXPECT_FALSE(breaker.allow());  // escalated cooldown not elapsed yet
  clock.advance(100ms);
  EXPECT_TRUE(breaker.allow());  // 250ms > 200ms
}

TEST(CircuitBreaker, SuccessResetsFailureStreak) {
  util::CircuitBreakerConfig config;
  config.failures_to_open = 2;
  sim::VirtualClock clock;
  util::CircuitBreaker breaker(config, clock);
  breaker.record_failure();
  breaker.record_success();
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), util::CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 1);
}

// --- FaultInjector ------------------------------------------------------------

TEST(FaultInjector, DeterministicAcrossSameSeed) {
  net::FaultConfig config;
  config.seed = 7;
  config.udp_drop_send = 0.5;
  net::FaultInjector a(config);
  net::FaultInjector b(config);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.drop_udp_send(), b.drop_udp_send()) << "diverged at " << i;
  }
  EXPECT_EQ(a.stats().udp_dropped_send, b.stats().udp_dropped_send);
  EXPECT_GT(a.stats().udp_dropped_send, 0u);
  EXPECT_LT(a.stats().udp_dropped_send, 64u);
}

TEST(FaultInjector, FromStringParsesAndRejects) {
  auto config =
      net::FaultConfig::from_string("seed=9,udp_drop_send=0.25, tcp_reset_recv=0.5");
  ASSERT_TRUE(config);
  EXPECT_EQ(config->seed, 9u);
  EXPECT_DOUBLE_EQ(config->udp_drop_send, 0.25);
  EXPECT_DOUBLE_EQ(config->tcp_reset_recv, 0.5);
  EXPECT_TRUE(config->any());

  auto empty = net::FaultConfig::from_string("");
  ASSERT_TRUE(empty);
  EXPECT_FALSE(empty->any());
}

TEST(FaultInjector, MutateTruncatesAndCorrupts) {
  net::FaultConfig config;
  config.seed = 3;
  config.udp_truncate = 1.0;
  net::FaultInjector injector(config);
  std::string payload(100, 'x');
  EXPECT_TRUE(injector.mutate_udp(payload));
  EXPECT_LT(payload.size(), 100u);

  net::FaultConfig corrupt_config;
  corrupt_config.seed = 3;
  corrupt_config.udp_corrupt = 1.0;
  net::FaultInjector corruptor(corrupt_config);
  std::string original(100, 'x');
  std::string mutated = original;
  EXPECT_TRUE(corruptor.mutate_udp(mutated));
  EXPECT_EQ(mutated.size(), original.size());
  EXPECT_NE(mutated, original);
}

TEST(FaultInjector, PerSocketInjectorBeatsGlobal) {
  net::FaultConfig drop_all;
  drop_all.udp_drop_send = 1.0;
  net::FaultInjector global_injector(drop_all);
  net::ScopedGlobalFaults scoped(global_injector);

  net::FaultConfig benign;  // all zero
  net::FaultInjector local(benign);

  auto receiver = net::UdpSocket::bind(net::Endpoint::loopback(0));
  ASSERT_TRUE(receiver);
  auto sender = net::UdpSocket::create();
  ASSERT_TRUE(sender);
  sender->set_fault_injector(&local);  // overrides the lossy global

  ASSERT_TRUE(sender->send_to("ping", receiver->local_endpoint()).ok());
  auto got = receiver->receive(1s);
  ASSERT_TRUE(got);
  EXPECT_EQ(got->payload, "ping");
  EXPECT_EQ(global_injector.stats().udp_dropped_send, 0u);
}

TEST(FaultInjector, UdpDropSendSwallowsDatagram) {
  net::FaultConfig config;
  config.udp_drop_send = 1.0;
  net::FaultInjector injector(config);

  auto receiver = net::UdpSocket::bind(net::Endpoint::loopback(0));
  ASSERT_TRUE(receiver);
  auto sender = net::UdpSocket::create();
  ASSERT_TRUE(sender);
  sender->set_fault_injector(&injector);

  auto io = sender->send_to("lost", receiver->local_endpoint());
  EXPECT_TRUE(io.ok());  // reported sent — the fault is silent, like the net
  EXPECT_FALSE(receiver->receive(50ms));
  EXPECT_EQ(injector.stats().udp_dropped_send, 1u);
}

TEST(FaultInjector, UdpDuplicateDeliversTwice) {
  net::FaultConfig config;
  config.udp_duplicate = 1.0;
  net::FaultInjector injector(config);

  auto receiver = net::UdpSocket::bind(net::Endpoint::loopback(0));
  ASSERT_TRUE(receiver);
  auto sender = net::UdpSocket::create();
  ASSERT_TRUE(sender);
  sender->set_fault_injector(&injector);

  ASSERT_TRUE(sender->send_to("twin", receiver->local_endpoint()).ok());
  auto first = receiver->receive(1s);
  auto second = receiver->receive(1s);
  ASSERT_TRUE(first);
  ASSERT_TRUE(second);
  EXPECT_EQ(first->payload, "twin");
  EXPECT_EQ(second->payload, "twin");
}

TEST(FaultInjector, TcpConnectFailRefusesConnection) {
  net::FaultConfig config;
  config.tcp_connect_fail = 1.0;
  net::FaultInjector injector(config);
  net::ScopedGlobalFaults scoped(injector);

  auto listener = net::TcpListener::listen(net::Endpoint::loopback(0));
  ASSERT_TRUE(listener);
  EXPECT_FALSE(net::TcpSocket::connect(listener->local_endpoint(), 1s));
  EXPECT_EQ(injector.stats().tcp_connect_failed, 1u);
}

TEST(FaultInjector, TcpResetSendClosesConnection) {
  net::FaultConfig config;
  config.tcp_reset_send = 1.0;
  net::FaultInjector injector(config);

  auto listener = net::TcpListener::listen(net::Endpoint::loopback(0));
  ASSERT_TRUE(listener);
  auto client = net::TcpSocket::connect(listener->local_endpoint(), 1s);
  ASSERT_TRUE(client);
  client->set_fault_injector(&injector);
  auto io = client->send_all("doomed");
  EXPECT_FALSE(io.ok());
  EXPECT_EQ(io.error, ECONNRESET);
  EXPECT_FALSE(client->valid());
  EXPECT_EQ(injector.stats().tcp_reset_send, 1u);
}

// --- quarantine ---------------------------------------------------------------

probe::StatusReport flap_report(const std::string& host) {
  probe::StatusReport report;
  report.host = host;
  report.address = "127.0.0.1:400" + std::to_string(host.size());
  report.cpu_idle = 0.9;
  return report;
}

TEST(Quarantine, FlappingHostIsQuarantinedThenReadmitted) {
  ipc::InMemoryStatusStore store;
  monitor::SystemMonitorConfig config;
  config.probe_interval = 10ms;
  config.stale_factor = 1;  // records older than 10ms expire
  config.flap_threshold = 3;
  config.flap_window = 10s;
  config.quarantine_backoff = 100ms;
  config.accept_tcp = false;
  monitor::SystemMonitor monitor(config, store);
  ASSERT_TRUE(monitor.valid());

  auto probe_socket = net::UdpSocket::create();
  ASSERT_TRUE(probe_socket);
  std::string wire = flap_report("flappy").to_wire();
  auto deliver = [&] {
    EXPECT_TRUE(probe_socket->send_to(wire, monitor.endpoint()).ok());
    return monitor.poll_batch(1s) == 1;
  };

  ASSERT_TRUE(deliver());  // baseline report
  std::uint64_t trips_before = monitor.quarantine_trips();

  // Three expire→rejoin cycles trip the quarantine on the third rejoin.
  for (int cycle = 0; cycle < 3; ++cycle) {
    std::this_thread::sleep_for(25ms);  // age past the 10ms expiry cutoff
    monitor.sweep_stale();
    ASSERT_TRUE(store.sys_records().empty()) << "cycle " << cycle;
    bool admitted = deliver();
    if (cycle < 2) {
      EXPECT_TRUE(admitted) << "cycle " << cycle;
    } else {
      EXPECT_FALSE(admitted) << "third rejoin should be quarantined";
    }
  }
  EXPECT_EQ(monitor.quarantine_trips(), trips_before + 1);
  EXPECT_TRUE(monitor.is_quarantined("127.0.0.1:4006"));
  EXPECT_TRUE(store.sys_records().empty());

  // Reports during the quarantine are dropped.
  EXPECT_FALSE(deliver());
  EXPECT_GE(monitor.quarantined_reports_dropped(), 2u);

  // After the backoff elapses the host is readmitted.
  std::this_thread::sleep_for(120ms);
  EXPECT_FALSE(monitor.is_quarantined("127.0.0.1:4006"));
  EXPECT_TRUE(deliver());
  ASSERT_EQ(store.sys_records().size(), 1u);
}

TEST(Quarantine, SteadyRejoinsBelowThresholdAreAdmitted) {
  ipc::InMemoryStatusStore store;
  monitor::SystemMonitorConfig config;
  config.probe_interval = 10ms;
  config.stale_factor = 1;
  config.flap_threshold = 0;  // disabled
  config.accept_tcp = false;
  monitor::SystemMonitor monitor(config, store);
  ASSERT_TRUE(monitor.valid());

  auto probe_socket = net::UdpSocket::create();
  ASSERT_TRUE(probe_socket);
  std::string wire = flap_report("steady").to_wire();
  for (int cycle = 0; cycle < 5; ++cycle) {
    ASSERT_TRUE(probe_socket->send_to(wire, monitor.endpoint()).ok());
    ASSERT_EQ(monitor.poll_batch(1s), 1u);
    std::this_thread::sleep_for(25ms);
    monitor.sweep_stale();
  }
  EXPECT_EQ(monitor.quarantine_trips(), 0u);
}

// --- monitor under stalled TCP reporters ---------------------------------------

TEST(MonitorResilience, TcpReportersCannotStallUdpIngest) {
  using Clock = std::chrono::steady_clock;
  ipc::InMemoryStatusStore store;
  monitor::SystemMonitor monitor(monitor::SystemMonitorConfig{}, store);
  ASSERT_TRUE(monitor.valid());
  ASSERT_TRUE(monitor.start());

  // One reporter connects and says nothing; another trickles a byte every
  // 500 ms and never ends its line.
  Clock::time_point opened = Clock::now();
  auto idle = net::TcpSocket::connect(monitor.tcp_endpoint(), 1s);
  auto dripper = net::TcpSocket::connect(monitor.tcp_endpoint(), 1s);
  ASSERT_TRUE(idle && dripper);
  std::atomic<bool> dripping{true};
  std::thread drip([&] {
    while (dripping.load() && dripper->send_all("x").ok()) {
      for (int i = 0; i < 50 && dripping.load(); ++i) std::this_thread::sleep_for(10ms);
    }
  });
  std::this_thread::sleep_for(100ms);  // both connections accepted

  // A UDP report still lands at once.
  auto probe_socket = net::UdpSocket::create();
  ASSERT_TRUE(probe_socket);
  Clock::time_point sent = Clock::now();
  ASSERT_TRUE(
      probe_socket->send_to(flap_report("udp-host").to_wire(), monitor.endpoint()).ok());
  while (monitor.reports_received() == 0 && Clock::now() - sent < 2s) {
    std::this_thread::sleep_for(100us);
  }
  Clock::duration landed = Clock::now() - sent;
  EXPECT_EQ(monitor.reports_received(), 1u);
  EXPECT_LT(landed, 100ms) << "UDP report took "
                           << std::chrono::duration<double, std::milli>(landed).count()
                           << " ms behind the TCP reporters";

  // The 1 s report deadline closes both connections and rejects their
  // empty and cut-off reports.
  while (monitor.reports_rejected() < 2 && Clock::now() - opened < 3s) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(monitor.reports_rejected(), 2u);
  EXPECT_LT(Clock::now() - opened, 1500ms);
  std::string byte;
  idle->set_receive_timeout(1s);
  EXPECT_EQ(idle->receive_exact(byte, 1).status, net::IoStatus::kClosed);

  dripping.store(false);
  drip.join();
  monitor.stop();
  EXPECT_EQ(store.sys_records().size(), 1u);
}

// --- stats server under stalled clients ----------------------------------------

TEST(StatsServerResilience, SlowDripClientCannotWedgeServeLoop) {
  obs::StatsServerConfig config;
  config.command_timeout = 80ms;
  obs::StatsServer server(config);
  ASSERT_TRUE(server.valid());

  // A client that trickles bytes without ever finishing the command line.
  auto dripper = net::TcpSocket::connect(server.endpoint(), 1s);
  ASSERT_TRUE(dripper);
  std::atomic<bool> stop{false};
  std::thread drip([&] {
    while (!stop.load() && dripper->valid()) {
      if (!dripper->send_all("j").ok()) break;
      std::this_thread::sleep_for(10ms);
    }
  });

  auto started = std::chrono::steady_clock::now();
  EXPECT_TRUE(server.serve_once(1s));  // bounded despite the drip
  auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_LT(elapsed, 1s);

  stop.store(true);
  drip.join();

  // And the next (well-behaved) client is served promptly.
  std::thread fetch([&] { EXPECT_TRUE(server.serve_once(2s)); });
  auto client = net::TcpSocket::connect(server.endpoint(), 1s);
  ASSERT_TRUE(client);
  client->set_receive_timeout(2s);
  ASSERT_TRUE(client->send_all("json\n").ok());
  std::string body, chunk;
  while (client->receive_some(chunk, 64 * 1024).ok()) body += chunk;
  fetch.join();
  EXPECT_NE(body.find("counters"), std::string::npos);
}

// --- wizard degradation ---------------------------------------------------------

TEST(WizardDegradation, StaleFeedFlagsRepliesAndRecovers) {
  ipc::InMemoryStatusStore store;
  ipc::SysRecord record;
  ipc::copy_fixed(record.host, ipc::kHostNameLen, "old");
  ipc::copy_fixed(record.address, ipc::kAddressLen, "9.9.9.9:1");
  record.cpu_idle = 0.9;
  record.updated_ns = ipc::steady_now_ns() - 500'000'000ull;  // 500ms old
  store.put_sys(record);

  core::WizardConfig config;
  config.staleness_bound = 100ms;
  core::Wizard wizard(config, store);
  EXPECT_TRUE(wizard.degraded());

  core::UserRequest request;
  request.sequence = 1;
  request.server_num = 1;
  request.detail = "host_cpu_free > 0.5";
  core::WizardReply reply = wizard.handle(request);
  ASSERT_TRUE(reply.ok);
  EXPECT_TRUE(reply.stale);

  // A cached reply is re-stamped at serve time, not pinned to the flag the
  // cache stored: refresh the feed and the very same query turns fresh.
  record.updated_ns = ipc::steady_now_ns();
  store.put_sys(record);
  EXPECT_FALSE(wizard.degraded());
  request.sequence = 2;
  reply = wizard.handle(request);
  ASSERT_TRUE(reply.ok);
  EXPECT_FALSE(reply.stale);
}

TEST(WizardDegradation, DisabledBoundNeverDegrades) {
  ipc::InMemoryStatusStore store;
  ipc::SysRecord record;
  ipc::copy_fixed(record.host, ipc::kHostNameLen, "ancient");
  ipc::copy_fixed(record.address, ipc::kAddressLen, "9.9.9.9:2");
  record.updated_ns = 1;  // as old as it gets
  store.put_sys(record);
  core::Wizard wizard(core::WizardConfig{}, store);  // bound = 0
  EXPECT_FALSE(wizard.degraded());
}

TEST(WizardDegradation, StaleFlagSurvivesTheWireAndOldFormatStillParses) {
  core::WizardReply reply;
  reply.sequence = 5;
  reply.stale = true;
  reply.servers.push_back({"h", "1.1.1.1:1"});
  std::string wire = reply.to_wire();
  EXPECT_NE(wire.find(" stale"), std::string::npos);
  auto parsed = core::WizardReply::from_wire(wire);
  ASSERT_TRUE(parsed);
  EXPECT_TRUE(parsed->stale);

  // A fresh reply is byte-identical to the pre-ISSUE-3 format, and the old
  // four-field OK header still parses (stale defaults to false).
  reply.stale = false;
  EXPECT_EQ(reply.to_wire(), "SREP 5 OK 1\nh 1.1.1.1:1\n");
  auto old = core::WizardReply::from_wire("SREP 9 OK 1\nh 1.1.1.1:1\n");
  ASSERT_TRUE(old);
  EXPECT_FALSE(old->stale);
}

TEST(WizardDegradation, StrictFreshClientRejectsStaleReplies) {
  ipc::InMemoryStatusStore store;
  ipc::SysRecord record;
  ipc::copy_fixed(record.host, ipc::kHostNameLen, "laggy");
  ipc::copy_fixed(record.address, ipc::kAddressLen, "9.9.9.9:3");
  record.cpu_idle = 0.9;
  record.updated_ns = ipc::steady_now_ns() - 500'000'000ull;
  store.put_sys(record);

  core::WizardConfig wizard_config;
  wizard_config.staleness_bound = 100ms;
  core::Wizard wizard(wizard_config, store);
  ASSERT_TRUE(wizard.start());

  core::SmartClientConfig config;
  config.wizard = wizard.endpoint();
  config.seed = 11;
  config.reply_timeout = 200ms;
  config.retries = 1;
  config.retry.initial_backoff = 10ms;

  config.freshness = core::FreshnessMode::kBestEffort;
  core::SmartClient best_effort(config);
  auto accepted = best_effort.query("host_cpu_free > 0.5", 1);
  EXPECT_TRUE(accepted.ok);
  EXPECT_TRUE(accepted.stale);

  config.freshness = core::FreshnessMode::kStrictFresh;
  core::SmartClient strict(config);
  auto rejected = strict.query("host_cpu_free > 0.5", 1);
  wizard.stop();
  EXPECT_FALSE(rejected.ok);
  EXPECT_NE(rejected.error.find("degraded"), std::string::npos);
}

// --- client sequence hygiene -----------------------------------------------------

TEST(ClientSequences, FreshSequencePerAttemptAndCrossAttemptReplyAccepted) {
  // A relay that sits on the first request, then — once the resend arrives —
  // answers the FIRST attempt's sequence before the second's. The client
  // must accept the attempt-1 reply (same question) and must have minted
  // distinct sequence numbers per attempt.
  ipc::InMemoryStatusStore store;
  ipc::SysRecord record;
  ipc::copy_fixed(record.host, ipc::kHostNameLen, "late");
  ipc::copy_fixed(record.address, ipc::kAddressLen, "4.4.4.4:1");
  record.cpu_idle = 0.9;
  store.put_sys(record);
  core::Wizard wizard(core::WizardConfig{}, store);
  ASSERT_TRUE(wizard.valid());

  auto relay = net::UdpSocket::bind(net::Endpoint::loopback(0));
  ASSERT_TRUE(relay);
  std::vector<std::uint32_t> seen;
  std::atomic<bool> stop{false};
  std::thread relay_thread([&] {
    std::optional<core::UserRequest> held;
    while (!stop.load()) {
      auto datagram = relay->receive(50ms);
      if (!datagram) continue;
      auto request = core::UserRequest::from_wire(datagram->payload);
      if (!request) continue;
      seen.push_back(request->sequence);
      if (!held) {
        held = *request;  // attempt 1: delay its reply
        continue;
      }
      // Attempt 2 arrived: reply to attempt 1 first. A bogus-sequence reply
      // goes ahead of it and must be ignored by the client.
      core::WizardReply bogus;
      bogus.sequence = 0x7f000001;
      bogus.servers.push_back({"wrong", "6.6.6.6:1"});
      relay->send_to(bogus.to_wire(), datagram->peer);
      relay->send_to(wizard.handle(*held).to_wire(), datagram->peer);
      relay->send_to(wizard.handle(*request).to_wire(), datagram->peer);
    }
  });

  core::SmartClientConfig config;
  config.wizard = relay->local_endpoint();
  config.reply_timeout = 150ms;
  config.retries = 2;
  config.seed = 99;
  core::SmartClient client(config);
  auto reply = client.query("host_cpu_free > 0.5", 1);
  stop.store(true);
  relay_thread.join();

  ASSERT_TRUE(reply.ok) << reply.error;
  ASSERT_EQ(reply.servers.size(), 1u);
  EXPECT_EQ(reply.servers[0].host, "late");
  ASSERT_GE(seen.size(), 2u);
  EXPECT_NE(seen[0], seen[1]) << "resend must mint a fresh sequence";
}

// --- transmitter breaker ---------------------------------------------------------

TEST(TransmitterBreaker, ReceiverOutageTripsBreakerAndRecovers) {
  ipc::InMemoryStatusStore monitor_store;
  ipc::InMemoryStatusStore wizard_store;
  ipc::SysRecord record;
  ipc::copy_fixed(record.host, ipc::kHostNameLen, "comeback");
  ipc::copy_fixed(record.address, ipc::kAddressLen, "5.5.5.5:1");
  monitor_store.put_sys(record);

  net::Endpoint receiver_endpoint;
  {
    transport::Receiver ghost(transport::ReceiverConfig{}, wizard_store);
    receiver_endpoint = ghost.endpoint();
  }  // port now dead

  transport::TransmitterConfig config;
  config.receiver = receiver_endpoint;
  config.interval = 20ms;
  config.push_retry.max_attempts = 2;
  config.push_retry.initial_backoff = 10ms;
  config.breaker.failures_to_open = 3;
  config.breaker.cooldown = 50ms;
  transport::Transmitter transmitter(config, monitor_store);
  ASSERT_TRUE(transmitter.start());

  // Let pushes fail until the breaker opens.
  for (int i = 0; i < 100 && transmitter.breaker().trips() == 0; ++i) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_GE(transmitter.breaker().trips(), 1u);

  // Receiver returns on the same port; the half-open probe should close the
  // breaker and deliver the snapshot.
  transport::ReceiverConfig rx_config;
  rx_config.bind = receiver_endpoint;
  transport::Receiver revived(rx_config, wizard_store);
  ASSERT_TRUE(revived.valid());
  ASSERT_TRUE(revived.start());
  for (int i = 0; i < 300 && wizard_store.sys_records().empty(); ++i) {
    std::this_thread::sleep_for(10ms);
  }
  transmitter.stop();
  revived.stop();
  ASSERT_EQ(wizard_store.sys_records().size(), 1u);
  EXPECT_EQ(transmitter.breaker().state(), util::CircuitBreaker::State::kClosed);
}

// --- receiver pull retry ----------------------------------------------------------

TEST(ReceiverRetry, PullRetriesThroughConnectFaults) {
  ipc::InMemoryStatusStore monitor_store;
  ipc::InMemoryStatusStore wizard_store;
  ipc::SysRecord record;
  ipc::copy_fixed(record.host, ipc::kHostNameLen, "eventually");
  ipc::copy_fixed(record.address, ipc::kAddressLen, "7.7.7.7:1");
  monitor_store.put_sys(record);

  transport::TransmitterConfig tx_config;
  tx_config.mode = transport::TransferMode::kDistributed;
  transport::Transmitter transmitter(tx_config, monitor_store);
  ASSERT_TRUE(transmitter.start());

  // Every other connect attempt fails; the pull's retry rides past it.
  net::FaultConfig faults;
  faults.seed = 21;
  faults.tcp_connect_fail = 0.5;
  net::FaultInjector injector(faults);
  net::ScopedGlobalFaults scoped(injector);

  transport::ReceiverConfig rx_config;
  rx_config.pull_retry.max_attempts = 8;
  rx_config.pull_retry.initial_backoff = 5ms;
  transport::Receiver receiver(rx_config, wizard_store);
  bool pulled = false;
  for (int i = 0; i < 5 && !pulled; ++i) {
    pulled = receiver.pull_from(transmitter.endpoint());
  }
  transmitter.stop();
  ASSERT_TRUE(pulled);
  ASSERT_EQ(wizard_store.sys_records().size(), 1u);
  EXPECT_EQ(wizard_store.sys_records()[0].host_str(), "eventually");
}

// --- reactor-hosted daemons under injected faults -------------------------------
//
// The servers now multiplex every client on one event loop (ISSUE 6), so a
// chaos run must show three things: the loop survives mid-connection resets
// and truncations, every aborted connection is fully released (no fd leak,
// accepts == closes), and a well-behaved client is still served afterwards.

int count_open_fds() {
  int count = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;
}

/// Polls `done` every 5ms until true or ~2s elapsed.
template <typename Pred>
bool settle(Pred done) {
  for (int i = 0; i < 400; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return done();
}

TEST(ReactorChaos, StatsServerSurvivesInjectedResets) {
  obs::StatsServerConfig config;
  config.command_timeout = 100ms;
  config.io_timeout = 300ms;
  obs::StatsServer server(config);
  ASSERT_TRUE(server.valid());
  ASSERT_TRUE(server.start());

  auto& registry = obs::MetricsRegistry::instance();
  obs::Counter* accepts = registry.counter("reactor_accepts_total");
  obs::Counter* closes = registry.counter("reactor_closes_total");
  obs::Gauge* open_gauge = registry.gauge("reactor_connections_open");
  double open_before = open_gauge->value();
  std::uint64_t accepts_before = accepts->value();
  int fds_before = count_open_fds();
  ASSERT_GT(fds_before, 0);

  {
    net::FaultConfig faults;
    faults.seed = 17;
    faults.tcp_reset_send = 0.3;
    faults.tcp_reset_recv = 0.2;
    faults.tcp_truncate_send = 0.2;
    net::FaultInjector injector(faults);
    net::ScopedGlobalFaults scoped(injector);
    for (int i = 0; i < 40; ++i) {
      auto client = net::TcpSocket::connect(server.endpoint(), 500ms);
      if (!client) continue;  // connect-path fault
      client->set_receive_timeout(150ms);
      if (!client->send_all("json\n").ok()) continue;
      std::string chunk;
      while (client->receive_some(chunk, 64 * 1024).ok()) {
      }
    }
  }

  // Every aborted connection must come back out of the loop: the open gauge
  // returns to its baseline and each accept has a matching close.
  EXPECT_TRUE(settle([&] { return open_gauge->value() <= open_before; }));
  EXPECT_GT(accepts->value(), accepts_before);
  EXPECT_TRUE(settle([&] {
    return closes->value() - accepts_before == accepts->value() - accepts_before;
  }));
  EXPECT_TRUE(settle([&] { return count_open_fds() == fds_before; }));

  // The loop is unharmed: a clean client is served immediately.
  auto client = net::TcpSocket::connect(server.endpoint(), 1s);
  ASSERT_TRUE(client);
  client->set_receive_timeout(2s);
  ASSERT_TRUE(client->send_all("text\n").ok());
  std::string body, chunk;
  while (client->receive_some(chunk, 64 * 1024).ok()) body += chunk;
  EXPECT_FALSE(body.empty());
  server.stop();
}

TEST(ReactorChaos, FileServerSurvivesInjectedResets) {
  apps::FileServerConfig config;
  config.request_idle_timeout = 300ms;
  apps::FileServer server(config);
  ASSERT_TRUE(server.valid());
  ASSERT_TRUE(server.start());

  auto& registry = obs::MetricsRegistry::instance();
  obs::Counter* accepts = registry.counter("reactor_accepts_total");
  obs::Counter* closes = registry.counter("reactor_closes_total");
  obs::Gauge* open_gauge = registry.gauge("reactor_connections_open");
  double open_before = open_gauge->value();
  std::uint64_t accepts_before = accepts->value();
  int fds_before = count_open_fds();
  ASSERT_GT(fds_before, 0);

  {
    net::FaultConfig faults;
    faults.seed = 29;
    faults.tcp_reset_send = 0.2;
    faults.tcp_reset_recv = 0.2;
    faults.tcp_truncate_send = 0.3;
    net::FaultInjector injector(faults);
    net::ScopedGlobalFaults scoped(injector);
    for (int i = 0; i < 30; ++i) {
      auto client = net::TcpSocket::connect(server.endpoint(), 500ms);
      if (!client) continue;
      client->set_receive_timeout(150ms);
      if (!client->send_all("BLK 0 8192\n").ok()) continue;
      std::string chunk;
      std::size_t got = 0;
      while (got < 8192) {
        auto io = client->receive_some(chunk, 8192);
        if (!io.ok()) break;
        got += io.bytes;
      }
    }
  }

  EXPECT_TRUE(settle([&] { return open_gauge->value() <= open_before; }));
  EXPECT_GT(accepts->value(), accepts_before);
  EXPECT_TRUE(settle([&] {
    return closes->value() - accepts_before == accepts->value() - accepts_before;
  }));
  EXPECT_TRUE(settle([&] { return count_open_fds() == fds_before; }));

  // A clean download still verifies end to end.
  auto client = net::TcpSocket::connect(server.endpoint(), 1s);
  ASSERT_TRUE(client);
  client->set_receive_timeout(2s);
  ASSERT_TRUE(client->send_all("BLK 100 512\nBYE\n").ok());
  std::string block;
  while (block.size() < 512) {
    std::string chunk;
    if (!client->receive_some(chunk, 1024).ok()) break;
    block += chunk;
  }
  ASSERT_EQ(block.size(), 512u);
  EXPECT_EQ(block, apps::synthetic_file_chunk(100, 512));
  server.stop();
}

TEST(ReactorChaos, SlowDripClientDoesNotStallOtherStatsClients) {
  // One event loop serves both: a dripper that never finishes its command
  // line and a prompt client. The prompt client's reply must not wait for
  // the dripper's command deadline — that was the whole point of replacing
  // the serve-one-connection-at-a-time thread.
  obs::StatsServerConfig config;
  config.command_timeout = 500ms;
  obs::StatsServer server(config);
  ASSERT_TRUE(server.valid());
  ASSERT_TRUE(server.start());

  auto dripper = net::TcpSocket::connect(server.endpoint(), 1s);
  ASSERT_TRUE(dripper);
  std::atomic<bool> stop{false};
  std::thread drip([&] {
    while (!stop.load() && dripper->valid()) {
      if (!dripper->send_all("j").ok()) break;
      std::this_thread::sleep_for(10ms);
    }
  });

  auto started = std::chrono::steady_clock::now();
  auto client = net::TcpSocket::connect(server.endpoint(), 1s);
  ASSERT_TRUE(client);
  client->set_receive_timeout(2s);
  ASSERT_TRUE(client->send_all("json\n").ok());
  std::string body, chunk;
  while (client->receive_some(chunk, 64 * 1024).ok()) body += chunk;
  auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_NE(body.find("counters"), std::string::npos);
  EXPECT_LT(elapsed, 400ms);  // served while the dripper was still dripping

  stop.store(true);
  drip.join();
  server.stop();
}

TEST(ReactorChaos, StatsServerReplyDeathLeavesNoDanglingTimer) {
  // A hard send fault inside reply() retires the connection synchronously
  // (on_close runs and cancels its timers). The write deadline must NOT be
  // armed afterwards: a timer registered post-retirement holds a freed
  // Connection* and fires close_now() on it. Manual stepping over a shared
  // reactor with a virtual clock makes the ordering — and the leak check —
  // deterministic.
  sim::VirtualClock clock;
  net::ReactorConfig reactor_config;
  reactor_config.clock = &clock;
  net::Reactor reactor(reactor_config);  // stepped by hand, no loop thread

  obs::StatsServerConfig config;
  config.command_timeout = 100ms;
  config.io_timeout = 200ms;
  config.reactor = &reactor;
  obs::StatsServer server(config);
  ASSERT_TRUE(server.valid());
  ASSERT_TRUE(server.start());

  auto client = net::TcpSocket::connect(server.endpoint(), 1s);
  ASSERT_TRUE(client);
  ASSERT_TRUE(client->send_all("json\n").ok());  // before faults arm

  obs::Counter* closes = obs::MetricsRegistry::instance().counter("reactor_closes_total");
  std::uint64_t closes_before = closes->value();
  {
    net::FaultConfig faults;
    faults.seed = 7;
    faults.tcp_reset_send = 1.0;  // the reply write always dies hard
    net::FaultInjector injector(faults);
    net::ScopedGlobalFaults scoped(injector);
    for (int i = 0; i < 200 && closes->value() == closes_before; ++i) {
      reactor.run_once(5ms);
    }
  }
  EXPECT_EQ(closes->value() - closes_before, 1u);
  // Every timer belonged to that connection, so the registry must be empty —
  // a survivor is the dangling write deadline.
  EXPECT_EQ(reactor.active_timers(), 0u);
  // Firing past every per-connection deadline must be a no-op, not a
  // use-after-free on the reaped Connection.
  clock.advance(1s);
  reactor.run_once(util::Duration::zero());
  server.stop();
}

TEST(ReactorChaos, FileServerPumpDeathLeavesNoDanglingTimer) {
  // Same shape as the stats-server case: when a block's final send() dies
  // hard, pump() must not re-arm the idle timer on the retired connection.
  sim::VirtualClock clock;
  net::ReactorConfig reactor_config;
  reactor_config.clock = &clock;
  net::Reactor reactor(reactor_config);

  apps::FileServerConfig config;
  config.request_idle_timeout = 200ms;
  config.reactor = &reactor;
  apps::FileServer server(config);
  ASSERT_TRUE(server.valid());
  ASSERT_TRUE(server.start());

  auto client = net::TcpSocket::connect(server.endpoint(), 1s);
  ASSERT_TRUE(client);
  // One send_chunk exactly, so the block's last send is the one that dies.
  ASSERT_TRUE(client->send_all("BLK 0 8192\n").ok());

  obs::Counter* closes = obs::MetricsRegistry::instance().counter("reactor_closes_total");
  std::uint64_t closes_before = closes->value();
  {
    net::FaultConfig faults;
    faults.seed = 11;
    faults.tcp_reset_send = 1.0;
    net::FaultInjector injector(faults);
    net::ScopedGlobalFaults scoped(injector);
    for (int i = 0; i < 200 && closes->value() == closes_before; ++i) {
      reactor.run_once(5ms);
    }
  }
  EXPECT_EQ(closes->value() - closes_before, 1u);
  EXPECT_EQ(reactor.active_timers(), 0u);
  clock.advance(1s);
  reactor.run_once(util::Duration::zero());
  server.stop();
}

TEST(ReactorChaos, ReceiverReleasesConnectionsTruncatedMidFrame) {
  // Transmitters that die mid-frame must be counted as damaged streams and
  // fully released by the loop.
  ipc::InMemoryStatusStore store;
  transport::ReceiverConfig config;
  config.io_timeout = 300ms;
  transport::Receiver receiver(config, store);
  ASSERT_TRUE(receiver.valid());
  ASSERT_TRUE(receiver.start());

  auto& registry = obs::MetricsRegistry::instance();
  obs::Gauge* open_gauge = registry.gauge("reactor_connections_open");
  double open_before = open_gauge->value();
  std::uint64_t malformed_before = receiver.malformed_frames();

  for (int i = 0; i < 5; ++i) {
    auto socket = net::TcpSocket::connect(receiver.endpoint(), 1s);
    ASSERT_TRUE(socket);
    // Half a frame header: promises a payload that never comes.
    ASSERT_TRUE(socket->send_all(std::string("\x00\x00\x00\x01\x00\x00", 6)).ok());
    socket->close();
  }

  EXPECT_TRUE(settle([&] { return receiver.malformed_frames() - malformed_before == 5; }));
  EXPECT_TRUE(settle([&] { return open_gauge->value() <= open_before; }));
  receiver.stop();
}

}  // namespace
}  // namespace smartsock
