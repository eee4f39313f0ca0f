// net::UdpShardGroup: binding, the batch drain with one or several loops per
// shard, poll() without loops, restart, CPU pinning inside the allowed set,
// the oversubscription warning and kernel-drop publishing.
#include <gtest/gtest.h>

#include <sched.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/udp_shard_group.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace smartsock::net {
namespace {

using namespace std::chrono_literals;

/// Handler that echoes every datagram back and counts what it saw.
struct Echo {
  std::atomic<std::size_t> handled{0};
  UdpShardGroup::Handler handler() {
    return [this](std::vector<Datagram>& batch, std::vector<Datagram>& replies) {
      for (const Datagram& d : batch) replies.push_back(d);
      handled.fetch_add(batch.size());
      return batch.size();
    };
  }
};

UdpShardGroupConfig group_config(const std::string& name, std::size_t shards,
                                 std::size_t loops_per_shard = 1) {
  UdpShardGroupConfig config;
  config.name = name;
  config.traffic_component = name;
  config.shards = shards;
  config.loops_per_shard = loops_per_shard;
  return config;
}

/// Sends `count` numbered datagrams from a fresh socket and collects the
/// echoes; returns the payloads that came back.
std::multiset<std::string> round_trip(const Endpoint& target, int count, const std::string& tag) {
  std::multiset<std::string> echoed;
  auto sock = UdpSocket::bind(Endpoint::loopback(0));
  if (!sock) return echoed;
  sock->set_receive_timeout(2s);
  std::vector<Datagram> batch;
  for (int i = 0; i < count; ++i) batch.push_back({tag + "-" + std::to_string(i), target});
  sock->send_batch(batch);
  for (int i = 0; i < count; ++i) {
    std::string payload;
    Endpoint peer;
    if (!sock->receive_from(payload, peer).ok()) break;
    EXPECT_EQ(target.port(), peer.port());  // replies leave from the service port
    echoed.insert(payload);
  }
  return echoed;
}

std::uint64_t counter(const std::string& name) {
  return obs::MetricsRegistry::instance().counter(name)->value();
}

/// The CPUs loop `i` of a running group may run on.
std::vector<int> loop_cpus(UdpShardGroup& group, std::size_t i) {
  std::vector<int> cpus;
  group.loop(i)->run_on_loop([&] { cpus = util::allowed_cpus(); });
  return cpus;
}

/// Narrows the calling thread's affinity for one scope.
class AffinityScope {
 public:
  explicit AffinityScope(const std::vector<int>& cpus) {
    sched_getaffinity(0, sizeof saved_, &saved_);
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int cpu : cpus) CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);
  }
  ~AffinityScope() { sched_setaffinity(0, sizeof saved_, &saved_); }

 private:
  cpu_set_t saved_;
};

TEST(UdpShardGroup, OneShardIsOneLoopRunningTheDrain) {
  Echo echo;
  UdpShardGroup group(group_config("g_one", 1), echo.handler());
  ASSERT_TRUE(group.valid()) << group.bind_error();
  EXPECT_EQ(1u, group.shards());
  EXPECT_EQ(nullptr, group.loop(0));
  ASSERT_TRUE(group.start());
  EXPECT_NE(nullptr, group.loop(0));
  EXPECT_EQ(nullptr, group.loop(1));

  EXPECT_EQ(20u, round_trip(group.endpoint(), 20, "a").size());
  EXPECT_EQ(20u, echo.handled.load());
  EXPECT_EQ(20u, counter("g_one_shard_datagrams_total{shard=\"0\"}"));
  std::uint64_t batches = counter("g_one_shard_batches_total{shard=\"0\"}");
  EXPECT_GE(batches, 1u);
  EXPECT_LE(batches, 20u);
  group.stop();
}

TEST(UdpShardGroup, ReusePortShardsShareOnePort) {
  Echo echo;
  UdpShardGroupConfig config = group_config("g_two", 2);
  config.pin = false;
  UdpShardGroup group(config, echo.handler());
  ASSERT_TRUE(group.valid());
  ASSERT_EQ(2u, group.shards());
  ASSERT_TRUE(group.start());
  // Several sender sockets so the 4-tuple hash can pick both shards; every
  // datagram comes back exactly once whichever shard took it.
  for (int s = 0; s < 6; ++s) {
    std::string tag = "s" + std::to_string(s);
    std::multiset<std::string> echoed = round_trip(group.endpoint(), 10, tag);
    EXPECT_EQ(10u, echoed.size());
    for (int i = 0; i < 10; ++i) EXPECT_EQ(1u, echoed.count(tag + "-" + std::to_string(i)));
  }
  group.stop();
  EXPECT_EQ(60u, counter("g_two_shard_datagrams_total{shard=\"0\"}") +
                     counter("g_two_shard_datagrams_total{shard=\"1\"}"));
}

TEST(UdpShardGroup, LoopsSharingAShardServeEachDatagramOnce) {
  Echo echo;
  UdpShardGroup group(group_config("g_loops", 1, 4), echo.handler());
  ASSERT_TRUE(group.valid());
  ASSERT_TRUE(group.start());
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NE(nullptr, group.loop(i));

  constexpr int kClients = 4;
  constexpr int kPerClient = 50;
  std::vector<std::thread> clients;
  std::atomic<std::size_t> echoed{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      echoed.fetch_add(round_trip(group.endpoint(), kPerClient, "c" + std::to_string(c)).size());
    });
  }
  for (std::thread& client : clients) client.join();
  group.stop();
  EXPECT_EQ(static_cast<std::size_t>(kClients * kPerClient), echoed.load());
  EXPECT_EQ(static_cast<std::size_t>(kClients * kPerClient), echo.handled.load());
}

TEST(UdpShardGroup, PollRunsTheDrainWithoutLoops) {
  Echo echo;
  UdpShardGroup group(group_config("g_poll", 1), echo.handler());
  ASSERT_TRUE(group.valid());

  auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(0u, group.poll(50ms));  // nothing queued: waits, then gives up
  EXPECT_GE(std::chrono::steady_clock::now() - start, 40ms);

  auto sock = UdpSocket::bind(Endpoint::loopback(0));
  ASSERT_TRUE(sock);
  sock->set_receive_timeout(1s);
  std::vector<Datagram> batch = {{"x", group.endpoint()}, {"y", group.endpoint()}};
  ASSERT_EQ(2u, sock->send_batch(batch));
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(2u, group.poll(1s));  // the handler's count, replies sent
  std::string payload;
  Endpoint peer;
  EXPECT_TRUE(sock->receive_from(payload, peer).ok());
  EXPECT_EQ("x", payload);

  ASSERT_TRUE(group.start());
  EXPECT_EQ(0u, group.poll(10ms));  // the loops own the sockets while running
  group.stop();
}

TEST(UdpShardGroup, RestartsAfterStop) {
  Echo echo;
  UdpShardGroup group(group_config("g_restart", 1, 2), echo.handler());
  ASSERT_TRUE(group.valid());
  ASSERT_TRUE(group.start());
  EXPECT_FALSE(group.start());  // already running
  group.stop();
  EXPECT_FALSE(group.running());
  ASSERT_TRUE(group.start());
  EXPECT_EQ(5u, round_trip(group.endpoint(), 5, "r").size());
  group.stop();
  group.stop();  // idempotent
}

TEST(UdpShardGroup, PinsLoopsWithinTheAllowedCpus) {
  std::vector<int> allowed = util::allowed_cpus();
  if (allowed.size() < 2) GTEST_SKIP() << "needs two CPUs";
  // The last two allowed CPUs, so pinning by raw index would miss them
  // whenever the set does not start at CPU 0.
  std::vector<int> narrowed(allowed.end() - 2, allowed.end());
  AffinityScope scope(narrowed);

  Echo echo;
  UdpShardGroup sharded(group_config("g_pin", 2), echo.handler());
  ASSERT_EQ(2u, sharded.shards());
  ASSERT_TRUE(sharded.start());
  EXPECT_EQ(std::vector<int>{narrowed[0]}, loop_cpus(sharded, 0));
  EXPECT_EQ(std::vector<int>{narrowed[1]}, loop_cpus(sharded, 1));
  sharded.stop();

  // A one-shard group never pins: its loop keeps the starter's affinity.
  UdpShardGroup single(group_config("g_nopin", 1), echo.handler());
  ASSERT_TRUE(single.start());
  EXPECT_EQ(narrowed, loop_cpus(single, 0));
  single.stop();
}

TEST(UdpShardGroup, WarnsOnceWhenLoopsOversubscribeTheAllowedCpus) {
  std::vector<int> allowed = util::allowed_cpus();
  if (allowed.empty()) GTEST_SKIP() << "no affinity API";
  AffinityScope scope({allowed.back()});

  std::atomic<int> warnings{0};
  util::Logger::instance().set_sink(
      [&warnings](util::LogLevel level, std::string_view, std::string_view message) {
        if (level == util::LogLevel::kWarn &&
            message.find("oversubscribe") != std::string_view::npos) {
          warnings.fetch_add(1);
        }
      });
  // No ASSERT until the sink is detached: it points at this frame.
  Echo echo;
  UdpShardGroup crowded(group_config("g_warn", 2, 2), echo.handler());
  EXPECT_TRUE(crowded.start());
  crowded.stop();
  EXPECT_EQ(1, warnings.load());

  UdpShardGroup fits(group_config("g_fits", 1), echo.handler());
  EXPECT_TRUE(fits.start());
  fits.stop();
  util::Logger::instance().set_sink(nullptr);
  EXPECT_EQ(1, warnings.load());
}

TEST(UdpShardGroup, PublishesKernelDropsOnceAcrossLoops) {
  Echo echo;
  UdpShardGroupConfig config = group_config("g_drops", 1, 3);
  config.rcvbuf_bytes = 4096;  // tiny queue so the blast overflows it
  UdpShardGroup group(config, echo.handler());
  ASSERT_TRUE(group.valid());

  auto sender = UdpSocket::bind(Endpoint::loopback(0));
  ASSERT_TRUE(sender);
  std::vector<Datagram> blast(400, Datagram{std::string(512, 'z'), group.endpoint()});
  sender->send_batch(blast);
  ASSERT_TRUE(group.start());
  std::this_thread::sleep_for(50ms);
  // The kernel stamps its drop count on datagrams queued after the
  // overflow, so one more datagram carries it.
  sender->send_to("late", group.endpoint());
  // Every datagram was either drained or dropped by the kernel.
  auto delivered = [] { return counter("g_drops_shard_datagrams_total{shard=\"0\"}"); };
  auto deadline = std::chrono::steady_clock::now() + 2s;
  while (group.kernel_drops(0) + delivered() < blast.size() + 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  group.stop();

  std::uint64_t drops = group.kernel_drops(0);
  EXPECT_GT(drops, 0u);
  EXPECT_EQ(blast.size() + 1, drops + delivered());  // a wrapped count would overshoot
  EXPECT_EQ(drops, counter("udp_rcvbuf_dropped_total{daemon=\"g_drops\",shard=\"0\"}"));
  EXPECT_EQ(delivered(), echo.handled.load());
}

}  // namespace
}  // namespace smartsock::net
