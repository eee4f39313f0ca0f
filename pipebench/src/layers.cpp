#include "layers.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "core/server_matcher.h"
#include "core/wire.h"
#include "ipc/in_memory_store.h"
#include "lang/requirement.h"
#include "monitor/system_monitor.h"
#include "net/udp_socket.h"
#include "probe/status_report.h"
#include "stats.h"
#include "transport/receiver.h"
#include "transport/transmitter.h"

namespace pipebench {

using namespace smartsock;

namespace {

std::uint64_t now_ns() { return ipc::steady_now_ns(); }

double elapsed_us(std::uint64_t started) {
  return static_cast<double>(now_ns() - started) / 1e3;
}

}  // namespace

double udp_echo_p50_us(std::size_t request_bytes, std::size_t reply_bytes, int rounds) {
  auto server = net::UdpSocket::bind(net::Endpoint::loopback(0));
  auto client = net::UdpSocket::bind(net::Endpoint::loopback(0));
  if (!server || !client) return 0.0;
  server->set_receive_timeout(std::chrono::milliseconds(20));
  client->set_receive_timeout(std::chrono::milliseconds(200));
  std::atomic<bool> stop{false};
  const std::string reply(reply_bytes, 'r');
  SutCpuScope on_sut_cpus;  // the echo side stands where the wizard runs
  std::thread echo([&] {
    std::string payload;
    net::Endpoint peer;
    while (!stop.load(std::memory_order_relaxed)) {
      if (server->receive_from(payload, peer).ok()) server->send_to(reply, peer);
    }
  });
  pin_to_generator_cpu();
  const std::string request(request_bytes, 'q');
  const net::Endpoint target = server->local_endpoint();
  std::vector<double> rtt;
  rtt.reserve(static_cast<std::size_t>(rounds));
  std::string payload;
  net::Endpoint peer;
  for (int i = 0; i < rounds; ++i) {
    std::uint64_t started = now_ns();
    client->send_to(request, target);
    if (client->receive_from(payload, peer).ok()) rtt.push_back(elapsed_us(started));
  }
  stop.store(true);
  echo.join();
  return median(rtt);
}

MatchCost replay_query_layers(const ipc::Snapshot& snapshot, const RequirementMix& mix,
                              std::size_t servers_per_query) {
  MatchCost cost;
  core::MatchView view;
  view.sys = snapshot.sys;
  view.net = snapshot.net;
  view.sec = snapshot.sec;
  core::WizardConfig defaults;
  view.local_group = defaults.local_group;

  // Compile cost per distinct requirement (median of repeated compiles),
  // then the median across requirements.
  std::vector<double> per_text;
  std::vector<lang::Requirement> compiled;
  for (const std::string& text : mix.texts) {
    std::vector<double> runs;
    for (int i = 0; i < 25; ++i) {
      std::uint64_t started = now_ns();
      auto requirement = lang::Requirement::compile(text);
      runs.push_back(elapsed_us(started));
      if (i == 0 && requirement) compiled.push_back(std::move(*requirement));
    }
    per_text.push_back(median(runs));
  }
  cost.compile_us = median(per_text);

  // Serial matcher over the final snapshot, every compiling requirement,
  // repeated until half a second of matching has been timed.
  core::ServerMatcher matcher;
  std::vector<double> match_runs;
  std::vector<core::WizardReply> replies;
  double spent_us = 0;
  do {
    for (const lang::Requirement& requirement : compiled) {
      std::uint64_t started = now_ns();
      core::MatchResult result = matcher.match(requirement, view, servers_per_query);
      double us = elapsed_us(started);
      match_runs.push_back(us);
      spent_us += us;
      if (replies.size() < compiled.size()) {
        core::WizardReply reply;
        reply.sequence = static_cast<std::uint32_t>(replies.size() + 1);
        reply.version = snapshot.version;
        reply.servers = std::move(result.selected);
        replies.push_back(std::move(reply));
      }
    }
  } while (!compiled.empty() && spent_us < 500'000);
  cost.match_us = median(match_runs);
  cost.ns_per_record =
      snapshot.sys.empty() ? 0.0 : cost.match_us * 1e3 / static_cast<double>(snapshot.sys.size());

  // Request parse + reply serialize, the wizard's per-request wire work.
  std::vector<std::string> requests;
  for (std::size_t i = 0; i < mix.texts.size(); ++i) {
    core::UserRequest request;
    request.sequence = static_cast<std::uint32_t>(i + 1);
    request.server_num = static_cast<std::uint16_t>(servers_per_query);
    request.detail = mix.texts[i];
    requests.push_back(request.to_wire());
  }
  if (!replies.empty()) {
    const int iterations = 20000;
    std::size_t sink = 0;
    std::uint64_t started = now_ns();
    for (int i = 0; i < iterations; ++i) {
      auto request = core::UserRequest::from_wire(requests[i % requests.size()]);
      sink += request ? request->detail.size() : 0;
      sink += replies[i % replies.size()].to_wire().size();
    }
    cost.wire_ns = static_cast<double>(now_ns() - started) / iterations;
    if (sink == 0) cost.wire_ns = 0;  // keeps the loop observable
  }
  return cost;
}

double report_parse_ns(const std::vector<std::string>& reports) {
  if (reports.empty()) return 0.0;
  std::vector<double> per_pass;
  const std::size_t n = std::min<std::size_t>(reports.size(), 5000);
  std::size_t sink = 0;
  for (int pass = 0; pass < 5; ++pass) {
    std::uint64_t started = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      auto report = probe::StatusReport::from_wire(reports[i]);
      sink += report ? report->host.size() : 0;
    }
    per_pass.push_back(static_cast<double>(now_ns() - started) / static_cast<double>(n));
  }
  return sink == 0 ? 0.0 : median(per_pass);
}

IngestCost detached_monitor_ingest(const RunInputs& inputs) {
  IngestCost cost;
  ipc::InMemoryStatusStore store;
  monitor::SystemMonitorConfig config;
  config.bind = net::Endpoint::loopback(0);
  config.probe_interval = util::from_seconds(kProbeIntervalS);
  config.stale_factor = kStaleFactor;
  monitor::SystemMonitor monitor(config, store);
  auto sender = net::UdpSocket::bind(net::Endpoint::loopback(0));
  if (!monitor.valid() || !sender) return cost;
  const net::Endpoint target = monitor.endpoint();

  // Feeds `wires` in windows the socket buffer always holds; returns the
  // time spent inside poll_batch and the reports it ingested.
  auto feed = [&](const std::vector<std::string>& wires, std::size_t count, double* busy_us) {
    constexpr std::size_t kWindow = 64;
    std::uint64_t ingested = 0;
    std::vector<net::Datagram> batch;
    for (std::size_t i = 0; i < count; i += kWindow) {
      batch.clear();
      for (std::size_t j = i; j < std::min(count, i + kWindow); ++j) {
        batch.push_back(net::Datagram{wires[j % wires.size()], target});
      }
      std::size_t sent = sender->send_batch(batch);
      std::size_t got = 0;
      while (got < sent) {
        std::uint64_t started = now_ns();
        std::size_t n = monitor.poll_batch(std::chrono::milliseconds(100));
        *busy_us += elapsed_us(started);
        if (n == 0) break;
        got += n;
      }
      ingested += got;
    }
    return ingested;
  };
  double untimed = 0;
  feed(inputs.fleet_wires, inputs.fleet_wires.size(), &untimed);
  if (inputs.reports.empty()) return cost;
  // At least one pass over the stream and half a second of ingest.
  double busy_us = 0;
  std::size_t chunk = std::min<std::size_t>(inputs.reports.size(), 4096);
  std::uint64_t started = now_ns();
  std::size_t offset = 0;
  do {
    std::vector<std::string> slice;
    for (std::size_t i = 0; i < chunk; ++i) {
      slice.push_back(inputs.reports[(offset + i) % inputs.reports.size()]);
    }
    offset += chunk;
    cost.reports += feed(slice, slice.size(), &busy_us);
  } while (now_ns() - started < 500'000'000ULL);
  cost.us_per_report = cost.reports == 0 ? 0.0 : busy_us / static_cast<double>(cost.reports);
  return cost;
}

PushCost detached_push(const ipc::Snapshot& snapshot, const RunInputs& inputs) {
  PushCost cost;
  const WorkloadSpec& spec = *inputs.spec;
  ipc::InMemoryStatusStore source;
  source.replace_sys(snapshot.sys);
  ipc::InMemoryStatusStore replica;
  transport::ReceiverConfig receiver_config;
  receiver_config.bind = net::Endpoint::loopback(0);
  transport::Receiver receiver(receiver_config, replica);
  {
    SutCpuScope on_sut_cpus;
    if (!receiver.valid() || !receiver.start()) return cost;
  }
  transport::TransmitterConfig transmitter_config;
  transmitter_config.mode = transport::TransferMode::kCentralized;
  transmitter_config.receiver = receiver.endpoint();
  transmitter_config.receivers.push_back(receiver.endpoint());
  transmitter_config.interval = util::from_millis(spec.push_interval_ms);
  transport::Transmitter transmitter(transmitter_config, source);
  transmitter.transmit_once();  // initial full snapshot, not timed

  std::vector<ipc::SysRecord> churn;
  for (const std::string& wire : inputs.reports) {
    if (auto report = probe::StatusReport::from_wire(wire)) {
      churn.push_back(monitor::to_sys_record(*report, ipc::steady_now_ns()));
    }
  }
  const double per_push = spec.report_rps * spec.push_interval_ms / 1000.0;
  const int pushes = 200;
  std::uint64_t bytes_before = transmitter.bytes_sent();
  std::uint64_t delta_before = transmitter.delta_pushes();
  double owed = 0;
  std::size_t next = 0;
  for (int i = 0; i < pushes && !churn.empty(); ++i) {
    for (owed += per_push; owed >= 1.0; owed -= 1.0) {
      source.put_sys(churn[next++ % churn.size()]);
    }
    std::uint64_t started = now_ns();
    transmitter.transmit_once();
    cost.push_us.push_back(elapsed_us(started));
  }
  cost.pushes = cost.push_us.size();
  cost.delta_pushes = transmitter.delta_pushes() - delta_before;
  cost.bytes_per_push = cost.pushes == 0 ? 0.0
                                         : static_cast<double>(transmitter.bytes_sent() -
                                                               bytes_before) /
                                               static_cast<double>(cost.pushes);
  receiver.stop();
  return cost;
}

double client_overhead_us(Generator& generator, Pipeline& pipeline,
                          const std::string& requirement, std::size_t count, int rounds) {
  core::SmartClient& client = generator.client(pipeline);
  std::vector<double> via_client;
  std::vector<double> raw;
  for (int i = 0; i < rounds; ++i) {
    std::uint64_t started = now_ns();
    core::WizardReply reply = client.query(requirement, count);
    if (reply.ok) via_client.push_back(elapsed_us(started));
    double rtt = 0;
    if (generator.raw_query(pipeline, requirement, count, &rtt)) raw.push_back(rtt);
  }
  return median(via_client) - median(raw);
}

}  // namespace pipebench
