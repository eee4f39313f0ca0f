// Core tests: wire formats, server matcher, wizard request handling, smart
// client round trips over real UDP.
#include <gtest/gtest.h>

#include "core/server_matcher.h"
#include "core/smart_client.h"
#include "core/wire.h"
#include "core/wizard.h"
#include "ipc/in_memory_store.h"
#include "match_diagnostics.h"

namespace smartsock::core {
namespace {

using namespace std::chrono_literals;

// --- wire formats -------------------------------------------------------------

TEST(Wire, RequestRoundTrip) {
  UserRequest request;
  request.sequence = 123456;
  request.server_num = 4;
  request.option = RequestOption::kStrict;
  request.detail = "host_cpu_free > 0.9\nuser_denied_host1 = telesto\n";
  auto parsed = UserRequest::from_wire(request.to_wire());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->sequence, 123456u);
  EXPECT_EQ(parsed->server_num, 4);
  EXPECT_EQ(parsed->option, RequestOption::kStrict);
  EXPECT_EQ(parsed->detail, request.detail);
}

TEST(Wire, RequestWithEmptyDetail) {
  UserRequest request;
  request.sequence = 1;
  request.server_num = 2;
  auto parsed = UserRequest::from_wire(request.to_wire());
  ASSERT_TRUE(parsed);
  EXPECT_TRUE(parsed->detail.empty());
}

TEST(Wire, RequestRejectsGarbage) {
  EXPECT_FALSE(UserRequest::from_wire(""));
  EXPECT_FALSE(UserRequest::from_wire("NOPE 1 2 0\n"));
  EXPECT_FALSE(UserRequest::from_wire("SREQ 1 2\n"));        // missing option
  EXPECT_FALSE(UserRequest::from_wire("SREQ x 2 0\n"));      // bad seq
  EXPECT_FALSE(UserRequest::from_wire("SREQ 1 2 7\n"));      // bad option
}

TEST(Wire, RequestOldFormatWithoutTraceId) {
  // Pre-trace clients send exactly four header fields; the wizard must keep
  // accepting them verbatim, with an empty trace id.
  auto parsed = UserRequest::from_wire("SREQ 42 3 1\nhost_cpu_free > 0.5\n");
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->sequence, 42u);
  EXPECT_EQ(parsed->server_num, 3);
  EXPECT_EQ(parsed->option, RequestOption::kStrict);
  EXPECT_TRUE(parsed->trace_id.empty());
}

TEST(Wire, RequestTraceIdRoundTrip) {
  UserRequest request;
  request.sequence = 7;
  request.server_num = 2;
  request.trace_id = "deadbeef01234567";
  request.detail = "host_system_load1 < 1\n";
  std::string wire = request.to_wire();
  auto parsed = UserRequest::from_wire(wire);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->trace_id, "deadbeef01234567");
  EXPECT_EQ(parsed->detail, request.detail);
}

TEST(Wire, RequestWithoutTraceIdMatchesOldBytes) {
  // An empty trace id must not change the bytes on the wire, so new clients
  // talking to old wizards stay compatible byte-for-byte.
  UserRequest request;
  request.sequence = 10;
  request.server_num = 5;
  request.detail = "host_memory_free >= 100\n";
  EXPECT_EQ(request.to_wire(), "SREQ 10 5 0\nhost_memory_free >= 100\n");
}

TEST(Wire, ReplyRoundTrip) {
  WizardReply reply;
  reply.sequence = 777;
  reply.servers = {{"alpha", "127.0.0.1:5000"}, {"beta", "127.0.0.1:5001"}};
  auto parsed = WizardReply::from_wire(reply.to_wire());
  ASSERT_TRUE(parsed);
  EXPECT_TRUE(parsed->ok);
  EXPECT_EQ(parsed->sequence, 777u);
  ASSERT_EQ(parsed->servers.size(), 2u);
  EXPECT_EQ(parsed->servers[0], (ServerEntry{"alpha", "127.0.0.1:5000"}));
}

TEST(Wire, ReplyEmptyList) {
  WizardReply reply;
  reply.sequence = 9;
  auto parsed = WizardReply::from_wire(reply.to_wire());
  ASSERT_TRUE(parsed);
  EXPECT_TRUE(parsed->servers.empty());
}

TEST(Wire, ErrorReplyRoundTrip) {
  WizardReply reply;
  reply.sequence = 55;
  reply.ok = false;
  reply.error = "only 1 of 3 servers qualified";
  auto parsed = WizardReply::from_wire(reply.to_wire());
  ASSERT_TRUE(parsed);
  EXPECT_FALSE(parsed->ok);
  EXPECT_EQ(parsed->error, "only 1 of 3 servers qualified");
  EXPECT_EQ(parsed->sequence, 55u);
}

TEST(Wire, ReplyRejectsCountMismatch) {
  EXPECT_FALSE(WizardReply::from_wire("SREP 1 OK 2\nalpha 1.1.1.1:1\n"));
}

TEST(Wire, ReplyRejectsOversizedCount) {
  EXPECT_FALSE(WizardReply::from_wire("SREP 1 OK 100\n"));
}

// --- matcher --------------------------------------------------------------------

ipc::SysRecord sys_record(const std::string& host, double cpu_idle, double mem_free,
                          const std::string& group = "g1") {
  ipc::SysRecord record;
  ipc::copy_fixed(record.host, ipc::kHostNameLen, host);
  ipc::copy_fixed(record.address, ipc::kAddressLen, "10.0.0.1:" + std::to_string(host.size()));
  ipc::copy_fixed(record.group, ipc::kGroupLen, group);
  record.cpu_idle = cpu_idle;
  record.mem_free_mb = mem_free;
  record.mem_total_mb = 512;
  record.bogomips = 3000;
  return record;
}

lang::Requirement compile(const std::string& text) {
  std::string error;
  auto requirement = lang::Requirement::compile(text, &error);
  EXPECT_TRUE(requirement) << error;
  return std::move(*requirement);
}

TEST(Matcher, SelectsQualifiedOnly) {
  MatchInput input;
  input.sys = {sys_record("fast", 0.95, 200), sys_record("busy", 0.20, 200)};
  ServerMatcher matcher;
  auto result = matcher.match(compile("host_cpu_free > 0.9"), input, 10);
  ASSERT_EQ(result.selected.size(), 1u);
  EXPECT_EQ(result.selected[0].host, "fast");
  EXPECT_EQ(result.evaluated, 2u);
  EXPECT_EQ(result.qualified, 1u);
}

TEST(Matcher, TruncatesToRequestedCount) {
  MatchInput input;
  for (int i = 0; i < 8; ++i) {
    input.sys.push_back(sys_record("h" + std::to_string(i), 0.95, 200));
  }
  ServerMatcher matcher;
  auto result = matcher.match(compile("host_cpu_free > 0.5"), input, 3);
  EXPECT_EQ(result.selected.size(), 3u);
}

TEST(Matcher, DeniedHostExcludedEvenIfQualified) {
  MatchInput input;
  input.sys = {sys_record("good", 0.95, 200), sys_record("banned", 0.99, 400)};
  ServerMatcher matcher;
  auto result =
      matcher.match(compile("host_cpu_free > 0.9\nuser_denied_host1 = banned\n"), input, 10);
  ASSERT_EQ(result.selected.size(), 1u);
  EXPECT_EQ(result.selected[0].host, "good");
}

TEST(Matcher, DeniedByAddressWithoutPort) {
  MatchInput input;
  ipc::SysRecord record = sys_record("victim", 0.95, 200);
  ipc::copy_fixed(record.address, ipc::kAddressLen, "137.132.90.182:7000");
  input.sys = {record};
  ServerMatcher matcher;
  auto result =
      matcher.match(compile("host_cpu_free > 0.9\nuser_denied_host1 = 137.132.90.182\n"),
                    input, 10);
  EXPECT_TRUE(result.selected.empty());
}

TEST(Matcher, PreferredHostsFirst) {
  MatchInput input;
  input.sys = {sys_record("plain1", 0.95, 200), sys_record("star", 0.95, 200),
               sys_record("plain2", 0.95, 200)};
  ServerMatcher matcher;
  auto result = matcher.match(
      compile("host_cpu_free > 0.9\nuser_preferred_host1 = star\n"), input, 2);
  ASSERT_EQ(result.selected.size(), 2u);
  EXPECT_EQ(result.selected[0].host, "star");
}

TEST(Matcher, PreferredMatchesFullyQualifiedName) {
  // thesis example: user_preferred_host1 = sagit.ddns.comp.nus.edu.sg
  // must match the probe's short name "sagit".
  MatchInput input;
  input.sys = {sys_record("other", 0.95, 200), sys_record("sagit", 0.95, 200)};
  ServerMatcher matcher;
  auto result = matcher.match(
      compile("host_cpu_free > 0.9\nuser_preferred_host1 = sagit.ddns.comp.nus.edu.sg\n"),
      input, 1);
  ASSERT_EQ(result.selected.size(), 1u);
  EXPECT_EQ(result.selected[0].host, "sagit");
}

TEST(Matcher, SecurityLevelBound) {
  MatchInput input;
  input.sys = {sys_record("secure", 0.95, 200), sys_record("sketchy", 0.95, 200)};
  ipc::SecRecord sec;
  ipc::copy_fixed(sec.host, ipc::kHostNameLen, "secure");
  sec.level = 5;
  input.sec = {sec};  // sketchy has no record -> level 0
  ServerMatcher matcher;
  auto result = matcher.match(compile("host_security_level >= 3"), input, 10);
  ASSERT_EQ(result.selected.size(), 1u);
  EXPECT_EQ(result.selected[0].host, "secure");
}

TEST(Matcher, NetworkMetricsBoundPerGroup) {
  MatchInput input;
  input.local_group = "client";
  input.sys = {sys_record("near", 0.95, 200, "groupA"),
               sys_record("far", 0.95, 200, "groupB")};
  ipc::NetRecord near_net;
  ipc::copy_fixed(near_net.from_group, ipc::kGroupLen, "client");
  ipc::copy_fixed(near_net.to_group, ipc::kGroupLen, "groupA");
  near_net.bw_mbps = 90;
  near_net.delay_ms = 1;
  ipc::NetRecord far_net = near_net;
  ipc::copy_fixed(far_net.to_group, ipc::kGroupLen, "groupB");
  far_net.bw_mbps = 2;
  far_net.delay_ms = 120;
  input.net = {near_net, far_net};

  ServerMatcher matcher;
  auto result =
      matcher.match(compile("monitor_network_bw > 10 && monitor_network_delay < 20"),
                    input, 10);
  ASSERT_EQ(result.selected.size(), 1u);
  EXPECT_EQ(result.selected[0].host, "near");
}

TEST(Matcher, MissingNetRecordFailsNetworkRequirement) {
  MatchInput input;
  input.local_group = "client";
  input.sys = {sys_record("unmeasured", 0.95, 200, "groupZ")};
  ServerMatcher matcher;
  lang::Requirement requirement = compile("monitor_network_bw > 1");
  EXPECT_TRUE(matcher.match(requirement, input, 10).selected.empty());
  EXPECT_FALSE(match_diagnostics(requirement, input).empty());
}

TEST(Matcher, CapsAtSixtyServers) {
  MatchInput input;
  for (int i = 0; i < 80; ++i) {
    auto record = sys_record("h" + std::to_string(i), 0.95, 200);
    ipc::copy_fixed(record.address, ipc::kAddressLen,
                    "10.0.1." + std::to_string(i) + ":1");
    input.sys.push_back(record);
  }
  ServerMatcher matcher;
  auto result = matcher.match(compile("host_cpu_free > 0.5"), input, 200);
  EXPECT_EQ(result.selected.size(), kMaxServersPerReply);
}

// --- wizard handle() ------------------------------------------------------------

TEST(Wizard, HandleSelectsServers) {
  ipc::InMemoryStatusStore store;
  store.put_sys(sys_record("good", 0.95, 200));
  store.put_sys(sys_record("bad", 0.1, 200));
  Wizard wizard(WizardConfig{}, store);
  ASSERT_TRUE(wizard.valid());

  UserRequest request;
  request.sequence = 42;
  request.server_num = 2;
  request.detail = "host_cpu_free > 0.9";
  WizardReply reply = wizard.handle(request);
  EXPECT_TRUE(reply.ok);
  EXPECT_EQ(reply.sequence, 42u);
  ASSERT_EQ(reply.servers.size(), 1u);
  EXPECT_EQ(reply.servers[0].host, "good");
}

TEST(Wizard, HandleStrictFailsWhenShort) {
  ipc::InMemoryStatusStore store;
  store.put_sys(sys_record("only", 0.95, 200));
  Wizard wizard(WizardConfig{}, store);
  UserRequest request;
  request.sequence = 1;
  request.server_num = 3;
  request.option = RequestOption::kStrict;
  request.detail = "host_cpu_free > 0.9";
  WizardReply reply = wizard.handle(request);
  EXPECT_FALSE(reply.ok);
  EXPECT_NE(reply.error.find("1 of 3"), std::string::npos);
}

TEST(Wizard, HandleBestEffortReturnsShortList) {
  ipc::InMemoryStatusStore store;
  store.put_sys(sys_record("only", 0.95, 200));
  Wizard wizard(WizardConfig{}, store);
  UserRequest request;
  request.sequence = 1;
  request.server_num = 3;
  request.option = RequestOption::kBestEffort;
  request.detail = "host_cpu_free > 0.9";
  WizardReply reply = wizard.handle(request);
  EXPECT_TRUE(reply.ok);
  EXPECT_EQ(reply.servers.size(), 1u);
}

TEST(Wizard, ReportsBindFailure) {
  // Occupy a port, then ask the wizard to bind it: the constructor must not
  // swallow the failure silently.
  auto occupied = net::UdpSocket::bind(net::Endpoint::loopback(0));
  ASSERT_TRUE(occupied);

  ipc::InMemoryStatusStore store;
  WizardConfig config;
  config.bind = occupied->local_endpoint();
  Wizard wizard(config, store);

  EXPECT_FALSE(wizard.valid());
  EXPECT_FALSE(wizard.bind_error().empty());
  EXPECT_NE(wizard.bind_error().find(config.bind.to_string()), std::string::npos);
  EXPECT_FALSE(wizard.start());  // cannot serve without a socket
}

TEST(Wizard, BindErrorEmptyOnSuccess) {
  ipc::InMemoryStatusStore store;
  Wizard wizard(WizardConfig{}, store);
  EXPECT_TRUE(wizard.valid());
  EXPECT_TRUE(wizard.bind_error().empty());
}

TEST(Wizard, HandleReportsCompileErrors) {
  ipc::InMemoryStatusStore store;
  Wizard wizard(WizardConfig{}, store);
  UserRequest request;
  request.sequence = 1;
  request.server_num = 1;
  request.detail = "host_cpu_free >";
  WizardReply reply = wizard.handle(request);
  EXPECT_FALSE(reply.ok);
  EXPECT_NE(reply.error.find("requirement"), std::string::npos);
}

// --- client <-> wizard over real UDP ---------------------------------------------

TEST(SmartClient, QueryRoundTrip) {
  ipc::InMemoryStatusStore store;
  store.put_sys(sys_record("alpha", 0.95, 200));
  Wizard wizard(WizardConfig{}, store);
  ASSERT_TRUE(wizard.start());

  SmartClientConfig config;
  config.wizard = wizard.endpoint();
  config.seed = 7;
  SmartClient client(config);
  WizardReply reply = client.query("host_cpu_free > 0.9", 1);
  wizard.stop();
  ASSERT_TRUE(reply.ok) << reply.error;
  ASSERT_EQ(reply.servers.size(), 1u);
  EXPECT_EQ(reply.servers[0].host, "alpha");
}

TEST(SmartClient, QueryTimesOutWithoutWizard) {
  auto dead = net::UdpSocket::bind(net::Endpoint::loopback(0));
  ASSERT_TRUE(dead);
  SmartClientConfig config;
  config.wizard = dead->local_endpoint();
  config.reply_timeout = 50ms;
  config.retries = 1;
  config.seed = 7;
  SmartClient client(config);
  WizardReply reply = client.query("host_cpu_free > 0.9", 1);
  EXPECT_FALSE(reply.ok);
  EXPECT_NE(reply.error.find("no reply"), std::string::npos);
}

TEST(SmartClient, RejectsBadCount) {
  SmartClientConfig config;
  config.wizard = net::Endpoint::loopback(1);
  config.seed = 7;
  SmartClient client(config);
  EXPECT_FALSE(client.query("x > 1", 0).ok);
  EXPECT_FALSE(client.query("x > 1", 61).ok);
}

TEST(SmartClient, SmartConnectEstablishesSockets) {
  // A live TCP service stands in for the selected server.
  auto service = net::TcpListener::listen(net::Endpoint::loopback(0));
  ASSERT_TRUE(service);

  ipc::InMemoryStatusStore store;
  ipc::SysRecord record = sys_record("svc", 0.95, 200);
  ipc::copy_fixed(record.address, ipc::kAddressLen, service->local_endpoint().to_string());
  store.put_sys(record);

  Wizard wizard(WizardConfig{}, store);
  ASSERT_TRUE(wizard.start());

  SmartClientConfig config;
  config.wizard = wizard.endpoint();
  config.seed = 7;
  SmartClient client(config);
  auto result = client.smart_connect("host_cpu_free > 0.9", 1);
  wizard.stop();

  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.sockets.size(), 1u);
  EXPECT_EQ(result.sockets[0].server.host, "svc");
  auto accepted = service->accept(1s);
  EXPECT_TRUE(accepted);
}

TEST(SmartClient, SmartConnectDropsDeadServers) {
  // Selected server's address refuses connections -> best effort drops it.
  auto dead_listener = net::TcpListener::listen(net::Endpoint::loopback(0));
  ASSERT_TRUE(dead_listener);
  net::Endpoint dead = dead_listener->local_endpoint();
  dead_listener->close();

  auto live = net::TcpListener::listen(net::Endpoint::loopback(0));
  ASSERT_TRUE(live);

  ipc::InMemoryStatusStore store;
  ipc::SysRecord r1 = sys_record("dead", 0.95, 200);
  ipc::copy_fixed(r1.address, ipc::kAddressLen, dead.to_string());
  ipc::SysRecord r2 = sys_record("live", 0.95, 200);
  ipc::copy_fixed(r2.address, ipc::kAddressLen, live->local_endpoint().to_string());
  store.put_sys(r1);
  store.put_sys(r2);

  Wizard wizard(WizardConfig{}, store);
  ASSERT_TRUE(wizard.start());
  SmartClientConfig config;
  config.wizard = wizard.endpoint();
  config.connect_timeout = 200ms;
  config.seed = 7;
  SmartClient client(config);
  auto result = client.smart_connect("host_cpu_free > 0.9", 2);
  wizard.stop();

  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.sockets.size(), 1u);
  EXPECT_EQ(result.sockets[0].server.host, "live");
}

TEST(SmartClient, StrictConnectFailsOnDeadServer) {
  auto dead_listener = net::TcpListener::listen(net::Endpoint::loopback(0));
  ASSERT_TRUE(dead_listener);
  net::Endpoint dead = dead_listener->local_endpoint();
  dead_listener->close();

  ipc::InMemoryStatusStore store;
  ipc::SysRecord record = sys_record("dead", 0.95, 200);
  ipc::copy_fixed(record.address, ipc::kAddressLen, dead.to_string());
  store.put_sys(record);

  Wizard wizard(WizardConfig{}, store);
  ASSERT_TRUE(wizard.start());
  SmartClientConfig config;
  config.wizard = wizard.endpoint();
  config.connect_timeout = 200ms;
  config.seed = 7;
  SmartClient client(config);
  auto result = client.smart_connect("host_cpu_free > 0.9", 1, RequestOption::kStrict);
  wizard.stop();
  EXPECT_FALSE(result.ok);
}

}  // namespace
}  // namespace smartsock::core
