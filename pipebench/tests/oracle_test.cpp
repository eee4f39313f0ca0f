#include "oracle.h"

#include <gtest/gtest.h>

#include "core/server_matcher.h"
#include "ipc/in_memory_store.h"
#include "lang/requirement.h"
#include "monitor/system_monitor.h"
#include "workload.h"

namespace pipebench {
namespace {

using namespace smartsock;

class OracleTest : public ::testing::Test {
 protected:
  OracleTest() : fleet_(make_fleet(50, 7)), oracle_(fleet_.address_of) {
    for (const probe::StatusReport& host : fleet_.hosts) {
      store_.put_sys(monitor::to_sys_record(host, 1));
    }
  }

  /// The correct reply to `requirement`, computed like the wizard does.
  core::WizardReply answer(const std::string& requirement, std::uint32_t sequence,
                           std::size_t count) {
    core::WizardReply reply;
    reply.sequence = sequence;
    auto compiled = lang::Requirement::compile(requirement);
    core::MatchView view;
    auto snap = store_.snapshot();
    view.sys = snap->sys;
    view.local_group = "local";
    reply.servers = core::ServerMatcher().match(*compiled, view, count).selected;
    return reply;
  }

  Fleet fleet_;
  ReplyOracle oracle_;
  ipc::InMemoryStatusStore store_;
};

constexpr const char* kRequirement = "host_cpu_free > 0.1\n";

TEST_F(OracleTest, AcceptsACorrectReply) {
  core::WizardReply reply = answer(kRequirement, 9, 5);
  ASSERT_FALSE(reply.servers.empty());
  EXPECT_FALSE(oracle_.check_wire(reply.to_wire(), {9, 5, true}));
  EXPECT_FALSE(compare_with_matcher(reply, kRequirement, 5, *store_.snapshot(), "local"));
}

TEST_F(OracleTest, CorruptedRepliesTripTheOracle) {
  core::WizardReply good = answer(kRequirement, 9, 5);

  core::WizardReply wrong_seq = good;
  wrong_seq.sequence = 10;
  EXPECT_TRUE(oracle_.check(wrong_seq, {9, 5, true}));

  core::WizardReply unknown = good;
  unknown.servers[0].host = "intruder";
  EXPECT_TRUE(oracle_.check(unknown, {9, 5, true}));

  core::WizardReply moved = good;
  moved.servers[0].address = "192.0.2.1:5000";
  EXPECT_TRUE(oracle_.check(moved, {9, 5, true}));

  core::WizardReply too_many = answer(kRequirement, 9, 6);
  ASSERT_GT(too_many.servers.size(), 5u);
  EXPECT_TRUE(oracle_.check(too_many, {9, 5, true}));

  // A flipped byte in the wire: the reply no longer parses or names a
  // different host, and either way the oracle objects.
  std::string wire = good.to_wire();
  wire[wire.find('\n') + 1] ^= 0x20;
  EXPECT_TRUE(oracle_.check_wire(wire, {9, 5, true}));
  EXPECT_TRUE(oracle_.check_wire("SREP garbage", {9, 5, true}));

  // Right hosts, wrong order: only the quiesce comparison can see it.
  core::WizardReply reordered = good;
  std::swap(reordered.servers[0], reordered.servers[1]);
  EXPECT_FALSE(oracle_.check(reordered, {9, 5, true}));
  EXPECT_TRUE(compare_with_matcher(reordered, kRequirement, 5, *store_.snapshot(), "local"));
}

TEST_F(OracleTest, NonCompilingRequirementsMustComeBackAsErrors) {
  const std::string broken = "host_cpu_free > > 0.5\n";
  std::string error;
  ASSERT_FALSE(lang::Requirement::compile(broken, &error));
  core::WizardReply err;
  err.sequence = 3;
  err.ok = false;
  err.error = "requirement: " + error;
  EXPECT_FALSE(oracle_.check(err, {3, 5, false}));
  EXPECT_FALSE(compare_with_matcher(err, broken, 5, *store_.snapshot(), "local"));

  core::WizardReply ok = answer(kRequirement, 3, 5);
  EXPECT_TRUE(oracle_.check(ok, {3, 5, false}));
  EXPECT_TRUE(compare_with_matcher(ok, broken, 5, *store_.snapshot(), "local"));
  // An ERR to a compiling requirement is a failed query, not a wrong answer.
  EXPECT_FALSE(oracle_.check(err, {3, 5, true}));
  EXPECT_TRUE(compare_with_matcher(err, kRequirement, 5, *store_.snapshot(), "local"));
}

TEST_F(OracleTest, StoresMustHoldTheSameRecords) {
  ipc::InMemoryStatusStore wizard;
  auto snap = store_.snapshot();
  wizard.replace_sys(snap->sys);
  EXPECT_FALSE(compare_stores(*snap, *wizard.snapshot()));

  ipc::SysRecord changed = snap->sys[3];
  changed.load1 += 1.0;
  wizard.put_sys(changed);
  EXPECT_TRUE(compare_stores(*snap, *wizard.snapshot()));

  ipc::InMemoryStatusStore short_store;
  short_store.replace_sys({snap->sys.begin(), snap->sys.end() - 1});
  EXPECT_TRUE(compare_stores(*snap, *short_store.snapshot()));
}

}  // namespace
}  // namespace pipebench
