#include "oracle.h"

#include <cstring>
#include <map>

#include "core/server_matcher.h"
#include "lang/requirement.h"

namespace pipebench {

using namespace smartsock;

std::optional<std::string> ReplyOracle::check(const core::WizardReply& reply,
                                              const ReplyExpectation& expect) const {
  const std::string seq = "seq " + std::to_string(expect.sequence) + ": ";
  if (reply.sequence != expect.sequence) {
    return seq + "reply echoes sequence " + std::to_string(reply.sequence);
  }
  if (!expect.compiles) {
    if (reply.ok) return seq + "non-compiling requirement answered OK";
    if (reply.error.rfind("requirement:", 0) != 0) {
      return seq + "unexpected error for a non-compiling requirement: " + reply.error;
    }
    return std::nullopt;
  }
  if (!reply.ok) return std::nullopt;  // an ERR here is a failed query, not a wrong answer
  if (reply.servers.size() > expect.requested) {
    return seq + std::to_string(reply.servers.size()) + " servers for " +
           std::to_string(expect.requested) + " requested";
  }
  for (const core::ServerEntry& server : reply.servers) {
    auto it = address_of_->find(server.host);
    if (it == address_of_->end()) return seq + "unknown host '" + server.host + "'";
    if (it->second != server.address) {
      return seq + "host " + server.host + " at " + server.address + ", fleet has " +
             it->second;
    }
  }
  return std::nullopt;
}

std::optional<std::string> ReplyOracle::check_wire(std::string_view wire,
                                                   const ReplyExpectation& expect) const {
  auto reply = core::WizardReply::from_wire(wire);
  if (!reply) return "seq " + std::to_string(expect.sequence) + ": unparseable reply";
  return check(*reply, expect);
}

std::optional<std::string> compare_stores(const ipc::Snapshot& monitor,
                                          const ipc::Snapshot& wizard) {
  if (monitor.sys.size() != wizard.sys.size()) {
    return "monitor store holds " + std::to_string(monitor.sys.size()) +
           " sys records, wizard store " + std::to_string(wizard.sys.size());
  }
  std::map<std::string, const ipc::SysRecord*> by_address;
  for (const ipc::SysRecord& record : wizard.sys) {
    by_address[ipc::read_fixed(record.address, ipc::kAddressLen)] = &record;
  }
  for (const ipc::SysRecord& record : monitor.sys) {
    std::string address = ipc::read_fixed(record.address, ipc::kAddressLen);
    auto it = by_address.find(address);
    if (it == by_address.end()) return "wizard store lacks " + address;
    if (std::memcmp(it->second, &record, sizeof record) != 0) {
      return "wizard record for " + address + " differs from the monitor's";
    }
  }
  return std::nullopt;
}

std::optional<std::string> compare_with_matcher(const core::WizardReply& reply,
                                                const std::string& requirement,
                                                std::size_t requested,
                                                const ipc::Snapshot& snapshot,
                                                const std::string& local_group) {
  std::string error;
  auto compiled = lang::Requirement::compile(requirement, &error);
  if (!compiled) {
    if (reply.ok) return "non-compiling requirement answered OK at quiesce";
    if (reply.error != "requirement: " + error) {
      return "quiesce error '" + reply.error + "', compiler says '" + error + "'";
    }
    return std::nullopt;
  }
  if (!reply.ok) return "quiesce query failed: " + reply.error;
  core::MatchView view;
  view.sys = snapshot.sys;
  view.net = snapshot.net;
  view.sec = snapshot.sec;
  view.local_group = local_group;
  core::MatchResult expected = core::ServerMatcher().match(*compiled, view, requested);
  if (expected.selected != reply.servers) {
    return "quiesce reply lists " + std::to_string(reply.servers.size()) +
           " servers, serial matcher " + std::to_string(expected.selected.size()) +
           (expected.selected.size() == reply.servers.size() ? " (different hosts)" : "");
  }
  return std::nullopt;
}

}  // namespace pipebench
