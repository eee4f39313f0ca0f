// Requirement-language REPL — explore the thesis's meta language (§4.3).
//
// Reads statements from stdin and evaluates them the way the wizard does:
// compiled once, then run against a sample server's sysdb record (dalmatian
// under light load) plus its secdb and netdb rows, bound through the
// matcher's slot table. Prints per-statement values, the logic flag, the
// final qualified verdict and any captured host slots.
//
//   $ echo 'host_cpu_free > 0.9 && host_memory_free > 100' | ./requirement_repl
//   $ ./requirement_repl --attrs   # list the available variables first
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>

#include "core/server_matcher.h"
#include "lang/requirement.h"

using namespace smartsock;

namespace {

core::MatchInput sample_server() {
  core::MatchInput input;
  input.local_group = "client";

  ipc::SysRecord r;
  ipc::copy_fixed(r.host, ipc::kHostNameLen, "dalmatian");
  ipc::copy_fixed(r.address, ipc::kAddressLen, "137.132.90.11:5000");
  ipc::copy_fixed(r.group, ipc::kGroupLen, "lab");
  r.load1 = 0.18;
  r.load5 = 0.22;
  r.load15 = 0.25;
  r.cpu_user = 0.05;
  r.cpu_nice = 0.0;
  r.cpu_system = 0.02;
  r.cpu_idle = 0.93;
  r.bogomips = 4771.02;
  r.mem_total_mb = 512.0;
  r.mem_used_mb = 131.0;
  r.mem_free_mb = 381.0;
  r.disk_rreq_ps = 1.0;
  r.disk_rblocks_ps = 8.0;
  r.disk_wreq_ps = 1.0;
  r.disk_wblocks_ps = 8.0;
  r.net_rbytes_ps = 1500.0;
  r.net_rpackets_ps = 4.0;
  r.net_tbytes_ps = 2100.0;
  r.net_tpackets_ps = 5.0;
  input.sys.push_back(r);

  ipc::SecRecord sec;
  ipc::copy_fixed(sec.host, ipc::kHostNameLen, "dalmatian");
  sec.level = 1;
  input.sec.push_back(sec);

  ipc::NetRecord net;
  ipc::copy_fixed(net.from_group, ipc::kGroupLen, "client");
  ipc::copy_fixed(net.to_group, ipc::kGroupLen, "lab");
  net.bw_mbps = 94.2;
  net.delay_ms = 0.4;
  input.net.push_back(net);
  return input;
}

}  // namespace

int main(int argc, char** argv) {
  const core::MatchInput server = sample_server();

  if (argc > 1 && std::strcmp(argv[1], "--attrs") == 0) {
    const lang::SlotMask every_slot = (lang::SlotMask{1} << lang::kServerSlotCount) - 1;
    lang::Binding binding;
    core::RecordBinder(server, every_slot).bind(server.sys[0], binding);
    std::printf("sample server attributes (dalmatian, lightly loaded):\n");
    for (std::size_t i = 0; i < lang::kServerSlotCount; ++i) {
      auto slot = static_cast<lang::ServerSlot>(i);
      std::printf("  %-28s = %g\n", std::string(lang::server_slot_name(slot)).c_str(),
                  binding.values[i]);
    }
    return 0;
  }

  std::printf("smartsock requirement REPL — evaluating against a sample server\n");
  std::printf("(run with --attrs to list variables; EOF/ctrl-d to finish)\n");

  std::ostringstream buffer;
  std::string line;
  while (std::getline(std::cin, line)) buffer << line << "\n";
  std::string source = buffer.str();
  if (source.empty()) {
    std::printf("no input\n");
    return 0;
  }

  std::string error;
  auto requirement = lang::Requirement::compile(source, &error);
  if (!requirement) {
    std::printf("syntax error: %s\n", error.c_str());
    return 1;
  }

  lang::Binding binding;
  core::RecordBinder(server, requirement->slots_read()).bind(server.sys[0], binding);
  lang::EvalOutcome outcome = requirement->explain(binding);
  for (const lang::StatementResult& statement : outcome.statements) {
    if (statement.errored) {
      std::printf("line %d: ERROR %s\n", statement.line, statement.error.c_str());
    } else {
      std::printf("line %d: value=%g  %s\n", statement.line, statement.value,
                  statement.logical ? "(logical)" : "(non-logical)");
    }
  }
  for (const std::string& host : outcome.params.preferred()) {
    std::printf("preferred host: %s\n", host.c_str());
  }
  for (const std::string& host : outcome.params.denied()) {
    std::printf("denied host:    %s\n", host.c_str());
  }
  std::printf("verdict: server %s\n", outcome.qualified ? "QUALIFIES" : "rejected");
  return 0;
}
