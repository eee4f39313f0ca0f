// Microbenchmarks (google-benchmark) — requirement-language costs on the
// wizard's hot path: the wizard compiles once per request and evaluates once
// per server record, so both paths are measured, plus the probe-report parse
// the system monitor performs per datagram. BM_MatchChurnShape reports the
// matcher's cost per record (items/s) without running pipebench.
#include <benchmark/benchmark.h>

#include "core/server_matcher.h"
#include "lang/requirement.h"
#include "probe/status_report.h"
#include "util/rng.h"

namespace {

const char* kThesisRequirement =
    "host_system_load1 < 1\n"
    "host_memory_used <= 250*1024*1024\n"
    "host_cpu_free >= 0.9\n"
    "host_network_tbytesps < 1024*1024\n"
    "user_denied_host1 = 137.132.90.182\n"
    "user_preferred_host1 = sagit.ddns.comp.nus.edu.sg\n";

void BM_CompileRequirement(benchmark::State& state) {
  for (auto _ : state) {
    auto requirement = smartsock::lang::Requirement::compile(kThesisRequirement);
    benchmark::DoNotOptimize(requirement);
  }
}
BENCHMARK(BM_CompileRequirement);

void BM_EvaluateRequirement(benchmark::State& state) {
  // One record's evaluation as the matcher runs it: slots bound, scratch warm.
  using smartsock::lang::ServerSlot;
  auto requirement = smartsock::lang::Requirement::compile(kThesisRequirement);
  smartsock::lang::Binding binding;
  binding.set(ServerSlot::kSystemLoad1, 0.3);
  binding.set(ServerSlot::kMemoryUsed, 100.0 * 1024 * 1024);
  binding.set(ServerSlot::kCpuFree, 0.95);
  binding.set(ServerSlot::kNetworkTbytesps, 1000.0);
  smartsock::lang::EvalScratch scratch;
  for (auto _ : state) {
    auto verdict = requirement->evaluate(binding, scratch);
    benchmark::DoNotOptimize(verdict);
  }
}
BENCHMARK(BM_EvaluateRequirement);

void BM_MatchSixtyServers(benchmark::State& state) {
  auto requirement = smartsock::lang::Requirement::compile("host_cpu_free > 0.5");
  smartsock::core::MatchInput input;
  for (int i = 0; i < 60; ++i) {
    smartsock::ipc::SysRecord record;
    smartsock::ipc::copy_fixed(record.host, smartsock::ipc::kHostNameLen,
                               "host" + std::to_string(i));
    smartsock::ipc::copy_fixed(record.address, smartsock::ipc::kAddressLen,
                               "10.0.0." + std::to_string(i) + ":1");
    record.cpu_idle = (i % 2) ? 0.9 : 0.2;
    input.sys.push_back(record);
  }
  smartsock::core::ServerMatcher matcher;
  for (auto _ : state) {
    auto result = matcher.match(*requirement, input, 60);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_MatchSixtyServers);

void BM_MatchChurnShape(benchmark::State& state) {
  // pipebench's churn_match: 2,000 records and a three-conjunct requirement
  // over independent attributes, ten servers asked for.
  const auto records = static_cast<std::size_t>(state.range(0));
  auto requirement = smartsock::lang::Requirement::compile(
      "host_cpu_free > 0.30 && host_memory_free >= 700 && host_system_load1 < 2.5\n");
  smartsock::util::Rng rng(7);
  smartsock::core::MatchInput input;
  input.local_group = "local";
  for (std::size_t i = 0; i < records; ++i) {
    smartsock::ipc::SysRecord record;
    smartsock::ipc::copy_fixed(record.host, smartsock::ipc::kHostNameLen,
                               "host" + std::to_string(i));
    smartsock::ipc::copy_fixed(record.address, smartsock::ipc::kAddressLen,
                               "10.0." + std::to_string(i / 250) + "." +
                                   std::to_string(i % 250) + ":5000");
    smartsock::ipc::copy_fixed(record.group, smartsock::ipc::kGroupLen,
                               "g" + std::to_string(i % 8));
    record.cpu_idle = rng.uniform(0.0, 1.0);
    record.mem_free_mb = rng.uniform(64.0, 4000.0);
    record.load1 = rng.uniform(0.0, 4.0);
    input.sys.push_back(record);
  }
  smartsock::core::ServerMatcher matcher;
  for (auto _ : state) {
    auto result = matcher.match(*requirement, input, 10);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(records));
}
BENCHMARK(BM_MatchChurnShape)->Arg(2000);

void BM_ParseProbeReport(benchmark::State& state) {
  smartsock::probe::StatusReport report;
  report.host = "dalmatian";
  report.address = "127.0.0.1:5001";
  report.group = "seg1";
  report.load1 = 0.25;
  report.bogomips = 4771.02;
  std::string wire = report.to_wire();
  for (auto _ : state) {
    auto parsed = smartsock::probe::StatusReport::from_wire(wire);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_ParseProbeReport);

}  // namespace

BENCHMARK_MAIN();
