// Per-layer measurements taken outside the live pipeline, from the
// benchmark's own code: each calls one layer's public functions on the
// run's own inputs (its request mix, report stream and final snapshot) and
// times them. They explain the end-to-end figures; they are not part of
// them.
#pragma once

#include <string>
#include <vector>

#include "ipc/status_store.h"
#include "pipeline.h"
#include "workload.h"

namespace pipebench {

/// Median loopback UDP round trip (µs): `request_bytes` out, `reply_bytes`
/// back, from a bare echo thread. The floor under every query latency.
double udp_echo_p50_us(std::size_t request_bytes, std::size_t reply_bytes, int rounds);

struct MatchCost {
  double match_us = 0;          // median ServerMatcher::match, serial
  double ns_per_record = 0;     // match_us over the snapshot's sys records
  double wire_ns = 0;           // UserRequest::from_wire + WizardReply::to_wire
  double compile_us = 0;        // median over distinct requirements
};

/// Replays the run's requirement mix over `snapshot` with a serial matcher.
MatchCost replay_query_layers(const smartsock::ipc::Snapshot& snapshot, const RequirementMix& mix,
                              std::size_t servers_per_query);

/// Median StatusReport::from_wire cost (ns) over the report stream.
double report_parse_ns(const std::vector<std::string>& reports);

struct IngestCost {
  double us_per_report = 0;  // time inside SystemMonitor::poll_batch per report
  std::uint64_t reports = 0;
};

/// A detached monitor (never started, driven through poll_batch) holding
/// the whole fleet is fed the workload's report stream.
IngestCost detached_monitor_ingest(const RunInputs& inputs);

struct PushCost {
  std::vector<double> push_us;  // Transmitter::transmit_once per push
  double bytes_per_push = 0;
  std::uint64_t delta_pushes = 0;
  std::uint64_t pushes = 0;
};

/// A detached transmitter/receiver pair, seeded with `snapshot`, pushes
/// the workload's report churn one push interval at a time.
PushCost detached_push(const smartsock::ipc::Snapshot& snapshot, const RunInputs& inputs);

/// SmartClient::query minus a raw wire round trip for the same request
/// (median of each, µs), against a quiesced pipeline.
double client_overhead_us(Generator& generator, Pipeline& pipeline,
                          const std::string& requirement, std::size_t count, int rounds);

}  // namespace pipebench
