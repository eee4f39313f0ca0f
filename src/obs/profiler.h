// In-process sampling CPU profiler (ISSUE 7 tentpole, part 2).
//
// "Where is the CPU going at 1000 connections?" — answered from inside the
// daemon, on demand, with no external tooling: a POSIX timer (timer_create)
// delivers SIGPROF at a fixed interval, the handler grabs a raw stack with
// backtrace() into a pre-allocated lock-free sample ring, and collection
// symbolizes the PCs (dladdr + __cxa_demangle) into folded stacks —
// `frame;frame;frame count` lines that flamegraph.pl / speedscope render
// directly — plus a Chrome trace_event timeline reusing the PR 4 exporter.
//
// Two sampling clocks:
//   - CPU time (CLOCK_PROCESS_CPUTIME_ID, the default): one signal per
//     interval of CPU actually burned, delivered to a running thread — busy
//     code dominates the profile, idle daemons produce few samples.
//   - Wall time (CLOCK_MONOTONIC): fixed real-time cadence, useful for
//     "what is the process doing at all" including sleeps.
//
// Signal-path rules: the handler only reads/writes pre-allocated memory and
// calls backtrace() (pre-warmed in start(), because its first call mallocs
// while loading libgcc_s) and clock_gettime(). The SIGPROF handler is
// installed once and never uninstalled — a straggler signal pending across
// stop() would otherwise hit SIG_DFL and kill the process; instead it lands
// in the handler, sees the profiler inactive, and is ignored.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/clock.h"

namespace smartsock::obs {

struct ProfilerConfig {
  /// Sampling period. 1 ms = 1000 Hz, cheap enough to run against a live
  /// daemon and dense enough for a useful flamegraph in a few seconds.
  util::Duration interval = util::from_millis(1);
  /// true = sample CPU time (default); false = wall time.
  bool cpu_time = true;
  /// Sample ring capacity; samples past this are counted dropped.
  std::size_t max_samples = 1 << 14;
};

/// Result of one profiling session, already symbolized and aggregated.
struct ProfileReport {
  std::uint64_t interval_us = 0;
  bool cpu_time = true;
  std::uint64_t captured = 0;  // samples kept
  std::uint64_t dropped = 0;   // samples lost to ring exhaustion

  /// One aggregated call stack, root-first, ';'-separated.
  struct Stack {
    std::string folded;
    std::uint64_t count = 0;
  };
  std::vector<Stack> stacks;  // sorted by count, descending

  /// Chronological raw samples (index into `stacks`), for the timeline view.
  struct Sample {
    std::uint64_t ts_us = 0;  // wall clock, µs since the Unix epoch
    std::uint32_t stack = 0;
  };
  std::vector<Sample> samples;

  std::uint64_t total_samples() const { return captured; }

  /// Flamegraph-compatible folded output: "frame;frame;frame count\n".
  std::string to_folded() const;

  /// Chrome trace_event JSON: each sample becomes an interval-wide slice on
  /// a "profiler" track in one "profiler" lane
  /// (SpanStore::to_stitched_chrome_trace under the hood).
  std::string to_chrome_trace() const;
};

/// Process-wide sampling profiler. One session at a time: start() while a
/// session runs returns false (the stats verb surfaces that as an
/// "already profiling" error).
class Profiler {
 public:
  static Profiler& instance();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Arms the sampling timer. Returns false if a session is already active
  /// or the timer could not be created.
  bool start(const ProfilerConfig& config = {});

  /// Disarms, waits for in-flight handlers to settle, symbolizes and
  /// aggregates. Safe to call when not running (returns an empty report).
  ProfileReport stop_and_collect();

  bool running() const;

  /// Blocking convenience: start(), sleep `duration`, stop_and_collect().
  /// Returns an empty report (captured == 0) if a session was already
  /// running.
  ProfileReport profile_for(util::Duration duration, const ProfilerConfig& config = {});

 private:
  Profiler() = default;
};

}  // namespace smartsock::obs
