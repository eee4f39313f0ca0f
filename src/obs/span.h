// Flight recorder spans — the one per-hop trace record.
//
// A Span is a named interval of a query or a snapshot transfer, with
// trace_id/span_id/parent_id, wall-clock start, steady-clock duration and
// key=value tags. Its end writes the hop twice: into a fixed-size ring
// buffer (the SpanStore) that the stats protocol can snapshot, filter by
// trace and export as Chrome `trace_event` JSON, and as one debug line
// through util::Logger:
//
//   [DEBUG] wizard: event=match trace_id=4be1a22c719d03f7 span=9 parent=8 ts_us=... dur_us=196 ...
//
// One grep for the trace_id over client and wizard logs, or one `trace`
// stats verb, reconstructs the query's life hop by hop, the way the paper's
// Fig 5.x latency study was hand-instrumented.
//
// Concurrency: writers claim a slot with one relaxed fetch_add, then take
// the slot's own mutex with try_lock — a writer never blocks on another
// writer or on a reader; on contention (two writers lapping onto the same
// slot, or a reader mid-copy) the span is counted dropped instead. Readers
// lock each slot briefly while copying it out. No global lock anywhere.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace smartsock::obs {

/// 16 lowercase-hex chars from the caller's RNG (deterministic under a
/// seeded client, which the trace tests rely on).
std::string mint_trace_id(util::Rng& rng);

/// One completed hop of a query or snapshot transfer.
struct SpanRecord {
  std::string trace_id;         // 16-hex id shared by every hop; "" = untraced
  std::uint64_t span_id = 0;    // unique within this process
  std::uint64_t parent_id = 0;  // 0 = root (or parent in another process)
  std::string component;        // "smart_client", "wizard", ...
  std::string name;             // hop name: "query", "handle", "match", ...
  std::uint64_t start_us = 0;   // wall clock, µs since the Unix epoch
  std::uint64_t duration_us = 0;
  std::vector<std::pair<std::string, std::string>> tags;
};

/// Fixed-capacity in-process span ring. A process normally uses instance(),
/// but the class is instantiable so tests get isolated stores.
class SpanStore {
 public:
  explicit SpanStore(std::size_t capacity = kDefaultCapacity);
  SpanStore(const SpanStore&) = delete;
  SpanStore& operator=(const SpanStore&) = delete;

  static constexpr std::size_t kDefaultCapacity = 4096;
  static SpanStore& instance();

  /// Unique, monotonically increasing span id (never 0).
  std::uint64_t next_span_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  void record(SpanRecord span);

  /// The retained spans, oldest first. Slots a concurrent writer holds are
  /// skipped rather than waited on.
  std::vector<SpanRecord> snapshot() const;

  /// Retained spans of one trace, oldest first.
  std::vector<SpanRecord> find_trace(std::string_view trace_id) const;

  std::size_t capacity() const { return capacity_; }
  /// Spans ever offered to record() (including dropped ones).
  std::uint64_t recorded() const { return head_.load(std::memory_order_relaxed); }
  /// Spans lost to slot contention (not to ring wraparound, which is the
  /// design and not counted).
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Forgets every retained span (test/bench phase boundaries).
  void clear();

  /// Writes up to `max_spans` of the newest retained spans to `fd`, one text
  /// line per span, for the crash blackbox. Best-effort async-signal-safe:
  /// no allocation, slots a writer holds (including one the crashing thread
  /// itself interrupted) are skipped via try_lock.
  void crash_dump(int fd, std::size_t max_spans = 64) const;

  /// Machine-readable span export (ISSUE 9): {"spans": [{...}, ...]},
  /// oldest first — the `spans json` stats verb the fleet aggregator
  /// scrapes, carrying every SpanRecord field (unlike the human-oriented
  /// `spans` text summary).
  static std::string to_json(const std::vector<SpanRecord>& spans);

  /// One scraped daemon's spans for stitching, labeled by its identity
  /// (stats endpoint "host:port", or a role name in tests).
  struct InstanceSpans {
    std::string instance;
    std::vector<SpanRecord> spans;
  };

  /// Chrome trace_event JSON, {"traceEvents":[{"ph":"X",...}]}: each
  /// instance becomes its own named process lane (synthetic pid in lane
  /// order + process_name metadata), components its thread rows within the
  /// lane — so a client→wizard→transmitter→receiver query whose hops live in
  /// different daemons' rings renders end-to-end on one timeline, grouped by
  /// the trace_id that already crossed the wire. One process's ring is the
  /// one-lane case.
  static std::string to_stitched_chrome_trace(const std::vector<InstanceSpans>& lanes);

 private:
  struct Slot {
    mutable std::mutex mu;
    std::uint64_t claim = 0;  // 1 + the head_ value that owns this content
    SpanRecord span;
  };

  std::size_t capacity_;
  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> next_id_{1};
};

/// RAII span: stamps the start on construction, records into the store and
/// logs its debug line on destruction (or at an explicit end()). Tags
/// accumulate along the way:
///
///   obs::Span span("wizard", "handle", request.trace_id);
///   span.tag("seq", request.sequence);
///   ...                                  // span records itself on scope exit
class Span {
 public:
  Span(std::string_view component, std::string_view name, std::string_view trace_id,
       std::uint64_t parent_id = 0, SpanStore& store = SpanStore::instance());
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return record_.span_id; }

  /// Adopts a trace id learned after the span started (e.g. from a
  /// kTraceContext frame arriving mid-stream). No-op after end().
  Span& set_trace_id(std::string_view trace_id);

  Span& tag(std::string_view key, std::string_view value);
  Span& tag(std::string_view key, const char* value) {
    return tag(key, std::string_view(value));
  }
  Span& tag(std::string_view key, std::uint64_t value);
  Span& tag(std::string_view key, std::int64_t value);
  Span& tag(std::string_view key, unsigned value) {
    return tag(key, static_cast<std::uint64_t>(value));
  }
  Span& tag(std::string_view key, int value) {
    return tag(key, static_cast<std::int64_t>(value));
  }
  Span& tag(std::string_view key, double value);
  Span& tag(std::string_view key, bool value) {
    return tag(key, std::string_view(value ? "true" : "false"));
  }

  /// Finalizes the duration, records the span and, when debug logging is on,
  /// logs it under its component as
  ///   event=<name> trace_id=<id> span=<id> parent=<id> ts_us=<start> dur_us=<dur> k=v...
  /// (trace_id= left out when empty; a tag value that is empty or holds
  /// whitespace or '"' is double-quoted, with '"' written as ' and a newline
  /// as a space). With debug off nothing is formatted. Later tag() calls and
  /// the destructor become no-ops.
  void end();

 private:
  SpanStore* store_;
  SpanRecord record_;
  std::uint64_t start_ns_;  // steady clock, for the duration
  bool done_ = false;
};

}  // namespace smartsock::obs
