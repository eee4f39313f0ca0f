// Traffic accounting.
//
// Table 5.2 of the paper reports per-component CPU / memory / network
// bandwidth usage. The paper measured with `top` and a libpcap dumper; we
// instrument the components directly: every socket wrapper owns a
// TrafficCounter handed out by obs::MetricsRegistry::traffic(), and the
// resource-usage benches read obs::MetricsRegistry::traffic_usage().
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/clock.h"
#include "util/quantile.h"

namespace smartsock::util {

/// Lock-free byte/message counters for one direction of one component.
class TrafficCounter {
 public:
  void add_sent(std::uint64_t bytes) {
    bytes_sent_.fetch_add(bytes, std::memory_order_relaxed);
    msgs_sent_.fetch_add(1, std::memory_order_relaxed);
  }
  void add_received(std::uint64_t bytes) {
    bytes_received_.fetch_add(bytes, std::memory_order_relaxed);
    msgs_received_.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t bytes_sent() const { return bytes_sent_.load(std::memory_order_relaxed); }
  std::uint64_t bytes_received() const { return bytes_received_.load(std::memory_order_relaxed); }
  std::uint64_t messages_sent() const { return msgs_sent_.load(std::memory_order_relaxed); }
  std::uint64_t messages_received() const { return msgs_received_.load(std::memory_order_relaxed); }

  void reset() {
    bytes_sent_.store(0, std::memory_order_relaxed);
    bytes_received_.store(0, std::memory_order_relaxed);
    msgs_sent_.store(0, std::memory_order_relaxed);
    msgs_received_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  std::atomic<std::uint64_t> msgs_sent_{0};
  std::atomic<std::uint64_t> msgs_received_{0};
};

/// Lock-free latency histogram for per-query accounting (wizard fast path).
///
/// Samples land in geometric buckets spanning 1 µs .. ~10 s at ~6.5%
/// resolution; record() is wait-free so N handler threads can share one
/// recorder. percentile() walks the buckets and returns the geometric
/// midpoint of the one holding the requested rank — approximate, but
/// bounded by the bucket width.
class LatencyRecorder {
 public:
  static constexpr std::size_t kBuckets = 256;

  void record_us(double micros);

  std::uint64_t count() const { return total_count_.load(std::memory_order_relaxed); }
  double mean_us() const;
  /// pct in (0, 100]; returns 0 when no samples were recorded. Bucket-walk
  /// estimate (geometric midpoint of the bucket holding the rank), bounded
  /// by the ~6.5% bucket width.
  double percentile(double pct) const;
  /// P² incremental estimate for pct in {50, 90, 99} — the tail values the
  /// snapshot formats report (ISSUE 4). Sharper than the bucket walk on
  /// heavy-tailed streams and O(1) memory.
  double sketch_percentile(double pct) const { return sketch_.percentile(pct); }
  QuantileSketch::Values sketch_values() const { return sketch_.snapshot(); }
  void reset();

  /// Exclusive upper bound of bucket `i` in µs (exposition formats publish
  /// the bucket boundaries, not just the percentiles).
  static double bucket_upper_us(std::size_t bucket);

  /// (upper_bound_us, count) for every non-empty bucket, in bucket order.
  /// A concurrent record_us may or may not be included — each bucket is read
  /// atomically, so the result never contains torn counts.
  std::vector<std::pair<double, std::uint64_t>> nonzero_buckets() const;

 private:
  static std::size_t bucket_for(double micros);
  static double bucket_mid_us(std::size_t bucket);

  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> total_count_{0};
  std::atomic<std::uint64_t> total_tenth_us_{0};  // sum in 0.1 µs units
  QuantileSketch sketch_;
};

/// Reads the resident set size of the current process in KB (Linux /proc).
/// Returns 0 if unavailable.
std::uint64_t current_rss_kb();

}  // namespace smartsock::util
