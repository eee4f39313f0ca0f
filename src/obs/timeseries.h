// Metric time-series history (ISSUE 4 tentpole, part 2).
//
// A MetricsRegistry snapshot answers "what is the value now"; this recorder
// answers "what did it look like over the last minute" without external
// scraping. Each sample_once() sweeps the registry and appends one point per
// metric to a fixed-capacity ring: counters and gauges keep their value,
// histograms keep count + the P² sketch's p50/p90/p99 at sample time. A
// started StatsServer whose config names the recorder samples it on its
// loop every `interval`; tests call sample_once() on a virtual clock.
//
// history(metric, window) folds the retained points into fixed-width
// aggregation windows — min/max/last, per-second rate for counters, tail
// percentiles for histograms — which is what the StatsServer's
// `history <metric> [window]` command renders.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/clock.h"

namespace smartsock::obs {

struct TimeSeriesConfig {
  util::Duration interval = std::chrono::seconds(1);
  /// Points retained per metric (1 s interval × 600 = 10 minutes).
  std::size_t capacity = 600;
};

class TimeSeriesRecorder {
 public:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Point {
    std::uint64_t ts_us = 0;  // recorder clock, µs since its epoch
    double value = 0;         // counter/gauge value; histogram sample count
    double p50 = 0, p90 = 0, p99 = 0;  // histograms only (P² sketch)
  };

  struct Window {
    std::uint64_t start_us = 0;  // inclusive window start on the sample clock
    std::uint64_t end_us = 0;    // exclusive
    std::size_t samples = 0;
    double min = 0, max = 0, last = 0;
    double rate_per_sec = 0;           // counters: delta / elapsed in-window
    /// Histograms: count-weighted merge of the window's samples (weight =
    /// new recordings since the previous sample; util::merge_latency_
    /// summaries); falls back to the newest sample when nothing new landed.
    double p50 = 0, p90 = 0, p99 = 0;
  };

  struct History {
    bool found = false;
    std::string metric;
    Kind kind = Kind::kGauge;
    double window_seconds = 0;
    std::vector<Window> windows;  // oldest first

    std::string to_json() const;
    std::string to_text() const;
  };

  explicit TimeSeriesRecorder(TimeSeriesConfig config = {},
                              MetricsRegistry& registry = MetricsRegistry::instance(),
                              util::Clock& clock = util::SteadyClock::instance());

  TimeSeriesRecorder(const TimeSeriesRecorder&) = delete;
  TimeSeriesRecorder& operator=(const TimeSeriesRecorder&) = delete;

  /// One sweep of the registry at the clock's current time.
  void sample_once();

  /// How often the owning stats server samples.
  util::Duration interval() const { return config_.interval; }

  /// Folds the retained points for `metric` into windows of `window` each.
  /// found == false when the metric has never been sampled; `window` <= 0
  /// falls back to 10 s.
  History history(const std::string& metric,
                  util::Duration window = std::chrono::seconds(10)) const;

  std::vector<std::string> metric_names() const;
  std::uint64_t samples_taken() const {
    return samples_taken_.load(std::memory_order_relaxed);
  }

 private:
  struct Series {
    Kind kind = Kind::kGauge;
    std::deque<Point> points;
  };

  TimeSeriesConfig config_;
  MetricsRegistry* registry_;
  util::Clock* clock_;

  mutable std::mutex mu_;
  std::map<std::string, Series> series_;

  std::atomic<std::uint64_t> samples_taken_{0};
};

const char* to_string(TimeSeriesRecorder::Kind kind);

}  // namespace smartsock::obs
