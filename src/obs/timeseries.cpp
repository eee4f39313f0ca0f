#include "obs/timeseries.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/merge.h"

namespace smartsock::obs {

namespace {

std::string fmt_double(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", v);
  return buffer;
}

}  // namespace

const char* to_string(TimeSeriesRecorder::Kind kind) {
  switch (kind) {
    case TimeSeriesRecorder::Kind::kCounter: return "counter";
    case TimeSeriesRecorder::Kind::kGauge: return "gauge";
    case TimeSeriesRecorder::Kind::kHistogram: return "histogram";
  }
  return "unknown";
}

TimeSeriesRecorder::TimeSeriesRecorder(TimeSeriesConfig config, MetricsRegistry& registry,
                                       util::Clock& clock)
    : config_(config), registry_(&registry), clock_(&clock) {
  if (config_.capacity == 0) config_.capacity = 1;
}

void TimeSeriesRecorder::sample_once() {
  Snapshot snap = registry_->snapshot();
  auto ts_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(clock_->now()).count());

  std::lock_guard<std::mutex> lock(mu_);
  auto push = [this](Series& series, Point point) {
    series.points.push_back(point);
    while (series.points.size() > config_.capacity) series.points.pop_front();
  };
  for (const auto& [name, value] : snap.counters) {
    Series& series = series_[name];
    series.kind = Kind::kCounter;
    push(series, Point{ts_us, static_cast<double>(value), 0, 0, 0});
  }
  for (const auto& [name, value] : snap.gauges) {
    Series& series = series_[name];
    series.kind = Kind::kGauge;
    push(series, Point{ts_us, value, 0, 0, 0});
  }
  for (const HistogramStats& stats : snap.histograms) {
    Series& series = series_[stats.name];
    series.kind = Kind::kHistogram;
    push(series, Point{ts_us, static_cast<double>(stats.count), stats.p50_us, stats.p90_us,
                       stats.p99_us});
  }
  samples_taken_.fetch_add(1, std::memory_order_relaxed);
}

TimeSeriesRecorder::History TimeSeriesRecorder::history(const std::string& metric,
                                                        util::Duration window) const {
  History out;
  out.metric = metric;
  if (window <= util::Duration::zero()) window = std::chrono::seconds(10);
  auto window_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(window).count());
  if (window_us == 0) window_us = 1;
  out.window_seconds = static_cast<double>(window_us) / 1e6;

  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(metric);
  if (it == series_.end() || it->second.points.empty()) return out;
  const Series& series = it->second;
  out.found = true;
  out.kind = series.kind;

  // Fold points into fixed-width windows aligned to the sample clock's
  // epoch, oldest first. Points arrive time-ordered, so one pass suffices.
  //
  // Histogram windows: each point carries the recorder's cumulative count
  // plus its quantiles at sample time, so the window's quantiles are the
  // count-weighted merge of its points (weight = new samples since the
  // previous point, ISSUE 9 satellite) — a window that saw one burst and
  // then idled reports the burst's tail, not whatever the last idle sample
  // happened to repeat. A window with no new samples keeps the newest
  // point's values as before.
  Window* current = nullptr;
  const Point* first_in_window = nullptr;
  std::vector<util::LatencySummary> in_window;
  double prev_count = 0;  // cumulative count of the previous histogram point
  auto finalize_histogram = [&](Window& window) {
    util::LatencySummary merged = util::merge_latency_summaries(in_window);
    if (merged.count > 0) {
      window.p50 = merged.p50_us;
      window.p90 = merged.p90_us;
      window.p99 = merged.p99_us;
    }
    in_window.clear();
  };
  for (const Point& point : series.points) {
    std::uint64_t start = point.ts_us - point.ts_us % window_us;
    if (current == nullptr || start != current->start_us) {
      if (current != nullptr && series.kind == Kind::kHistogram) {
        finalize_histogram(*current);
      }
      out.windows.push_back(Window{});
      current = &out.windows.back();
      current->start_us = start;
      current->end_us = start + window_us;
      current->min = current->max = point.value;
      first_in_window = &point;
    }
    current->samples += 1;
    current->min = std::min(current->min, point.value);
    current->max = std::max(current->max, point.value);
    current->last = point.value;
    current->p50 = point.p50;
    current->p90 = point.p90;
    current->p99 = point.p99;
    if (series.kind == Kind::kHistogram) {
      // Clamp at 0: a restarted recorder's cumulative count rewinds.
      double delta = std::max(0.0, point.value - prev_count);
      prev_count = point.value;
      util::LatencySummary summary;
      summary.count = static_cast<std::uint64_t>(delta);
      summary.p50_us = point.p50;
      summary.p90_us = point.p90;
      summary.p99_us = point.p99;
      in_window.push_back(summary);
    }
    if (series.kind == Kind::kCounter && point.ts_us > first_in_window->ts_us) {
      double elapsed_s =
          static_cast<double>(point.ts_us - first_in_window->ts_us) / 1e6;
      current->rate_per_sec = (point.value - first_in_window->value) / elapsed_s;
    }
  }
  if (current != nullptr && series.kind == Kind::kHistogram) {
    finalize_histogram(*current);
  }
  return out;
}

std::vector<std::string> TimeSeriesRecorder::metric_names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [name, series] : series_) out.push_back(name);
  return out;
}

std::string TimeSeriesRecorder::History::to_json() const {
  std::ostringstream out;
  out << "{\"metric\": \"" << json_escape(metric) << "\"";
  if (!found) {
    out << ", \"found\": false, \"error\": \"no samples recorded for this metric\"}\n";
    return out.str();
  }
  out << ", \"found\": true, \"kind\": \"" << to_string(kind)
      << "\", \"window_seconds\": " << fmt_double(window_seconds) << ", \"windows\": [";
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const Window& w = windows[i];
    if (i) out << ",";
    out << "\n  {\"start_us\": " << w.start_us << ", \"end_us\": " << w.end_us
        << ", \"samples\": " << w.samples << ", \"min\": " << fmt_double(w.min)
        << ", \"max\": " << fmt_double(w.max) << ", \"last\": " << fmt_double(w.last);
    if (kind == Kind::kCounter) {
      out << ", \"rate_per_sec\": " << fmt_double(w.rate_per_sec);
    }
    if (kind == Kind::kHistogram) {
      out << ", \"p50_us\": " << fmt_double(w.p50) << ", \"p90_us\": " << fmt_double(w.p90)
          << ", \"p99_us\": " << fmt_double(w.p99);
    }
    out << "}";
  }
  out << "\n]}\n";
  return out.str();
}

std::string TimeSeriesRecorder::History::to_text() const {
  std::ostringstream out;
  if (!found) {
    out << "no samples recorded for " << metric << "\n";
    return out.str();
  }
  out << metric << " (" << to_string(kind) << ", " << fmt_double(window_seconds)
      << "s windows)\n";
  for (const Window& w : windows) {
    out << "  [" << w.start_us << ".." << w.end_us << ") n=" << w.samples
        << " min=" << fmt_double(w.min) << " max=" << fmt_double(w.max)
        << " last=" << fmt_double(w.last);
    if (kind == Kind::kCounter) out << " rate/s=" << fmt_double(w.rate_per_sec);
    if (kind == Kind::kHistogram) {
      out << " p50=" << fmt_double(w.p50) << " p90=" << fmt_double(w.p90)
          << " p99=" << fmt_double(w.p99);
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace smartsock::obs
