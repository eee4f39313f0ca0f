#include "stats.h"

#include <algorithm>
#include <cmath>

namespace pipebench {

double tail_percentile(std::size_t n, std::size_t beyond, double cap) {
  if (n < 2 * beyond) return 50.0;
  // Largest p with n * (1 - p/100) >= beyond, on a 0.1 grid so the printed
  // percentile is the one actually used.
  double p = 100.0 * (1.0 - static_cast<double>(beyond) / static_cast<double>(n));
  p = std::floor(p * 10.0) / 10.0;
  return std::clamp(p, 50.0, std::max(50.0, cap));
}

double percentile(std::vector<double>& samples, double pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  double rank = std::ceil(pct / 100.0 * static_cast<double>(samples.size()));
  std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double median(std::vector<double>& samples) { return percentile(samples, 50.0); }

double trimmed_mean(std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  auto drop = static_cast<std::size_t>(kTrim * static_cast<double>(samples.size()));
  double sum = 0;
  for (std::size_t i = drop; i < samples.size() - drop; ++i) sum += samples[i];
  return sum / static_cast<double>(samples.size() - 2 * drop);
}

double windowed_percentile(const std::vector<double>& samples_in_order, double pct) {
  const std::size_t n = samples_in_order.size();
  const std::size_t windows =
      std::max<std::size_t>(1, std::min(kTailWindows, n / kWindowSamples));
  std::vector<double> values;
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<double> window(samples_in_order.begin() + w * n / windows,
                               samples_in_order.begin() + (w + 1) * n / windows);
    if (!window.empty()) values.push_back(percentile(window, pct));
  }
  return median(values);
}

Summary summarize(std::vector<double>& samples, double cap) {
  Summary summary;
  summary.count = samples.size();
  summary.tail_pct = tail_percentile(samples.size(), kTailBeyond, cap);
  summary.tail = windowed_percentile(samples, summary.tail_pct);
  summary.p50 = percentile(samples, 50.0);
  summary.mean = trimmed_mean(samples);
  return summary;
}

OpenLoopSchedule::OpenLoopSchedule(double rate_per_s, double seconds, double phase)
    : rate_(rate_per_s) {
  if (rate_per_s <= 0 || seconds <= 0) return;
  period_ns_ = 1e9 / rate_per_s;
  offset_ns_ = std::clamp(phase, 0.0, 1.0) * period_ns_;
  double span_ns = seconds * 1e9 - offset_ns_;
  count_ = span_ns <= 0 ? 0 : static_cast<std::size_t>(std::ceil(span_ns / period_ns_));
}

std::uint64_t OpenLoopSchedule::due_ns(std::size_t i) const {
  return static_cast<std::uint64_t>(offset_ns_ + static_cast<double>(i) * period_ns_);
}

std::size_t OpenLoopSchedule::due_by(std::uint64_t elapsed_ns) const {
  if (count_ == 0 || static_cast<double>(elapsed_ns) < offset_ns_) return 0;
  auto n = static_cast<std::size_t>(
               std::floor((static_cast<double>(elapsed_ns) - offset_ns_) / period_ns_)) +
           1;
  return std::min(n, count_);
}

double latency_from_due_us(std::uint64_t due_ns, std::uint64_t done_ns) {
  return done_ns <= due_ns ? 0.0 : static_cast<double>(done_ns - due_ns) / 1e3;
}

bool backlog_grows(const std::vector<double>& latencies_in_due_order, double slack_us) {
  std::size_t n = latencies_in_due_order.size();
  if (n < 8) return false;
  std::size_t quarter = n / 4;
  std::vector<double> first(latencies_in_due_order.begin(),
                            latencies_in_due_order.begin() + quarter);
  std::vector<double> last(latencies_in_due_order.end() - quarter,
                           latencies_in_due_order.end());
  return median(last) > 2.0 * median(first) + slack_us;
}

}  // namespace pipebench
