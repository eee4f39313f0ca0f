// Summary statistics for the pipeline benchmark.
//
// Every timing the benchmark reports is a median plus the highest percentile
// that still has at least ten samples beyond it, together with the sample
// count, so a tail figure never rests on one or two outliers. The tail is
// taken per time window and the median over windows is reported, so a stall
// of the host in one part of the run does not set it. Ratios carry
// their base. Open-loop schedules live here too: a request is timed from
// the moment it was due, not the moment the generator got round to sending
// it, and the generator's own lateness is reported beside the latencies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pipebench {

/// Samples needed beyond a reported tail percentile.
inline constexpr std::size_t kTailBeyond = 10;
/// Consecutive windows a run's samples are split into for its tail, as
/// long as each window keeps kWindowSamples samples; fewer otherwise.
inline constexpr std::size_t kTailWindows = 10;
inline constexpr std::size_t kWindowSamples = 20;

/// Highest percentile (capped at `cap`) of `n` samples that leaves at least
/// `beyond` samples above it. Falls back to 50 when the sample is too small
/// for any tail.
double tail_percentile(std::size_t n, std::size_t beyond = kTailBeyond, double cap = 99.0);

/// Nearest-rank percentile of `samples` (sorted in place). 0 when empty.
double percentile(std::vector<double>& samples, double pct);

/// Median of `samples` (sorted in place). 0 when empty.
double median(std::vector<double>& samples);

/// Share of samples dropped from each end for a trimmed mean.
inline constexpr double kTrim = 0.2;

/// Mean of `samples` (sorted in place) after dropping the lowest and the
/// highest kTrim share of them; 0 when empty. On a shared host a CPU-bound
/// request runs at one of two speeds, depending on whether the host's
/// other hyperthread is busy, so its latency is bimodal. The median then
/// jumps from one mode to the other as their mix crosses one half; the
/// trimmed mean moves in proportion to the mix and still ignores stalls
/// and fast error replies.
double trimmed_mean(std::vector<double>& samples);

struct Summary {
  std::size_t count = 0;
  double p50 = 0;
  double mean = 0;  // trimmed mean
  double tail = 0;      // windowed value at tail_pct
  double tail_pct = 0;  // percentile the tail was taken at
};

/// Tail of `samples_in_order` (listed in time order) that a burst of host
/// noise does not move: the samples are split into up to kTailWindows
/// consecutive windows of equal size, at least kWindowSamples each (one
/// window for fewer samples), `pct` is taken within each, and the median
/// of those window values is returned. A stall that hits fewer than half
/// the windows leaves it unchanged. 0 when empty.
double windowed_percentile(const std::vector<double>& samples_in_order, double pct);

/// Median, trimmed mean and windowed tail at tail_percentile(count, ..., cap)
/// of `samples`, which are listed in time order and come back sorted.
Summary summarize(std::vector<double>& samples, double cap = 99.0);

struct Ratio {
  std::uint64_t part = 0;
  std::uint64_t base = 0;
  /// part / base; 0 when the base is empty.
  double value() const {
    return base == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(base);
  }
};

/// Fixed-rate open-loop schedule: item i is due `offset_ns + i * period`
/// after the schedule's start, for `count` items.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule() = default;
  /// `rate_per_s` items per second over `seconds`; `phase` in [0, 1) shifts
  /// every due time by that share of one period.
  OpenLoopSchedule(double rate_per_s, double seconds, double phase);

  std::size_t size() const { return count_; }
  /// Due time of item `i`, in ns after the schedule's start.
  std::uint64_t due_ns(std::size_t i) const;
  /// Items due at or before `elapsed_ns` (the next index to send).
  std::size_t due_by(std::uint64_t elapsed_ns) const;
  double rate() const { return rate_; }

 private:
  double rate_ = 0;
  double period_ns_ = 0;
  double offset_ns_ = 0;
  std::size_t count_ = 0;
};

/// Latency of an open-loop item: from its due time to its completion, both
/// in ns on one clock. Negative gaps (clock skew) clamp to 0.
double latency_from_due_us(std::uint64_t due_ns, std::uint64_t done_ns);

/// Whether a backlog grew across an open-loop run: latencies listed in due
/// order, and the median of the last quarter exceeds twice the median of the
/// first quarter plus `slack_us`. Needs at least 8 samples to say yes.
bool backlog_grows(const std::vector<double>& latencies_in_due_order, double slack_us);

}  // namespace pipebench
