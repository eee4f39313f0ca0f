#include "stats.h"

#include <gtest/gtest.h>

#include <numeric>

namespace pipebench {
namespace {

TEST(TailPercentile, LeavesTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(tail_percentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(tail_percentile(100000), 99.0);  // capped at p99
  EXPECT_DOUBLE_EQ(tail_percentile(500), 98.0);
  EXPECT_DOUBLE_EQ(tail_percentile(200), 95.0);
  EXPECT_DOUBLE_EQ(tail_percentile(19), 50.0);  // too few for any tail
  EXPECT_DOUBLE_EQ(tail_percentile(1000, 10, 95.0), 95.0);  // end-to-end cap
  EXPECT_DOUBLE_EQ(tail_percentile(100, 10, 95.0), 90.0);
  for (std::size_t n : {20u, 37u, 250u, 999u}) {
    double p = tail_percentile(n);
    EXPECT_GE(static_cast<double>(n) * (1.0 - p / 100.0), 10.0 - 1e-9) << n;
  }
}

TEST(Percentile, NearestRank) {
  std::vector<double> samples(100);
  std::iota(samples.begin(), samples.end(), 1.0);  // 1..100
  EXPECT_DOUBLE_EQ(percentile(samples, 50), 50.0);
  EXPECT_DOUBLE_EQ(percentile(samples, 99), 99.0);
  EXPECT_DOUBLE_EQ(percentile(samples, 100), 100.0);
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(median(empty), 0.0);
}

TEST(Summarize, ReportsCountMedianAndSupportedTail) {
  // Ten windows of 20, each holding 1..20 in reverse: p95 of every window
  // is 19, so the windowed tail is 19 too.
  std::vector<double> samples;
  for (int w = 0; w < 10; ++w) {
    for (int v = 20; v >= 1; --v) samples.push_back(v);
  }
  Summary summary = summarize(samples);
  EXPECT_EQ(summary.count, 200u);
  EXPECT_DOUBLE_EQ(summary.p50, 10.0);
  EXPECT_DOUBLE_EQ(summary.tail_pct, 95.0);  // exactly ten samples beyond
  EXPECT_DOUBLE_EQ(summary.tail, 19.0);
}

TEST(TrimmedMean, DropsBothEndsAndFollowsTheModeMix) {
  std::vector<double> samples(10);
  std::iota(samples.rbegin(), samples.rend(), 1.0);  // 10..1
  EXPECT_DOUBLE_EQ(trimmed_mean(samples), 5.5);     // mean of 3..8
  std::vector<double> stalled = {2, 3, 4, 1, 1000};
  EXPECT_DOUBLE_EQ(trimmed_mean(stalled), 3.0);
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(trimmed_mean(empty), 0.0);
  // Fast (20) and slow (30) requests: as the slow share crosses one half
  // the median jumps a whole mode, the trimmed mean a fraction of one.
  auto mix = [](int slow) {
    std::vector<double> s(100, 20.0);
    std::fill(s.begin(), s.begin() + slow, 30.0);
    return s;
  };
  std::vector<double> a = mix(45), b = mix(55);
  std::vector<double> a2 = a, b2 = b;
  EXPECT_DOUBLE_EQ(median(b2) - median(a2), 10.0);
  EXPECT_NEAR(trimmed_mean(b) - trimmed_mean(a), 10.0 * 10 / 60, 1e-9);
}

TEST(WindowedPercentile, IgnoresAStallInAMinorityOfWindows) {
  std::vector<double> steady(400);
  std::iota(steady.begin(), steady.end(), 0.0);
  for (double& v : steady) v = 100.0 + static_cast<double>(static_cast<int>(v) % 40);
  double clean = windowed_percentile(steady, 97.5);
  EXPECT_DOUBLE_EQ(clean, 138.0);  // second highest of each window of 40
  std::vector<double> stalled = steady;
  for (std::size_t i = 0; i < 120; i += 3) stalled[i] = 50000.0;  // windows 0-2 stall
  EXPECT_DOUBLE_EQ(windowed_percentile(stalled, 97.5), clean);
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(windowed_percentile(empty, 99.0), 0.0);
  EXPECT_DOUBLE_EQ(windowed_percentile({7.0, 9.0}, 99.0), 9.0);  // one window
  std::vector<double> sixty(60);
  std::iota(sixty.begin(), sixty.end(), 1.0);
  // Three windows of 20 (1..20, 21..40, 41..60): p90 is 18, 38, 58.
  EXPECT_DOUBLE_EQ(windowed_percentile(sixty, 90.0), 38.0);
}

TEST(Ratio, CarriesItsBase) {
  Ratio r{3, 4};
  EXPECT_DOUBLE_EQ(r.value(), 0.75);
  EXPECT_EQ(r.base, 4u);
  EXPECT_DOUBLE_EQ((Ratio{5, 0}.value()), 0.0);
}

TEST(OpenLoopSchedule, FixedRateDueTimes) {
  OpenLoopSchedule schedule(1000.0, 1.0, 0.5);  // 1 kHz, offset half a period
  EXPECT_EQ(schedule.size(), 1000u);
  EXPECT_EQ(schedule.due_ns(0), 500'000u);
  EXPECT_EQ(schedule.due_ns(1), 1'500'000u);
  EXPECT_EQ(schedule.due_by(0), 0u);
  EXPECT_EQ(schedule.due_by(500'000), 1u);
  EXPECT_EQ(schedule.due_by(1'499'999), 1u);
  EXPECT_EQ(schedule.due_by(10'000'000'000ULL), 1000u);  // never past the end
  EXPECT_EQ(OpenLoopSchedule(0.0, 1.0, 0.0).size(), 0u);
}

TEST(OpenLoop, LatencyCountsFromDueTime) {
  // Sent 300 µs late and answered 100 µs after sending: 400 µs from due.
  std::uint64_t due = 1'000'000;
  std::uint64_t sent = due + 300'000;
  std::uint64_t done = sent + 100'000;
  EXPECT_DOUBLE_EQ(latency_from_due_us(due, done), 400.0);
  EXPECT_DOUBLE_EQ(latency_from_due_us(due, sent), 300.0);  // generator lateness
  EXPECT_DOUBLE_EQ(latency_from_due_us(done, due), 0.0);
}

TEST(OpenLoop, BacklogGrowth) {
  std::vector<double> steady(100, 50.0);
  EXPECT_FALSE(backlog_grows(steady, 10.0));
  std::vector<double> growing;
  for (int i = 0; i < 100; ++i) growing.push_back(50.0 + 20.0 * i);
  EXPECT_TRUE(backlog_grows(growing, 10.0));
  EXPECT_FALSE(backlog_grows({1, 1000}, 0.0));  // too few samples to say
}

}  // namespace
}  // namespace pipebench
