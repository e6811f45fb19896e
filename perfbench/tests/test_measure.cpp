// Tests of the benchmark's own measurement rules (src/measure.hpp).
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "measure.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1, 2, ..., n
  return v;
}

TEST(Tail, KeepsAtLeastTenSamplesBeyondThePercentile) {
  struct Case {
    std::size_t n;
    double percentile;
  };
  for (const Case c : {Case{20, 0.50}, Case{39, 0.50}, Case{40, 0.75}, Case{100, 0.90},
                       Case{199, 0.90}, Case{200, 0.95}, Case{999, 0.95}, Case{1000, 0.99},
                       Case{50000, 0.99}}) {
    const Tail t = tail(ramp(c.n));
    EXPECT_DOUBLE_EQ(t.percentile, c.percentile) << "n=" << c.n;
    EXPECT_GE(t.beyond, Tail::kMinBeyond) << "n=" << c.n;
    EXPECT_TRUE(t.supported());
    EXPECT_EQ(t.samples, c.n);
    // Exactly `beyond` samples of the ramp are strictly larger than the tail.
    EXPECT_DOUBLE_EQ(t.value, static_cast<double>(c.n - t.beyond)) << "n=" << c.n;
  }
}

TEST(Tail, TooFewSamplesReportsTheMaximumAsUnsupported) {
  const Tail t = tail(ramp(19));
  EXPECT_FALSE(t.supported());
  EXPECT_DOUBLE_EQ(t.percentile, 1.0);
  EXPECT_DOUBLE_EQ(t.value, 19.0);
  EXPECT_FALSE(tail({}).supported());
}

TEST(Tail, IgnoresInputOrder) {
  std::vector<double> v = ramp(300);
  std::reverse(v.begin(), v.end());
  EXPECT_DOUBLE_EQ(tail(v).value, tail(ramp(300)).value);
}

TEST(Median, EvenAndOddSizes) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(OpenLoop, LatencyRunsFromTheDueTime) {
  // Due at 1.000 s, sent 5 ms late behind a stall, done 2 ms after sending.
  const OpenLoopTiming t{1.000, 1.005, 1.007};
  EXPECT_NEAR(t.latency_ms(), 7.0, 1e-9);  // not the 2 ms since sending
  EXPECT_NEAR(t.late_ms(), 5.0, 1e-9);
  const OpenLoopTiming on_time{2.0, 2.0, 2.001};
  EXPECT_NEAR(on_time.latency_ms(), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(on_time.late_ms(), 0.0);
}

TEST(Shares, RefusedAndFailedJobsMissTheSlo) {
  const std::vector<Outcome> outcomes = {Outcome::kOk, Outcome::kOk, Outcome::kRefused,
                                         Outcome::kFailed, Outcome::kWrong, Outcome::kOk};
  // The refused/failed/wrong latencies are small, yet they still miss.
  const std::vector<double> latency = {1.0, 50.0, 0.0, 0.1, 0.2, 9.0};
  const Shares s = score(outcomes, latency, 10.0);
  EXPECT_EQ(s.attempted, 6u);
  EXPECT_EQ(s.ok, 3u);
  EXPECT_EQ(s.within_slo, 2u);
  EXPECT_DOUBLE_EQ(s.ok_share(), 0.5);
  EXPECT_DOUBLE_EQ(s.slo_share(), 2.0 / 6.0);
  EXPECT_DOUBLE_EQ(score({}, {}, 10.0).slo_share(), 0.0);
}

TEST(Schedule, ReproducesExactlyFromItsSeed) {
  const auto a = make_schedule(42, 400.0, 5.0, 8, 0.05);
  const auto b = make_schedule(42, 400.0, 5.0, 8, 0.05);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, make_schedule(43, 400.0, 5.0, 8, 0.05));
}

TEST(Schedule, HoldsTheFixedRateMixAndFreshShare) {
  const auto s = make_schedule(7, 400.0, 20.0, 8, 0.05);
  EXPECT_NEAR(static_cast<double>(s.size()), 8000.0, 100.0);
  double prev = 0.0;
  std::size_t fresh = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_GE(s[i].due_s - prev, 0.5 / 400.0 - 1e-12);
    EXPECT_LE(s[i].due_s - prev, 1.5 / 400.0 + 1e-12);
    EXPECT_LT(s[i].due_s, 20.0);
    prev = s[i].due_s;
    if (s[i].fresh) ++fresh;
  }
  EXPECT_NEAR(static_cast<double>(fresh) / static_cast<double>(s.size()), 0.05, 0.01);
  // Every full deck of 8 consecutive requests holds each kind once.
  for (std::size_t d = 0; d + 8 <= s.size(); d += 8) {
    std::vector<int> seen(8, 0);
    for (std::size_t i = d; i < d + 8; ++i) ++seen[s[i].kind];
    EXPECT_EQ(std::count(seen.begin(), seen.end(), 1), 8) << "deck at " << d;
  }
}

TEST(Digest, DetectsASingleChangedByte) {
  std::vector<unsigned char> bytes(1001, 0xCD);
  const auto before = digest(bytes.data(), bytes.size());
  EXPECT_EQ(before, digest(bytes.data(), bytes.size()));
  bytes[1000] = 0xCE;  // in the unaligned tail
  EXPECT_NE(before, digest(bytes.data(), bytes.size()));
  bytes[1000] = 0xCD;
  bytes[3] = 0;
  EXPECT_NE(before, digest(bytes.data(), bytes.size()));
}

}  // namespace
}  // namespace perfbench
