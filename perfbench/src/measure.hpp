// Measurement helpers of the wavetune benchmark: the percentile rules,
// the open-loop arrival schedule, latency-from-due-time accounting, the
// ok/SLO share rules and the grid digest. They hold no Engine state, so
// tests/test_measure.cpp checks each rule on its own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for even sizes); 0 for an
/// empty sample.
double median(std::vector<double> v);

/// Nearest-rank percentile of an ascending sample, p in (0, 1].
double percentile_sorted(const std::vector<double>& sorted, double p);

/// The reported tail: the highest percentile of a fixed ladder
/// (p50, p75, p90, p95, p99) that leaves at least kMinBeyond samples
/// strictly past its nearest rank, so a tail is never one or two outliers.
struct Tail {
  double percentile = 0.0;  ///< e.g. 0.95; 1.0 = the maximum (sample too small)
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples ranked past the percentile
  bool supported() const { return beyond >= kMinBeyond; }
  static constexpr std::size_t kMinBeyond = 10;
};
Tail tail(std::vector<double> v);

/// One open-loop request: when it is due (seconds from the schedule
/// origin), which base request kind it draws, and whether it carries a
/// first-seen spec.
struct Arrival {
  double due_s = 0.0;
  std::uint32_t kind = 0;
  bool fresh = false;

  bool operator==(const Arrival&) const = default;
};

/// Arrivals at `rate_per_s` up to `horizon_s`, reproduced exactly from
/// `seed`. Gaps are uniform in [0.5, 1.5] of the mean: independent of the
/// service, yet without the Poisson clumps whose queueing would make the
/// tail depend more on the seed than on the program. Kinds are dealt from
/// shuffled decks of all `kinds`, so every consecutive block of `kinds`
/// requests holds each kind once; each request is fresh with probability
/// `fresh_share`.
std::vector<Arrival> make_schedule(std::uint64_t seed, double rate_per_s, double horizon_s,
                                   std::uint32_t kinds, double fresh_share);

/// Open-loop timing of one request, all on one steady clock (seconds).
/// Latency runs from the DUE time, not the send time, so a stalled
/// generator's backlog is charged to the requests that waited behind it.
struct OpenLoopTiming {
  double due_s = 0.0;
  double sent_s = 0.0;
  double done_s = 0.0;
  double latency_ms() const { return (done_s - due_s) * 1e3; }
  double late_ms() const { return sent_s > due_s ? (sent_s - due_s) * 1e3 : 0.0; }
};

enum class Outcome {
  kOk,       ///< completed, output matched the reference
  kWrong,    ///< completed, output did not match
  kFailed,   ///< the job's future held an exception
  kRefused,  ///< the Engine refused the job (queue full)
};

/// ok_share: matched jobs over attempted. slo_share: matched jobs within
/// the latency limit over attempted — a wrong, failed or refused job is a
/// miss whatever its latency.
struct Shares {
  std::size_t attempted = 0;
  std::size_t ok = 0;
  std::size_t within_slo = 0;
  double ok_share() const;
  double slo_share() const;
};
Shares score(const std::vector<Outcome>& outcomes, const std::vector<double>& latency_ms,
             double slo_ms);

/// 64-bit digest of a byte range (word-at-a-time FNV-1a variant).
std::uint64_t digest(const void* data, std::size_t bytes);

}  // namespace perfbench
