#include "measure.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "util/rng.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

Tail tail(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  t.percentile = 1.0;
  t.value = v.back();
  for (double p : {0.99, 0.95, 0.90, 0.75, 0.50}) {
    const std::size_t beyond = v.size() - nearest_rank(v.size(), p);
    if (beyond >= Tail::kMinBeyond) {
      t.percentile = p;
      t.value = percentile_sorted(v, p);
      t.beyond = beyond;
      break;
    }
  }
  return t;
}

std::vector<Arrival> make_schedule(std::uint64_t seed, double rate_per_s, double horizon_s,
                                   std::uint32_t kinds, double fresh_share) {
  std::vector<Arrival> out;
  if (rate_per_s <= 0.0 || kinds == 0) return out;
  wavetune::util::Rng rng(seed);
  std::vector<std::uint32_t> deck(kinds);
  std::size_t dealt = kinds;
  double t = 0.0;
  for (;;) {
    t += rng.uniform_real(0.5, 1.5) / rate_per_s;
    if (t >= horizon_s) break;
    if (dealt == kinds) {
      std::iota(deck.begin(), deck.end(), 0u);
      rng.shuffle(deck);
      dealt = 0;
    }
    Arrival a;
    a.due_s = t;
    a.kind = deck[dealt++];
    a.fresh = rng.bernoulli(fresh_share);
    out.push_back(a);
  }
  return out;
}

double Shares::ok_share() const {
  return attempted == 0 ? 0.0 : static_cast<double>(ok) / static_cast<double>(attempted);
}

double Shares::slo_share() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(within_slo) / static_cast<double>(attempted);
}

Shares score(const std::vector<Outcome>& outcomes, const std::vector<double>& latency_ms,
             double slo_ms) {
  Shares s;
  s.attempted = outcomes.size();
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i] != Outcome::kOk) continue;
    ++s.ok;
    if (i < latency_ms.size() && latency_ms[i] <= slo_ms) ++s.within_slo;
  }
  return s;
}

std::uint64_t digest(const void* data, std::size_t bytes) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * kPrime;
    h ^= h >> 29;
  }
  for (; i < bytes; ++i) h = (h ^ p[i]) * kPrime;
  return h ^ bytes;
}

}  // namespace perfbench
