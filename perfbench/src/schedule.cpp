#include "schedule.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::uint64_t SplitMix::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double SplitMix::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t SplitMix::below(std::uint64_t n) {
  return static_cast<std::uint64_t>(uniform() * static_cast<double>(n));
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  SplitMix m(seed ^ (0xD1B54A32D192ED03ULL * (stream + 1)));
  m.next();
  return m.next();
}

std::vector<double> zipf_cdf(std::size_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), s) / total;
    cdf[i] = acc;
  }
  if (n > 0) cdf[n - 1] = 1.0;
  return cdf;
}

std::size_t pick(const std::vector<double>& cdf, double u) {
  for (std::size_t i = 0; i < cdf.size(); ++i)
    if (u < cdf[i]) return i;
  return cdf.size() - 1;
}

std::vector<std::uint32_t> pick_distinct(std::uint64_t seed,
                                         std::uint32_t count,
                                         std::uint32_t universe) {
  std::vector<std::uint32_t> all(universe);
  for (std::uint32_t i = 0; i < universe; ++i) all[i] = i;
  SplitMix rng(seed);
  count = std::min(count, universe);
  for (std::uint32_t i = 0; i < count; ++i)  // partial Fisher-Yates
    std::swap(all[i], all[i + rng.below(universe - i)]);
  all.resize(count);
  return all;
}

std::vector<Arrival> poisson_arrivals(std::uint64_t seed, double rate,
                                      std::int64_t duration_ns,
                                      const std::vector<double>& tenant_cdf,
                                      std::uint32_t pool_size) {
  std::vector<Arrival> out;
  SplitMix rng(seed);
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.uniform()) / rate * 1e9;
    if (t >= static_cast<double>(duration_ns)) break;
    Arrival a;
    a.t_ns = static_cast<std::int64_t>(t);
    a.tenant = static_cast<std::uint32_t>(pick(tenant_cdf, rng.uniform()));
    a.input = static_cast<std::uint32_t>(rng.below(pool_size));
    out.push_back(a);
  }
  return out;
}

std::vector<Injection> injection_schedule(std::uint64_t seed,
                                          std::int64_t duration_ns,
                                          std::int64_t interval_ns,
                                          std::int64_t jitter_ns,
                                          std::uint32_t tenants) {
  std::vector<Injection> out;
  SplitMix rng(seed);
  for (std::int64_t k = 1;; ++k) {
    const double jitter = (2.0 * rng.uniform() - 1.0) *
                          static_cast<double>(jitter_ns);
    Injection inj;
    inj.t_ns = k * interval_ns + static_cast<std::int64_t>(jitter);
    if (inj.t_ns >= duration_ns) break;
    inj.tenant = static_cast<std::uint32_t>((k - 1) % tenants);
    inj.seed = rng.next();
    out.push_back(inj);
  }
  return out;
}

int max_per_tenant_in_window(const std::vector<Injection>& s,
                             std::int64_t window_ns) {
  int worst = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    int n = 0;
    for (std::size_t j = i; j < s.size(); ++j)
      if (s[j].tenant == s[i].tenant && s[j].t_ns - s[i].t_ns <= window_ns)
        ++n;
    worst = std::max(worst, n);
  }
  return worst;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t k = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

bool backlog_growing(const std::vector<double>& outstanding) {
  constexpr double kMinGrowth = 8.0;  // requests: above Poisson jitter
  const std::size_t n = outstanding.size();
  if (n < 8) return false;
  const std::size_t q = n / 4;
  double first = 0.0, last = 0.0;
  for (std::size_t i = 0; i < q; ++i) {
    first += outstanding[i];
    last += outstanding[n - q + i];
  }
  first /= static_cast<double>(q);
  last /= static_cast<double>(q);
  return last > 2.0 * first && last - first >= kMinGrowth;
}

std::vector<double> rate_grid(double lo, double hi) {
  std::vector<double> out;
  for (double r = lo; r <= hi * (1.0 + 1e-9); r *= 1.05) out.push_back(r);
  return out;
}

int highest_passing_rung(std::size_t rungs,
                         const std::function<bool(std::size_t)>& run_rung) {
  std::int64_t lo = -1;  // highest rung known to pass
  std::int64_t hi = static_cast<std::int64_t>(rungs);  // lowest known fail
  while (hi - lo > 1) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (run_rung(static_cast<std::size_t>(mid)))
      lo = mid;
    else
      hi = mid;
  }
  return static_cast<int>(lo);
}

}  // namespace perfbench
