// Seeded inputs and pure decision rules of the benchmark.
//
// Everything a workload feeds the program is generated here from the
// workload seed: request arrivals (open-loop Poisson), tenant picks
// (Zipf popularity), input-image picks, fault-injection times and
// injection seeds. The same seed gives the same schedules on every
// machine (own splitmix64 stream, no std:: distributions), a different
// seed gives different ones. The rate-ladder verdicts (backlog growth,
// rung pass/fail, the bisection over a fixed rate grid) live here too, so
// the self-checks in tests/ exercise them without a running host.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

/// splitmix64: tiny, portable, and good enough for schedules.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n);

 private:
  std::uint64_t state_;
};

/// Independent sub-seed for one named stream of a workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Zipf CDF over `n` ranks: P(i) ~ 1 / (i + 1)^s.
std::vector<double> zipf_cdf(std::size_t n, double s);
std::size_t pick(const std::vector<double>& cdf, double u);

/// `count` distinct indices out of [0, universe), in draw order.
std::vector<std::uint32_t> pick_distinct(std::uint64_t seed,
                                         std::uint32_t count,
                                         std::uint32_t universe);

/// One request of an open-loop schedule.
struct Arrival {
  std::int64_t t_ns = 0;     ///< intended send time, from phase start
  std::uint32_t tenant = 0;  ///< Zipf-picked tenant rank
  std::uint32_t input = 0;   ///< index into the input pool
  bool operator==(const Arrival&) const = default;
};

/// Poisson arrivals at `rate` req/s over [0, duration_ns).
std::vector<Arrival> poisson_arrivals(std::uint64_t seed, double rate,
                                      std::int64_t duration_ns,
                                      const std::vector<double>& tenant_cdf,
                                      std::uint32_t pool_size);

/// One fault injection of the attack workload.
struct Injection {
  std::int64_t t_ns = 0;  ///< from phase start
  std::uint32_t tenant = 0;
  std::uint64_t seed = 0;  ///< passed to ModelHost::inject_faults
  bool operator==(const Injection&) const = default;
};

/// Injections alternating over `tenants`, one every `interval_ns` (each
/// time jittered by up to +-`jitter_ns`), starting at `interval_ns`.
std::vector<Injection> injection_schedule(std::uint64_t seed,
                                          std::int64_t duration_ns,
                                          std::int64_t interval_ns,
                                          std::int64_t jitter_ns,
                                          std::uint32_t tenants);

/// Most injections any one tenant receives inside a window of
/// `window_ns` (the quarantine trip rule counts detections that way).
int max_per_tenant_in_window(const std::vector<Injection>& s,
                             std::int64_t window_ns);

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 if empty.
double quantile(std::vector<double> v, double q);

/// Backlog verdict of one ladder rung from the number of outstanding
/// requests (submitted - completed) sampled at each submit, in order.
/// Growing when the last quarter's mean exceeds twice the first
/// quarter's mean by at least 8 requests.
bool backlog_growing(const std::vector<double>& outstanding);

/// The fixed rate grid of the capacity ladder: `lo` req/s times 1.05^k
/// up to `hi`.
std::vector<double> rate_grid(double lo, double hi);

/// Highest grid index whose rung passes, found by bisection under the
/// monotonicity assumption (a rung above a failing one fails too).
/// Returns -1 when even the lowest rung fails. `run_rung(i)` runs rung
/// i and returns its verdict.
int highest_passing_rung(std::size_t rungs,
                         const std::function<bool(std::size_t)>& run_rung);

}  // namespace perfbench
