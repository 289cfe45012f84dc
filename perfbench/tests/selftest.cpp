// Self-checks of the benchmark's seeded schedules and ladder verdicts.
// Exit code 0 when every check passes; each failure is printed.
#include <cstdio>
#include <string>
#include <vector>

#include "schedule.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++g_failures;
  std::printf("FAIL: %s\n", what.c_str());
}

const std::vector<double> kCdf = zipf_cdf(2, 1.0);

std::vector<Arrival> arrivals(std::uint64_t seed) {
  return poisson_arrivals(derive_seed(seed, 2), 300.0, 2'000'000'000, kCdf,
                          128);
}

std::vector<Injection> injections(std::uint64_t seed) {
  return injection_schedule(derive_seed(seed, 3), 60'000'000'000,
                            650'000'000, 100'000'000, 2);
}

void same_seed_same_schedule() {
  expect(arrivals(7) == arrivals(7), "arrivals repeat for one seed");
  expect(injections(7) == injections(7), "injections repeat for one seed");
  expect(pick_distinct(derive_seed(7, 1), 128, 1024) ==
             pick_distinct(derive_seed(7, 1), 128, 1024),
         "input pool repeats for one seed");
}

void different_seed_different_schedule() {
  expect(arrivals(7) != arrivals(8), "arrivals differ across seeds");
  expect(injections(7) != injections(8), "injections differ across seeds");
  expect(pick_distinct(derive_seed(7, 1), 128, 1024) !=
             pick_distinct(derive_seed(8, 1), 128, 1024),
         "input pool differs across seeds");
}

void schedules_are_well_formed() {
  const std::vector<Arrival> a = arrivals(11);
  // 300 req/s over 2 s: 600 expected; Poisson sd ~24.
  expect(a.size() > 480 && a.size() < 720, "arrival count near rate x time");
  std::size_t hot = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect(i == 0 || a[i].t_ns >= a[i - 1].t_ns, "arrivals are ordered");
    expect(a[i].tenant < 2 && a[i].input < 128, "arrival fields in range");
    hot += a[i].tenant == 0;
  }
  // Zipf s=1 over two tenants: 2/3 of the traffic on rank 0.
  const double share = static_cast<double>(hot) / static_cast<double>(a.size());
  expect(share > 0.6 && share < 0.73, "Zipf share of the popular tenant");

  const std::vector<std::uint32_t> pool = pick_distinct(5, 128, 1024);
  std::vector<bool> seen(1024, false);
  for (const std::uint32_t p : pool) {
    expect(p < 1024 && !seen[p], "pool indices distinct and in range");
    if (p < 1024) seen[p] = true;
  }

  // Quarantine trips at 3 detections in 2 s: the schedule keeps every
  // tenant at 2 or fewer injections per 2 s window, for any seed.
  for (std::uint64_t seed = 1; seed <= 50; ++seed)
    expect(max_per_tenant_in_window(injections(seed), 2'000'000'000) <= 2,
           "injections stay under the quarantine threshold, seed " +
               std::to_string(seed));
}

void overloaded_rung_is_growing() {
  // Offered 1.5x capacity: the backlog grows linearly through the rung.
  std::vector<double> overloaded;
  for (int i = 0; i < 1000; ++i) overloaded.push_back(0.3 * i);
  expect(backlog_growing(overloaded), "overloaded rung classified growing");

  // Below capacity: a few requests in flight, fluctuating, no trend.
  std::vector<double> steady;
  SplitMix rng(3);
  for (int i = 0; i < 1000; ++i)
    steady.push_back(static_cast<double>(rng.below(4)));
  expect(!backlog_growing(steady), "steady rung classified steady");

  // A queue that built up early and drains is not a growing backlog.
  std::vector<double> draining;
  for (int i = 0; i < 1000; ++i) draining.push_back(i < 250 ? 30.0 : 2.0);
  expect(!backlog_growing(draining), "draining rung classified steady");
}

void ladder_bisection() {
  const std::vector<double> grid = rate_grid(150.0, 2400.0);
  expect(grid.size() > 50 && grid.front() == 150.0 && grid.back() <= 2400.0,
         "rate grid spans 150..2400 req/s in 5% steps");
  for (const double capacity : {200.0, 777.0, 1234.0, 2399.0}) {
    int probes = 0;
    const int best = highest_passing_rung(grid.size(), [&](std::size_t i) {
      ++probes;
      return grid[i] <= capacity;
    });
    expect(best >= 0 && grid[static_cast<std::size_t>(best)] <= capacity &&
               (static_cast<std::size_t>(best) + 1 == grid.size() ||
                grid[static_cast<std::size_t>(best) + 1] > capacity),
           "bisection finds the highest passing rung");
    expect(probes <= 7, "bisection probes at most 7 rungs");
  }
  expect(highest_passing_rung(grid.size(), [](std::size_t) { return false; }) ==
             -1,
         "no passing rung gives -1");
}

}  // namespace

int main() {
  same_seed_same_schedule();
  different_seed_different_schedule();
  schedules_are_well_formed();
  overloaded_rung_is_growing();
  ladder_bisection();
  std::printf("perfbench selftest: %s\n",
              g_failures == 0 ? "all checks passed" : "FAILED");
  return g_failures == 0 ? 0 : 1;
}
