// serve_steady and serve_attack: an in-process ModelHost with two
// resnet20 tenants under open-loop Poisson load.
//
// One generator thread (the caller) submits every request with
// try_infer_async at its intended arrival time and never blocks; a
// collector thread resolves the futures. Request latency is measured
// from the intended arrival: (submit - intended) + host latency_ns, so a
// generator stall is charged to the requests it delayed. serve_attack
// runs the same traffic while an attacker thread flips weight MSBs
// through inject_faults and waits for each detection. The traced pass
// adds a capacity ladder: a bisection over a fixed rate grid for the
// highest rung whose p99 stays within the limit without a growing
// backlog.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>

#include "core/package.h"
#include "core/scheme_registry.h"
#include "exp/workspace.h"
#include "schedule.h"
#include "serve/host.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace radar;

constexpr std::uint32_t kPoolImages = 128;  ///< distinct request inputs
constexpr double kSteadyRate = 300.0;  ///< req/s, ~45% of capacity
constexpr std::size_t kWindows = 4;   ///< in-run windows of the phase
constexpr double kZipfS = 1.0;
constexpr double kP99LimitMs = 20.0;  ///< ladder latency limit
constexpr double kGridLow = 150.0;    ///< ladder rates, req/s (5% steps)
constexpr double kGridHigh = 2400.0;
constexpr double kRungSeconds = 1.0;  ///< duration of one ladder rung
constexpr std::int64_t kInjectIntervalNs = 650'000'000;
constexpr std::int64_t kInjectJitterNs = 100'000'000;
constexpr std::int64_t kDetectTimeoutNs = 1'000'000'000;
constexpr std::size_t kTenants = 2;
const char* const kTenantSchemes[kTenants] = {"radar2", "radar3"};

// Seed streams (see schedule.h derive_seed).
enum Stream : std::uint64_t {
  kPoolStream = 1,
  kSteadyStream = 2,
  kInjectStream = 3,
  kRungStream = 100,
};

core::SchemeParams tenant_params() {
  core::SchemeParams p;
  p.group_size = 8;  // the paper's ResNet-20 configuration
  p.interleave = true;
  return p;
}

/// One serving set-up: signed tenant packages and a started host.
class Serving {
 public:
  Serving() = default;
  ~Serving() {
    if (host) host->stop();
    for (const std::string& p : packages) std::remove(p.c_str());
  }
  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;

  std::unique_ptr<serve::ModelHost> host;
  std::vector<std::string> packages;
};

std::unique_ptr<Serving> set_up(const RunContext& ctx, int rep,
                                Tracer& tr) {
  auto s = std::make_unique<Serving>();
  exp::ModelBundle bundle;
  {
    ScopedSpan sp(tr, "exp.make_bundle");
    bundle = exp::make_bundle(kModel, /*train=*/true, /*eval_clean=*/false);
  }
  for (std::size_t i = 0; i < kTenants; ++i) {
    auto scheme = core::SchemeRegistry::instance().create(kTenantSchemes[i],
                                                          tenant_params());
    {
      ScopedSpan sp(tr, "core.attach");
      scheme->attach(*bundle.qmodel);
    }
    const std::string path = ctx.work_dir + "/" + kTenantSchemes[i] + "-" +
                             std::to_string(rep) + ".rpkg";
    {
      ScopedSpan sp(tr, "core.save_package");
      core::save_package(path, *bundle.qmodel, *scheme, kModel);
    }
    s->packages.push_back(path);
  }
  s->host = std::make_unique<serve::ModelHost>(serve::ServeOptions{});
  for (std::size_t i = 0; i < kTenants; ++i) {
    serve::TenantConfig cfg;
    cfg.name = kTenantSchemes[i];
    cfg.package_path = s->packages[i];
    cfg.model_id = kModel;
    ScopedSpan sp(tr, "serve.add_tenant");
    s->host->add_tenant(cfg);
  }
  {
    ScopedSpan sp(tr, "serve.start");
    s->host->start();
  }
  return s;
}

/// Clean reference predictions for the input pool: one request at a
/// time on the idle, freshly loaded host, before any timed traffic. Both
/// tenants serve the same weights, so they must agree. Their accuracy
/// against the labels is printed, not checked: packages carry no
/// batch-norm state, so a served resnet20 predicts near chance.
std::vector<int> reference_predictions(serve::ModelHost& host,
                                       const std::vector<nn::Tensor>& pool,
                                       const std::vector<int>& labels,
                                       Result& res) {
  std::vector<int> ref;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const serve::InferenceResult r = host.infer(0, pool[i]);
    res.check(r.ok, "reference request failed");
    ref.push_back(r.predicted);
    correct += r.predicted == labels[i];
    for (std::size_t t = 1; t < kTenants; ++t) {
      const serve::InferenceResult o = host.infer(t, pool[i]);
      res.check(o.ok && o.predicted == r.predicted,
                "tenants disagree on a clean input");
    }
  }
  std::printf("reference: %zu inputs, accuracy %.3f against the labels\n",
              pool.size(),
              static_cast<double>(correct) / static_cast<double>(pool.size()));
  return ref;
}

/// One request as the benchmark saw it (absolute steady-clock ns).
struct Req {
  std::int64_t intended_ns = 0;
  std::int64_t submit_ns = 0;
  std::int64_t latency_ns = 0;  ///< host submit -> completion
  std::uint32_t input = 0;  ///< index into the input pool
  bool submitted = false;   ///< false: shed at the queue
  bool ok = false;
  int predicted = -1;
  std::int64_t end_ns() const { return submit_ns + latency_ns; }
  std::int64_t total_ns() const { return end_ns() - intended_ns; }
};

/// Run one open-loop phase: submit `arrivals` (offsets from now) and
/// collect every reply. Returns when all replies are in.
std::vector<Req> run_traffic(serve::ModelHost& host,
                             const std::vector<nn::Tensor>& pool,
                             const std::vector<Arrival>& arrivals,
                             Tracer& tr) {
  std::vector<Req> reqs(arrivals.size());
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<std::size_t, std::future<serve::InferenceResult>>>
      pending;
  bool done = false;

  std::thread collector([&] {
    while (true) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done || !pending.empty(); });
      if (pending.empty()) return;
      auto [i, fut] = std::move(pending.front());
      pending.pop_front();
      lock.unlock();
      serve::InferenceResult r;
      try {
        r = fut.get();
      } catch (const std::exception& e) {  // broken promise: a failed reply
        r.ok = false;
        r.error = e.what();
      }
      reqs[i].ok = r.ok;
      reqs[i].predicted = r.predicted;
      reqs[i].latency_ns = r.latency_ns;
    }
  });

  const auto clock0 = Clock::now() + std::chrono::milliseconds(1);
  const std::int64_t t0 =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          clock0.time_since_epoch())
          .count();
  auto stop_collector = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
    }
    cv.notify_one();
    collector.join();
  };
  try {
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      const Arrival& a = arrivals[i];
      std::this_thread::sleep_until(clock0 +
                                    std::chrono::nanoseconds(a.t_ns));
      Req& q = reqs[i];
      q.intended_ns = t0 + a.t_ns;
      q.input = a.input;
      std::future<serve::InferenceResult> fut;
      q.submit_ns = now_ns();
      q.submitted = host.try_infer_async(a.tenant, pool[a.input], fut);
      tr.record("serve.try_infer_async", q.submit_ns, now_ns(), 0, i + 1);
      if (!q.submitted) continue;
      {
        std::lock_guard<std::mutex> lock(mu);
        pending.emplace_back(i, std::move(fut));
      }
      cv.notify_one();
    }
  } catch (...) {
    stop_collector();
    throw;
  }
  stop_collector();

  if (tr.enabled()) {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const Req& q = reqs[i];
      if (!q.submitted) continue;
      const std::uint64_t root =
          tr.record("serve.request", q.intended_ns, q.end_ns(), 0, i + 1);
      tr.record("serve.host", q.submit_ns, q.end_ns(), root, i + 1);
    }
  }
  return reqs;
}

/// Latency and queueing figures of one phase.
struct PhaseStats {
  std::vector<double> total_ms;  ///< from intended arrival
  std::vector<double> host_us;   ///< InferenceResult::latency_ns
  std::vector<double> lag_us;    ///< generator lateness at submit
  std::vector<double> outstanding;  ///< submitted - completed, at submit
  std::uint64_t shed = 0, errors = 0;
  double seconds = 0.0;  ///< first intended arrival to last completion
};

PhaseStats analyze(const std::vector<Req>& reqs) {
  PhaseStats s;
  std::priority_queue<std::int64_t, std::vector<std::int64_t>,
                      std::greater<>>
      in_flight;  // completion times of submitted requests
  std::int64_t first = INT64_MAX, last = INT64_MIN;
  for (const Req& q : reqs) {
    first = std::min(first, q.intended_ns);
    if (!q.submitted) {
      ++s.shed;
      continue;
    }
    if (!q.ok) ++s.errors;
    while (!in_flight.empty() && in_flight.top() <= q.submit_ns)
      in_flight.pop();
    s.outstanding.push_back(static_cast<double>(in_flight.size()));
    in_flight.push(q.end_ns());
    s.total_ms.push_back(static_cast<double>(q.total_ns()) * 1e-6);
    s.host_us.push_back(static_cast<double>(q.latency_ns) * 1e-3);
    s.lag_us.push_back(static_cast<double>(q.submit_ns - q.intended_ns) *
                       1e-3);
    last = std::max(last, q.end_ns());
  }
  if (last > first) s.seconds = static_cast<double>(last - first) * 1e-9;
  return s;
}

/// Counters summed over tenants.
struct HostCounters {
  std::uint64_t sweeps = 0, detections = 0, groups_recovered = 0;
  std::uint64_t quarantines = 0, epoch_retries = 0, epoch_fallbacks = 0;
  std::uint64_t writer_sections = 0, coverage_alarms = 0;
  std::vector<std::uint64_t> tenant_sweeps;
  double scan_bytes_per_s = 0.0;
};

HostCounters counters(const serve::ModelHost& host, Tracer& tr) {
  ScopedSpan sp(tr, "serve.stats");
  const serve::HostStats st = host.stats();
  HostCounters c;
  for (const auto& t : st.tenants) {
    c.sweeps += t.sweeps;
    c.tenant_sweeps.push_back(t.sweeps);
    c.detections += t.detections;
    c.groups_recovered += t.groups_recovered;
    c.quarantines += t.quarantines;
    c.epoch_retries += t.epoch_retries;
    c.epoch_fallbacks += t.epoch_fallbacks;
    c.writer_sections += t.writer_sections;
    c.coverage_alarms += t.coverage_alarms;
    c.scan_bytes_per_s += static_cast<double>(t.scan_bytes_per_sec);
  }
  return c;
}

/// One injection and what the benchmark observed of it.
struct InjectionOutcome {
  std::size_t flips = 0;
  bool detected = false;
  std::int64_t ttd_ns = -1;  ///< TenantStats::last_ttd_ns after detection
};

/// Attacker thread of serve_attack: injects on schedule until stopped,
/// waiting for each injection's detection before the next one.
class Attacker {
 public:
  Attacker(serve::ModelHost& host, std::vector<Injection> schedule,
           Tracer& tr)
      : host_(host), schedule_(std::move(schedule)), tr_(tr) {
    thread_ = std::thread([this] { loop(); });
  }
  ~Attacker() { finish(); }
  Attacker(const Attacker&) = delete;
  Attacker& operator=(const Attacker&) = delete;

  /// Stop after the injection in progress; returns every outcome.
  const std::vector<InjectionOutcome>& finish() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
    return outcomes_;
  }

 private:
  void loop() {
    const auto t0 = Clock::now();
    for (const Injection& inj : schedule_) {
      const auto due = t0 + std::chrono::nanoseconds(inj.t_ns);
      while (!stop_ && Clock::now() < due)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      if (stop_) return;
      InjectionOutcome out;
      try {
        inject_and_wait(inj, out);
      } catch (const std::exception&) {
        // A throwing host call leaves the outcome undetected: a failure.
      }
      outcomes_.push_back(out);
    }
  }

  void inject_and_wait(const Injection& inj, InjectionOutcome& out) {
    const std::uint64_t before =
        host_.stats().tenants.at(inj.tenant).detections;
    const std::int64_t t_inject = now_ns();
    out.flips = host_.inject_faults(inj.tenant, 1, inj.seed);
    tr_.record("serve.inject_faults", t_inject, now_ns());
    while (now_ns() - t_inject < kDetectTimeoutNs) {
      const serve::TenantStats st = host_.stats().tenants.at(inj.tenant);
      if (st.detections > before) {
        out.detected = true;
        out.ttd_ns = st.last_ttd_ns;
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    tr_.record("serve.detect_wait", t_inject, now_ns());
  }

  serve::ModelHost& host_;
  std::vector<Injection> schedule_;
  Tracer& tr_;
  std::vector<InjectionOutcome> outcomes_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after every member it reads
};

}  // namespace

PassOutput run_serve(const RunContext& ctx, Tracer& tr, bool attack) {
  PassOutput out;
  Result& res = out.e2e;

  // ---- set-up, repeated; the last one serves ----
  std::vector<double> setup_s;
  std::unique_ptr<Serving> serving;
  for (int rep = 0; rep < ctx.setups; ++rep) {
    serving.reset();
    const std::int64_t t0 = rep == 0 ? ctx.start_ns : now_ns();
    serving = set_up(ctx, rep, tr);
    setup_s.push_back(seconds_since(t0));
  }
  res.set("setup_s", "s", median(setup_s), setup_s);
  serve::ModelHost& host = *serving->host;

  // ---- seeded inputs and their clean reference predictions ----
  const auto& ds = host.dataset(0);
  std::vector<nn::Tensor> pool;
  std::vector<int> labels;
  for (const std::uint32_t idx :
       pick_distinct(derive_seed(ctx.seed, kPoolStream), kPoolImages,
                     static_cast<std::uint32_t>(ds.test_size()))) {
    data::Batch b = ds.test_batch(idx, 1);
    pool.push_back(std::move(b.images));
    labels.push_back(b.labels.at(0));
  }
  const std::vector<int> ref = reference_predictions(host, pool, labels, res);

  const std::vector<double> cdf = zipf_cdf(kTenants, kZipfS);
  const auto steady_arrivals = poisson_arrivals(
      derive_seed(ctx.seed, kSteadyStream), kSteadyRate,
      static_cast<std::int64_t>(ctx.seconds * 1e9), cdf,
      kPoolImages);

  std::unique_ptr<Attacker> attacker;
  if (attack) {
    attacker = std::make_unique<Attacker>(
        host,
        injection_schedule(derive_seed(ctx.seed, kInjectStream),
                           static_cast<std::int64_t>(ctx.seconds * 20e9),
                           kInjectIntervalNs, kInjectJitterNs, kTenants),
        tr);
  }

  // ---- steady phase at the fixed offered rate ----
  std::vector<std::vector<Req>> phases;  // steady, then each ladder rung
  const HostCounters c0 = counters(host, tr);
  const std::int64_t steady_t0 = now_ns();
  phases.push_back(run_traffic(host, pool, steady_arrivals, tr));
  const double steady_elapsed = seconds_since(steady_t0);
  const HostCounters c1 = counters(host, tr);
  const PhaseStats steady = analyze(phases.back());

  // ---- capacity ladder (traced pass only) ----
  const std::vector<double> grid = rate_grid(kGridLow, kGridHigh);
  std::vector<std::string> rung_log;
  int best = -1;
  if (ctx.layer_figures) {
    best = highest_passing_rung(grid.size(), [&](std::size_t i) {
      const double rate = grid[i];
      phases.push_back(run_traffic(
          host, pool,
          poisson_arrivals(derive_seed(ctx.seed, kRungStream + i), rate,
                           static_cast<std::int64_t>(kRungSeconds * 1e9),
                           cdf, kPoolImages),
          tr));
      const PhaseStats s = analyze(phases.back());
      const double p99 = quantile(s.total_ms, 0.99);
      const bool growing = backlog_growing(s.outstanding);
      const bool pass = s.shed == 0 && s.errors == 0 &&
                        p99 <= kP99LimitMs && !growing;
      char line[160];
      std::snprintf(line, sizeof line,
                    "rung %7.1f req/s: %zu req, p99 %.3f ms, outstanding "
                    "p99 %.0f%s -> %s",
                    rate, s.total_ms.size(), p99,
                    quantile(s.outstanding, 0.99),
                    growing ? " (growing)" : "", pass ? "pass" : "fail");
      rung_log.push_back(line);
      return pass;
    });
  }

  // ---- attack wrap-up: every injection detected ----
  std::vector<double> ttd_ms;
  if (attacker) {
    for (const InjectionOutcome& o : attacker->finish()) {
      res.check(o.flips == 1 && o.detected, "injection not detected");
      if (o.detected && o.ttd_ns >= 0)
        ttd_ms.push_back(static_cast<double>(o.ttd_ns) * 1e-6);
    }
  }
  const HostCounters c2 = counters(host, tr);

  // ---- output checks ----
  // serve_steady: every reply against the clean reference. serve_attack:
  // replies during an active corruption may differ by design, so only
  // the status is checked; then, after the last recovery, a final pass
  // of every input on every tenant must predict as the reference.
  for (const auto& phase : phases)
    for (const Req& q : phase) {
      const bool ok = q.submitted && q.ok &&
                      (attack || q.predicted == ref[q.input]);
      res.check(ok, !q.submitted ? "request shed"
                    : !q.ok      ? "error reply"
                                 : "prediction differs from reference");
    }
  if (attack) {
    for (std::size_t t = 0; t < kTenants; ++t)
      for (std::size_t i = 0; i < pool.size(); ++i) {
        const serve::InferenceResult r = host.infer(t, pool[i]);
        res.check(r.ok && r.predicted == ref[i],
                  "post-recovery prediction differs from reference");
      }
  }

  // ---- end-to-end metrics ----
  std::vector<double> w50;  // per-window medians: the in-run spread
  const std::size_t n = steady.total_ms.size();
  for (std::size_t w = 0; w < kWindows; ++w)
    w50.push_back(quantile(
        std::vector<double>(
            steady.total_ms.begin() +
                static_cast<std::ptrdiff_t>(n * w / kWindows),
            steady.total_ms.begin() +
                static_cast<std::ptrdiff_t>(n * (w + 1) / kWindows)),
        0.50));
  res.set("p50_ms", "ms", quantile(steady.total_ms, 0.50), w50);
  res.set("trials_per_s", "trials/s",
          static_cast<double>(c1.sweeps - c0.sweeps) / steady_elapsed);

  // ---- per-layer figures ----
  auto& L = out.layer;
  L["serve.p99_ms"] = quantile(steady.total_ms, 0.99);
  if (best >= 0) L["serve.max_rate_rps"] = grid[static_cast<std::size_t>(best)];
  L["serve.host_p50_us"] = quantile(steady.host_us, 0.50);
  L["serve.host_p99_us"] = quantile(steady.host_us, 0.99);
  L["serve.outstanding_p99"] = quantile(steady.outstanding, 0.99);
  L["serve.gen_lag_p99_us"] = quantile(steady.lag_us, 0.99);
  double coverage_us = 0.0;  // worst tenant: elapsed / sweeps completed
  for (std::size_t t = 0; t < kTenants; ++t) {
    const double sweeps =
        static_cast<double>(c1.tenant_sweeps[t] - c0.tenant_sweeps[t]);
    coverage_us = std::max(coverage_us, steady_elapsed * 1e6 /
                                            std::max(sweeps, 1.0));
  }
  L["serve.coverage_period_us"] = coverage_us;
  L["serve.scan_bytes_per_s"] = c2.scan_bytes_per_s;
  L["serve.coverage_alarms"] =
      static_cast<double>(c2.coverage_alarms - c0.coverage_alarms);
  L["serve.ttd_p50_ms"] = quantile(ttd_ms, 0.50);
  L["serve.ttd_max_ms"] = quantile(ttd_ms, 1.0);
  L["serve.detections"] = static_cast<double>(c2.detections - c0.detections);
  L["serve.groups_recovered"] =
      static_cast<double>(c2.groups_recovered - c0.groups_recovered);
  L["serve.quarantines"] =
      static_cast<double>(c2.quarantines - c0.quarantines);
  L["serve.epoch_retries"] =
      static_cast<double>(c2.epoch_retries - c0.epoch_retries);
  L["serve.epoch_fallbacks"] =
      static_cast<double>(c2.epoch_fallbacks - c0.epoch_fallbacks);
  L["serve.writer_sections"] =
      static_cast<double>(c2.writer_sections - c0.writer_sections);

  std::printf("%s: %zu steady requests at %.0f req/s over %.2f s "
              "(p50 %.3f ms, p99 %.3f ms), %zu ladder rungs\n",
              ctx.workload.c_str(), n, kSteadyRate, steady.seconds,
              quantile(steady.total_ms, 0.50), L["serve.p99_ms"],
              rung_log.size());
  for (const std::string& l : rung_log) std::printf("  %s\n", l.c_str());
  if (attack)
    std::printf("  %zu injections detected, ttd p50 %.3f ms max %.3f ms\n",
                ttd_ms.size(), L["serve.ttd_p50_ms"], L["serve.ttd_max_ms"]);
  return out;
}

}  // namespace perfbench
