// campaign_detect and campaign_eval: back-to-back CampaignRunner jobs on
// the resnet20 bundle.
//
// Each job is one CampaignRunner::run call (kFull mode, 4 trial threads,
// scan_threads 1) over random_msb and rowhammer attackers and the radar2
// G=8 interleaved and crc13 G=32 schemes. campaign_detect evaluates no
// accuracy (eval_subset 0): scans, attaches, recovery and restores do the
// work. campaign_eval forwards an eval subset after every trial: the
// batched serial forward does the work. Jobs repeat while another one
// fits into the run's time (at least one runs).
//
// Output checks. Every campaign_detect report (timing excluded) must equal
// the reference report of the same spec from a single-threaded
// kIncremental run, which the runner guarantees to be byte-identical to
// kFull and which costs little without accuracy evaluation. campaign_eval
// reports must pass sanity bounds (clean accuracy, detection of random
// MSB flips by radar2) and equal the report this checkout recorded for
// the same seed on its first run; a reference run would double the cost
// of every run.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "campaign/campaign.h"
#include "exp/workspace.h"
#include "schedule.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace radar;

constexpr std::size_t kTrialThreads = 4;
constexpr std::uint64_t kSpecStream = 10;
constexpr double kMinCleanAccuracy = 0.5;    ///< 10 classes: chance 0.1
constexpr double kMinMsbDetection = 0.9;     ///< radar2 vs random MSB flips

campaign::CampaignSpec make_spec(std::uint64_t seed, bool eval) {
  campaign::CampaignSpec s;
  s.name = eval ? "campaign_eval" : "campaign_detect";
  s.model = kModel;
  s.train = true;
  s.seed = derive_seed(seed, kSpecStream);
  s.trials = eval ? 2 : 1500;
  s.eval_subset = eval ? 256 : 0;
  s.policy = core::RecoveryPolicy::kZeroOut;
  s.fault_rates = {0.0};
  campaign::AttackerSpec msb;
  msb.kind = "random_msb";
  msb.flips = 10;
  campaign::AttackerSpec rh;
  rh.kind = "rowhammer";
  s.attackers = {msb, rh};
  campaign::SchemeSpec radar2;
  radar2.id = "radar2";
  radar2.params.group_size = 8;
  radar2.params.interleave = true;
  campaign::SchemeSpec crc13;
  crc13.id = "crc13";
  crc13.params.group_size = 32;
  s.schemes = {radar2, crc13};
  return s;
}

/// Sanity bounds of an accuracy-evaluating report.
bool sane(const campaign::CampaignReport& r, const campaign::CampaignSpec& s) {
  bool ok = r.clean_accuracy >= kMinCleanAccuracy && r.clean_accuracy <= 1.0;
  for (const campaign::CellStats& c : r.cells) {
    ok = ok && c.trials == s.trials && c.detection_rate >= 0.0 &&
         c.detection_rate <= 1.0 && c.mean_acc_attacked >= 0.0 &&
         c.mean_acc_attacked <= 1.0 && c.mean_acc_recovered >= 0.0 &&
         c.mean_acc_recovered <= 1.0;
    if (c.attacker.rfind("random_msb", 0) == 0 &&
        c.scheme.rfind("radar2", 0) == 0)
      ok = ok && c.detection_rate >= kMinMsbDetection;
  }
  return ok;
}

/// The report an earlier run in this checkout recorded at `path`; when
/// there is none yet, records `report` there and returns it.
std::string recorded_report(const std::string& path,
                            const std::string& report) {
  std::ifstream in(path);
  if (in) {
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }
  std::ofstream(path) << report;
  return report;
}

}  // namespace

PassOutput run_campaign(const RunContext& ctx, Tracer& tr, bool eval) {
  PassOutput out;
  Result& res = out.e2e;

  // ---- set-up: the primary replica's bundle load, repeated ----
  std::vector<double> setup_s;
  for (int rep = 0; rep < ctx.setups; ++rep) {
    const std::int64_t t0 = rep == 0 ? ctx.start_ns : now_ns();
    ScopedSpan sp(tr, "exp.make_bundle");
    const exp::ModelBundle b = exp::make_bundle(kModel, true, false);
    setup_s.push_back(seconds_since(t0));
  }
  res.set("setup_s", "s", median(setup_s), setup_s);

  // ---- jobs, back to back, until the run's time is used ----
  const campaign::CampaignSpec spec = make_spec(ctx.seed, eval);
  const campaign::CampaignRunner runner(kTrialThreads, 1,
                                        campaign::ScanMode::kFull);
  std::vector<double> job_s, profile_s, eval_s, img_per_s;
  std::vector<std::string> reports;
  const std::int64_t t_start = now_ns();
  while (job_s.empty() ||
         seconds_since(t_start) + job_s.back() <= ctx.seconds) {
    const std::int64_t t0 = now_ns();
    const campaign::CampaignReport r = runner.run(spec);
    const std::int64_t t1 = now_ns();
    job_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    const auto eval_ns = static_cast<std::int64_t>(r.eval_seconds * 1e9);
    const auto profile_ns = static_cast<std::int64_t>(r.profile_seconds * 1e9);
    const std::uint64_t job = tr.record("campaign.run", t0, t1);
    tr.record("campaign.primary_replica", t0, t1 - eval_ns - profile_ns, job);
    tr.record("campaign.profile", t1 - eval_ns - profile_ns, t1 - eval_ns,
              job);
    tr.record("campaign.eval", t1 - eval_ns, t1, job);
    profile_s.push_back(r.profile_seconds);
    eval_s.push_back(r.eval_seconds);
    if (r.eval_seconds > 0.0)
      img_per_s.push_back(static_cast<double>(r.eval_images) /
                          r.eval_seconds);
    reports.push_back(r.to_json(/*include_timing=*/false));
    if (eval) res.check(sane(r, spec), "campaign report out of sanity bounds");
  }

  // ---- output check: every job against the reference report ----
  std::string reference;
  if (eval) {
    reference = res.failed == 0
                    ? recorded_report(ctx.out_dir + "/" + ctx.workload +
                                          "-seed" + std::to_string(ctx.seed) +
                                          ".report.json",
                                      reports.front())
                    : reports.front();
  } else {
    reference = campaign::CampaignRunner(1, 1,
                                         campaign::ScanMode::kIncremental)
                    .run(spec)
                    .to_json(false);
  }
  for (const std::string& r : reports)
    res.check(r == reference, "campaign report differs from reference");

  const double trials = static_cast<double>(spec.num_trials_total());
  std::vector<double> job_ms, trials_per_s;
  double total_s = 0.0;
  for (const double s : job_s) {
    job_ms.push_back(s * 1e3);
    trials_per_s.push_back(trials / s);
    total_s += s;
  }
  res.set("p50_ms", "ms", quantile(job_ms, 0.50), job_ms);
  res.set("trials_per_s", "trials/s",
          trials * static_cast<double>(job_s.size()) / total_s, trials_per_s);

  auto& L = out.layer;
  L["campaign.profile_s"] = median(profile_s);
  L["campaign.eval_s"] = median(eval_s);
  L["campaign.img_per_s"] = median(img_per_s);
  // Replica builds are not visible from outside the runner: estimate them
  // as the serial primary plus one (parallel) worker build per phase.
  L["campaign.replica_share"] = 3.0 * median(setup_s) / median(job_s);

  std::printf("%s: %zu job(s) of %zu trials, median %.3f s (profile %.3f s, "
              "eval %.3f s)\n",
              ctx.workload.c_str(), job_s.size(), spec.num_trials_total(),
              median(job_s), median(profile_s), median(eval_s));
  return out;
}

}  // namespace perfbench
