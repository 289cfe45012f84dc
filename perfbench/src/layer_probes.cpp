// Per-layer probes: each public call a workload depends on, timed from
// outside on the resnet20 bundle and repeated (medians reported).
#include <cstdio>
#include <cstring>
#include <vector>

#include "campaign/campaign.h"
#include "common/thread_pool.h"
#include "core/integrity_scheme.h"
#include "core/scan_scheduler.h"
#include "core/scan_session.h"
#include "core/scheme_registry.h"
#include "exp/workspace.h"
#include "qnn/engine.h"
#include "schedule.h"
#include "sim/netdesc.h"
#include "sim/timing.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace radar;

/// Median wall time in ns of `reps` calls of `fn`, each recorded as a
/// span named `name`.
template <typename Fn>
double median_ns(Tracer& tr, const char* name, int reps, Fn&& fn) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    fn();
    const std::int64_t t1 = now_ns();
    tr.record(name, t0, t1);
    v.push_back(static_cast<double>(t1 - t0));
  }
  return median(v);
}

struct SchemeCase {
  const char* id;
  std::int64_t group_size;
};
// The schemes at the workloads' parameters: radar2 / radar3 G=8
// interleaved serve; radar2 G=8 and crc13 G=32 run in the campaigns.
const SchemeCase kSchemeCases[] = {{"radar2", 8}, {"radar3", 8},
                                   {"crc13", 32}};

std::unique_ptr<core::IntegrityScheme> make_scheme(const SchemeCase& c) {
  core::SchemeParams p;
  p.group_size = c.group_size;
  p.interleave = true;
  return core::SchemeRegistry::instance().create(c.id, p);
}

}  // namespace

std::map<std::string, double> run_layer_probes(Tracer& tr) {
  std::map<std::string, double> L;
  exp::ModelBundle bundle;
  L["exp.make_bundle_ms"] =
      1e-6 * median_ns(tr, "exp.make_bundle", 1, [&] {
        bundle = exp::make_bundle(kModel, true, false);
      });
  quant::QuantizedModel& qm = *bundle.qmodel;
  const double weight_bytes = static_cast<double>(qm.weight_bytes());

  // ---- qnn: serial engine as serve workers run it ----
  qnn::InferenceEngine engine(qm, qnn::EngineKind::kBatched, nullptr);
  const nn::Tensor calib = bundle.dataset->test_batch(0, 128).images;
  L["qnn.calibrate_ms"] =
      1e-6 * median_ns(tr, "qnn.calibrate", 1, [&] { engine.calibrate(calib); });
  qnn::QnnScratch scratch;
  nn::Tensor logits;
  const nn::Tensor x1 = bundle.dataset->test_batch(0, 1).images;
  engine.forward_into(x1, scratch, logits);  // warm-up
  const double b1_ns = median_ns(tr, "qnn.forward_b1", 200, [&] {
    engine.forward_into(x1, scratch, logits);
  });
  L["qnn.forward_b1_us"] = b1_ns * 1e-3;
  L["qnn.forward_b1_gmac_s"] =
      static_cast<double>(sim::resnet20_shape().total_macs()) / b1_ns;
  const nn::Tensor x64 = bundle.dataset->test_batch(0, 64).images;
  engine.forward_into(x64, scratch, logits);
  L["qnn.forward_b64_img_s"] =
      64e9 / median_ns(tr, "qnn.forward_b64", 5, [&] {
        engine.forward_into(x64, scratch, logits);
      });
  {
    ThreadPool pool(4);
    engine.set_pool(&pool);
    engine.forward_into(x64, scratch, logits);
    L["qnn.forward_b64_pool_img_s"] =
        64e9 / median_ns(tr, "qnn.forward_b64_pool", 5, [&] {
          engine.forward_into(x64, scratch, logits);
        });
    engine.set_pool(nullptr);
  }
  // Eval-subset accuracy as campaign_eval replicas run it (serial engine).
  bundle.engine = std::make_unique<qnn::InferenceEngine>(
      qm, qnn::EngineKind::kBatched, nullptr);
  exp::accuracy_on_subset(bundle, 128);  // calibrate + cache batches
  L["exp.accuracy_subset_ms"] =
      1e-6 * median_ns(tr, "exp.accuracy_on_subset", 3,
                       [&] { exp::accuracy_on_subset(bundle, 128); });

  // ---- core: attach and full scans per scheme ----
  double radar2_scan_ns = 0.0;
  for (const SchemeCase& c : kSchemeCases) {
    auto scheme = make_scheme(c);
    const std::string id = c.id;
    L["core.attach_ms." + id] =
        1e-6 * median_ns(tr, "core.attach", 3, [&] { scheme->attach(qm); });
    const double scan_ns = median_ns(tr, "core.scan", 20, [&] {
      const core::DetectionReport r = scheme->scan(qm);
      RADAR_REQUIRE(!r.attack_detected(), "probe model scans dirty");
    });
    L["core.scan_gb_s." + id] = weight_bytes / scan_ns;
    if (id == "radar2") radar2_scan_ns = scan_ns;
  }
  {
    std::vector<std::int8_t> src(static_cast<std::size_t>(weight_bytes), 1);
    std::vector<std::int8_t> dst(src.size());
    L["core.memcpy_gb_s"] =
        weight_bytes / median_ns(tr, "core.memcpy", 200, [&] {
          std::memcpy(dst.data(), src.data(), src.size());
          __asm__ __volatile__("" : : "r"(dst.data()) : "memory");
        });
  }

  auto radar2 = make_scheme(kSchemeCases[0]);
  radar2->attach(qm);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    core::ScanSession session(*radar2, threads);
    core::DetectionReport report;
    session.scan_into(qm, report);  // warm-up (spawns the pool)
    L["core.session_t" + std::to_string(threads) + "_gb_s"] =
        weight_bytes / median_ns(tr, "core.session_scan", 20,
                                 [&] { session.scan_into(qm, report); });
  }

  // ---- recovery and restore ----
  {
    const quant::ArenaSnapshot clean = qm.snapshot();
    SplitMix rng(0x5EC0);
    std::vector<double> recover_ns;
    for (int rep = 0; rep < 20; ++rep) {
      for (int f = 0; f < 4; ++f) {
        const std::size_t layer = rng.below(qm.num_layers());
        qm.flip_bit(layer, static_cast<std::int64_t>(rng.below(
                               static_cast<std::uint64_t>(qm.layer(layer).size()))),
                    7);
      }
      const core::DetectionReport report = radar2->scan(qm);
      const std::int64_t t0 = now_ns();
      radar2->recover(qm, report, core::RecoveryPolicy::kReloadClean);
      const std::int64_t t1 = now_ns();
      tr.record("core.recover", t0, t1);
      recover_ns.push_back(static_cast<double>(t1 - t0));
      RADAR_REQUIRE(!radar2->scan(qm).attack_detected(),
                    "reload-clean recovery left flagged groups");
    }
    L["core.recover_us"] = median(recover_ns) * 1e-3;
    L["quant.restore_us"] =
        1e-3 * median_ns(tr, "quant.restore", 50, [&] { qm.restore(clean); });
  }

  // ---- scheduler slices at the serve defaults (epoch-guarded) ----
  {
    qm.enable_epoch_guard();
    core::ScanScheduler sched;
    core::ScanScheduler::Config cfg;
    cfg.budget_us = 500;
    cfg.chunk_bytes = 16 * 1024;
    sched.plan(*radar2, cfg);
    std::vector<double> slice_ns;
    for (int i = 0; i < 200; ++i) {
      const std::int64_t t0 = now_ns();
      const core::ScanScheduler::Slice s = sched.run_slice(qm);
      const std::int64_t t1 = now_ns();
      tr.record("core.run_slice", t0, t1);
      slice_ns.push_back(static_cast<double>(t1 - t0));
      RADAR_REQUIRE(!s.flagged, "probe model scans dirty");
    }
    L["core.slice_us"] = median(slice_ns) * 1e-3;
  }

  // ---- attack profiles, through a one-attacker campaign per kind ----
  for (const char* kind : {"random_msb", "rowhammer"}) {
    campaign::CampaignSpec spec;
    spec.name = "probe";
    spec.model = kModel;
    spec.trials = 20;
    campaign::AttackerSpec a;
    a.kind = kind;
    spec.attackers = {a};
    campaign::SchemeSpec s;
    s.params.group_size = 8;
    spec.schemes = {s};
    const std::int64_t t0 = now_ns();
    const campaign::CampaignReport r = campaign::CampaignRunner(1).run(spec);
    tr.record("campaign.run", t0, now_ns());
    L[std::string("attack.profile_ms.") + kind] =
        r.profile_seconds * 1e3 / spec.trials;
  }

  // ---- Table IV: measured scan overhead next to the paper and model ----
  L["core.table4_overhead_pct"] = 100.0 * radar2_scan_ns / b1_ns;
  const sim::TimingSimulator sim;
  const auto plain = sim.radar_seconds(sim::resnet20_shape(), 8, false);
  const auto inter = sim.radar_seconds(sim::resnet20_shape(), 8, true);
  std::printf("table IV (resnet20, G=8): measured full radar2 interleaved "
              "scan / batch-1 forward = %.2f%%; paper 3.56%% (5.27%% "
              "interleaved); sim/timing model %.2f%% (%.2f%% interleaved)\n",
              L["core.table4_overhead_pct"], plain.overhead_pct(),
              inter.overhead_pct());
  return L;
}

}  // namespace perfbench
