// Edge deployment: the full system-level story.
//
// A quantized classifier serves inference requests from DRAM-resident
// weights while a rowhammer-capable attacker repeatedly corrupts them.
// RADAR is embedded in the serving loop (scan on every weight fetch, as
// in the paper's per-layer embedding); the example prints a run-time
// timeline of attacks, detections and recoveries, then reports the
// timing budget of the same deployment on the paper's full-size ResNet-18
// using the analytic platform model.
#include <cstdio>

#include "attack/pbfa.h"
#include "attack/rowhammer.h"
#include "core/scheme_registry.h"
#include "data/trainer.h"
#include "qnn/engine.h"
#include "sim/netdesc.h"
#include "sim/timing.h"

int main() {
  using namespace radar;

  // ---- Deploy a small quantized model ----
  nn::ResNetSpec spec;
  spec.num_classes = 6;
  spec.base_width = 8;
  spec.blocks_per_stage = {1, 1};
  spec.name = "edge-net";
  Rng rng(7);
  nn::ResNet model(spec, rng);

  data::SyntheticSpec dspec = data::synthetic_cifar_spec();
  dspec.num_classes = 6;
  dspec.image_size = 16;
  data::SyntheticDataset dataset(dspec, 1024, 384);
  data::TrainConfig tc;
  tc.epochs = 4;
  tc.batch_size = 32;
  tc.batches_per_epoch = 24;
  tc.lr = 0.005f;
  tc.verbose = false;
  data::train(model, dataset, tc);
  quant::QuantizedModel qm(model);

  // The weight arena lives in one DRAM bank of 1 KB rows, laid out
  // row-major from offset 0.
  attack::RowhammerConfig rh;
  rh.dram.banks = 1;
  rh.dram.row_bytes = 1024;
  rh.dram.mapping = sim::AddressMapping::kRowMajor;
  rh.dram.cell_vulnerability = 1e-3;
  rh.rows = 1;
  const std::int64_t arena_bytes = qm.arena().size_bytes();
  std::printf("deployed %lld int8 weights across %lld DRAM rows of %lld B\n",
              static_cast<long long>(qm.total_weights()),
              static_cast<long long>((arena_bytes + rh.dram.row_bytes - 1) /
                                     rh.dram.row_bytes),
              static_cast<long long>(rh.dram.row_bytes));

  // ---- Protect with RADAR ----
  // This model's layers are tiny (the fc layer has only 96 weights), so
  // pick fine groups — coarse groups on midget layers leave few groups
  // per layer and raise the chance that two flips land in one group with
  // canceling masked contributions. The 3-bit signature additionally
  // covers MSB-1 flips (paper §VIII).
  core::SchemeParams params;
  params.group_size = 16;
  auto scheme = core::SchemeRegistry::instance().create("radar3", params);
  scheme->attach(qm);
  std::printf("RADAR attached: %lld signature bytes in on-chip SRAM\n\n",
              static_cast<long long>(scheme->signature_storage_bytes()));

  // The int8 engine serves the requests; its activation scales are
  // calibrated once, on the clean weights.
  qnn::InferenceEngine engine(qm);
  engine.calibrate(dataset.test_batch(0, 64).images);
  qnn::QnnScratch scratch;
  nn::Tensor logits;
  core::DetectionReport detection;
  std::int64_t served = 0, detections = 0, groups_zeroed = 0;

  // ---- Serving loop under attack ----
  // The attacker alternates between blind hammering (soft-error-like
  // collateral flips) and targeted PBFA flips placed via rowhammer.
  attack::Pbfa pbfa;
  Rng attacker_rng(13);
  data::Batch attack_batch = dataset.attack_batch(16, 5);
  const quant::ArenaSnapshot golden = qm.snapshot();

  std::printf("%-6s %-26s %-10s %-12s %s\n", "tick", "event", "served",
              "detected", "accuracy");
  for (int tick = 1; tick <= 8; ++tick) {
    char event[64] = "quiet";
    if (tick == 3 || tick == 6) {
      // Targeted attack: PBFA picks and commits bits; rowhammer placement
      // of each succeeds with probability 0.9. Flips that failed placement
      // are reverted.
      std::size_t landed = 0;
      const attack::AttackResult plan = pbfa.run(qm, attack_batch, 3);
      for (const auto& f : plan.flips) {
        if (attacker_rng.bernoulli(0.9))
          ++landed;
        else
          qm.flip_bit(f.layer, f.index, f.bit);
      }
      std::snprintf(event, sizeof(event), "PBFA via rowhammer %zu/%zu",
                    landed, plan.flips.size());
    } else if (tick == 5) {
      // Blind hammering of one victim row holding weights.
      const attack::AttackResult burst =
          attack::rowhammer_attack(qm, rh, attacker_rng);
      std::snprintf(event, sizeof(event), "blind rowhammer (%zu flips)",
                    burst.flips.size());
    }

    data::Batch req = dataset.test_batch((tick * 16) % 256, 16);
    // Verified inference with the paper's per-layer embedding: each
    // weight tensor is checked on its fetch, right before use.
    engine.forward_verified_into(req.images, *scheme,
                                 core::RecoveryPolicy::kZeroOut, scratch,
                                 logits, detection);
    ++served;
    const bool detected = detection.attack_detected();
    detections += detected ? 1 : 0;
    groups_zeroed += detection.num_flagged_groups();

    const double acc = data::evaluate(engine, dataset);
    std::printf("%-6d %-26s %-10s %-12s %.1f%%\n", tick, event, "yes",
                detected ? "YES -> recovered" : "-", 100.0 * acc);
  }
  std::printf("\ntotals: %lld verified requests, %lld detections, "
              "%lld groups zeroed\n",
              static_cast<long long>(served),
              static_cast<long long>(detections),
              static_cast<long long>(groups_zeroed));
  qm.restore(golden);

  // ---- Timing budget at paper scale ----
  sim::TimingSimulator tsim;
  const auto shape = sim::resnet18_shape();
  const auto t = tsim.radar_seconds(shape, 512, true);
  std::printf(
      "\npaper-scale budget (ResNet-18 @224, G=512, interleaved): "
      "baseline %.3fs + detection %.3fs = %.2f%% overhead\n",
      t.baseline, t.detection, t.overhead_pct());
  std::printf("zero-out recovery of one group: %.1f us; full clean reload: "
              "%.1f ms\n",
              1e6 * tsim.zero_out_seconds(512),
              1e3 * tsim.reload_seconds(shape.total_weights()));
  return 0;
}
