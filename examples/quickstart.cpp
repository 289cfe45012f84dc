// Quickstart: protect a quantized network with RADAR in ~40 lines.
//
//   1. Train a small CNN on a synthetic task (seconds on a laptop).
//   2. Quantize its conv/fc weights to int8 (the DRAM-resident state).
//   3. Attach a RadarScheme: interleaved groups, masked addition
//      checksums, 2-bit golden signatures.
//   4. Simulate a PBFA-style adversary flipping MSBs at run time.
//   5. Run verified inference: each layer is checked when the int8
//      engine fetches its weights, so the attack is detected and the
//      corrupted groups are zeroed before they are used.
#include <cstdio>

#include "attack/pbfa.h"
#include "core/scheme_registry.h"
#include "data/trainer.h"
#include "qnn/engine.h"

int main() {
  using namespace radar;

  // 1. A small residual network + synthetic 8-class dataset.
  nn::ResNetSpec spec;
  spec.num_classes = 8;
  spec.base_width = 8;
  spec.blocks_per_stage = {1, 1};
  spec.name = "quickstart-net";
  Rng rng(1);
  nn::ResNet model(spec, rng);

  data::SyntheticSpec dspec = data::synthetic_cifar_spec();
  dspec.num_classes = 8;
  dspec.image_size = 16;
  data::SyntheticDataset dataset(dspec, 1024, 512);

  data::TrainConfig tc;
  tc.epochs = 5;
  tc.batch_size = 32;
  tc.batches_per_epoch = 32;
  tc.lr = 0.005f;
  tc.verbose = false;
  std::printf("training %s (%lld params)...\n", spec.name.c_str(),
              static_cast<long long>(model.num_params()));
  const auto report = data::train(model, dataset, tc);
  std::printf("float test accuracy: %.1f%%\n", 100.0 * report.test_accuracy);

  // 2. Quantize to int8 — this is what sits in (attackable) DRAM.
  quant::QuantizedModel qm(model);
  std::printf("quantized %zu weight tensors, %lld int8 weights\n",
              qm.num_layers(), static_cast<long long>(qm.total_weights()));

  // 3. Attach RADAR by registry name ("radar2" = the 2-bit signatures of
  // Eq. (1); swap in "radar3", "crc13", "fletcher", ... to compare).
  core::SchemeParams params;
  params.group_size = 16;  // fine groups: tiny models have little redundancy
  params.interleave = true;  // groups of originally-interspersed weights
  auto scheme = core::SchemeRegistry::instance().create("radar2", params);
  scheme->attach(qm);
  std::printf("golden signatures: %lld bytes of secure on-chip storage\n",
              static_cast<long long>(scheme->signature_storage_bytes()));

  // The int8 inference engine runs the deployed weights. Its activation
  // scales are calibrated once, on the clean model.
  qnn::InferenceEngine engine(qm);
  engine.calibrate(dataset.test_batch(0, 64).images);

  auto accuracy = [&](const char* when) {
    const double acc = data::evaluate(engine, dataset);
    std::printf("%-28s %.1f%%\n", when, 100.0 * acc);
    return acc;
  };
  accuracy("accuracy (clean):");

  // 4. The adversary: progressive bit-flip attack on the int8 weights.
  attack::Pbfa pbfa;
  data::Batch attack_batch = dataset.attack_batch(16, 99);
  const attack::AttackResult atk = pbfa.run(qm, attack_batch, 12);
  std::printf("\nPBFA committed %zu flips (loss %.3f -> %.3f)\n",
              atk.flips.size(), atk.loss_before, atk.loss_after);
  accuracy("accuracy (after attack):");

  // 5. Verified inference: each layer is scanned on its fetch, and
  // flagged groups are zeroed (and re-signed) before the layer runs.
  data::Batch probe = dataset.test_batch(0, 4);
  qnn::QnnScratch scratch;
  nn::Tensor logits;
  core::DetectionReport detection;
  engine.forward_verified_into(probe.images, *scheme,
                               core::RecoveryPolicy::kZeroOut, scratch,
                               logits, detection);
  if (detection.attack_detected())
    std::printf("  !! alarm: %lld group(s) corrupted\n",
                static_cast<long long>(detection.num_flagged_groups()));
  std::printf("detections: %d, groups recovered: %lld\n",
              detection.attack_detected() ? 1 : 0,
              static_cast<long long>(detection.num_flagged_groups()));
  accuracy("accuracy (after recovery):");
  return 0;
}
