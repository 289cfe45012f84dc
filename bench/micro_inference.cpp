// Microbenchmarks of the served int8 inference path and the embedded
// RADAR check on the host CPU (google-benchmark): how much a
// software-only deployment pays. ResNet-20 at batch 1, radar2 with
// interleaved groups; the group-size argument is G (8 and 512).
//
//   Int8Forward      — InferenceEngine::forward_into, no check;
//   VerifiedForward  — forward_verified_into: every layer rescanned on
//                      its fetch (the paper's per-layer embedding);
//   RadarScan        — one whole-model scan, no inference;
//   GoldenResign     — recomputing every golden signature.
//
// The per-layer overhead is VerifiedForward / Int8Forward - 1 at the same
// G (paper: 3.56% for ResNet-20, 5.27% interleaved).
#include <benchmark/benchmark.h>

#include <map>

#include "core/scheme.h"
#include "qnn/engine.h"

namespace {

using namespace radar;

struct Setup {
  Setup() : rng(3), model(nn::ResNetSpec::resnet20(10), rng), qm(model),
            engine(qm) {
    engine.calibrate(nn::Tensor::randn({16, 3, 32, 32}, rng));
    x = nn::Tensor::randn({1, 3, 32, 32}, rng);
  }

  /// radar2 scheme of group size `g`, attached on first use.
  core::RadarScheme& scheme(std::int64_t g) {
    auto& s = schemes[g];
    if (!s) {
      core::RadarConfig rc;
      rc.group_size = g;
      s = std::make_unique<core::RadarScheme>(rc);
      s->attach(qm);
    }
    return *s;
  }

  Rng rng;
  nn::ResNet model;
  quant::QuantizedModel qm;
  qnn::InferenceEngine engine;
  std::map<std::int64_t, std::unique_ptr<core::RadarScheme>> schemes;
  nn::Tensor x;
  qnn::QnnScratch scratch;
  nn::Tensor logits;
};

Setup& setup() {
  static Setup s;
  return s;
}

void BM_Int8ForwardBatch1(benchmark::State& state) {
  Setup& s = setup();
  for (auto _ : state) {
    s.engine.forward_into(s.x, s.scratch, s.logits);
    benchmark::DoNotOptimize(s.logits.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Int8ForwardBatch1);

void BM_VerifiedForwardBatch1(benchmark::State& state) {
  Setup& s = setup();
  core::RadarScheme& scheme = s.scheme(state.range(0));
  core::DetectionReport report;
  for (auto _ : state) {
    s.engine.forward_verified_into(s.x, scheme,
                                   core::RecoveryPolicy::kZeroOut, s.scratch,
                                   s.logits, report);
    benchmark::DoNotOptimize(s.logits.data());
    benchmark::ClobberMemory();
  }
  if (report.attack_detected()) state.SkipWithError("clean model flagged");
}
BENCHMARK(BM_VerifiedForwardBatch1)->Arg(8)->Arg(512);

void BM_RadarScanResnet20(benchmark::State& state) {
  Setup& s = setup();
  core::RadarScheme& scheme = s.scheme(state.range(0));
  for (auto _ : state) {
    auto report = scheme.scan(s.qm);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_RadarScanResnet20)->Arg(8)->Arg(512);

void BM_GoldenResign(benchmark::State& state) {
  Setup& s = setup();
  core::RadarScheme& scheme = s.scheme(state.range(0));
  for (auto _ : state) {
    scheme.resign(s.qm);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_GoldenResign)->Arg(8)->Arg(512);

}  // namespace
