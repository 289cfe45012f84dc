// micro_qnn — int8 inference kernel throughput and end-to-end eval speedup.
//
// Two sections, both landing in BENCH_qnn.json (the inference-path
// counterpart of BENCH_scan.json):
//
//  1. Kernel throughput (GMAC/s) per ResNet-20 layer shape: the direct
//     7-loop convolution (direct_conv_i8, one sample per task over the
//     global pool) vs the batched im2col + tiled int8 GEMM path
//     (conv2d_i8_tiled_exec on the global pool), batch 8 — the engine's
//     kReference and kBatched kernels. Outputs are asserted bit-identical
//     before timing.
//
//  2. End-to-end: the trained tiny bundle's eval path (the accuracy
//     measurements every campaign trial with eval_subset > 0 pays) run
//     through the reference engine (direct conv per sample — the old
//     kernels) vs the batched engine. Logits must be byte-identical; the
//     images/sec ratio is the acceptance number (target >= 4x).
//
// JSON semantics: conv entries use bytes_per_op = MACs, so gb_per_sec
// reads as GMAC/s; eval entries are ns per full-test-split evaluation.
#include <algorithm>
#include <cstring>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "data/trainer.h"
#include "exp/workspace.h"
#include "qnn/engine.h"
#include "qnn/kernels.h"

namespace {

using namespace radar;

volatile float g_sink = 0.0f;

struct ConvCase {
  const char* name;
  qnn::ConvGeom geom;
  std::int64_t in_hw;
};

}  // namespace

int main() {
  bench::heading("micro_qnn", "int8 inference kernels + batched engine");
  bench::JsonReport json("qnn");
  Rng rng(7);

  // ---- section 1: conv kernel GMAC/s on ResNet-20 layer shapes ----
  const std::int64_t batch = 8;
  const std::vector<ConvCase> cases = {
      {"conv_stem_3x16_k3_32", {3, 16, 3, 1, 1}, 32},
      {"conv_s0_16x16_k3_32", {16, 16, 3, 1, 1}, 32},
      {"conv_s1_16x32_k3_s2", {16, 32, 3, 2, 1}, 32},
      {"conv_s1_32x32_k3_16", {32, 32, 3, 1, 1}, 16},
      {"conv_proj_16x32_k1_s2", {16, 32, 1, 2, 0}, 32},
      {"conv_s2_64x64_k3_8", {64, 64, 3, 1, 1}, 8},
  };
  std::printf("  %-26s %12s %12s %9s %9s %6s\n", "layer shape (batch 8)",
              "direct ns", "tiled ns", "dGMAC/s", "tGMAC/s", "x");
  bench::rule();
  for (const ConvCase& c : cases) {
    const std::int64_t hw = c.in_hw;
    const std::int64_t oh = c.geom.out_size(hw);
    const double macs =
        static_cast<double>(batch * c.geom.out_channels * oh * oh *
                            c.geom.in_channels * c.geom.kernel *
                            c.geom.kernel);
    std::vector<std::int8_t> w(static_cast<std::size_t>(
        c.geom.out_channels * c.geom.in_channels * c.geom.kernel *
        c.geom.kernel));
    for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    std::vector<std::int8_t> x(
        static_cast<std::size_t>(batch * c.geom.in_channels * hw * hw));
    for (auto& v : x) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    const std::vector<float> scale(
        static_cast<std::size_t>(c.geom.out_channels), 0.02f * 0.01f);
    const nn::RequantEpilogue epi{scale.data(), nullptr, false};
    const std::int64_t in_stride = c.geom.in_channels * hw * hw;
    const std::int64_t out_stride = c.geom.out_channels * oh * oh;
    ThreadPool& pool = ThreadPool::global();
    std::vector<float> yd(static_cast<std::size_t>(batch * out_stride));
    std::vector<float> yt(yd.size());
    auto run_direct = [&] {
      pool.parallel_for_chunks(
          static_cast<std::size_t>(batch),
          [&](std::size_t begin, std::size_t end) {
            for (std::size_t s = begin; s < end; ++s) {
              const auto si = static_cast<std::int64_t>(s);
              qnn::direct_conv_i8(x.data() + si * in_stride, w.data(),
                                  c.geom, hw, hw, epi,
                                  yd.data() + si * out_stride);
            }
          });
      g_sink = g_sink + yd[0];
    };
    qnn::QnnScratch scratch;
    auto run_tiled = [&] {
      qnn::conv2d_i8_tiled_exec(x.data(), w, c.geom, batch, hw, hw, epi,
                                scratch, yt.data(), &pool);
      g_sink = g_sink + yt[0];
    };

    // Bit-identity first, then time each path.
    run_direct();
    run_tiled();
    if (std::memcmp(yd.data(), yt.data(), sizeof(float) * yd.size()) != 0) {
      std::printf("  %-26s MISMATCH\n", c.name);
      return 1;
    }
    const double ns_direct = bench::measure_ns_per_op(run_direct);
    const double ns_tiled = bench::measure_ns_per_op(run_tiled);
    std::printf("  %-26s %12.0f %12.0f %9.2f %9.2f %5.1fx\n", c.name,
                ns_direct, ns_tiled, macs / ns_direct, macs / ns_tiled,
                ns_direct / ns_tiled);
    json.add(std::string(c.name) + "_direct", ns_direct, macs);
    json.add(std::string(c.name) + "_tiled", ns_tiled, macs);
  }

  // ---- section 2: end-to-end eval path on the trained tiny bundle ----
  exp::ModelBundle bundle = exp::load_or_train("tiny");
  const std::int64_t test_n = bundle.dataset->test_size();
  const std::int64_t calib_n = std::min<std::int64_t>(128, test_n);
  const nn::Tensor calib = bundle.dataset->test_batch(0, calib_n).images;
  qnn::InferenceEngine ref(*bundle.qmodel, qnn::EngineKind::kReference);
  qnn::InferenceEngine bat(*bundle.qmodel, qnn::EngineKind::kBatched);
  ref.calibrate(calib);
  bat.calibrate(calib);

  // Logit byte-identity over the whole test split.
  const nn::Tensor all = bundle.dataset->test_batch(0, test_n).images;
  const nn::Tensor lref = ref.forward(all);
  const nn::Tensor lbat = bat.forward(all);
  const bool identical =
      lref.shape() == lbat.shape() &&
      std::memcmp(lref.data(), lbat.data(),
                  sizeof(float) *
                      static_cast<std::size_t>(lref.numel())) == 0;

  const double acc_ref = data::evaluate(ref, *bundle.dataset, 64);
  const double acc_bat = data::evaluate(bat, *bundle.dataset, 64);
  // Best-of-3 (like micro_scan): the shared-core dev/CI boxes are noisy
  // and the acceptance ratio should reflect kernel speed, not scheduler
  // luck.
  double ns_ref = 1e30, ns_bat = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    ns_ref = std::min(ns_ref, bench::measure_ns_per_op([&] {
               g_sink = g_sink + static_cast<float>(data::evaluate(
                                     ref, *bundle.dataset, 64));
             }));
    ns_bat = std::min(ns_bat, bench::measure_ns_per_op([&] {
               g_sink = g_sink + static_cast<float>(data::evaluate(
                                     bat, *bundle.dataset, 64));
             }));
  }
  const double ips_ref = 1e9 * static_cast<double>(test_n) / ns_ref;
  const double ips_bat = 1e9 * static_cast<double>(test_n) / ns_bat;
  const double speedup = ns_ref / ns_bat;
  bench::rule();
  std::printf("  trained tiny eval path (%lld images, batch 64):\n",
              static_cast<long long>(test_n));
  std::printf("  %-28s %12.2f ms  (%8.0f images/sec, acc %.2f%%)\n",
              "eval_direct_conv", 1e-6 * ns_ref, ips_ref, 100.0 * acc_ref);
  std::printf("  %-28s %12.2f ms  (%8.0f images/sec, acc %.2f%%)\n",
              "eval_batched_engine", 1e-6 * ns_bat, ips_bat, 100.0 * acc_bat);
  std::printf("  %-28s %12.2fx\n", "eval_speedup", speedup);
  std::printf("  logits byte-identical: %s\n", identical ? "yes" : "NO");
  json.add("eval_direct_conv", ns_ref, static_cast<double>(test_n));
  json.add("eval_batched_engine", ns_bat, static_cast<double>(test_n));
  bench::note(
      "claim reproduced if eval_speedup >= 4 and logits are byte-identical "
      "(direct-conv engine reproduces the pre-PR qnn kernels)");
  json.write();
  return identical && acc_ref == acc_bat ? 0 : 1;
}
