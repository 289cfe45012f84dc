// Differential battery for the batched int8 inference engine: the tiled
// im2col+GEMM conv kernel must match a scalar reference and the direct
// conv kernel BIT-exactly (int32 accumulation is exact, and both paths
// share one epilogue expression), across random geometries, odd strides
// and paddings, 1x1 and large kernels, batch sizes 1..N and every SIMD
// dispatch level; the linear GEMM likewise — plus the zero-allocation
// guarantee of the steady-state forward loop.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <tuple>

#include "common/cpu_features.h"
#include "common/thread_pool.h"
#include "core/scheme_registry.h"
#include "qnn/engine.h"
#include "qnn/kernels.h"
#include "quant/qmodel.h"

// ---- counting global allocator (zero-allocation assertions) ----
namespace {
std::atomic<std::size_t> g_live_allocs{0};
}

void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  ++g_live_allocs;
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// Out of line: inlined into a caller, free() would meet the pointer of
// the operator new above and trip -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace radar::qnn {
namespace {

std::vector<std::int8_t> random_codes(std::size_t n, Rng& rng) {
  std::vector<std::int8_t> v(n);
  for (auto& x : v) x = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  return v;
}

/// One conv problem on raw int8 buffers: NCHW activations, [Cout, Cin,
/// K, K] weights and an explicit per-channel requant epilogue.
struct ConvProblem {
  ConvGeom geom;
  std::int64_t n = 1, h = 1, w = 1;
  std::vector<std::int8_t> x, wt;
  std::vector<float> scale, bias;
  bool relu = false;

  nn::RequantEpilogue epi() const {
    return {scale.data(), bias.empty() ? nullptr : bias.data(), relu};
  }
  std::int64_t oh() const { return geom.out_size(h); }
  std::int64_t ow() const { return geom.out_size(w); }
  nn::Tensor output() const {
    return nn::Tensor({n, geom.out_channels, oh(), ow()});
  }
};

/// Random codes and per-channel epilogue for one geometry. Scales vary
/// per channel (as the engine's folded BN scales do).
ConvProblem random_problem(std::int64_t ci, std::int64_t co, std::int64_t k,
                           std::int64_t stride, std::int64_t pad,
                           std::int64_t h, std::int64_t w, std::int64_t n,
                           bool with_bias, bool relu, Rng& rng) {
  ConvProblem p;
  p.geom.in_channels = ci;
  p.geom.out_channels = co;
  p.geom.kernel = k;
  p.geom.stride = stride;
  p.geom.padding = pad;
  p.n = n;
  p.h = h;
  p.w = w;
  p.relu = relu;
  p.wt = random_codes(static_cast<std::size_t>(co * ci * k * k), rng);
  for (std::int64_t c = 0; c < co; ++c) {
    p.scale.push_back(0.0008f * (1.0f + 0.05f * static_cast<float>(c)));
    if (with_bias) p.bias.push_back(0.1f * static_cast<float>(rng.normal()));
  }
  p.x = random_codes(static_cast<std::size_t>(n * ci * h * w), rng);
  return p;
}

/// In-test scalar reference: the direct convolution polynomial with the
/// exact epilogue expression of the kernels.
nn::Tensor scalar_conv_ref(const ConvProblem& p) {
  const ConvGeom& g = p.geom;
  const std::int64_t oh = p.oh(), ow = p.ow();
  nn::Tensor y = p.output();
  for (std::int64_t s = 0; s < p.n; ++s) {
    const std::int8_t* xs = p.x.data() + s * g.in_channels * p.h * p.w;
    for (std::int64_t co = 0; co < g.out_channels; ++co) {
      const auto c = static_cast<std::size_t>(co);
      const float b = p.bias.empty() ? 0.0f : p.bias[c];
      for (std::int64_t yo = 0; yo < oh; ++yo) {
        for (std::int64_t xo = 0; xo < ow; ++xo) {
          std::int32_t acc = 0;
          for (std::int64_t ci = 0; ci < g.in_channels; ++ci) {
            for (std::int64_t kh = 0; kh < g.kernel; ++kh) {
              for (std::int64_t kw = 0; kw < g.kernel; ++kw) {
                const std::int64_t yi = yo * g.stride - g.padding + kh;
                const std::int64_t xi = xo * g.stride - g.padding + kw;
                if (yi < 0 || yi >= p.h || xi < 0 || xi >= p.w) continue;
                acc += static_cast<std::int32_t>(
                           xs[(ci * p.h + yi) * p.w + xi]) *
                       p.wt[static_cast<std::size_t>(
                           ((co * g.in_channels + ci) * g.kernel + kh) *
                               g.kernel +
                           kw)];
              }
            }
          }
          const float v = static_cast<float>(acc) * p.scale[c] + b;
          y[y.idx4(s, co, yo, xo)] = (p.relu && v < 0.0f) ? 0.0f : v;
        }
      }
    }
  }
  return y;
}

/// direct_conv_i8 sample by sample (the engine's kReference kernel).
nn::Tensor direct_conv(const ConvProblem& p) {
  nn::Tensor y = p.output();
  const std::int64_t in_stride = p.geom.in_channels * p.h * p.w;
  const std::int64_t out_stride = p.geom.out_channels * p.oh() * p.ow();
  for (std::int64_t s = 0; s < p.n; ++s)
    direct_conv_i8(p.x.data() + s * in_stride, p.wt.data(), p.geom, p.h, p.w,
                   p.epi(), y.data() + s * out_stride);
  return y;
}

/// conv2d_i8_tiled_exec over the whole batch (the kBatched kernel).
nn::Tensor tiled_conv(const ConvProblem& p, QnnScratch& scratch,
                      ThreadPool* pool) {
  nn::Tensor y = p.output();
  conv2d_i8_tiled_exec(p.x.data(), p.wt, p.geom, p.n, p.h, p.w, p.epi(),
                       scratch, y.data(), pool);
  return y;
}

void expect_bitwise_equal(const nn::Tensor& a, const nn::Tensor& b,
                          const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(float) * static_cast<std::size_t>(a.numel())),
            0)
      << what << ": outputs are not bit-identical";
}

/// Every SIMD dispatch level this host supports.
std::vector<cpu::SimdLevel> supported_levels() {
  std::vector<cpu::SimdLevel> out;
  for (int l = 0; l < cpu::kNumSimdLevels; ++l) {
    const auto lvl = static_cast<cpu::SimdLevel>(l);
    if (cpu::level_supported(lvl)) out.push_back(lvl);
  }
  return out;
}

TEST(TiledConv, MatchesScalarAndDirectAcrossGeometries) {
  Rng rng(11);
  struct Geom {
    std::int64_t ci, co, k, stride, pad, h, w, n;
  };
  std::vector<Geom> cases = {
      {1, 1, 1, 1, 0, 4, 4, 1},   // degenerate 1x1
      {3, 8, 1, 1, 0, 9, 7, 2},   // 1x1 pointwise, odd sizes
      {3, 4, 1, 2, 0, 9, 9, 2},   // strided 1x1 (projection shortcut)
      {2, 5, 3, 1, 1, 8, 8, 3},   // classic 3x3
      {3, 4, 3, 2, 1, 11, 9, 2},  // strided 3x3, odd map
      {4, 6, 3, 3, 2, 10, 13, 1}, // stride 3, fat padding
      {2, 3, 5, 1, 2, 9, 9, 2},   // 5x5
      {1, 7, 5, 2, 0, 11, 11, 4}, // 5x5 no padding, stride 2
      {2, 2, 7, 1, 3, 12, 10, 2}, // large kernel
      {5, 17, 3, 1, 1, 6, 6, 3},  // co not a multiple of the tile width
  };
  // A few random geometries on top of the crafted ones.
  for (int r = 0; r < 8; ++r) {
    Geom g;
    g.k = 1 + 2 * rng.uniform_int(0, 2);  // 1/3/5
    g.stride = 1 + rng.uniform_int(0, 2);
    g.pad = rng.uniform_int(0, 2);
    g.ci = 1 + rng.uniform_int(0, 4);
    g.co = 1 + rng.uniform_int(0, 8);
    g.h = g.k + rng.uniform_int(0, 6);
    g.w = g.k + rng.uniform_int(0, 6);
    g.n = 1 + rng.uniform_int(0, 3);
    cases.push_back(g);
  }
  const auto levels = supported_levels();
  QnnScratch scratch;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Geom& c = cases[i];
    const std::string what = "ci=" + std::to_string(c.ci) + " co=" +
                             std::to_string(c.co) + " k=" +
                             std::to_string(c.k) + " s=" +
                             std::to_string(c.stride) + " p=" +
                             std::to_string(c.pad) + " hw=" +
                             std::to_string(c.h) + "x" + std::to_string(c.w) +
                             " n=" + std::to_string(c.n);
    // Every other case also exercises the fused ReLU.
    const ConvProblem p = random_problem(c.ci, c.co, c.k, c.stride, c.pad,
                                         c.h, c.w, c.n, /*with_bias=*/true,
                                         /*relu=*/i % 2 == 1, rng);
    const nn::Tensor ref = scalar_conv_ref(p);
    for (const cpu::SimdLevel lvl : levels) {
      cpu::ScopedSimdLevel guard(lvl);
      const std::string at = what + " level " + cpu::level_name(lvl);
      expect_bitwise_equal(ref, direct_conv(p), at + " (direct)");
      expect_bitwise_equal(ref, tiled_conv(p, scratch, nullptr),
                           at + " (tiled, inline)");
      expect_bitwise_equal(ref, tiled_conv(p, scratch, &ThreadPool::global()),
                           at + " (tiled, global pool)");
    }
  }
}

TEST(TiledConv, EveryDispatchLevelMatchesScalar) {
  // The register-tiled GEMM variants (AVX2 / AVX-512) against the scalar
  // tile, bit for bit, across geometries chosen to hit the vector column
  // chunks (16 / 32 wide), their scalar column tails, odd-K tails, and
  // the mt < 4 row edge. Output patch counts per image span 1..~256 so
  // every chunk/tail seam of both vector widths is crossed.
  Rng rng(31);
  struct Geom {
    std::int64_t ci, co, k, stride, pad, h, w, n;
  };
  const std::vector<Geom> cases = {
      {1, 1, 1, 1, 0, 1, 1, 1},    // single output column
      {3, 5, 3, 1, 1, 5, 3, 1},    // tiny odd patch count, mt tail
      {2, 4, 3, 1, 1, 4, 4, 2},    // p = 32 exactly (one AVX-512 chunk)
      {2, 4, 3, 1, 1, 4, 4, 3},    // p = 48: chunk + AVX2-only chunk
      {3, 8, 1, 1, 0, 17, 3, 1},   // odd K = 3, p = 51
      {4, 9, 3, 2, 1, 15, 15, 2},  // strided, co % 4 != 0
      {5, 17, 5, 1, 2, 9, 9, 2},   // K = 125 (odd), wide co tail
      {8, 12, 3, 1, 1, 16, 16, 1}, // p = 256: full tile, even K = 72
  };
  QnnScratch scratch;
  for (const Geom& c : cases) {
    const ConvProblem p =
        random_problem(c.ci, c.co, c.k, c.stride, c.pad, c.h, c.w, c.n,
                       /*with_bias=*/true, /*relu=*/false, rng);
    nn::Tensor want;
    {
      cpu::ScopedSimdLevel guard(cpu::SimdLevel::kScalar);
      want = tiled_conv(p, scratch, &ThreadPool::global());
    }
    expect_bitwise_equal(scalar_conv_ref(p), want, "scalar level");
    for (const cpu::SimdLevel lvl : supported_levels()) {
      cpu::ScopedSimdLevel guard(lvl);
      expect_bitwise_equal(want, tiled_conv(p, scratch, &ThreadPool::global()),
                           std::string("level ") + cpu::level_name(lvl));
    }
  }
}

TEST(TiledConv, NoBiasMatches) {
  Rng rng(12);
  const ConvProblem p = random_problem(3, 5, 3, 1, 1, 7, 7, 2,
                                       /*with_bias=*/false,
                                       /*relu=*/false, rng);
  QnnScratch scratch;
  const nn::Tensor direct = direct_conv(p);
  expect_bitwise_equal(scalar_conv_ref(p), direct, "no-bias (direct)");
  expect_bitwise_equal(direct, tiled_conv(p, scratch, &ThreadPool::global()),
                       "no-bias (tiled)");
}

/// One fully-connected problem on raw buffers: x [n, f], w [out, f].
struct LinearProblem {
  std::int64_t n = 1, f = 1, out = 1;
  std::vector<std::int8_t> x, w;
  std::vector<float> scale, bias;

  LinearProblem(std::int64_t n_, std::int64_t f_, std::int64_t out_, Rng& rng)
      : n(n_), f(f_), out(out_) {
    w = random_codes(static_cast<std::size_t>(out * f), rng);
    for (std::int64_t i = 0; i < out; ++i) {
      scale.push_back(0.0006f * (1.0f + 0.1f * static_cast<float>(i)));
      bias.push_back(0.1f * static_cast<float>(rng.normal()));
    }
    x = random_codes(static_cast<std::size_t>(n * f), rng);
  }

  /// gemm_i8_dot over rows [0, n), issued as two row ranges split at
  /// `split` (any split must give the same bytes).
  nn::Tensor run(std::int64_t split) const {
    nn::Tensor y({n, out});
    const nn::RequantEpilogue epi{scale.data(), bias.data(), false};
    nn::gemm_i8_dot(x.data(), w.data(), y.data(), 0, split, out, f, f, f, out,
                    epi);
    nn::gemm_i8_dot(x.data(), w.data(), y.data(), split, n, out, f, f, f, out,
                    epi);
    return y;
  }
};

TEST(LinearI8, EveryDispatchLevelMatchesScalar) {
  Rng rng(37);
  for (const auto& [n, f, out] :
       std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t>>{
           {1, 1, 1}, {3, 15, 5}, {7, 64, 9}, {5, 333, 12}}) {
    const LinearProblem p(n, f, out, rng);
    nn::Tensor want;
    {
      cpu::ScopedSimdLevel guard(cpu::SimdLevel::kScalar);
      want = p.run(n);
    }
    for (const cpu::SimdLevel lvl : supported_levels()) {
      cpu::ScopedSimdLevel guard(lvl);
      expect_bitwise_equal(want, p.run(n / 2),
                           std::string("f=") + std::to_string(f) +
                               " level " + cpu::level_name(lvl));
    }
  }
}

TEST(LinearI8, TiledMatchesScalarReference) {
  Rng rng(13);
  for (const auto& [n, f, out] :
       std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t>>{
           {1, 5, 3}, {3, 16, 5}, {7, 33, 9}, {64, 64, 10}}) {
    const LinearProblem p(n, f, out, rng);
    const nn::Tensor y = p.run(n / 3);
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t o = 0; o < out; ++o) {
        std::int32_t acc = 0;
        for (std::int64_t kk = 0; kk < f; ++kk)
          acc += static_cast<std::int32_t>(
                     p.x[static_cast<std::size_t>(i * f + kk)]) *
                 p.w[static_cast<std::size_t>(o * f + kk)];
        const auto oc = static_cast<std::size_t>(o);
        const float expect =
            static_cast<float>(acc) * p.scale[oc] + p.bias[oc];
        ASSERT_EQ(y[y.idx2(i, o)], expect) << "n=" << n << " o=" << o;
      }
    }
  }
}

// ---- engine-level differentials ----

struct EngineRig {
  nn::ResNetSpec spec;
  std::unique_ptr<nn::ResNet> model;
  std::unique_ptr<quant::QuantizedModel> qm;
  nn::Tensor calib, x;

  EngineRig() {
    Rng rng(21);
    spec.num_classes = 4;
    spec.base_width = 8;
    spec.blocks_per_stage = {1, 1};
    spec.name = "rig";
    model = std::make_unique<nn::ResNet>(spec, rng);
    // Non-trivial BN running statistics.
    nn::Tensor warm = nn::Tensor::randn({8, 3, 16, 16}, rng);
    model->forward(warm, nn::Mode::kTrain);
    qm = std::make_unique<quant::QuantizedModel>(*model);
    calib = nn::Tensor::randn({16, 3, 16, 16}, rng);
    x = nn::Tensor::randn({6, 3, 16, 16}, rng);
  }

  InferenceEngine make(EngineKind kind, ThreadPool* pool = nullptr) {
    InferenceEngine e(*qm, kind, pool);
    e.calibrate(calib);
    return e;
  }
};

TEST(Engine, BatchedMatchesReferenceBitExactly) {
  EngineRig rig;
  InferenceEngine ref = rig.make(EngineKind::kReference);
  InferenceEngine bat = rig.make(EngineKind::kBatched);
  expect_bitwise_equal(ref.forward(rig.x), bat.forward(rig.x),
                       "engine kinds");
}

TEST(Engine, BatchSplitInvariance) {
  EngineRig rig;
  InferenceEngine eng = rig.make(EngineKind::kBatched);
  const nn::Tensor full = eng.forward(rig.x);
  const std::int64_t chw = 3 * 16 * 16;
  for (std::int64_t s = 0; s < rig.x.dim(0); ++s) {
    nn::Tensor one({1, 3, 16, 16});
    std::memcpy(one.data(), rig.x.data() + s * chw,
                sizeof(float) * static_cast<std::size_t>(chw));
    const nn::Tensor ly = eng.forward(one);
    for (std::int64_t c = 0; c < full.dim(1); ++c)
      ASSERT_EQ(full[full.idx2(s, c)], ly[ly.idx2(0, c)])
          << "sample " << s << " class " << c;
  }
}

TEST(Engine, ThreadPoolInvariance) {
  EngineRig rig;
  InferenceEngine serial = rig.make(EngineKind::kBatched, nullptr);
  ThreadPool pool(3);
  InferenceEngine pooled = rig.make(EngineKind::kBatched, &pool);
  expect_bitwise_equal(serial.forward(rig.x), pooled.forward(rig.x),
                       "thread pool");
}

TEST(Engine, SeesLiveWeightMutations) {
  EngineRig rig;
  InferenceEngine eng = rig.make(EngineKind::kBatched);
  const nn::Tensor before = eng.forward(rig.x);
  const std::int8_t old = rig.qm->get_code(0, 0);
  rig.qm->set_code(0, 0, static_cast<std::int8_t>(old == 127 ? -127 : 127));
  const nn::Tensor attacked = eng.forward(rig.x);
  EXPECT_GT(nn::max_abs_diff(before, attacked), 0.0f);
  rig.qm->set_code(0, 0, old);
  expect_bitwise_equal(before, eng.forward(rig.x), "restored weights");
}

TEST(Engine, SteadyStateForwardIsAllocationFree) {
  EngineRig rig;
  InferenceEngine eng = rig.make(EngineKind::kBatched, /*pool=*/nullptr);
  QnnScratch scratch;
  nn::Tensor logits;
  // Warm-up: buffers grow to the high-water mark of this batch shape.
  eng.forward_into(rig.x, scratch, logits);
  eng.forward_into(rig.x, scratch, logits);
  // A smaller "remainder" batch (as produced when eval_subset is not a
  // multiple of eval_batch) must reuse the grown buffers too.
  nn::Tensor remainder({2, 3, 16, 16});
  std::memcpy(remainder.data(), rig.x.data(),
              sizeof(float) * static_cast<std::size_t>(remainder.numel()));
  const std::size_t grows_after_warmup = scratch.grows;
  const std::size_t allocs_before = g_live_allocs.load();
  for (int i = 0; i < 5; ++i) {
    eng.forward_into(rig.x, scratch, logits);
    eng.forward_into(remainder, scratch, logits);
  }
  const std::size_t allocs_after = g_live_allocs.load();
  EXPECT_EQ(allocs_after - allocs_before, 0u)
      << "steady-state forward loop heap-allocated";
  EXPECT_EQ(scratch.grows, grows_after_warmup) << "scratch kept growing";

  // The verified forward on a clean model: per-layer rescans draw on the
  // same scratch and the report keeps its capacity.
  core::SchemeParams params;
  params.group_size = 16;
  auto scheme = core::SchemeRegistry::instance().create("radar2", params);
  scheme->attach(*rig.qm);
  core::DetectionReport report;
  for (int i = 0; i < 2; ++i)
    eng.forward_verified_into(rig.x, *scheme, core::RecoveryPolicy::kZeroOut,
                              scratch, logits, report);
  const std::size_t verified_before = g_live_allocs.load();
  for (int i = 0; i < 5; ++i) {
    eng.forward_verified_into(rig.x, *scheme, core::RecoveryPolicy::kZeroOut,
                              scratch, logits, report);
    eng.forward_verified_into(remainder, *scheme,
                              core::RecoveryPolicy::kZeroOut, scratch, logits,
                              report);
  }
  EXPECT_EQ(g_live_allocs.load() - verified_before, 0u)
      << "steady-state verified forward heap-allocated";
  EXPECT_FALSE(report.attack_detected());
}

TEST(Engine, ReferenceSteadyStateIsAllocationFreeToo) {
  EngineRig rig;
  InferenceEngine eng = rig.make(EngineKind::kReference, /*pool=*/nullptr);
  QnnScratch scratch;
  nn::Tensor logits;
  eng.forward_into(rig.x, scratch, logits);
  const std::size_t allocs_before = g_live_allocs.load();
  for (int i = 0; i < 3; ++i) eng.forward_into(rig.x, scratch, logits);
  EXPECT_EQ(g_live_allocs.load() - allocs_before, 0u);
}

TEST(Engine, RequiresCalibration) {
  EngineRig rig;
  InferenceEngine eng(*rig.qm, EngineKind::kBatched, nullptr);
  EXPECT_THROW(eng.forward(rig.x), InvalidArgument);
  eng.calibrate(rig.calib);
  EXPECT_THROW(eng.calibrate(rig.calib), InvalidArgument);  // once only
  EXPECT_NO_THROW(eng.forward(rig.x));
}

}  // namespace
}  // namespace radar::qnn
