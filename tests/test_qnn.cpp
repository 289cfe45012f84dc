// Integer inference kernels and batch-norm folding.
#include <gtest/gtest.h>

#include <cmath>

#include "data/trainer.h"
#include "nn/fold.h"
#include "qnn/kernels.h"
#include "quant/qmodel.h"

namespace radar::qnn {
namespace {

std::vector<std::int8_t> random_codes(std::size_t n, Rng& rng) {
  std::vector<std::int8_t> v(n);
  for (auto& x : v) x = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  return v;
}

/// Integer conv must agree with the float conv applied to the
/// dequantized operands (exactly: both compute the same polynomial). The
/// epilogue scale is x_scale * w_scale, so the kernel's acc * s + b is
/// the dequantized product.
TEST(Kernels, ConvMatchesFloatReferenceExactly) {
  Rng rng(2);
  ConvGeom geom;
  geom.in_channels = 3;
  geom.out_channels = 4;
  geom.kernel = 3;
  geom.stride = 1;
  geom.padding = 1;

  // Integer operands.
  const std::vector<std::int8_t> w = random_codes(4 * 3 * 9, rng);
  const float w_scale = 0.01f, x_scale = 0.05f;
  const std::int64_t n = 2, hw = 6;
  const std::vector<std::int8_t> x =
      random_codes(static_cast<std::size_t>(n * 3 * hw * hw), rng);
  const std::vector<float> scale(4, x_scale * w_scale);
  const nn::RequantEpilogue epi{scale.data(), nullptr, false};
  nn::Tensor y_int({n, 4, hw, hw});
  for (std::int64_t s = 0; s < n; ++s)
    direct_conv_i8(x.data() + s * 3 * hw * hw, w.data(), geom, hw, hw, epi,
                   y_int.data() + s * 4 * hw * hw);

  // Float reference via the training-path conv.
  nn::Conv2d conv(3, 4, 3, 1, 1, /*bias=*/false, rng);
  for (std::size_t i = 0; i < w.size(); ++i)
    conv.weight().value[static_cast<std::int64_t>(i)] =
        static_cast<float>(w[i]) * w_scale;
  nn::Tensor x_float({n, 3, hw, hw});
  for (std::int64_t i = 0; i < x_float.numel(); ++i)
    x_float[i] = static_cast<float>(x[static_cast<std::size_t>(i)]) * x_scale;
  nn::Tensor y_float = conv.forward(x_float, nn::Mode::kEval);

  EXPECT_LT(nn::max_abs_diff(y_int, y_float), 1e-4f);
}

TEST(Kernels, ConvBiasAndStride) {
  ConvGeom geom;
  geom.in_channels = 2;
  geom.out_channels = 2;
  geom.kernel = 3;
  geom.stride = 2;
  geom.padding = 1;
  const std::vector<std::int8_t> w(static_cast<std::size_t>(2 * 2 * 9), 1);
  const std::vector<float> scale(2, 1.0f), bias = {0.5f, -0.5f};
  const std::vector<std::int8_t> x(2 * 5 * 5, 0);
  ASSERT_EQ(geom.out_size(5), 3);
  nn::Tensor y({1, 2, 3, 3});
  direct_conv_i8(x.data(), w.data(), geom, 5, 5,
                 {scale.data(), bias.data(), false}, y.data());
  EXPECT_FLOAT_EQ(y[y.idx4(0, 0, 0, 0)], 0.5f);   // all-zero input: bias
  EXPECT_FLOAT_EQ(y[y.idx4(0, 1, 2, 2)], -0.5f);
}

TEST(Kernels, LinearMatchesFloatReference) {
  Rng rng(4);
  const std::int64_t n = 3, f = 16, out = 5;
  const std::vector<std::int8_t> w =
      random_codes(static_cast<std::size_t>(out * f), rng);
  const std::vector<std::int8_t> x =
      random_codes(static_cast<std::size_t>(n * f), rng);
  const std::vector<float> scale(static_cast<std::size_t>(out), 0.02f * 0.03f);
  nn::Tensor y({n, out});
  nn::gemm_i8_dot(x.data(), w.data(), y.data(), 0, n, out, f, f, f, out,
                  {scale.data(), nullptr, false});

  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t o = 0; o < out; ++o) {
      double acc = 0.0;
      for (std::int64_t k = 0; k < f; ++k)
        acc += static_cast<double>(x[static_cast<std::size_t>(i * f + k)]) *
               w[static_cast<std::size_t>(o * f + k)];
      EXPECT_NEAR(y[y.idx2(i, o)], acc * 0.02 * 0.03, 1e-4);
    }
  }
}

TEST(Fold, ConvBnFoldPreservesEvalOutput) {
  Rng rng(5);
  nn::Conv2d conv(3, 8, 3, 1, 1, /*bias=*/false, rng);
  nn::BatchNorm2d bn(8);
  // Give BN non-trivial statistics and affine parameters.
  nn::Tensor warm = nn::Tensor::randn({8, 8, 6, 6}, rng, 2.0f);
  bn.forward(warm, nn::Mode::kTrain);
  for (std::int64_t c = 0; c < 8; ++c) {
    bn.gamma().value[c] = 0.5f + 0.1f * static_cast<float>(c);
    bn.beta().value[c] = -0.2f * static_cast<float>(c);
  }

  nn::Tensor x = nn::Tensor::randn({2, 3, 6, 6}, rng);
  nn::Tensor before =
      bn.forward(conv.forward(x, nn::Mode::kEval), nn::Mode::kEval);
  nn::fold_conv_bn(conv, bn);
  nn::Tensor after =
      bn.forward(conv.forward(x, nn::Mode::kEval), nn::Mode::kEval);
  EXPECT_LT(nn::max_abs_diff(before, after), 2e-4f);
  EXPECT_TRUE(conv.has_bias());
}

TEST(Fold, WholeResnetFoldPreservesEvalOutput) {
  Rng rng(6);
  nn::ResNetSpec spec;
  spec.num_classes = 4;
  spec.base_width = 8;
  spec.blocks_per_stage = {1, 1};
  nn::ResNet model(spec, rng);
  // Push non-trivial running statistics through every BN.
  nn::Tensor warm = nn::Tensor::randn({8, 3, 16, 16}, rng);
  model.forward(warm, nn::Mode::kTrain);

  nn::Tensor x = nn::Tensor::randn({2, 3, 16, 16}, rng);
  nn::Tensor before = model.forward(x, nn::Mode::kEval);
  nn::fold_batchnorm(model);
  nn::Tensor after = model.forward(x, nn::Mode::kEval);
  EXPECT_LT(nn::max_abs_diff(before, after),
            5e-4f * std::max(1.0f, before.abs_max()));
}

TEST(Fold, FoldedModelQuantizesAndRemainsAccurate) {
  // The deployment pipeline: train -> fold BN -> quantize -> (protect).
  Rng rng(7);
  nn::ResNetSpec spec;
  spec.num_classes = 4;
  spec.base_width = 8;
  spec.blocks_per_stage = {1};
  nn::ResNet model(spec, rng);
  data::SyntheticSpec ds = data::synthetic_cifar_spec();
  ds.image_size = 16;
  ds.num_classes = 4;
  data::SyntheticDataset dataset(ds, 256, 128);
  data::TrainConfig tc;
  tc.epochs = 4;
  tc.batch_size = 32;
  tc.batches_per_epoch = 12;
  tc.lr = 0.005f;
  tc.verbose = false;
  data::train(model, dataset, tc);
  const double float_acc = data::evaluate(model, dataset);

  nn::fold_batchnorm(model);
  quant::QuantizedModel qm(model);
  const double q_acc = data::evaluate(
      [&qm](const nn::Tensor& x) { return qm.forward(x); }, dataset);
  EXPECT_GT(q_acc, float_acc - 0.1);
}

}  // namespace
}  // namespace radar::qnn
