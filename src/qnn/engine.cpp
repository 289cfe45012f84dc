#include "qnn/engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.h"
#include "common/thread_pool.h"
#include "nn/resnet.h"

namespace radar::qnn {

namespace {

/// The one activation-quantization expression of the engine (shared by
/// calibration and steady-state forwards so they cannot diverge):
/// round-half-away-from-zero via clamp + offset + truncate — branchless
/// select form, so the loop autovectorizes instead of calling lround per
/// element.
void quantize_block(const float* x, std::size_t n, float inv_scale,
                    std::int8_t* q) {
  for (std::size_t i = 0; i < n; ++i) {
    float v = x[i] * inv_scale;
    v = v > 127.0f ? 127.0f : v;
    v = v < -127.0f ? -127.0f : v;
    v += v >= 0.0f ? 0.5f : -0.5f;
    q[i] = static_cast<std::int8_t>(static_cast<std::int32_t>(v));
  }
}

}  // namespace

InferenceEngine::InferenceEngine(quant::QuantizedModel& model,
                                 EngineKind kind, ThreadPool* pool)
    : model_(&model), kind_(kind), pool_(pool) {
  compile(model.network().net());
  RADAR_REQUIRE(!ops_.empty(), "qnn engine: empty network");
  RADAR_REQUIRE(ops_.front().kind == Op::Kind::kConv,
                "qnn engine: network must start with a convolution");
  in_channels_ = ops_.front().geom.in_channels;
}

std::size_t InferenceEngine::qlayer_of(const nn::Param& weight) const {
  for (std::size_t i = 0; i < model_->num_layers(); ++i)
    if (model_->layer(i).param == &weight) return i;
  throw InvalidArgument("qnn engine: weight tensor is not quantized");
}

void InferenceEngine::push_conv(nn::Conv2d& conv, nn::BatchNorm2d* bn,
                                bool relu, int src, int dst) {
  Op op;
  op.kind = Op::Kind::kConv;
  op.geom = ConvGeom{conv.in_channels(), conv.out_channels(), conv.kernel(),
                     conv.stride(), conv.padding()};
  RADAR_REQUIRE(op.geom.in_channels * op.geom.kernel * op.geom.kernel <=
                    nn::kInt8GemmMaxK,
                "conv reduction depth overflows int32 accumulation");
  op.qlayer = qlayer_of(conv.weight());
  const auto co = static_cast<std::size_t>(op.geom.out_channels);
  if (conv.has_bias()) {
    op.wbias.assign(conv.bias().value.data(),
                    conv.bias().value.data() + co);
  }
  if (bn != nullptr) {
    RADAR_REQUIRE(bn->channels() == op.geom.out_channels,
                  "batch-norm width mismatch");
    op.bn_scale.resize(co);
    op.bn_shift.resize(co);
    for (std::size_t c = 0; c < co; ++c) {
      const auto ci = static_cast<std::int64_t>(c);
      const float a = bn->gamma().value[ci] /
                      std::sqrt(bn->running_var()[ci] + bn->eps());
      op.bn_scale[c] = a;
      op.bn_shift[c] = bn->beta().value[ci] - bn->running_mean()[ci] * a;
    }
  }
  op.relu = relu;
  op.src = src;
  op.dst = dst;
  ops_.push_back(std::move(op));
}

void InferenceEngine::compile(nn::Sequential& net) {
  int cur = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    nn::Layer& child = net.child(i);
    const std::string kind = child.kind();
    if (kind == "Conv2d") {
      auto* conv = dynamic_cast<nn::Conv2d*>(&child);
      RADAR_REQUIRE(conv != nullptr, "Conv2d kind mismatch");
      nn::BatchNorm2d* bn = nullptr;
      if (i + 1 < net.size() && net.child(i + 1).kind() == "BatchNorm2d") {
        bn = dynamic_cast<nn::BatchNorm2d*>(&net.child(i + 1));
        ++i;
      }
      bool relu = false;
      if (i + 1 < net.size() && net.child(i + 1).kind() == "ReLU") {
        relu = true;
        ++i;
      }
      const int dst = (cur + 1) % 3;
      push_conv(*conv, bn, relu, cur, dst);
      cur = dst;
    } else if (kind == "BasicBlock") {
      auto* bb = dynamic_cast<nn::BasicBlock*>(&child);
      RADAR_REQUIRE(bb != nullptr, "BasicBlock kind mismatch");
      const int a = cur, b = (cur + 1) % 3, c = (cur + 2) % 3;
      push_conv(bb->conv1(), &bb->bn1(), /*relu=*/true, a, b);
      push_conv(bb->conv2(), &bb->bn2(), /*relu=*/false, b, c);
      Op add;
      add.kind = Op::Kind::kAdd;
      add.relu = true;  // post-add ReLU of the residual block
      add.src = c;
      add.dst = c;
      if (bb->has_projection()) {
        push_conv(*bb->down_conv(), bb->down_bn(), /*relu=*/false, a, b);
        add.src2 = b;
      } else {
        add.src2 = a;
      }
      ops_.push_back(std::move(add));
      cur = c;
    } else if (kind == "ReLU") {
      Op op;
      op.kind = Op::Kind::kRelu;
      op.src = op.dst = cur;
      ops_.push_back(std::move(op));
    } else if (kind == "GlobalAvgPool") {
      Op op;
      op.kind = Op::Kind::kPool;
      op.src = cur;
      op.dst = (cur + 1) % 3;
      cur = op.dst;
      ops_.push_back(std::move(op));
    } else if (kind == "Flatten") {
      Op op;
      op.kind = Op::Kind::kFlatten;
      op.src = op.dst = cur;
      ops_.push_back(std::move(op));
    } else if (kind == "Linear") {
      auto* lin = dynamic_cast<nn::Linear*>(&child);
      RADAR_REQUIRE(lin != nullptr, "Linear kind mismatch");
      RADAR_REQUIRE(lin->in_features() <= nn::kInt8GemmMaxK,
                    "linear reduction depth overflows int32 accumulation");
      Op op;
      op.kind = Op::Kind::kLinear;
      op.qlayer = qlayer_of(lin->weight());
      op.in_features = lin->in_features();
      op.out_features = lin->out_features();
      if (lin->has_bias()) {
        op.wbias.assign(
            lin->bias().value.data(),
            lin->bias().value.data() + lin->out_features());
      }
      op.src = cur;
      op.dst = (i + 1 == net.size()) ? -1 : (cur + 1) % 3;
      if (op.dst >= 0) cur = op.dst;
      num_classes_ = lin->out_features();
      ops_.push_back(std::move(op));
    } else {
      throw InvalidArgument("qnn engine: unsupported layer kind " + kind);
    }
  }
}

void InferenceEngine::run_conv(Op& op, std::int64_t n, std::int64_t in_h,
                               std::int64_t in_w, QnnScratch& scratch,
                               bool calibrating) {
  const std::int64_t ci = op.geom.in_channels, co = op.geom.out_channels;
  const std::int64_t csz = ci * in_h * in_w;
  const std::int64_t oh = op.geom.out_size(in_h),
                     ow = op.geom.out_size(in_w);
  RADAR_REQUIRE(oh > 0 && ow > 0, "conv output collapses to zero size");
  const std::int64_t osp = oh * ow;
  const quant::QuantLayer& ql = model_->layer(op.qlayer);
  const float* src = scratch.act[op.src].data();
  float* dst =
      scratch.ensure(scratch.act[op.dst],
                     static_cast<std::size_t>(n * co * osp));

  if (calibrating) {
    float amax = 0.0f;
    for (std::int64_t i = 0; i < n * csz; ++i)
      amax = std::max(amax, std::fabs(src[i]));
    op.x_scale = amax > 0.0f ? amax / 127.0f : 1.0f;
    op.inv_x_scale = 1.0f / op.x_scale;
    const auto nco = static_cast<std::size_t>(co);
    op.out_scale.resize(nco);
    op.out_bias.resize(nco);
    for (std::size_t c = 0; c < nco; ++c) {
      const float a = op.bn_scale.empty() ? 1.0f : op.bn_scale[c];
      const float shift = op.bn_shift.empty() ? 0.0f : op.bn_shift[c];
      const float cb = op.wbias.empty() ? 0.0f : op.wbias[c];
      op.out_scale[c] = op.x_scale * ql.scale * a;
      op.out_bias[c] = cb * a + shift;
    }
  }

  std::int8_t* qact =
      scratch.ensure(scratch.qact, static_cast<std::size_t>(n * csz));
  ThreadPool::chunks_or_inline(pool_, static_cast<std::size_t>(n),
      [&](std::size_t begin, std::size_t end) {
        quantize_block(src + begin * static_cast<std::size_t>(csz),
                       (end - begin) * static_cast<std::size_t>(csz),
                       op.inv_x_scale,
                       qact + begin * static_cast<std::size_t>(csz));
      });

  const nn::RequantEpilogue epi{op.out_scale.data(), op.out_bias.data(),
                                op.relu};
  if (kind_ == EngineKind::kReference) {
    ThreadPool::chunks_or_inline(pool_, static_cast<std::size_t>(n),
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t s = begin; s < end; ++s)
            direct_conv_i8(qact + static_cast<std::int64_t>(s) * csz,
                           ql.q.data(), op.geom, in_h, in_w, epi,
                           dst + static_cast<std::int64_t>(s) * co * osp);
        });
    return;
  }
  conv2d_i8_tiled_exec(
      qact, std::span<const std::int8_t>(ql.q.data(), ql.q.size()), op.geom,
      n, in_h, in_w, epi, scratch, dst, pool_);
}

void InferenceEngine::run_linear(Op& op, std::int64_t n,
                                 std::int64_t in_features, const float* src,
                                 float* dst, QnnScratch& scratch,
                                 bool calibrating) {
  RADAR_REQUIRE(in_features == op.in_features,
                "linear input feature mismatch");
  const quant::QuantLayer& ql = model_->layer(op.qlayer);
  const std::int64_t f = op.in_features, m = op.out_features;
  if (calibrating) {
    float amax = 0.0f;
    for (std::int64_t i = 0; i < n * f; ++i)
      amax = std::max(amax, std::fabs(src[i]));
    op.x_scale = amax > 0.0f ? amax / 127.0f : 1.0f;
    op.inv_x_scale = 1.0f / op.x_scale;
    op.out_scale.assign(static_cast<std::size_t>(m),
                        op.x_scale * ql.scale);
    op.out_bias.assign(static_cast<std::size_t>(m), 0.0f);
    if (!op.wbias.empty())
      std::copy(op.wbias.begin(), op.wbias.end(), op.out_bias.begin());
  }
  std::int8_t* qact =
      scratch.ensure(scratch.qact, static_cast<std::size_t>(n * f));
  ThreadPool::chunks_or_inline(pool_, static_cast<std::size_t>(n),
      [&](std::size_t begin, std::size_t end) {
        quantize_block(src + begin * static_cast<std::size_t>(f),
                       (end - begin) * static_cast<std::size_t>(f),
                       op.inv_x_scale,
                       qact + begin * static_cast<std::size_t>(f));
      });
  const nn::RequantEpilogue epi{op.out_scale.data(), op.out_bias.data(),
                                op.relu};
  auto rows = [&](std::size_t begin, std::size_t end) {
    nn::gemm_i8_dot(qact, ql.q.data(), dst,
                    static_cast<std::int64_t>(begin),
                    static_cast<std::int64_t>(end), m, f, f, f, m, epi);
  };
  if (kind_ == EngineKind::kBatched)
    ThreadPool::chunks_or_inline(pool_, static_cast<std::size_t>(n), rows);
  else
    rows(0, static_cast<std::size_t>(n));
}

void InferenceEngine::verify_layer(std::size_t qlayer, const Verify& verify,
                                   QnnScratch& scratch) {
  verify.scheme.scan_layer_into(*model_, qlayer, scratch.flagged,
                                scratch.scan);
  if (scratch.flagged.empty()) return;
  core::DetectionReport fetched;
  fetched.flagged.resize(model_->num_layers());
  fetched.flagged[qlayer] = scratch.flagged;
  verify.scheme.recover(*model_, fetched, verify.policy);
  // Re-sign only this layer: later layers are not yet checked on this
  // pass and must not have tampered state blessed as golden.
  if (verify.policy == core::RecoveryPolicy::kZeroOut)
    verify.scheme.resign_layer(*model_, qlayer);
  verify.report.flagged[qlayer] = std::move(fetched.flagged[qlayer]);
}

void InferenceEngine::run(const nn::Tensor& x, QnnScratch& scratch,
                          nn::Tensor& logits, bool calibrating,
                          const Verify* verify) {
  RADAR_REQUIRE(x.rank() == 4, "qnn engine input must be NCHW");
  RADAR_REQUIRE(x.dim(1) == in_channels_, "input channel mismatch");
  const std::int64_t n = x.dim(0);
  RADAR_REQUIRE(n > 0, "empty batch");

  std::int64_t C[3] = {0, 0, 0}, H[3] = {0, 0, 0}, W[3] = {0, 0, 0};
  const int in_buf = ops_.front().src;
  float* b0 = scratch.ensure(scratch.act[in_buf],
                             static_cast<std::size_t>(x.numel()));
  std::memcpy(b0, x.data(), sizeof(float) *
                                static_cast<std::size_t>(x.numel()));
  C[in_buf] = x.dim(1);
  H[in_buf] = x.dim(2);
  W[in_buf] = x.dim(3);

  int final_buf = in_buf;
  for (Op& op : ops_) {
    switch (op.kind) {
      case Op::Kind::kConv: {
        RADAR_REQUIRE(C[op.src] == op.geom.in_channels,
                      "conv channel mismatch in op program");
        if (verify != nullptr) verify_layer(op.qlayer, *verify, scratch);
        run_conv(op, n, H[op.src], W[op.src], scratch, calibrating);
        C[op.dst] = op.geom.out_channels;
        H[op.dst] = op.geom.out_size(H[op.src]);
        W[op.dst] = op.geom.out_size(W[op.src]);
        final_buf = op.dst;
        break;
      }
      case Op::Kind::kAdd: {
        RADAR_REQUIRE(C[op.dst] == C[op.src2] && H[op.dst] == H[op.src2] &&
                          W[op.dst] == W[op.src2],
                      "residual shape mismatch");
        float* d = scratch.act[op.dst].data();
        const float* s2 = scratch.act[op.src2].data();
        const std::int64_t m = n * C[op.dst] * H[op.dst] * W[op.dst];
        if (op.relu) {
          for (std::int64_t i = 0; i < m; ++i) {
            const float v = d[i] + s2[i];
            d[i] = v < 0.0f ? 0.0f : v;
          }
        } else {
          for (std::int64_t i = 0; i < m; ++i) d[i] += s2[i];
        }
        final_buf = op.dst;
        break;
      }
      case Op::Kind::kRelu: {
        float* d = scratch.act[op.src].data();
        const std::int64_t m = n * C[op.src] * H[op.src] * W[op.src];
        for (std::int64_t i = 0; i < m; ++i)
          if (d[i] < 0.0f) d[i] = 0.0f;
        final_buf = op.src;
        break;
      }
      case Op::Kind::kPool: {
        const std::int64_t c = C[op.src], sp = H[op.src] * W[op.src];
        const float inv = 1.0f / static_cast<float>(sp);
        const float* s = scratch.act[op.src].data();
        float* d = scratch.ensure(scratch.act[op.dst],
                                  static_cast<std::size_t>(n * c));
        for (std::int64_t i = 0; i < n * c; ++i) {
          const float* row = s + i * sp;
          float acc = 0.0f;
          for (std::int64_t p = 0; p < sp; ++p) acc += row[p];
          d[i] = acc * inv;
        }
        C[op.dst] = c;
        H[op.dst] = W[op.dst] = 1;
        final_buf = op.dst;
        break;
      }
      case Op::Kind::kFlatten: {
        C[op.src] = C[op.src] * H[op.src] * W[op.src];
        H[op.src] = W[op.src] = 1;
        final_buf = op.src;
        break;
      }
      case Op::Kind::kLinear: {
        const std::int64_t f = C[op.src] * H[op.src] * W[op.src];
        float* out;
        if (op.dst < 0) {
          // Grow-only: a logits buffer from a larger batch is reused for a
          // smaller one (only the first n rows are written), so remainder
          // batches stay allocation-free.
          if (logits.rank() != 2 || logits.dim(0) < n ||
              logits.dim(1) != op.out_features)
            logits = nn::Tensor({n, op.out_features});
          out = logits.data();
        } else {
          out = scratch.ensure(
              scratch.act[op.dst],
              static_cast<std::size_t>(n * op.out_features));
          C[op.dst] = op.out_features;
          H[op.dst] = W[op.dst] = 1;
          final_buf = op.dst;
        }
        if (verify != nullptr) verify_layer(op.qlayer, *verify, scratch);
        run_linear(op, n, f, scratch.act[op.src].data(), out, scratch,
                   calibrating);
        if (op.dst < 0) return;
        break;
      }
    }
  }
  // Program did not end in a logits-producing linear: hand back the final
  // activation as [N, features].
  const std::int64_t feat = C[final_buf] * H[final_buf] * W[final_buf];
  if (logits.rank() != 2 || logits.dim(0) < n || logits.dim(1) != feat)
    logits = nn::Tensor({n, feat});
  std::memcpy(logits.data(), scratch.act[final_buf].data(),
              sizeof(float) * static_cast<std::size_t>(n * feat));
}

void InferenceEngine::calibrate(const nn::Tensor& batch) {
  RADAR_REQUIRE(!calibrated_, "qnn engine already calibrated");
  QnnScratch scratch;
  nn::Tensor logits;
  run(batch, scratch, logits, /*calibrating=*/true);
  calibrated_ = true;
}

void InferenceEngine::forward_into(const nn::Tensor& x, QnnScratch& scratch,
                                   nn::Tensor& logits) {
  RADAR_REQUIRE(calibrated_, "qnn engine: calibrate() before forward");
  run(x, scratch, logits, /*calibrating=*/false);
}

void InferenceEngine::forward_verified_into(const nn::Tensor& x,
                                            core::IntegrityScheme& scheme,
                                            core::RecoveryPolicy policy,
                                            QnnScratch& scratch,
                                            nn::Tensor& logits,
                                            core::DetectionReport& report) {
  RADAR_REQUIRE(calibrated_, "qnn engine: calibrate() before forward");
  RADAR_REQUIRE(scheme.attached(), "verified forward: scheme not attached");
  const std::size_t layers = model_->num_layers();
  RADAR_REQUIRE(scheme.num_layers() == layers,
                "verified forward: scheme attached to another model");
  for (std::size_t li = 0; li < layers; ++li)
    RADAR_REQUIRE(scheme.layout(li).num_weights() == model_->layer(li).size(),
                  "verified forward: scheme attached to another model");
  report.flagged.resize(layers);
  for (auto& f : report.flagged) f.clear();
  const Verify verify{scheme, policy, report};
  run(x, scratch, logits, /*calibrating=*/false, &verify);
}

nn::Tensor InferenceEngine::forward(const nn::Tensor& x) {
  QnnScratch scratch;
  nn::Tensor logits;
  forward_into(x, scratch, logits);
  return logits;
}

}  // namespace radar::qnn
