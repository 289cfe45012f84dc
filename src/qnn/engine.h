// Batched int8 inference engine: executes a quantized network the way the
// paper's integer deployment target would.
//
// The engine compiles the ResNet layer graph into a flat op program once
// at construction: every Conv2d absorbs its following BatchNorm2d (and a
// directly following ReLU) into a per-channel requantization epilogue, a
// BasicBlock expands into two convs + optional projection + fused
// add-ReLU, and the head becomes global-avg-pool + linear. Conv / fc
// weights are read live from the QuantizedModel's int8 buffers at every
// forward, so bit flips and recoveries are visible without any
// re-preparation; batch-norm constants, float biases and activation
// scales are frozen (BN and biases are not attackable in the threat
// model, and scales come from a one-time static calibration on the clean
// model).
//
// Two interchangeable conv kernels:
//   kReference — the pre-existing direct 7-loop convolution, per sample;
//   kBatched   — int8 im2col (interior rows memcpy'd) feeding the tiled
//                int8x int8 -> int32 GEMM with fused bias+requant(+ReLU)
//                epilogue, parallelized over batch x output-channel
//                blocks through the ThreadPool.
// Both kinds compute identical int32 accumulators and evaluate the same
// epilogue expression per output, so logits are bit-identical across
// kinds, thread counts and batch partitionings — campaign reports built
// on this engine can therefore be CI-diffed byte-for-byte.
//
// forward_into draws every intermediate buffer from a caller QnnScratch:
// after warm-up (first call at the largest batch size) the steady-state
// forward loop performs zero heap allocations.
//
// forward_verified_into is the paper's embedding of RADAR in the inference
// stage (§IV): the same op loop, but before each conv / linear op fetches
// its weights the integrity scheme rescans that layer, recovers any
// flagged groups in place and only then lets the op read them. On clean
// weights its logits equal forward_into's bit for bit, and it stays
// allocation-free after warm-up. Recovery WRITES the model's weights, so
// a verified forward must not run concurrently with any other forward or
// scan of the same model; the serve daemon instead keeps forward_into on
// the request path and verifies from its background scanner.
#pragma once

#include <cstdint>
#include <vector>

#include "core/integrity_scheme.h"
#include "nn/int8_gemm.h"
#include "nn/tensor.h"
#include "qnn/kernels.h"
#include "qnn/qnn_scratch.h"
#include "quant/qmodel.h"

namespace radar {
class ThreadPool;
}

namespace radar::qnn {

enum class EngineKind {
  kReference,  ///< direct convolution (pre-existing kernel semantics)
  kBatched,    ///< im2col + tiled GEMM + fused requant epilogue
};

class InferenceEngine {
 public:
  /// Compiles the op program from `model`'s network graph. `pool` may be
  /// null (serial); a pool of size 1 also runs inline (and is then
  /// allocation-free, like null).
  explicit InferenceEngine(quant::QuantizedModel& model,
                           EngineKind kind = EngineKind::kBatched,
                           ThreadPool* pool = nullptr);

  /// One-time static calibration: runs `batch` through the program,
  /// fixing each conv/linear input scale to max|activation| / 127 (with
  /// int8 effects propagated layer by layer). Must be called on the CLEAN
  /// model — scales are frozen afterwards so results stay independent of
  /// later attacks, batch splits and thread counts.
  void calibrate(const nn::Tensor& batch);
  bool calibrated() const { return calibrated_; }

  EngineKind kind() const { return kind_; }
  void set_kind(EngineKind kind) { kind_ = kind; }
  void set_pool(ThreadPool* pool) { pool_ = pool; }

  std::int64_t num_classes() const { return num_classes_; }

  /// Batched forward of NCHW `x` into `logits`; all working memory comes
  /// from `scratch` (zero allocations after warm-up). `logits` is grown
  /// to at least [N, classes] but never shrunk — after a larger batch,
  /// only its first N rows are valid (read the row count from the input
  /// batch, not from logits.dim(0)). Requires calibrate() first.
  void forward_into(const nn::Tensor& x, QnnScratch& scratch,
                    nn::Tensor& logits);

  /// forward_into with verify-on-fetch (see the file comment): flagged
  /// groups are recovered under `policy` (kZeroOut also re-signs that
  /// layer) and recorded in `report`, one entry per layer. `scheme` must
  /// be attached to a model with this engine's layer geometry.
  void forward_verified_into(const nn::Tensor& x,
                             core::IntegrityScheme& scheme,
                             core::RecoveryPolicy policy, QnnScratch& scratch,
                             nn::Tensor& logits, core::DetectionReport& report);

  /// Convenience wrapper (allocates a scratch + logits).
  nn::Tensor forward(const nn::Tensor& x);

 private:
  struct Op {
    enum class Kind { kConv, kLinear, kAdd, kRelu, kPool, kFlatten };
    Kind kind = Kind::kConv;
    ConvGeom geom;                 ///< conv only
    std::size_t qlayer = 0;        ///< conv/linear: QuantizedModel index
    std::int64_t in_features = 0;  ///< linear only
    std::int64_t out_features = 0;
    std::vector<float> bn_scale;   ///< folded BN multiplier (empty = 1)
    std::vector<float> bn_shift;   ///< folded BN shift (empty = 0)
    std::vector<float> wbias;      ///< float conv/linear bias (empty = 0)
    float x_scale = 0.0f;          ///< calibrated activation scale
    float inv_x_scale = 0.0f;
    std::vector<float> out_scale;  ///< fused epilogue scale (per channel)
    std::vector<float> out_bias;   ///< fused epilogue bias (per channel)
    bool relu = false;             ///< fused trailing ReLU
    int src = 0;                   ///< input buffer id
    int src2 = -1;                 ///< kAdd: second operand buffer id
    int dst = 0;                   ///< output buffer id (-1 = logits)
  };

  /// The per-fetch check of a verified forward (null: plain forward).
  struct Verify {
    core::IntegrityScheme& scheme;
    core::RecoveryPolicy policy;
    core::DetectionReport& report;
  };

  void compile(nn::Sequential& net);
  void push_conv(nn::Conv2d& conv, nn::BatchNorm2d* bn, bool relu, int src,
                 int dst);
  std::size_t qlayer_of(const nn::Param& weight) const;
  void run(const nn::Tensor& x, QnnScratch& scratch, nn::Tensor& logits,
           bool calibrating, const Verify* verify = nullptr);
  void verify_layer(std::size_t qlayer, const Verify& verify,
                    QnnScratch& scratch);
  void run_conv(Op& op, std::int64_t n, std::int64_t in_h, std::int64_t in_w,
                QnnScratch& scratch, bool calibrating);
  void run_linear(Op& op, std::int64_t n, std::int64_t in_features,
                  const float* src, float* dst, QnnScratch& scratch,
                  bool calibrating);

  quant::QuantizedModel* model_;
  EngineKind kind_;
  ThreadPool* pool_;
  std::vector<Op> ops_;
  std::int64_t in_channels_ = 0;
  std::int64_t num_classes_ = 0;
  bool calibrated_ = false;
};

}  // namespace radar::qnn
