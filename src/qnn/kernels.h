// Integer convolution kernels: int8 x int8 -> int32 accumulation with a
// per-output-channel requant epilogue (nn::RequantEpilogue).
//
// Activations arrive pre-quantized as raw int8 NCHW buffers; outputs are
// float feature maps (the accumulator dequantized by the epilogue), which
// the caller requantizes for the next layer — mirroring per-layer
// requantization on integer NPUs/MCUs. The inference engine is the one
// caller; the fully-connected head runs nn::gemm_i8_dot directly.
#pragma once

#include <cstdint>
#include <span>

#include "nn/int8_gemm.h"
#include "qnn/qnn_scratch.h"

namespace radar {
class ThreadPool;
}

namespace radar::qnn {

/// Conv geometry (square kernel, symmetric padding), NCHW activations and
/// [Cout, Cin, K, K] weights.
struct ConvGeom {
  std::int64_t in_channels = 0, out_channels = 0;
  std::int64_t kernel = 1, stride = 1, padding = 0;

  std::int64_t out_size(std::int64_t in) const {
    return (in + 2 * padding - kernel) / stride + 1;
  }
};

/// int8 im2col of one sample [Cin, in_h, in_w] into a row-major
/// [Cin*K*K, OH*OW] patch matrix. The interior fast path memcpy-copies
/// contiguous input rows (stride 1) or runs a bounds-check-free strided
/// gather; padding boundaries are zero-filled outside the inner loop.
void im2col_i8(const std::int8_t* x, const ConvGeom& geom, std::int64_t in_h,
               std::int64_t in_w, std::int8_t* col);

/// Reference direct convolution of one sample with a per-channel requant
/// epilogue — the 7-deep loop the engine's kReference kernel runs, and
/// the bit-exactness baseline for the tiled path.
void direct_conv_i8(const std::int8_t* x, const std::int8_t* w,
                    const ConvGeom& geom, std::int64_t in_h,
                    std::int64_t in_w, const nn::RequantEpilogue& epi,
                    float* y);

/// Batched convolution via int8 im2col + tiled int8 GEMM with the fused
/// epilogue — the engine's kBatched kernel, bit-identical to
/// direct_conv_i8 (same int32 sums, same epilogue expression).
/// Pre-quantized activations `qx` ([N, Cin, in_h, in_w] int8) go through
/// per-sample im2col, then batch x output-channel-block GEMM units, fanned
/// out over `pool` (null or size-1 = inline). All working memory comes
/// from `scratch` (allocation-free after warm-up). Writes NCHW float
/// output into `y`.
void conv2d_i8_tiled_exec(const std::int8_t* qx,
                          std::span<const std::int8_t> w,
                          const ConvGeom& geom, std::int64_t n,
                          std::int64_t in_h, std::int64_t in_w,
                          const nn::RequantEpilogue& epi, QnnScratch& scratch,
                          float* y, ThreadPool* pool);

}  // namespace radar::qnn
