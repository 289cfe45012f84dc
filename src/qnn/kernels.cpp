#include "qnn/kernels.h"

#include <algorithm>
#include <cstring>

#include "common/thread_pool.h"

namespace radar::qnn {

namespace {

/// Output-channel block width of one GEMM work unit: big enough to
/// amortize dispatch, small enough to load-balance batch x channel tiles.
constexpr std::int64_t kCoBlock = 16;

/// First xo with xo*stride - padding + kw >= 0 (clamped to [0, ow]).
inline std::int64_t first_valid(std::int64_t padding, std::int64_t kw,
                                std::int64_t stride, std::int64_t ow) {
  const std::int64_t num = padding - kw;
  if (num <= 0) return 0;
  return std::min(ow, (num + stride - 1) / stride);
}

/// First xo with xo*stride - padding + kw >= in_w (clamped to [0, ow]).
inline std::int64_t first_invalid(std::int64_t in_w, std::int64_t padding,
                                  std::int64_t kw, std::int64_t stride,
                                  std::int64_t ow) {
  const std::int64_t num = in_w + padding - kw;
  if (num <= 0) return 0;
  return std::min(ow, (num + stride - 1) / stride);
}

}  // namespace

void direct_conv_i8(const std::int8_t* x, const std::int8_t* w,
                    const ConvGeom& geom, std::int64_t in_h,
                    std::int64_t in_w, const nn::RequantEpilogue& epi,
                    float* y) {
  const std::int64_t oh = geom.out_size(in_h), ow = geom.out_size(in_w);
  const std::int64_t kk = geom.kernel * geom.kernel;
  for (std::int64_t co = 0; co < geom.out_channels; ++co) {
    const std::int8_t* wc = w + co * geom.in_channels * kk;
    const float s = epi.scale[co];
    const float b = epi.bias != nullptr ? epi.bias[co] : 0.0f;
    float* yc = y + co * oh * ow;
    for (std::int64_t yo = 0; yo < oh; ++yo) {
      for (std::int64_t xo = 0; xo < ow; ++xo) {
        std::int32_t acc = 0;
        for (std::int64_t ci = 0; ci < geom.in_channels; ++ci) {
          const std::int8_t* wk = wc + ci * kk;
          const std::int8_t* xc = x + ci * in_h * in_w;
          for (std::int64_t kh = 0; kh < geom.kernel; ++kh) {
            const std::int64_t yi = yo * geom.stride - geom.padding + kh;
            if (yi < 0 || yi >= in_h) continue;
            for (std::int64_t kw = 0; kw < geom.kernel; ++kw) {
              const std::int64_t xi = xo * geom.stride - geom.padding + kw;
              if (xi < 0 || xi >= in_w) continue;
              acc += static_cast<std::int32_t>(xc[yi * in_w + xi]) *
                     wk[kh * geom.kernel + kw];
            }
          }
        }
        yc[yo * ow + xo] = nn::requant_one(acc, s, b, epi.relu);
      }
    }
  }
}

void im2col_i8(const std::int8_t* x, const ConvGeom& geom, std::int64_t in_h,
               std::int64_t in_w, std::int8_t* col) {
  const std::int64_t oh = geom.out_size(in_h), ow = geom.out_size(in_w);
  const std::int64_t k = geom.kernel, stride = geom.stride,
                     padding = geom.padding;
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < geom.in_channels; ++c) {
    const std::int8_t* xc = x + c * in_h * in_w;
    for (std::int64_t kh = 0; kh < k; ++kh) {
      for (std::int64_t kw = 0; kw < k; ++kw, ++row) {
        std::int8_t* dst = col + row * oh * ow;
        // Horizontal validity bounds hoisted out of the inner loop: the
        // interior [lo, hi) needs no per-element bounds check.
        const std::int64_t lo = first_valid(padding, kw, stride, ow);
        const std::int64_t hi =
            std::max(lo, first_invalid(in_w, padding, kw, stride, ow));
        for (std::int64_t yo = 0; yo < oh; ++yo, dst += ow) {
          const std::int64_t yi = yo * stride - padding + kh;
          if (yi < 0 || yi >= in_h) {
            std::memset(dst, 0, static_cast<std::size_t>(ow));
            continue;
          }
          const std::int8_t* src = xc + yi * in_w;
          if (lo > 0)
            std::memset(dst, 0, static_cast<std::size_t>(lo));
          if (stride == 1) {
            // Interior fast path: one contiguous row copy.
            std::memcpy(dst + lo, src + (lo - padding + kw),
                        static_cast<std::size_t>(hi - lo));
          } else {
            for (std::int64_t xo = lo; xo < hi; ++xo)
              dst[xo] = src[xo * stride - padding + kw];
          }
          if (hi < ow)
            std::memset(dst + hi, 0, static_cast<std::size_t>(ow - hi));
        }
      }
    }
  }
}

void conv2d_i8_tiled_exec(const std::int8_t* qx,
                          std::span<const std::int8_t> w,
                          const ConvGeom& geom, std::int64_t n,
                          std::int64_t in_h, std::int64_t in_w,
                          const nn::RequantEpilogue& epi, QnnScratch& scratch,
                          float* y, ThreadPool* pool) {
  const std::int64_t co = geom.out_channels;
  const std::int64_t ckk = geom.in_channels * geom.kernel * geom.kernel;
  const std::int64_t osp = geom.out_size(in_h) * geom.out_size(in_w);
  const std::int64_t in_stride = geom.in_channels * in_h * in_w;
  std::int8_t* col =
      scratch.ensure(scratch.col, static_cast<std::size_t>(n * ckk * osp));
  ThreadPool::chunks_or_inline(pool, static_cast<std::size_t>(n),
             [&](std::size_t begin, std::size_t end) {
               for (std::size_t s = begin; s < end; ++s)
                 im2col_i8(qx + static_cast<std::int64_t>(s) * in_stride,
                           geom, in_h, in_w,
                           col + static_cast<std::int64_t>(s) * ckk * osp);
             });
  const std::int64_t blocks = (co + kCoBlock - 1) / kCoBlock;
  ThreadPool::chunks_or_inline(pool, static_cast<std::size_t>(n * blocks),
             [&](std::size_t begin, std::size_t end) {
               for (std::size_t u = begin; u < end; ++u) {
                 const auto s = static_cast<std::int64_t>(u) / blocks;
                 const std::int64_t m0 =
                     (static_cast<std::int64_t>(u) % blocks) * kCoBlock;
                 nn::gemm_i8_colblock(w.data(), col + s * ckk * osp,
                                      y + s * co * osp, m0,
                                      std::min(co, m0 + kCoBlock), ckk, osp,
                                      ckk, osp, osp, epi);
               }
             });
}

}  // namespace radar::qnn
