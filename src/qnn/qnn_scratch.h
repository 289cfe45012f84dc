// QnnScratch: caller-provided working memory for the quantized inference
// hot path (the qnn counterpart of core/scan_scratch.h).
//
// InferenceEngine's forwards (plain and verified) and the
// conv2d_i8_tiled_exec kernel they run borrow their buffers from one of
// these instead of heap-allocating per call. Buffers grow to the
// high-water mark of the network / batch they serve and are then reused,
// so a steady-state forward loop performs zero heap allocations (the
// `grows` counter is the test hook for that property). A scratch object
// is not thread-safe; use one per worker.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/scan_scratch.h"

namespace radar::qnn {

struct QnnScratch {
  std::vector<float> act[3];          ///< activation ping-pong + skip buffer
  std::vector<std::int8_t> qact;      ///< quantized input of the current op
  std::vector<std::int8_t> col;       ///< im2col patch matrices, all samples
  core::ScanScratch scan;             ///< verified forward: layer rescans
  std::vector<std::int64_t> flagged;  ///< verified forward: one layer's flags
  std::size_t grows = 0;              ///< buffer-growth events (warm-up ends
                                      ///< when this stops increasing)

  /// Grow-only resize: returns a pointer to at least `n` elements.
  template <typename T>
  T* ensure(std::vector<T>& v, std::size_t n) {
    if (v.size() < n) {
      v.resize(n);
      ++grows;
    }
    return v.data();
  }
};

}  // namespace radar::qnn
