// Procedurally generated image-classification datasets.
//
// Stand-ins for CIFAR-10 / ImageNet (unavailable offline — see DESIGN.md
// §4). Each class has a deterministic signature (grating orientation &
// frequency, color mix, blob position); each sample perturbs the signature
// with per-sample phase, shift and pixel noise. Difficulty is controlled
// by the noise level and class count. Everything is reproducible from the
// spec's seed.
//
// Each split is rendered on its first access, from its own RNG stream
// forked at construction, so the bytes do not depend on which split is
// touched first, and a dataset nobody reads costs only its signatures.
// The first touch is thread-safe: one const dataset may be shared by
// concurrent readers (campaign worker replicas share their primary's).
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/tensor.h"

namespace radar::data {

/// One minibatch: NCHW images + integer labels.
struct Batch {
  nn::Tensor images;
  std::vector<int> labels;
};

/// Generation parameters.
struct SyntheticSpec {
  std::int64_t num_classes = 10;
  std::int64_t image_size = 32;
  std::int64_t channels = 3;
  double noise = 0.3;          ///< additive pixel noise stddev
  double jitter = 0.15;        ///< per-sample signature perturbation
  std::uint64_t seed = 1234;
  std::string name = "synthetic";
};

/// In-memory dataset materialized from a SyntheticSpec, one split at a
/// time on first use.
class SyntheticDataset {
 public:
  SyntheticDataset(const SyntheticSpec& spec, std::int64_t n_train,
                   std::int64_t n_test);

  const SyntheticSpec& spec() const { return spec_; }
  /// Split sizes; neither renders anything.
  std::int64_t train_size() const { return train_.count; }
  std::int64_t test_size() const { return test_.count; }

  /// Random training minibatch (sampling driven by the caller's RNG).
  Batch train_batch(std::int64_t batch_size, Rng& rng) const;

  /// Deterministic contiguous slice of the test set.
  Batch test_batch(std::int64_t start, std::int64_t count) const;

  /// A fixed "attack batch": what the PBFA adversary uses to estimate
  /// gradients (paper: small set with a distribution similar to training).
  Batch attack_batch(std::int64_t batch_size, std::uint64_t seed) const;

  const std::vector<int>& test_labels() const {
    return rendered(test_).labels;
  }

 private:
  /// One split: its size and stream are fixed at construction, its
  /// images and labels are filled once, by the first reader.
  struct Split {
    std::int64_t count = 0;
    Rng rng;  ///< stream state before the first sample
    std::once_flag once;
    nn::Tensor images;
    std::vector<int> labels;
  };

  /// `split`, rendered if this is its first access.
  const Split& rendered(Split& split) const;
  void render_sample(int label, Rng& rng, float* out) const;

  SyntheticSpec spec_;
  // Per-class signatures.
  std::vector<double> theta_, freq_, phase0_;
  std::vector<std::array<double, 3>> color_;
  std::vector<std::array<double, 2>> blob_;
  // Mutable: rendering on first access is not an observable change.
  mutable Split train_, test_;
};

/// CIFAR-10 stand-in: 10 classes, 32x32x3, moderate noise.
SyntheticSpec synthetic_cifar_spec();

/// ImageNet stand-in: 20 classes, 32x32x3, heavier noise and jitter.
SyntheticSpec synthetic_imagenet_spec();

}  // namespace radar::data
