// Synthetic dataset generator: determinism, balance, batching contracts,
// lazy split rendering.
#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "data/synthetic.h"

namespace radar::data {
namespace {

TEST(Synthetic, DeterministicFromSeed) {
  const auto spec = synthetic_cifar_spec();
  SyntheticDataset a(spec, 64, 32);
  SyntheticDataset b(spec, 64, 32);
  Batch ta = a.test_batch(0, 32);
  Batch tb = b.test_batch(0, 32);
  EXPECT_EQ(nn::max_abs_diff(ta.images, tb.images), 0.0f);
  EXPECT_EQ(ta.labels, tb.labels);
}

TEST(Synthetic, DifferentSeedsProduceDifferentData) {
  auto spec_a = synthetic_cifar_spec();
  auto spec_b = spec_a;
  spec_b.seed += 1;
  SyntheticDataset a(spec_a, 16, 16);
  SyntheticDataset b(spec_b, 16, 16);
  EXPECT_GT(nn::max_abs_diff(a.test_batch(0, 16).images,
                             b.test_batch(0, 16).images),
            0.0f);
}

TEST(Synthetic, LabelsBalancedRoundRobin) {
  const auto spec = synthetic_cifar_spec();
  SyntheticDataset d(spec, 100, 50);
  std::vector<int> counts(10, 0);
  for (int l : d.test_labels()) counts[static_cast<std::size_t>(l)]++;
  for (int c : counts) EXPECT_EQ(c, 5);
}

TEST(Synthetic, TrainBatchShapeAndLabels) {
  const auto spec = synthetic_cifar_spec();
  SyntheticDataset d(spec, 128, 32);
  Rng rng(5);
  Batch b = d.train_batch(16, rng);
  EXPECT_EQ(b.images.shape(), (std::vector<std::int64_t>{16, 3, 32, 32}));
  EXPECT_EQ(b.labels.size(), 16u);
  for (int l : b.labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, 10);
  }
}

TEST(Synthetic, TestBatchRangeValidation) {
  const auto spec = synthetic_cifar_spec();
  SyntheticDataset d(spec, 32, 16);
  EXPECT_THROW(d.test_batch(10, 10), InvalidArgument);
  EXPECT_NO_THROW(d.test_batch(6, 10));
}

TEST(Synthetic, AttackBatchDeterministicInSeed) {
  const auto spec = synthetic_cifar_spec();
  SyntheticDataset d(spec, 64, 16);
  Batch a = d.attack_batch(8, 42);
  Batch b = d.attack_batch(8, 42);
  Batch c = d.attack_batch(8, 43);
  EXPECT_EQ(nn::max_abs_diff(a.images, b.images), 0.0f);
  EXPECT_GT(nn::max_abs_diff(a.images, c.images), 0.0f);
}

TEST(Synthetic, ImagenetSpecIsHarder) {
  const auto c = synthetic_cifar_spec();
  const auto i = synthetic_imagenet_spec();
  EXPECT_GT(i.num_classes, c.num_classes);
  EXPECT_GT(i.noise, c.noise);
}

TEST(Synthetic, ClassesAreVisuallyDistinct) {
  // Mean intra-class distance should be smaller than inter-class distance
  // (otherwise the task is unlearnable and all accuracy numbers collapse).
  const auto spec = synthetic_cifar_spec();
  SyntheticDataset d(spec, 200, 100);
  Batch b = d.test_batch(0, 100);
  const std::int64_t stride = 3 * 32 * 32;
  auto dist = [&](std::int64_t i, std::int64_t j) {
    double s = 0.0;
    for (std::int64_t k = 0; k < stride; ++k) {
      const double diff =
          b.images[i * stride + k] - b.images[j * stride + k];
      s += diff * diff;
    }
    return s;
  };
  double intra = 0.0, inter = 0.0;
  int n_intra = 0, n_inter = 0;
  for (std::int64_t i = 0; i < 40; ++i) {
    for (std::int64_t j = i + 1; j < 40; ++j) {
      if (b.labels[static_cast<std::size_t>(i)] ==
          b.labels[static_cast<std::size_t>(j)]) {
        intra += dist(i, j);
        ++n_intra;
      } else {
        inter += dist(i, j);
        ++n_inter;
      }
    }
  }
  ASSERT_GT(n_intra, 0);
  ASSERT_GT(n_inter, 0);
  EXPECT_LT(intra / n_intra, inter / n_inter);
}

/// Every byte of both splits: the whole test split, and the train split
/// through a fixed sampling stream (train_batch is its only reader).
struct SplitBytes {
  Batch test, train;
};

SplitBytes read_test_first(const SyntheticDataset& d) {
  SplitBytes out;
  out.test = d.test_batch(0, d.test_size());
  Rng rng(99);
  out.train = d.train_batch(d.train_size(), rng);
  return out;
}

SplitBytes read_train_first(const SyntheticDataset& d) {
  SplitBytes out;
  Rng rng(99);
  out.train = d.train_batch(d.train_size(), rng);
  out.test = d.test_batch(0, d.test_size());
  return out;
}

void expect_same(const SplitBytes& a, const SplitBytes& b) {
  EXPECT_EQ(nn::max_abs_diff(a.test.images, b.test.images), 0.0f);
  EXPECT_EQ(a.test.labels, b.test.labels);
  EXPECT_EQ(nn::max_abs_diff(a.train.images, b.train.images), 0.0f);
  EXPECT_EQ(a.train.labels, b.train.labels);
}

TEST(SyntheticLazy, FirstTouchOrderDoesNotChangeBytes) {
  const auto spec = synthetic_cifar_spec();
  const SyntheticDataset test_first(spec, 48, 24);
  const SyntheticDataset train_first(spec, 48, 24);
  const SyntheticDataset attack_first(spec, 48, 24);
  const SplitBytes a = read_test_first(test_first);
  const SplitBytes b = read_train_first(train_first);
  expect_same(a, b);
  // The attack batch is the train split's only reader in a PBFA
  // campaign: touching it first must render the same train bytes.
  const Batch atk = attack_first.attack_batch(16, 7);
  EXPECT_EQ(nn::max_abs_diff(atk.images,
                             test_first.attack_batch(16, 7).images),
            0.0f);
  EXPECT_EQ(atk.labels, test_first.attack_batch(16, 7).labels);
  expect_same(a, read_test_first(attack_first));
}

TEST(SyntheticLazy, ConcurrentFirstTouchSeesOneRendering) {
  const auto spec = synthetic_cifar_spec();
  const SyntheticDataset reference(spec, 40, 20);
  const SplitBytes want = read_test_first(reference);
  const SyntheticDataset shared(spec, 40, 20);
  constexpr int kThreads = 4;
  std::vector<SplitBytes> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    // Half the readers start on each split, so both first touches race.
    threads.emplace_back([&shared, &got, t] {
      got[static_cast<std::size_t>(t)] =
          t % 2 == 0 ? read_test_first(shared) : read_train_first(shared);
    });
  }
  for (auto& th : threads) th.join();
  for (const SplitBytes& g : got) expect_same(want, g);
}

TEST(SyntheticLazy, SizesMatchConstructorArguments) {
  const auto spec = synthetic_cifar_spec();
  const SyntheticDataset d(spec, 37, 11);
  EXPECT_EQ(d.train_size(), 37);
  EXPECT_EQ(d.test_size(), 11);
  EXPECT_EQ(d.test_labels().size(), 11u);
  const SyntheticDataset empty(spec, 0, 0);
  EXPECT_EQ(empty.train_size(), 0);
  EXPECT_EQ(empty.test_size(), 0);
  EXPECT_THROW(SyntheticDataset(spec, -1, 4), InvalidArgument);
}

TEST(Synthetic, RejectsDegenerateSpecs) {
  auto spec = synthetic_cifar_spec();
  spec.num_classes = 1;
  EXPECT_THROW(SyntheticDataset(spec, 8, 8), InvalidArgument);
}

}  // namespace
}  // namespace radar::data
