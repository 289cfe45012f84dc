// Verified inference (paper §IV): InferenceEngine::forward_verified_into
// rescans each layer right before its op fetches the weights, recovers
// flagged groups in place and reports them. On clean weights it must be
// the plain int8 forward bit for bit; under attack its report and the
// recovered arena must equal the whole-model scan -> recover -> resign
// path; and it must catch a transient flip that a periodic scan misses.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/thread_pool.h"
#include "core/scheme_registry.h"
#include "qnn/engine.h"

namespace radar::qnn {
namespace {

using core::DetectionReport;
using core::RecoveryPolicy;

constexpr int kMsb = 7;

nn::ResNetSpec tiny_spec(std::int64_t width = 8) {
  nn::ResNetSpec s;
  s.num_classes = 4;
  s.base_width = width;
  s.blocks_per_stage = {1, 1};
  s.name = "tiny";
  return s;
}

void expect_bitwise_equal(const nn::Tensor& a, const nn::Tensor& b,
                          std::int64_t rows, const std::string& what) {
  ASSERT_EQ(a.dim(1), b.dim(1)) << what;
  ASSERT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(float) *
                            static_cast<std::size_t>(rows * a.dim(1))),
            0)
      << what << ": logits are not bit-identical";
}

class VerifiedForwardTest : public ::testing::Test {
 protected:
  VerifiedForwardTest() : rng_(7), model_(tiny_spec(), rng_) {
    // Non-trivial BN running statistics.
    model_.forward(nn::Tensor::randn({8, 3, 16, 16}, rng_), nn::Mode::kTrain);
    qm_ = std::make_unique<quant::QuantizedModel>(model_);
    calib_ = nn::Tensor::randn({16, 3, 16, 16}, rng_);
    x_ = nn::Tensor::randn({4, 3, 16, 16}, rng_);
  }

  InferenceEngine make(EngineKind kind = EngineKind::kBatched,
                       ThreadPool* pool = nullptr) {
    InferenceEngine e(*qm_, kind, pool);
    e.calibrate(calib_);
    return e;
  }

  static std::unique_ptr<core::IntegrityScheme> scheme(
      const std::string& id, std::int64_t group_size = 32) {
    core::SchemeParams params;
    params.group_size = group_size;
    return core::SchemeRegistry::instance().create(id, params);
  }

  /// One verified forward of `x` on fresh working memory.
  DetectionReport verified(InferenceEngine& eng, const nn::Tensor& x,
                           core::IntegrityScheme& s,
                           RecoveryPolicy policy = RecoveryPolicy::kZeroOut) {
    QnnScratch scratch;
    nn::Tensor logits;
    DetectionReport report;
    eng.forward_verified_into(x, s, policy, scratch, logits, report);
    return report;
  }

  /// A weight of `layer` with a small code, so an MSB flip swings it far.
  std::int64_t small_weight(std::size_t layer, std::int64_t from = 0) const {
    for (std::int64_t i = from; i < qm_->layer(layer).size(); ++i)
      if (std::abs(qm_->get_code(layer, i)) < 16) return i;
    ADD_FAILURE() << "no small weight in layer " << layer;
    return 0;
  }

  Rng rng_;
  nn::ResNet model_;
  std::unique_ptr<quant::QuantizedModel> qm_;
  nn::Tensor calib_, x_;
};

TEST_F(VerifiedForwardTest, CleanLogitsEqualPlainForwardBitForBit) {
  auto s = scheme("radar2");
  s->attach(*qm_);
  ThreadPool pool(3);
  for (const EngineKind kind : {EngineKind::kBatched, EngineKind::kReference})
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool})
      for (const std::int64_t n : {1, 7}) {
        const std::string at =
            std::string(kind == EngineKind::kBatched ? "batched" : "reference") +
            (p != nullptr ? " pooled" : " inline") + " n=" + std::to_string(n);
        InferenceEngine eng = make(kind, p);
        const nn::Tensor x = nn::Tensor::randn({n, 3, 16, 16}, rng_);
        QnnScratch plain_scratch, verified_scratch;
        nn::Tensor plain, checked;
        DetectionReport report;
        eng.forward_into(x, plain_scratch, plain);
        eng.forward_verified_into(x, *s, RecoveryPolicy::kZeroOut,
                                  verified_scratch, checked, report);
        expect_bitwise_equal(plain, checked, n, at);
        EXPECT_FALSE(report.attack_detected()) << at;
        EXPECT_EQ(report.flagged.size(), qm_->num_layers()) << at;
      }
}

TEST_F(VerifiedForwardTest, AttackIsDetectedAndZeroedOnFetch) {
  auto s = scheme("radar2");
  s->attach(*qm_);
  InferenceEngine eng = make();
  qm_->flip_bit(1, 3, kMsb);
  const DetectionReport report = verified(eng, x_, *s);
  EXPECT_TRUE(report.attack_detected());
  EXPECT_EQ(report.flagged[1],
            std::vector<std::int64_t>{s->layout(1).group_of(3)});
  // The flipped weight's group was zeroed.
  EXPECT_EQ(qm_->get_code(1, 3), 0);
}

TEST_F(VerifiedForwardTest, ZeroedStateIsResignedSoTheNextForwardIsClean) {
  auto s = scheme("radar2");
  s->attach(*qm_);
  InferenceEngine eng = make();
  qm_->flip_bit(1, 3, kMsb);
  qm_->flip_bit(4, 9, kMsb);
  const DetectionReport first = verified(eng, x_, *s);
  // Two separate layers detected, each on its own fetch.
  EXPECT_FALSE(first.flagged[1].empty());
  EXPECT_FALSE(first.flagged[4].empty());
  EXPECT_EQ(qm_->get_code(1, 3), 0);
  EXPECT_EQ(qm_->get_code(4, 9), 0);
  // The zeroed groups were re-signed: no repeated alarm.
  EXPECT_FALSE(verified(eng, x_, *s).attack_detected());
  EXPECT_FALSE(s->scan(*qm_).attack_detected());
}

TEST_F(VerifiedForwardTest, ReloadPolicyRestoresCleanWeights) {
  auto s = scheme("radar2");
  s->attach(*qm_);
  InferenceEngine eng = make();
  QnnScratch scratch;
  nn::Tensor clean_logits, logits;
  eng.forward_into(x_, scratch, clean_logits);
  const std::int8_t orig = qm_->get_code(2, 10);
  qm_->flip_bit(2, 10, kMsb);
  DetectionReport report;
  eng.forward_verified_into(x_, *s, RecoveryPolicy::kReloadClean, scratch,
                            logits, report);
  EXPECT_TRUE(report.attack_detected());
  EXPECT_EQ(qm_->get_code(2, 10), orig);
  // Reload leaves the model in its golden state, and the op read the
  // reloaded weights: the logits are the clean ones.
  EXPECT_FALSE(s->scan(*qm_).attack_detected());
  expect_bitwise_equal(clean_logits, logits, x_.dim(0), "reloaded forward");
}

TEST_F(VerifiedForwardTest, RecoveryChangesCorruptedOutputs) {
  // Zero-out recovery replaces the corrupted group before the op reads
  // it: the logits leave the attacked trajectory.
  auto s = scheme("radar2");
  s->attach(*qm_);
  InferenceEngine eng = make();
  std::vector<std::int64_t> victims;
  for (std::int64_t i = 0; victims.size() < 4; ++i) {
    i = small_weight(1, i);
    victims.push_back(i);
  }
  for (const auto i : victims) qm_->flip_bit(1, i, kMsb);
  for (const auto i : victims)
    EXPECT_GE(std::abs(static_cast<int>(qm_->get_code(1, i))), 112);
  const nn::Tensor attacked = eng.forward(x_);

  QnnScratch scratch;
  nn::Tensor recovered;
  DetectionReport report;
  eng.forward_verified_into(x_, *s, RecoveryPolicy::kZeroOut, scratch,
                            recovered, report);
  for (const auto i : victims) EXPECT_EQ(qm_->get_code(1, i), 0);
  EXPECT_GT(nn::max_abs_diff(attacked, recovered), 0.0f);
  expect_bitwise_equal(eng.forward(x_), recovered, x_.dim(0),
                       "verified forward reads the recovered weights");
}

TEST_F(VerifiedForwardTest, MatchesScanRecoverResignForEveryPolicyAndScheme) {
  // Planted flips in several layers: the per-fetch report equals a
  // whole-model scan of the same attacked weights, and the recovered
  // arena equals scan -> recover -> resign.
  const quant::ArenaSnapshot clean = qm_->snapshot();
  Rng rng(0xFE7C);
  for (const std::string id : {"radar2", "radar3", "crc13"}) {
    for (const RecoveryPolicy policy :
         {RecoveryPolicy::kZeroOut, RecoveryPolicy::kReloadClean}) {
      SCOPED_TRACE(id + (policy == RecoveryPolicy::kZeroOut ? " zero-out"
                                                           : " reload"));
      qm_->restore(clean);
      auto s = scheme(id, 16);
      s->attach(*qm_);
      InferenceEngine eng = make();
      for (const std::size_t li : {std::size_t{0}, std::size_t{2},
                                   std::size_t{4}, qm_->num_layers() - 1})
        for (int f = 0; f < 2; ++f)
          qm_->flip_bit(li, rng.uniform_int(0, qm_->layer(li).size() - 1),
                        kMsb);
      const quant::ArenaSnapshot attacked = qm_->snapshot();
      const DetectionReport expect = s->scan(*qm_);
      ASSERT_TRUE(expect.attack_detected());

      const DetectionReport report = verified(eng, x_, *s, policy);
      EXPECT_EQ(report.flagged, expect.flagged);
      EXPECT_FALSE(s->scan(*qm_).attack_detected()) << "clean rescan";
      const quant::ArenaSnapshot after_verified = qm_->snapshot();

      // Reference path on a freshly signed scheme.
      qm_->restore(clean);
      auto ref = scheme(id, 16);
      ref->attach(*qm_);
      qm_->restore(attacked);
      ref->recover(*qm_, ref->scan(*qm_), policy);
      if (policy == RecoveryPolicy::kZeroOut) ref->resign(*qm_);
      EXPECT_TRUE(qm_->snapshot() == after_verified);
      EXPECT_FALSE(ref->scan(*qm_).attack_detected());
    }
  }
  qm_->restore(clean);
}

TEST_F(VerifiedForwardTest, TransientFlipMissedByPeriodicScanCaughtOnFetch) {
  // The transient-flip threat: a flip lands between two periodic scans,
  // corrupts the inferences served meanwhile, and is reverted before the
  // next scan runs.
  auto s = scheme("radar2");
  s->attach(*qm_);
  InferenceEngine eng = make();
  const nn::Tensor clean = eng.forward(x_);
  const std::size_t layer = 0;
  const std::int64_t idx = small_weight(layer);

  qm_->flip_bit(layer, idx, kMsb);
  EXPECT_GT(nn::max_abs_diff(clean, eng.forward(x_)), 0.0f)
      << "the flip corrupts a plain forward";
  qm_->flip_bit(layer, idx, kMsb);
  EXPECT_FALSE(s->scan(*qm_).attack_detected())
      << "the periodic scan sees only the reverted weights";

  // The same flip under a verified forward is checked on the fetch.
  qm_->flip_bit(layer, idx, kMsb);
  const DetectionReport report = verified(eng, x_, *s);
  EXPECT_EQ(report.num_flagged_groups(), 1);
  EXPECT_EQ(report.flagged[layer],
            std::vector<std::int64_t>{s->layout(layer).group_of(idx)});
  EXPECT_EQ(qm_->get_code(layer, idx), 0);
}

TEST_F(VerifiedForwardTest, RequiresASchemeAttachedToThisModel) {
  InferenceEngine eng = make();
  auto unattached = scheme("radar2");
  EXPECT_THROW(verified(eng, x_, *unattached), InvalidArgument);

  Rng other_rng(3);
  nn::ResNet other(tiny_spec(/*width=*/4), other_rng);
  quant::QuantizedModel other_qm(other);
  auto foreign = scheme("radar2");
  foreign->attach(other_qm);
  EXPECT_THROW(verified(eng, x_, *foreign), InvalidArgument);
}

}  // namespace
}  // namespace radar::qnn
