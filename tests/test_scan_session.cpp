// The shared chunk plan and its two drains: plan_chunks must cover every
// group exactly once in ascending order for any layer and chunk size, and
// ScanSession (pooled or inline) and ScanScheduler (any budget) must
// reproduce the serial scan bit for bit, for every registered scheme,
// clean or corrupted.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>

#include "common/bits.h"
#include "common/cpu_features.h"
#include "core/scan_scheduler.h"
#include "core/scan_session.h"
#include "core/scheme_registry.h"

// ---- counting global allocator (zero-allocation assertions) ----
namespace {
std::atomic<std::size_t> g_alloc_count{0};
}

void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  ++g_alloc_count;
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

namespace radar::core {
namespace {

nn::ResNetSpec tiny_spec() {
  nn::ResNetSpec s;
  s.num_classes = 4;
  s.base_width = 8;
  s.blocks_per_stage = {1, 1};
  s.name = "tiny";
  return s;
}

class ScanSessionTest : public ::testing::Test {
 protected:
  ScanSessionTest() : rng_(11), model_(tiny_spec(), rng_), qm_(model_) {}

  Rng rng_;
  nn::ResNet model_;
  quant::QuantizedModel qm_;
};

TEST_F(ScanSessionTest, ParallelEqualsSerialForEveryScheme) {
  SchemeParams params;
  params.group_size = 32;
  for (const auto& id : SchemeRegistry::instance().ids()) {
    auto scheme = SchemeRegistry::instance().create(id, params);
    scheme->attach(qm_);
    const quant::ArenaSnapshot clean = qm_.snapshot();

    // Corrupt several layers so the merged report is non-trivial.
    qm_.flip_bit(0, 1, kMsb);
    qm_.flip_bit(1, 3, kMsb);
    qm_.flip_bit(4, 9, kMsb);

    const DetectionReport serial = scheme->scan(qm_);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
      ScanSession session(*scheme, threads);
      const DetectionReport parallel = session.scan(qm_);
      EXPECT_EQ(serial.flagged, parallel.flagged)
          << id << " with " << threads << " threads";
    }
    qm_.restore(clean);
  }
}

TEST_F(ScanSessionTest, EveryDispatchLevelMatchesScalarWholeModelScan) {
  // Whole-model chunked scans under each supported SIMD level against
  // the scalar-level serial scan: the dispatched range kernel over whole
  // layers and split chunks, and the merge, must agree bit for bit for
  // every registered scheme.
  SchemeParams params;
  params.group_size = 32;
  for (const auto& id : SchemeRegistry::instance().ids()) {
    auto scheme = SchemeRegistry::instance().create(id, params);
    scheme->attach(qm_);
    const quant::ArenaSnapshot clean = qm_.snapshot();
    qm_.flip_bit(0, 1, kMsb);
    qm_.flip_bit(2, 5, kMsb);
    qm_.flip_bit(4, 9, kMsb);

    DetectionReport want;
    {
      cpu::ScopedSimdLevel guard(cpu::SimdLevel::kScalar);
      want = scheme->scan(qm_);
    }
    for (int l = 0; l < cpu::kNumSimdLevels; ++l) {
      const auto lvl = static_cast<cpu::SimdLevel>(l);
      if (!cpu::level_supported(lvl)) continue;
      cpu::ScopedSimdLevel guard(lvl);
      EXPECT_EQ(scheme->scan(qm_).flagged, want.flagged)
          << id << " serial, level " << cpu::level_name(lvl);
      ScanSession session(*scheme, 4);
      session.set_shard_bytes(96);  // force split shards -> range kernel
      EXPECT_EQ(session.scan(qm_).flagged, want.flagged)
          << id << " sharded, level " << cpu::level_name(lvl);
    }
    qm_.restore(clean);
  }
}

TEST_F(ScanSessionTest, CleanModelScansCleanInParallel) {
  auto scheme = SchemeRegistry::instance().create("radar2", SchemeParams{
      .group_size = 32});
  scheme->attach(qm_);
  ScanSession session(*scheme, 4);
  EXPECT_FALSE(session.scan(qm_).attack_detected());
}

TEST_F(ScanSessionTest, SerialSessionRunsWithoutPool) {
  auto scheme = SchemeRegistry::instance().create("radar2", SchemeParams{
      .group_size = 32});
  scheme->attach(qm_);
  ScanSession session(*scheme, 1);
  EXPECT_EQ(session.threads(), 1u);
  qm_.flip_bit(1, 3, kMsb);
  EXPECT_EQ(session.scan(qm_).flagged, scheme->scan(qm_).flagged);
  qm_.flip_bit(1, 3, kMsb);
}

TEST_F(ScanSessionTest, ByteRangeShardsMatchSerialAtAnyShardSize) {
  // Force shards far smaller than any layer so every layer splits into
  // many group ranges; the merged report must still equal the serial
  // scan bit for bit, for every scheme.
  Rng rng(0xBEEF);
  SchemeParams params;
  params.group_size = 16;
  for (const auto& id : SchemeRegistry::instance().ids()) {
    auto scheme = SchemeRegistry::instance().create(id, params);
    scheme->attach(qm_);
    const quant::ArenaSnapshot clean = qm_.snapshot();
    for (int f = 0; f < 12; ++f) {
      const auto li = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(qm_.num_layers()) - 1));
      qm_.flip_bit(li, rng.uniform_int(0, qm_.layer(li).size() - 1), kMsb);
    }
    const DetectionReport serial = scheme->scan(qm_);
    for (const std::int64_t shard_bytes : {std::int64_t{64},
                                           std::int64_t{1000}}) {
      ScanSession session(*scheme, 4);
      session.set_shard_bytes(shard_bytes);
      const DetectionReport sharded = session.scan(qm_);
      EXPECT_EQ(serial.flagged, sharded.flagged)
          << id << " shard_bytes=" << shard_bytes;
      if (shard_bytes == 64) {
        EXPECT_GT(session.last_shard_count(), qm_.num_layers())
            << id << ": small shards should split layers";
      }
    }
    // One chunk per layer: the layer-granular partitioning, pooled.
    ScanSession layerwise(*scheme, 4);
    layerwise.set_shard_bytes(std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(serial.flagged, layerwise.scan(qm_).flagged) << id;
    EXPECT_EQ(layerwise.last_shard_count(), qm_.num_layers()) << id;
    qm_.restore(clean);
  }
}

TEST_F(ScanSessionTest, RangeScanSplitsConcatenateToWholeLayerScan) {
  // scan_layer_range_into over arbitrary split points reproduces the
  // whole-layer scan for every scheme.
  Rng rng(0x51AB);
  SchemeParams params;
  params.group_size = 8;
  for (const auto& id : SchemeRegistry::instance().ids()) {
    auto scheme = SchemeRegistry::instance().create(id, params);
    scheme->attach(qm_);
    for (int f = 0; f < 10; ++f) {
      const auto li = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(qm_.num_layers()) - 1));
      qm_.flip_bit(li, rng.uniform_int(0, qm_.layer(li).size() - 1), kMsb);
    }
    ScanScratch scratch;
    std::vector<std::int64_t> part, whole;
    for (std::size_t li = 0; li < qm_.num_layers(); ++li) {
      scheme->scan_layer_into(qm_, li, whole, scratch);
      const std::int64_t ng = scheme->layout(li).num_groups();
      // Random split into 3 ranges (possibly empty).
      const std::int64_t a = rng.uniform_int(0, ng);
      const std::int64_t b = rng.uniform_int(0, ng);
      const std::int64_t lo = std::min(a, b), hi = std::max(a, b);
      std::vector<std::int64_t> merged;
      for (const auto& [s, e] : {std::pair{std::int64_t{0}, lo},
                                 std::pair{lo, hi}, std::pair{hi, ng}}) {
        scheme->scan_layer_range_into(qm_, li, s, e, part, scratch);
        for (const std::int64_t g : part) {
          EXPECT_GE(g, s);
          EXPECT_LT(g, e);
        }
        merged.insert(merged.end(), part.begin(), part.end());
      }
      EXPECT_EQ(merged, whole) << id << " layer " << li;
    }
    // Re-attach baseline for the next scheme (weights left attacked).
  }
}

TEST(ChunkPlan, CoversEveryGroupOnceInAscendingOrder) {
  // Random layer sizes (random ResNet widths and depths, random group
  // sizes) x random chunk sizes, plus the two extremes.
  Rng rng(0xC4A9);
  for (int trial = 0; trial < 12; ++trial) {
    nn::ResNetSpec spec = tiny_spec();
    spec.base_width = rng.uniform_int(1, 12);
    spec.blocks_per_stage = {rng.uniform_int(1, 2), rng.uniform_int(1, 2)};
    Rng init(static_cast<std::uint64_t>(trial));
    nn::ResNet model(spec, init);
    quant::QuantizedModel qm(model);
    SchemeParams params;
    params.group_size = rng.uniform_int(1, 48);
    params.interleave = rng.uniform_int(0, 1) == 1;
    auto scheme = SchemeRegistry::instance().create("radar2", params);
    scheme->attach(qm);
    std::vector<ScanChunk> plan;
    for (const std::int64_t chunk_bytes :
         {std::int64_t{1}, rng.uniform_int(2, 5000),
          std::numeric_limits<std::int64_t>::max()}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " chunk_bytes " +
                   std::to_string(chunk_bytes));
      plan_chunks(*scheme, chunk_bytes, plan);
      std::size_t ci = 0;
      std::int64_t bytes = 0;
      for (std::size_t li = 0; li < qm.num_layers(); ++li) {
        const GroupLayout& layout = scheme->layout(li);
        // This layer's chunks: contiguous, ascending, gap-free, non-empty.
        std::int64_t next = 0, layer_chunks = 0;
        for (; ci < plan.size() && plan[ci].layer == li; ++ci) {
          ASSERT_EQ(plan[ci].begin, next);
          ASSERT_GT(plan[ci].end, plan[ci].begin);
          ASSERT_GE(plan[ci].bytes, 1);
          next = plan[ci].end;
          bytes += plan[ci].bytes;
          ++layer_chunks;
        }
        ASSERT_EQ(next, layout.num_groups()) << "layer " << li;
        if (chunk_bytes == 1) {
          EXPECT_EQ(layer_chunks, layout.num_groups()) << "one per group";
        }
        if (chunk_bytes == std::numeric_limits<std::int64_t>::max()) {
          EXPECT_EQ(layer_chunks, 1) << "one per layer";
        }
      }
      EXPECT_EQ(ci, plan.size()) << "chunks out of layer order";
      // Chunk byte estimates round up per chunk, never below the model.
      EXPECT_GE(bytes, qm.total_weights());
    }
  }
  auto scheme = SchemeRegistry::instance().create("radar2", SchemeParams{});
  std::vector<ScanChunk> plan;
  EXPECT_THROW(plan_chunks(*scheme, 0, plan), InvalidArgument);
}

TEST_F(ScanSessionTest, EveryDrainOfThePlanEqualsSerialScan) {
  // The plan's drains — ScanSession pooled and inline, at a tiny and the
  // automatic chunk size, and ScanScheduler starved to one chunk per
  // slice or unlimited — against scheme.scan, with planted MSB flips.
  Rng rng(0xD7A1);
  SchemeParams params;
  params.group_size = 16;
  for (const auto& id : SchemeRegistry::instance().ids()) {
    auto scheme = SchemeRegistry::instance().create(id, params);
    scheme->attach(qm_);
    const quant::ArenaSnapshot clean = qm_.snapshot();
    for (int f = 0; f < 8; ++f) {
      const auto li = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(qm_.num_layers()) - 1));
      qm_.flip_bit(li, rng.uniform_int(0, qm_.layer(li).size() - 1), kMsb);
    }
    const DetectionReport serial = scheme->scan(qm_);
    ASSERT_TRUE(serial.attack_detected()) << id;
    for (const std::size_t threads : {1u, 2u, 4u}) {
      for (const std::int64_t shard_bytes : {std::int64_t{96},
                                             std::int64_t{0}}) {
        ScanSession session(*scheme, threads);
        session.set_shard_bytes(shard_bytes);
        EXPECT_EQ(session.scan(qm_).flagged, serial.flagged)
            << id << " t" << threads << " shard_bytes=" << shard_bytes;
      }
    }
    for (const std::int64_t budget_bytes : {std::int64_t{1},
                                            std::int64_t{-1}}) {
      ScanScheduler sched;
      sched.plan(*scheme, {.budget_bytes = budget_bytes, .chunk_bytes = 96});
      std::size_t slices = 0;
      while (!sched.run_slice(qm_).wrapped) ++slices;
      EXPECT_EQ(sched.last_sweep_report().flagged, serial.flagged)
          << id << " budget_bytes=" << budget_bytes;
      if (budget_bytes == 1)
        EXPECT_EQ(slices + 1, sched.num_chunks()) << id;
      else
        EXPECT_EQ(slices, 0u) << id;
    }
    qm_.restore(clean);
  }
}

TEST_F(ScanSessionTest, SerialScanLoopIsAllocationFreeAtSteadyState) {
  auto scheme = SchemeRegistry::instance().create(
      "radar2", SchemeParams{.group_size = 32});
  scheme->attach(qm_);
  ScanSession session(*scheme, 1);
  qm_.set_dirty_tracking(true);
  DetectionReport full, inc;
  qm_.flip_bit(1, 3, kMsb);
  // Warm-up: scratch and report vectors grow to their high-water mark.
  session.scan_into(qm_, full);
  session.scan_dirty_into(qm_, inc);
  const std::size_t before = g_alloc_count.load();
  for (int round = 0; round < 5; ++round) {
    session.scan_into(qm_, full);
    session.scan_dirty_into(qm_, inc);
  }
  EXPECT_EQ(g_alloc_count.load() - before, 0u)
      << "steady-state scan loop allocated";
  EXPECT_EQ(full.flagged, inc.flagged);
  qm_.undo_dirty();
  qm_.set_dirty_tracking(false);
}

TEST_F(ScanSessionTest, UnattachedSchemeRejected) {
  auto scheme = SchemeRegistry::instance().create("radar2", SchemeParams{});
  ScanSession session(*scheme, 2);
  EXPECT_THROW(session.scan(qm_), InvalidArgument);
}

TEST_F(ScanSessionTest, PooledScanRecoverResignLeavesCleanModel) {
  // The whole-model check of a deployment: a pooled scan, zero-out
  // recovery, then a re-sign so the zeroed groups become golden.
  auto scheme = SchemeRegistry::instance().create("radar2", SchemeParams{
      .group_size = 32});
  scheme->attach(qm_);
  ScanSession session(*scheme, 4);
  qm_.flip_bit(1, 3, kMsb);
  const DetectionReport report = session.scan(qm_);
  EXPECT_EQ(report.flagged[1],
            std::vector<std::int64_t>{scheme->layout(1).group_of(3)});
  EXPECT_EQ(report.num_flagged_groups(), 1);
  scheme->recover(qm_, report, RecoveryPolicy::kZeroOut);
  scheme->resign(qm_);
  EXPECT_EQ(qm_.get_code(1, 3), 0);
  // Recovered state was re-signed: the next pooled scan is clean.
  EXPECT_FALSE(session.scan(qm_).attack_detected());
}

}  // namespace
}  // namespace radar::core
