// Timing simulator + network descriptors + DRAM/rowhammer model.
#include <gtest/gtest.h>

#include "common/error.h"
#include "sim/dram.h"
#include "sim/netdesc.h"
#include "sim/timing.h"

namespace radar::sim {
namespace {

TEST(NetDesc, Resnet20MatchesHandCount) {
  const NetworkShape net = resnet20_shape();
  EXPECT_EQ(net.total_weights(), 270896);  // conv+fc weights, CIFAR ResNet-20
  // ~40.5M MACs for one 32x32 image (well-known figure ~41M).
  EXPECT_NEAR(static_cast<double>(net.total_macs()), 40.5e6, 1.5e6);
}

TEST(NetDesc, Resnet18MatchesImagenetArchitecture) {
  const NetworkShape net = resnet18_shape();
  EXPECT_EQ(net.total_weights(), 11678912);  // 11.7M conv+fc weights
  // ~1.8G MACs at 224x224 (the canonical ResNet-18 figure).
  EXPECT_NEAR(static_cast<double>(net.total_macs()), 1.82e9, 0.1e9);
}

TEST(NetDesc, SignatureStorageMatchesPaperFig6) {
  // Paper: ResNet-18 @ G=512, 2-bit -> 5.6 KB; ResNet-20 @ G=8 -> 8.2 KB.
  const NetworkShape r18 = resnet18_shape();
  const double kb18 =
      static_cast<double>(r18.signature_storage_bytes(512, 2)) / 1024.0;
  EXPECT_NEAR(kb18, 5.6, 0.2);
  const NetworkShape r20 = resnet20_shape();
  const double kb20 =
      static_cast<double>(r20.signature_storage_bytes(8, 2)) / 1024.0;
  EXPECT_NEAR(kb20, 8.2, 0.15);
}

TEST(NetDesc, CrcStorageMatchesPaperTableV) {
  // CRC-13 @ G=512 on ResNet-18: 36.4 KB; @ G=8 on ResNet-20: 28.7 KB
  // (13/2 x the signature storage... 6.5x, computed directly).
  const NetworkShape r18 = resnet18_shape();
  EXPECT_NEAR(static_cast<double>(r18.code_storage_bytes(512, 13)) / 1024.0,
              36.4, 1.0);
  const NetworkShape r20 = resnet20_shape();
  EXPECT_NEAR(static_cast<double>(r20.code_storage_bytes(8, 7)) / 1024.0,
              28.7, 1.0);
}

TEST(NetDesc, LayerShapeFormulas) {
  LayerShape conv;
  conv.type = LayerType::kConv;
  conv.in_channels = 16;
  conv.out_channels = 32;
  conv.kernel = 3;
  conv.stride = 2;
  conv.padding = 1;
  conv.in_h = conv.in_w = 32;
  EXPECT_EQ(conv.out_h(), 16);
  EXPECT_EQ(conv.weights(), 32 * 16 * 9);
  EXPECT_EQ(conv.macs(), 32 * 16 * 16 * 16 * 9);

  LayerShape fc;
  fc.type = LayerType::kFullyConnected;
  fc.in_channels = 512;
  fc.out_channels = 1000;
  EXPECT_EQ(fc.weights(), 512000);
  EXPECT_EQ(fc.macs(), 512000);
}

TEST(Timing, DefaultsReproducePaperTableIvBaselines) {
  TimingSimulator sim;
  // Paper Table IV: ResNet-20 66.3 ms, ResNet-18 3.268 s. A single
  // cycles/MAC constant cannot hit both exactly (different platform
  // efficiency per net); defaults land within ~6%.
  EXPECT_NEAR(sim.inference_seconds(resnet20_shape()), 0.0663, 0.006);
  EXPECT_NEAR(sim.inference_seconds(resnet18_shape()), 3.268, 0.17);
}

TEST(Timing, DefaultsReproducePaperTableIvRadarOverheads) {
  TimingSimulator sim;
  // Paper Table IV deltas: ResNet-20 G=8 2.4 ms (3.5 ms interleaved),
  // ResNet-18 G=512 19 ms (60 ms interleaved).
  EXPECT_NEAR(sim.radar_seconds(resnet20_shape(), 8, false).detection,
              0.0024, 0.0002);
  EXPECT_NEAR(sim.radar_seconds(resnet20_shape(), 8, true).detection,
              0.0035, 0.0003);
  EXPECT_NEAR(sim.radar_seconds(resnet18_shape(), 512, false).detection,
              0.019, 0.001);
  EXPECT_NEAR(sim.radar_seconds(resnet18_shape(), 512, true).detection,
              0.060, 0.005);
}

TEST(Timing, DefaultsReproducePaperTableVCrcOverheads) {
  TimingSimulator sim;
  // Paper Table V deltas: 17.9 ms (ResNet-20, G=8), 317 ms (ResNet-18,
  // G=512).
  EXPECT_NEAR(sim.crc_seconds(resnet20_shape(), 8, 7).detection, 0.0179,
              0.001);
  EXPECT_NEAR(sim.crc_seconds(resnet18_shape(), 512, 13).detection, 0.317,
              0.01);
}

TEST(Timing, RadarOverheadUnderTwoPercentForResnet18) {
  TimingSimulator sim;
  const auto t = sim.radar_seconds(resnet18_shape(), 512, true);
  EXPECT_LT(t.overhead_pct(), 2.5);
  EXPECT_GT(t.overhead_pct(), 0.5);
}

TEST(Timing, InterleaveCostsExtra) {
  TimingSimulator sim;
  const auto plain = sim.radar_seconds(resnet18_shape(), 512, false);
  const auto inter = sim.radar_seconds(resnet18_shape(), 512, true);
  EXPECT_GT(inter.detection, plain.detection);
  EXPECT_EQ(inter.baseline, plain.baseline);
}

TEST(Timing, CrcSlowerThanRadar) {
  TimingSimulator sim;
  const auto radar = sim.radar_seconds(resnet18_shape(), 512, true);
  const auto crc = sim.crc_seconds(resnet18_shape(), 512, 13);
  EXPECT_GT(crc.detection, radar.detection * 3.0);
}

TEST(Timing, SmallerGroupsCostMore) {
  TimingSimulator sim;
  const auto g8 = sim.radar_seconds(resnet20_shape(), 8, true);
  const auto g64 = sim.radar_seconds(resnet20_shape(), 64, true);
  EXPECT_GT(g8.detection, g64.detection);
}

TEST(Timing, BatchedInferenceAmortizesDetection) {
  TimingSimulator sim;
  const auto single = sim.radar_seconds(resnet18_shape(), 512, true);
  const auto batched = sim.radar_seconds_batched(resnet18_shape(), 512, true, 8);
  EXPECT_NEAR(batched.baseline, 8.0 * single.baseline, 1e-9);
  EXPECT_EQ(batched.detection, single.detection);
  EXPECT_LT(batched.overhead_pct(), single.overhead_pct());
}

TEST(Timing, CalibrationHitsTargetsExactly) {
  TimingSimulator sim;
  sim.calibrate_baseline(resnet20_shape(), 0.0663, resnet18_shape(), 3.268);
  EXPECT_NEAR(sim.inference_seconds(resnet20_shape()), 0.0663, 1e-6);
  EXPECT_NEAR(sim.inference_seconds(resnet18_shape()), 3.268, 1e-5);
  sim.calibrate_radar(resnet20_shape(), 8, 0.0024, resnet18_shape(), 512,
                      0.019);
  EXPECT_NEAR(sim.radar_seconds(resnet20_shape(), 8, false).detection,
              0.0024, 1e-6);
  EXPECT_NEAR(sim.radar_seconds(resnet18_shape(), 512, false).detection,
              0.019, 1e-5);
}

TEST(Timing, RecoveryCosts) {
  TimingSimulator sim;
  EXPECT_GT(sim.reload_seconds(11678912), sim.zero_out_seconds(512));
  EXPECT_NEAR(sim.zero_out_seconds(512), 512e-9, 1e-10);
}

TEST(Dram, SusceptibleCellsAreRareAndDeterministic) {
  DramConfig cfg;
  cfg.cell_vulnerability = 1e-3;
  DramModel dram(cfg);
  std::int64_t weak = 0;
  const std::int64_t probes = 200000;
  for (std::int64_t i = 0; i < probes; ++i) {
    const std::int64_t row = i % 100;
    const std::int64_t byte = (i / 100) % cfg.row_bytes;
    const int bit = static_cast<int>(i % 8);
    if (dram.susceptible(row, byte, bit)) ++weak;
    // Determinism: asking twice gives the same answer.
    EXPECT_EQ(dram.susceptible(row, byte, bit),
              dram.susceptible(row, byte, bit));
  }
  const double rate = static_cast<double>(weak) / static_cast<double>(probes);
  EXPECT_NEAR(rate, 1e-3, 4e-4);
}

TEST(Dram, ActivationCountersAccumulateAcrossHarvests) {
  DramConfig cfg;
  cfg.cell_vulnerability = 0.05;
  cfg.flip_ramp = 1;  // step: pressure past threshold flips every weak cell
  DramModel dram(cfg);
  Rng rng(4);
  PhysAddr aggressor, victim;
  aggressor.row = 9;
  victim.row = 10;
  dram.activate(aggressor, 100);
  dram.activate(aggressor, 200);
  EXPECT_EQ(dram.activations(9), 300);
  EXPECT_EQ(dram.activations(10), 0);
  // Counters live on the aggressor; the victim's own count stays zero and
  // sub-threshold neighbour pressure never flips.
  EXPECT_TRUE(dram.harvest(victim, rng).empty());
  dram.activate(aggressor, cfg.hammer_threshold);
  const auto flips = dram.harvest(victim, rng);
  EXPECT_FALSE(flips.empty());
  for (const DramFlip& f : flips) {
    EXPECT_EQ(f.row, 10);
    EXPECT_EQ(f.offset, 10 * cfg.row_bytes + f.byte_in_row);
  }
  // Harvesting consumes no pressure: the same weak cells flip again.
  EXPECT_EQ(dram.activations(9), 300 + cfg.hammer_threshold);
  EXPECT_EQ(dram.harvest(victim, rng).size(), flips.size());
}
TEST(Dram, DifferentSeedsGiveDifferentVulnerabilityMaps) {
  DramConfig a, b;
  a.cell_vulnerability = b.cell_vulnerability = 0.2;
  b.seed = a.seed + 1;
  DramModel da(a), db(b);
  int diff = 0;
  for (std::int64_t i = 0; i < 500; ++i)
    if (da.susceptible(0, i, 0) != db.susceptible(0, i, 0)) ++diff;
  EXPECT_GT(diff, 50);
}

TEST(Timing, HammingBetweenRadarAndBitSerialCrc) {
  TimingSimulator sim;
  const auto radar = sim.radar_seconds(resnet18_shape(), 512, false);
  const auto hamming = sim.hamming_seconds(resnet18_shape(), 512);
  const auto crc = sim.crc_seconds(resnet18_shape(), 512, 13);
  EXPECT_GT(hamming.detection, radar.detection);
  EXPECT_LT(hamming.detection, crc.detection);
}

TEST(Timing, CalibrationRejectsSingularSystems) {
  TimingSimulator sim;
  EXPECT_THROW(sim.calibrate_baseline(resnet20_shape(), 0.01,
                                      resnet20_shape(), 0.02),
               InvalidArgument);
}

DramConfig multi_bank_config() {
  DramConfig cfg;
  cfg.channels = 2;
  cfg.ranks = 2;
  cfg.banks = 4;
  cfg.num_rows = 32;
  cfg.row_bytes = 1024;
  cfg.stripe_bytes = 128;
  return cfg;
}

TEST(Dram, AddressMappingRoundTripsRowMajor) {
  DramConfig cfg = multi_bank_config();
  cfg.mapping = AddressMapping::kRowMajor;
  DramModel dram(cfg);
  const std::int64_t cap = dram.capacity_bytes();
  EXPECT_EQ(cap, 2 * 2 * 4 * 32 * 1024);
  for (std::int64_t off : {std::int64_t{0}, std::int64_t{1},
                           std::int64_t{127}, std::int64_t{128},
                           std::int64_t{1023}, std::int64_t{1024},
                           std::int64_t{8191}, cap / 3, cap / 2, cap - 1}) {
    const PhysAddr a = dram.decompose(off);
    EXPECT_GE(a.channel, 0);
    EXPECT_LT(a.channel, cfg.channels);
    EXPECT_GE(a.rank, 0);
    EXPECT_LT(a.rank, cfg.ranks);
    EXPECT_GE(a.bank, 0);
    EXPECT_LT(a.bank, cfg.banks);
    EXPECT_GE(a.row, 0);
    EXPECT_LT(a.row, cfg.num_rows);
    EXPECT_GE(a.col, 0);
    EXPECT_LT(a.col, cfg.row_bytes);
    EXPECT_EQ(dram.compose(a), off);
    EXPECT_GE(dram.global_row(a), 0);
    EXPECT_LT(dram.global_row(a), dram.total_rows());
  }
  EXPECT_THROW(dram.decompose(cap), radar::InvalidArgument);
}

TEST(Dram, AddressMappingRoundTripsBankStripe) {
  DramConfig cfg = multi_bank_config();
  cfg.mapping = AddressMapping::kBankStripe;
  DramModel dram(cfg);
  const std::int64_t cap = dram.capacity_bytes();
  // Exhaustive round-trip over a prefix plus strided samples to the end.
  for (std::int64_t off = 0; off < 4096; ++off)
    EXPECT_EQ(dram.compose(dram.decompose(off)), off);
  for (std::int64_t off = 0; off < cap; off += 997)
    EXPECT_EQ(dram.compose(dram.decompose(off)), off);
  EXPECT_EQ(dram.compose(dram.decompose(cap - 1)), cap - 1);
}

TEST(Dram, BankStripeInterleavesAcrossBanks) {
  DramConfig cfg = multi_bank_config();
  cfg.mapping = AddressMapping::kBankStripe;
  DramModel dram(cfg);
  // Consecutive stripe granules land in different banks; with row-major
  // they share a row.
  const PhysAddr a = dram.decompose(0);
  const PhysAddr b = dram.decompose(cfg.stripe_bytes);
  EXPECT_NE(dram.global_row(a), dram.global_row(b));
  // After total_banks granules the stripe wraps back to the first bank.
  const PhysAddr c = dram.decompose(cfg.stripe_bytes * dram.total_banks());
  EXPECT_EQ(c.channel, a.channel);
  EXPECT_EQ(c.rank, a.rank);
  EXPECT_EQ(c.bank, a.bank);

  DramConfig lin = cfg;
  lin.mapping = AddressMapping::kRowMajor;
  DramModel ldram(lin);
  EXPECT_EQ(ldram.global_row(ldram.decompose(0)),
            ldram.global_row(ldram.decompose(cfg.stripe_bytes)));
}

TEST(Dram, HammerVictimFlipsOnlyTheVictimRow) {
  DramConfig cfg = multi_bank_config();
  cfg.mapping = AddressMapping::kBankStripe;
  cfg.cell_vulnerability = 0.05;
  cfg.hammer_threshold = 1000;
  cfg.flip_ramp = 1;  // step: pressure past threshold flips for sure
  DramModel dram(cfg);
  Rng rng(11);
  const PhysAddr victim = dram.decompose(3 * cfg.stripe_bytes + 17);
  const auto flips = dram.hammer_victim(victim, 2 * cfg.hammer_threshold,
                                        /*double_sided=*/false, rng);
  ASSERT_FALSE(flips.empty());
  for (const DramFlip& f : flips) {
    EXPECT_EQ(f.row, dram.global_row(victim));
    const PhysAddr back = dram.decompose(f.offset);
    EXPECT_EQ(back.channel, victim.channel);
    EXPECT_EQ(back.rank, victim.rank);
    EXPECT_EQ(back.bank, victim.bank);
    EXPECT_EQ(back.row, victim.row);
    EXPECT_EQ(back.col, f.byte_in_row);
  }
}

TEST(Dram, HammerVictimSubThresholdNeverFlips) {
  DramConfig cfg = multi_bank_config();
  cfg.cell_vulnerability = 0.5;  // plenty of weak cells: threshold must gate
  cfg.hammer_threshold = 1000;
  cfg.flip_ramp = 1;
  DramModel dram(cfg);
  Rng rng(12);
  const PhysAddr victim = dram.decompose(2048);
  EXPECT_TRUE(dram.hammer_victim(victim, cfg.hammer_threshold - 1,
                                 /*double_sided=*/false, rng)
                  .empty());
  // One more activation tips the accumulated pressure over.
  EXPECT_FALSE(dram.hammer_victim(victim, 1, /*double_sided=*/false, rng)
                   .empty());
}

TEST(Dram, DoubleSidedHammeringPressuresFromBothRows) {
  DramConfig cfg = multi_bank_config();
  cfg.cell_vulnerability = 0.5;
  cfg.hammer_threshold = 1000;
  cfg.flip_ramp = 1;
  const std::int64_t acts = cfg.hammer_threshold / 2 + 10;  // half + slack
  Rng rng(13);
  // Single-sided at just over half the threshold: no flips.
  DramModel single(cfg);
  const PhysAddr victim = single.decompose(5 * cfg.row_bytes);
  EXPECT_TRUE(single.hammer_victim(victim, acts, false, rng).empty());
  // Double-sided at the same count: both neighbours contribute, flips.
  DramModel both(cfg);
  EXPECT_FALSE(both.hammer_victim(victim, acts, true, rng).empty());
}

TEST(Dram, HammerVictimDeterministicPerSeed) {
  DramConfig cfg = multi_bank_config();
  cfg.mapping = AddressMapping::kBankStripe;
  cfg.cell_vulnerability = 0.05;
  cfg.hammer_threshold = 1000;
  cfg.flip_ramp = 2000;  // p ~ 0.5: the rng stream matters
  const std::int64_t acts = 2000;
  DramModel da(cfg), db(cfg), dc(cfg);
  Rng ra(7), rb(7), rc(8);
  const PhysAddr victim = da.decompose(4096);
  const auto fa = da.hammer_victim(victim, acts, true, ra);
  const auto fb = db.hammer_victim(victim, acts, true, rb);
  const auto fc = dc.hammer_victim(victim, acts, true, rc);
  ASSERT_FALSE(fa.empty());
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa[i].row, fb[i].row);
    EXPECT_EQ(fa[i].byte_in_row, fb[i].byte_in_row);
    EXPECT_EQ(fa[i].bit, fb[i].bit);
    EXPECT_EQ(fa[i].offset, fb[i].offset);
  }
  // A different rng seed draws a different subset of the weak cells.
  bool same = fa.size() == fc.size();
  if (same)
    for (std::size_t i = 0; i < fa.size(); ++i)
      same = same && fa[i].byte_in_row == fc[i].byte_in_row &&
             fa[i].bit == fc[i].bit;
  EXPECT_FALSE(same);
}

}  // namespace
}  // namespace radar::sim
