#include "sim/dram.h"

#include <algorithm>

#include "common/error.h"
#include "common/rng.h"

namespace radar::sim {

namespace {
std::uint64_t mix64(std::uint64_t x) { return splitmix64(x); }
}  // namespace

DramModel::DramModel(const DramConfig& cfg)
    : cfg_(cfg),
      total_banks_(cfg.channels * cfg.ranks * cfg.banks),
      salt_(mix64(cfg.seed)) {
  RADAR_REQUIRE(cfg.row_bytes > 0 && cfg.num_rows > 0, "bad DRAM geometry");
  RADAR_REQUIRE(cfg.channels > 0 && cfg.ranks > 0 && cfg.banks > 0,
                "bad DRAM organization");
  RADAR_REQUIRE(cfg.stripe_bytes > 0, "bad DRAM stripe size");
  if (cfg.mapping == AddressMapping::kBankStripe)
    RADAR_REQUIRE(cfg.row_bytes % cfg.stripe_bytes == 0,
                  "row_bytes must be a multiple of stripe_bytes");
  activation_count_.assign(static_cast<std::size_t>(total_rows()), 0);
}

std::uint64_t DramModel::cell_hash(std::int64_t row, std::int64_t byte_in_row,
                                   int bit) const {
  return mix64(salt_ ^ (static_cast<std::uint64_t>(row) << 32) ^
               (static_cast<std::uint64_t>(byte_in_row) << 3) ^
               static_cast<std::uint64_t>(bit));
}

bool DramModel::susceptible(std::int64_t row, std::int64_t byte_in_row,
                            int bit) const {
  // Deterministic per-cell draw: a fixed fraction of cells are weak.
  const double u = static_cast<double>(cell_hash(row, byte_in_row, bit) >> 11) /
                   static_cast<double>(1ull << 53);
  return u < cfg_.cell_vulnerability;
}

PhysAddr DramModel::decompose(std::int64_t offset) const {
  RADAR_REQUIRE(offset >= 0 && offset < capacity_bytes(),
                "offset outside DRAM capacity");
  PhysAddr a;
  std::int64_t lin;  // global bank index, ordered (channel, rank, bank)
  if (cfg_.mapping == AddressMapping::kRowMajor) {
    const std::int64_t gr = offset / cfg_.row_bytes;
    a.col = offset % cfg_.row_bytes;
    a.row = gr % cfg_.num_rows;
    lin = gr / cfg_.num_rows;
  } else {  // kBankStripe
    const std::int64_t s = offset / cfg_.stripe_bytes;
    const std::int64_t within = offset % cfg_.stripe_bytes;
    lin = s % total_banks_;
    const std::int64_t byte_in_bank =
        (s / total_banks_) * cfg_.stripe_bytes + within;
    a.row = byte_in_bank / cfg_.row_bytes;
    a.col = byte_in_bank % cfg_.row_bytes;
  }
  a.bank = lin % cfg_.banks;
  a.rank = (lin / cfg_.banks) % cfg_.ranks;
  a.channel = lin / (cfg_.banks * cfg_.ranks);
  return a;
}

std::int64_t DramModel::compose(const PhysAddr& a) const {
  RADAR_REQUIRE(a.channel >= 0 && a.channel < cfg_.channels &&
                    a.rank >= 0 && a.rank < cfg_.ranks && a.bank >= 0 &&
                    a.bank < cfg_.banks,
                "bank address out of range");
  RADAR_REQUIRE(a.row >= 0 && a.row < cfg_.num_rows, "row out of range");
  RADAR_REQUIRE(a.col >= 0 && a.col < cfg_.row_bytes, "column out of range");
  const std::int64_t lin =
      (a.channel * cfg_.ranks + a.rank) * cfg_.banks + a.bank;
  if (cfg_.mapping == AddressMapping::kRowMajor)
    return (lin * cfg_.num_rows + a.row) * cfg_.row_bytes + a.col;
  const std::int64_t byte_in_bank = a.row * cfg_.row_bytes + a.col;
  const std::int64_t s =
      (byte_in_bank / cfg_.stripe_bytes) * total_banks_ + lin;
  return s * cfg_.stripe_bytes + byte_in_bank % cfg_.stripe_bytes;
}

std::int64_t DramModel::global_row(const PhysAddr& a) const {
  const std::int64_t lin =
      (a.channel * cfg_.ranks + a.rank) * cfg_.banks + a.bank;
  return lin * cfg_.num_rows + a.row;
}

void DramModel::activate(const PhysAddr& aggressor,
                         std::int64_t activations) {
  RADAR_REQUIRE(activations >= 0, "negative activations");
  const std::int64_t gr = global_row(aggressor);
  RADAR_REQUIRE(gr >= 0 && gr < total_rows(), "row out of range");
  activation_count_[static_cast<std::size_t>(gr)] += activations;
}

std::int64_t DramModel::pressure_on(std::int64_t gr) const {
  // Only same-bank neighbours disturb a row: bank boundaries isolate.
  const std::int64_t r = gr % cfg_.num_rows;
  std::int64_t p = 0;
  if (r > 0) p += activation_count_[static_cast<std::size_t>(gr - 1)];
  if (r + 1 < cfg_.num_rows)
    p += activation_count_[static_cast<std::size_t>(gr + 1)];
  return p;
}

std::vector<DramFlip> DramModel::harvest(const PhysAddr& victim, Rng& rng) {
  PhysAddr v = victim;
  v.col = 0;
  const std::int64_t gr = global_row(v);
  RADAR_REQUIRE(gr >= 0 && gr < total_rows(), "row out of range");
  std::vector<DramFlip> flips;
  const std::int64_t pressure = pressure_on(gr);
  if (pressure < cfg_.hammer_threshold) return flips;
  // Flip probability ramps linearly in the pressure past the threshold
  // and saturates; double-sided hammering doubles the pressure, hence
  // lands higher on the ramp for the same per-aggressor activation count.
  const double p =
      cfg_.flip_ramp <= 1
          ? 1.0
          : std::min(1.0, static_cast<double>(pressure -
                                              cfg_.hammer_threshold + 1) /
                              static_cast<double>(cfg_.flip_ramp));
  for (std::int64_t col = 0; col < cfg_.row_bytes; ++col) {
    for (int bit = 0; bit < 8; ++bit) {
      if (!susceptible(gr, col, bit)) continue;
      if (!rng.bernoulli(p)) continue;
      v.col = col;
      flips.push_back({gr, col, bit, compose(v)});
    }
  }
  return flips;
}

std::vector<DramFlip> DramModel::hammer_victim(const PhysAddr& victim,
                                               std::int64_t activations,
                                               bool double_sided, Rng& rng) {
  PhysAddr above = victim, below = victim;
  above.row = victim.row + 1;
  below.row = victim.row - 1;
  const bool has_above = above.row < cfg_.num_rows;
  const bool has_below = below.row >= 0;
  RADAR_REQUIRE(has_above || has_below, "victim row has no neighbours");
  if (double_sided) {
    if (has_above) activate(above, activations);
    if (has_below) activate(below, activations);
  } else {
    activate(has_above ? above : below, activations);
  }
  return harvest(victim, rng);
}

std::int64_t DramModel::activations(std::int64_t row) const {
  RADAR_REQUIRE(row >= 0 && row < total_rows(), "row out of range");
  return activation_count_[static_cast<std::size_t>(row)];
}

}  // namespace radar::sim
