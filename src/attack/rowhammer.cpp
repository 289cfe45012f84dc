#include "attack/rowhammer.h"

#include <unordered_set>
#include <utility>
#include <vector>

#include "common/error.h"

namespace radar::attack {

AttackResult rowhammer_attack(quant::QuantizedModel& qm,
                              const RowhammerConfig& cfg, Rng& rng) {
  RADAR_REQUIRE(cfg.rows > 0, "rowhammer needs at least one victim row");
  const std::int64_t bytes = qm.arena().size_bytes();

  sim::DramConfig dc = cfg.dram;
  dc.seed = rng.bits();  // fresh per-trial cell map, derived from the stream
  if (dc.num_rows <= 0) {
    // Auto-size: just enough rows per bank to hold the arena, plus slack
    // so edge rows keep both neighbours.
    const std::int64_t per_bank =
        dc.channels * dc.ranks * dc.banks * dc.row_bytes;
    dc.num_rows = (bytes + per_bank - 1) / per_bank + 2;
  }
  sim::DramModel dram(dc);
  RADAR_REQUIRE(bytes <= dram.capacity_bytes(),
                "weight arena does not fit the DRAM geometry");

  // Arena byte offset -> (layer, weight index). Offsets landing in the
  // inter-layer alignment padding are physically flipped but harmless —
  // they corrupt no weight, so they are not recorded.
  std::vector<std::pair<std::int64_t, std::int64_t>> ranges;
  ranges.reserve(qm.num_layers());
  for (std::size_t l = 0; l < qm.num_layers(); ++l)
    ranges.push_back(qm.layer_byte_range(l));

  AttackResult result;
  std::unordered_set<std::int64_t> seen;  // a flipped cell stays flipped
  for (int r = 0; r < cfg.rows; ++r) {
    // A victim row that provably contains mapped bytes: decompose a
    // random in-buffer offset and aim at its row.
    const sim::PhysAddr victim =
        dram.decompose(rng.uniform_int(0, bytes - 1));
    const auto flips =
        dram.hammer_victim(victim, cfg.activations, cfg.double_sided, rng);
    for (const sim::DramFlip& df : flips) {
      if (df.offset >= bytes) continue;  // past the arena
      if (!seen.insert(df.offset * 8 + df.bit).second) continue;
      std::size_t layer = qm.num_layers();
      for (std::size_t l = 0; l < ranges.size(); ++l) {
        if (df.offset >= ranges[l].first && df.offset < ranges[l].second) {
          layer = l;
          break;
        }
      }
      if (layer == qm.num_layers()) continue;  // alignment padding
      BitFlip f;
      f.layer = layer;
      f.index = df.offset - ranges[layer].first;
      f.bit = df.bit;
      f.before = qm.flip_bit(layer, f.index, f.bit);
      f.after = qm.get_code(layer, f.index);
      result.flips.push_back(f);
    }
  }
  return result;
}

}  // namespace radar::attack
