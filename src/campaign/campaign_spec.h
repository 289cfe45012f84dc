// CampaignSpec: a declarative attack-campaign description.
//
// The paper's claims are sweep-shaped — detection and recovery rates over
// attacker models, protection schemes and fault rates — and every such
// sweep is the same matrix: attackers × fault rates × schemes, repeated
// for `trials` Monte-Carlo rounds on one model. A spec names that matrix
// once; the CampaignRunner expands it into independent trials. Specs
// round-trip through JSON so campaigns can be versioned, diffed, and run
// from the CLI (`radar_cli campaign <spec.json>`):
//
//   {
//     "name": "smoke",
//     "model": "tiny",              // tiny | resnet20 | resnet18
//     "train": false,               // false: raw init (fast, no cache)
//     "trials": 3,
//     "seed": 66,
//     "eval_subset": 0,             // 0: detection-only (no accuracy)
//     "recovery": "zero",           // zero | reload
//     "fault_rates": [0, 1e-4],     // ambient MSB faults per weight
//     "attackers": [
//       {"kind": "random_msb", "flips": 10},
//       {"kind": "pbfa", "flips": 5, "allowed_bits": [7]},
//       {"kind": "knowledgeable", "flips": 10, "assumed_group_size": 32}
//     ],
//     "schemes": [
//       {"id": "radar2", "group_size": 32, "interleave": true},
//       {"id": "crc13", "group_size": 32}
//     ]
//   }
//
// Unknown keys are rejected, all numeric fields are range-checked, and
// parsing never crashes on malformed input (see the fuzz battery).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/integrity_scheme.h"

namespace radar::campaign {

/// One attacker column of the campaign matrix.
struct AttackerSpec {
  /// "random" | "random_msb" | "pbfa" | "knowledgeable" | "rowhammer".
  std::string kind = "random_msb";
  int flips = 10;  ///< committed flips (primary flips for knowledgeable)
  /// PBFA only: admissible bit positions (empty = all 8).
  std::vector<int> allowed_bits{};
  /// Knowledgeable only: the attacker's guess of the defender's G.
  std::int64_t assumed_group_size = 512;
  /// PBFA / knowledgeable: gradient-estimation batch size.
  std::int64_t attack_batch = 16;
  // Rowhammer only: the physical-address attack shape. `flips` is
  // ignored — the burst size is whatever the hammered rows yield.
  std::string mapping = "stripe";  ///< "rowmajor" | "stripe"
  int rows = 1;                    ///< victim rows hammered per trial
  std::int64_t activations = 150000;  ///< per aggressor row
  bool double_sided = false;
  std::int64_t row_bytes = 8192;  ///< DRAM row size holding the arena

  /// Stable display label, e.g. "pbfa/nbf5", "knowledgeable/aG32", or
  /// "rowhammer/r4/a150000/ds/stripe/rb8192".
  std::string label() const;
};

/// One protection-scheme column (any SchemeRegistry id).
struct SchemeSpec {
  std::string id = "radar2";
  core::SchemeParams params;

  /// Stable display label, e.g. "radar2/G32/ilv".
  std::string label() const;
};

struct CampaignSpec {
  std::string name = "campaign";
  std::string model = "tiny";  ///< exp::make_bundle id
  bool train = true;           ///< false: raw init, reproducible w/o cache
  int trials = 3;
  std::uint64_t seed = 0x5241;
  std::int64_t eval_subset = 0;  ///< test images for accuracy (0 = skip)
  core::RecoveryPolicy policy = core::RecoveryPolicy::kZeroOut;
  std::vector<AttackerSpec> attackers;
  std::vector<SchemeSpec> schemes;
  std::vector<double> fault_rates = {0.0};  ///< extra MSB faults / weight
  /// Non-empty: disk-cache attack profiles under model_cache_dir() so
  /// repeated bench runs skip the expensive attack phase.
  std::string cache_tag;

  std::size_t num_cells() const {
    return attackers.size() * fault_rates.size() * schemes.size();
  }
  std::size_t num_trials_total() const {
    return num_cells() * static_cast<std::size_t>(trials);
  }

  /// Throws InvalidArgument on an inconsistent spec (unknown attacker
  /// kind, unregistered scheme id, non-positive trials, ...).
  void validate() const;

  std::string to_json() const;
  static CampaignSpec from_json_text(const std::string& text);
  static CampaignSpec from_json_file(const std::string& path);
};

}  // namespace radar::campaign
