// ScanScheduler: budget-driven interleaved scanning (QoS for the sweep).
//
// The existing scan paths each run flat-out: ScanSession drains a whole
// model in one call, and the serve layer's old ShardScanner stepped one
// shard at a time with no notion of how much work a step was allowed to
// do. This scheduler is the piece an edge deployment actually needs: it
// drains a prioritized sweep — dirty groups first (fed by recovery
// writes), then round-robin byte-range chunks — in *slices* bounded by a
// budget knob (X µs or Y bytes per slice), resumable mid-layer via
// scan_layer_range_into. A caller interleaves `run_slice` with inference
// batches; the budget is the dial between detection latency and
// throughput, and the completed-sweep cadence is the coverage guarantee.
//
// Report identity: the sweep is the plan_chunks plan ScanSession also
// drains (contiguous ascending group ranges per layer), and each
// completed sweep accumulates chunk flags in plan order — so
// `last_sweep_report()` equals a serial `scheme.scan(qm)` /
// `ScanSession::scan_into` bit for bit, for ANY budget. The budget
// changes *when* groups are scanned, never *what* a sweep reports.
// Dirty-queue rescans are reported through `slice_flags()` only and never
// merged into the sweep report, so the identity survives priority
// preemption.
//
// Concurrency: when the model's arena has an EpochGuard, every chunk is
// bracketed by the same seqlock protocol the serve scanner used —
// read_begin / scan / read_validate with bounded retries, then one
// quiescent locked scan so a hot writer can delay but never starve
// detection. The validated range is the layer's whole byte range
// (interleaved layouts scatter a group's members across the layer).
// A scheduler instance is single-threaded: one per scanner thread.
//
// Budget semantics: negative = unlimited, zero = starved (the slice
// scans nothing and reports `starved`, letting a coverage-age alarm
// fire upstream), positive = bounded. When both knobs are positive the
// first limit hit ends the slice. Any slice with a positive budget makes
// progress (at least one chunk or dirty group), so budget_bytes == 1
// degenerates to exactly-one-chunk-per-slice — the old step() behaviour.
// A slice also ends when it completes a sweep, so per-sweep results can
// be harvested at a stable point.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <set>
#include <utility>
#include <vector>

#include "core/integrity_scheme.h"

namespace radar::core {

class ScanScheduler {
 public:
  struct Config {
    std::int64_t budget_us = -1;     ///< wall-time budget per slice
    std::int64_t budget_bytes = -1;  ///< weight-byte budget per slice
    std::int64_t chunk_bytes = 16 * 1024;  ///< sweep granule (resume unit)
    int max_retries = 64;  ///< epoch retries per chunk before fallback
  };

  /// Outcome of one run_slice call.
  struct Slice {
    std::int64_t chunks = 0;        ///< sweep chunks scanned
    std::int64_t dirty_groups = 0;  ///< priority dirty groups drained
    std::int64_t bytes = 0;         ///< weight bytes covered
    std::int64_t elapsed_ns = 0;
    bool flagged = false;  ///< any mismatch found (see slice_flags())
    bool wrapped = false;  ///< this slice completed a full-model sweep
    bool starved = false;  ///< zero budget: nothing was scanned
  };

  /// Build the chunk plan for an attached scheme. The scheme must stay
  /// alive (and attached to the scanned model) for the scheduler's
  /// lifetime. Resets cursor, sweep accumulation, and the dirty queue.
  void plan(const IntegrityScheme& scheme, Config cfg);

  bool planned() const { return !plan_.empty(); }
  std::size_t num_chunks() const { return plan_.size(); }
  /// Index of the next chunk to scan; survives pauses and scanner-thread
  /// respawns because the scheduler lives with the tenant, not the thread.
  std::size_t cursor() const { return cursor_; }
  const Config& config() const { return cfg_; }
  /// Retune the budget knobs without replanning (runtime QoS dial).
  void set_budget(std::int64_t budget_us, std::int64_t budget_bytes) {
    cfg_.budget_us = budget_us;
    cfg_.budget_bytes = budget_bytes;
  }
  void set_max_retries(int n) { cfg_.max_retries = n; }

  /// Enqueue a group for priority rescan at the head of the next slice
  /// (deduplicated). Fed by recovery writes: re-verifying a just-repaired
  /// group beats waiting for the sweep to come back around.
  void push_dirty(std::size_t layer, std::int64_t group);
  std::size_t dirty_pending() const { return dirty_queue_.size(); }

  /// Scan one budget-bounded slice of `qm` (which the planned scheme must
  /// be attached to). Epoch-validated when the arena has a guard.
  Slice run_slice(const quant::QuantizedModel& qm);

  /// Mismatching (layer, group) pairs found by the last run_slice, in
  /// scan order (dirty groups first, then sweep chunks). May repeat a
  /// group that was both dirty-rescanned and swept in one slice.
  const std::vector<std::pair<std::size_t, std::int64_t>>& slice_flags()
      const {
    return slice_flags_;
  }

  /// Flags of the last *completed* sweep — byte-identical to a serial
  /// full scan of the model state the sweep observed. Empty layers (and
  /// an all-empty report) before the first wrap.
  const DetectionReport& last_sweep_report() const { return sweep_report_; }

  /// Reset the cursor and in-progress sweep accumulation (and drop any
  /// queued dirty groups) so the next slice starts a fresh sweep.
  /// last_sweep_report() is left untouched.
  void restart_sweep();

  // ---- stats (single writer: the scanning thread) ----
  std::uint64_t chunks_scanned() const { return chunks_scanned_; }
  std::uint64_t sweeps() const { return sweeps_; }
  std::uint64_t epoch_retries() const { return epoch_retries_; }
  std::uint64_t epoch_fallbacks() const { return epoch_fallbacks_; }
  std::uint64_t dirty_scanned() const { return dirty_scanned_; }
  std::int64_t bytes_scanned() const { return bytes_scanned_; }
  /// Duration of the last completed sweep — the measured coverage
  /// period. 0 before the first wrap.
  std::int64_t last_sweep_ns() const { return last_sweep_ns_; }
  /// Time since the last completed sweep (since plan() before the first
  /// one) — the staleness a coverage deadline is checked against.
  std::int64_t coverage_age_ns() const;

 private:
  using Clock = std::chrono::steady_clock;

  /// Scan groups [begin, end) of `layer` under the epoch protocol
  /// (plain when the arena has no guard). Flags land in chunk_flags_.
  void scan_range_guarded(const quant::QuantizedModel& qm,
                          std::size_t layer, std::int64_t begin,
                          std::int64_t end);

  const IntegrityScheme* scheme_ = nullptr;
  Config cfg_;
  std::vector<ScanChunk> plan_;
  std::size_t cursor_ = 0;

  std::deque<std::pair<std::size_t, std::int64_t>> dirty_queue_;
  std::set<std::pair<std::size_t, std::int64_t>> dirty_set_;

  DetectionReport building_;      ///< sweep in progress, plan order
  DetectionReport sweep_report_;  ///< last completed sweep
  std::vector<std::int64_t> chunk_flags_;
  std::vector<std::pair<std::size_t, std::int64_t>> slice_flags_;
  ScanScratch scratch_;
  std::vector<std::uint64_t> epoch_snap_;

  Clock::time_point sweep_start_{};  ///< first chunk of current sweep
  Clock::time_point sweep_end_{};    ///< last wrap (plan() time before)
  bool sweep_started_ = false;

  std::uint64_t chunks_scanned_ = 0;
  std::uint64_t sweeps_ = 0;
  std::uint64_t epoch_retries_ = 0;
  std::uint64_t epoch_fallbacks_ = 0;
  std::uint64_t dirty_scanned_ = 0;
  std::int64_t bytes_scanned_ = 0;
  std::int64_t last_sweep_ns_ = 0;
};

}  // namespace radar::core
