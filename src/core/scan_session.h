// ScanSession: whole-model scans drained over a thread pool, plus an
// incremental dirty-group mode.
//
// A whole-model scan is the plan_chunks plan of the scheme — contiguous
// group ranges of roughly equal weight *bytes*, each scanned through
// scan_layer_range_into — drained by workers pulling chunks off an atomic
// index. Conv layer sizes span ~two orders of magnitude, so one work item
// per layer would be limited by the largest layer; byte-sized chunks
// load-balance regardless of the layer size distribution. Results are
// bit-identical to scheme.scan(qm): chunks of a layer cover disjoint
// ascending group ranges, each writes its own slot, and the merge
// concatenates in plan order. With one effective worker the same plan is
// drained inline with no pool; `threads == 0` uses one thread per
// hardware core.
//
// The session owns per-chunk scratch; scan_into / scan_dirty_into reuse
// the caller's DetectionReport vectors, and the plan is rebuilt into a
// cached vector, so the steady-state scan loop performs zero
// allocations. A session must not be scanned from two threads at once
// (the scratch would race); campaign workers each hold their own session.
//
// scan_dirty_into() is the incremental entry point: it maps the model's
// DirtyWrite log to affected groups through each layer's GroupLayout
// (covering interleave and skew via group_of) and rescans only those.
// Contract: the golden codes must describe the model state at the last
// dirty baseline (clear_dirty / restore / snapshot point) — then the
// report equals a full scan bit for bit, at O(dirty * G) cost. When more
// than a quarter of all groups are dirty (or tracking is off), it falls
// back to the full scan: narrow scans of nearly everything are slower
// than one streaming pass.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "core/integrity_scheme.h"

namespace radar::core {

class ScanSession {
 public:
  /// The scheme must stay alive (and attached) for the session lifetime.
  explicit ScanSession(const IntegrityScheme& scheme,
                       std::size_t threads = 0);

  std::size_t threads() const { return threads_; }

  /// Workers that will actually run: `threads` clamped to the hardware
  /// core count. Oversubscribing a scan is pure loss — the kernels are
  /// compute/bandwidth bound with zero blocking, so extra threads only
  /// add scheduling churn (the t1->t8 throughput collapse on small CI
  /// boxes). Requesting 8 threads on a 1-core machine therefore scans
  /// inline; the plan, the merge, and the report are unaffected.
  std::size_t effective_workers() const { return effective_workers_; }

  /// Override the target chunk size in bytes (0 = automatic: weight bytes
  /// / (effective workers * 4), floored at 4 KiB). Exposed for benches
  /// and tests; the report stays bit-identical for any value.
  void set_shard_bytes(std::int64_t bytes) { shard_bytes_ = bytes; }
  std::int64_t shard_bytes() const { return shard_bytes_; }

  /// Parallel whole-model scan; equals scheme.scan(qm) bit for bit.
  DetectionReport scan(const quant::QuantizedModel& qm) const;

  /// Full scan into a reusable report (vectors cleared, capacity kept).
  void scan_into(const quant::QuantizedModel& qm,
                 DetectionReport& out) const;

  /// Incremental scan of the groups touched since the model's last dirty
  /// baseline; bit-identical to scan_into under the contract above.
  void scan_dirty_into(const quant::QuantizedModel& qm,
                       DetectionReport& out) const;

  /// Chunks of the last full scan (exposed for tests and benches; 0
  /// before the first one).
  std::size_t last_shard_count() const { return plan_.size(); }

 private:
  /// Per-chunk output slot. Cache-line aligned so two workers finishing
  /// adjacent chunks never bounce one line between cores while they
  /// append flags / grow scratch.
  struct alignas(64) ShardSlot {
    std::vector<std::int64_t> flags;
    ScanScratch scratch;
  };

  /// The pool, spawned on first parallel use (null when the effective
  /// worker count is 1): serial sessions — and oversubscribed sessions
  /// clamped to one core — never pay for worker threads.
  ThreadPool* pool() const;

  const IntegrityScheme* scheme_;
  std::size_t threads_;
  std::size_t effective_workers_;
  std::int64_t shard_bytes_ = 0;  ///< 0 = automatic
  mutable std::unique_ptr<ThreadPool> pool_;
  mutable ScanScratch scratch_;  ///< incremental path (runs inline)
  mutable std::vector<std::vector<std::int64_t>> dirty_groups_;
  mutable std::vector<ScanChunk> plan_;
  mutable std::vector<ShardSlot> shard_slots_;  ///< one per chunk
};

}  // namespace radar::core
