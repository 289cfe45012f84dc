#include "core/scan_session.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

namespace radar::core {

namespace {
/// Automatic chunk size: aim for a few chunks per worker so the pool can
/// rebalance, but never chunks so small that per-item overhead dominates
/// the kernel.
constexpr std::int64_t kShardsPerThread = 4;
constexpr std::int64_t kMinShardBytes = 4096;
/// Dirty-group fraction above which scan_dirty_into takes the full scan.
constexpr double kFullScanThreshold = 0.25;
}  // namespace

ScanSession::ScanSession(const IntegrityScheme& scheme, std::size_t threads)
    : scheme_(&scheme),
      threads_(threads == 0 ? std::max<std::size_t>(
                                  1, std::thread::hardware_concurrency())
                            : threads),
      effective_workers_(std::min(
          threads_,
          std::max<std::size_t>(1, std::thread::hardware_concurrency()))) {}

ThreadPool* ScanSession::pool() const {
  if (effective_workers_ == 1) return nullptr;
  if (pool_ == nullptr)
    pool_ = std::make_unique<ThreadPool>(effective_workers_);
  return pool_.get();
}

DetectionReport ScanSession::scan(const quant::QuantizedModel& qm) const {
  DetectionReport report;
  scan_into(qm, report);
  return report;
}

void ScanSession::scan_into(const quant::QuantizedModel& qm,
                            DetectionReport& out) const {
  RADAR_REQUIRE(scheme_->attached(), "scan before attach");
  RADAR_REQUIRE(scheme_->num_layers() == qm.num_layers(),
                "scheme not attached to this model");
  const std::int64_t target =
      shard_bytes_ > 0
          ? shard_bytes_
          : std::max<std::int64_t>(
                kMinShardBytes,
                qm.total_weights() /
                    (static_cast<std::int64_t>(effective_workers_) *
                     kShardsPerThread));
  plan_chunks(*scheme_, target, plan_);
  if (shard_slots_.size() < plan_.size()) shard_slots_.resize(plan_.size());
  // Workers pull chunks off a shared atomic index: one submitted task per
  // worker instead of one per chunk, so the pool's queue mutex is touched
  // O(workers) times per scan rather than O(chunks).
  std::atomic<std::size_t> next{0};
  const auto drain = [this, &qm, &next] {
    for (std::size_t ci = next.fetch_add(1, std::memory_order_relaxed);
         ci < plan_.size();
         ci = next.fetch_add(1, std::memory_order_relaxed)) {
      const ScanChunk& ch = plan_[ci];
      ShardSlot& slot = shard_slots_[ci];
      scheme_->scan_layer_range_into(qm, ch.layer, ch.begin, ch.end,
                                     slot.flags, slot.scratch);
    }
  };
  ThreadPool* p = pool();
  if (p == nullptr) {
    drain();
  } else {
    std::exception_ptr error;
    std::atomic<bool> failed{false};
    for (std::size_t w = 0; w < p->size(); ++w) {
      p->submit([&drain, &error, &failed] {
        try {
          drain();
        } catch (...) {
          if (!failed.exchange(true)) error = std::current_exception();
        }
      });
    }
    p->wait();
    if (error) std::rethrow_exception(error);
  }
  // Deterministic merge: chunks of a layer appear in ascending group
  // order in the plan, so concatenation reproduces the serial flag list.
  out.flagged.resize(qm.num_layers());
  for (auto& f : out.flagged) f.clear();
  for (std::size_t ci = 0; ci < plan_.size(); ++ci) {
    auto& dst = out.flagged[plan_[ci].layer];
    dst.insert(dst.end(), shard_slots_[ci].flags.begin(),
               shard_slots_[ci].flags.end());
  }
}

void ScanSession::scan_dirty_into(const quant::QuantizedModel& qm,
                                  DetectionReport& out) const {
  RADAR_REQUIRE(scheme_->attached(), "scan before attach");
  RADAR_REQUIRE(scheme_->num_layers() == qm.num_layers(),
                "scheme not attached to this model");
  if (!qm.dirty_tracking()) {
    scan_into(qm, out);  // no log — the full scan is the only safe answer
    return;
  }
  if (dirty_groups_.size() < qm.num_layers())
    dirty_groups_.resize(qm.num_layers());
  for (std::size_t li = 0; li < qm.num_layers(); ++li)
    dirty_groups_[li].clear();
  // Map each recorded write to its checksum group through the layer's
  // layout (group_of inverts interleave + skew in O(1)).
  for (const quant::DirtyWrite& w : qm.dirty_writes())
    dirty_groups_[w.layer].push_back(
        scheme_->layout(w.layer).group_of(w.index));
  std::int64_t total_dirty = 0;
  for (std::size_t li = 0; li < qm.num_layers(); ++li) {
    auto& g = dirty_groups_[li];
    std::sort(g.begin(), g.end());
    g.erase(std::unique(g.begin(), g.end()), g.end());
    total_dirty += static_cast<std::int64_t>(g.size());
  }
  if (static_cast<double>(total_dirty) >
      kFullScanThreshold * static_cast<double>(scheme_->total_groups())) {
    scan_into(qm, out);
    return;
  }
  out.flagged.resize(qm.num_layers());
  // Dirt is usually concentrated in a handful of layers; narrow scans are
  // cheap enough that fanning them over the pool would cost more than it
  // saves, so the incremental path always runs inline.
  for (std::size_t li = 0; li < qm.num_layers(); ++li) {
    if (dirty_groups_[li].empty()) {
      out.flagged[li].clear();  // untouched since baseline => still clean
      continue;
    }
    scheme_->scan_layer_groups(qm, li, dirty_groups_[li], out.flagged[li],
                               scratch_);
  }
}

}  // namespace radar::core
