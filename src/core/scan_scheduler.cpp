#include "core/scan_scheduler.h"

#include <algorithm>
#include <thread>

#include "quant/epoch_guard.h"

namespace radar::core {

void ScanScheduler::plan(const IntegrityScheme& scheme, Config cfg) {
  RADAR_REQUIRE(scheme.attached(), "scheduler plan before attach");
  plan_chunks(scheme, cfg.chunk_bytes, plan_);
  scheme_ = &scheme;
  cfg_ = cfg;
  cursor_ = 0;
  dirty_queue_.clear();
  dirty_set_.clear();
  sweep_started_ = false;
  sweep_end_ = Clock::now();
  building_.flagged.assign(scheme.num_layers(), std::vector<std::int64_t>{});
  sweep_report_.flagged.assign(scheme.num_layers(),
                               std::vector<std::int64_t>{});
}

void ScanScheduler::push_dirty(std::size_t layer, std::int64_t group) {
  if (dirty_set_.insert({layer, group}).second)
    dirty_queue_.emplace_back(layer, group);
}

void ScanScheduler::restart_sweep() {
  cursor_ = 0;
  sweep_started_ = false;
  dirty_queue_.clear();
  dirty_set_.clear();
  for (auto& v : building_.flagged) v.clear();
}

std::int64_t ScanScheduler::coverage_age_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now() - sweep_end_)
      .count();
}

void ScanScheduler::scan_range_guarded(const quant::QuantizedModel& qm,
                                       std::size_t layer,
                                       std::int64_t begin,
                                       std::int64_t end) {
  const auto scan_range = [&] {
    scheme_->scan_layer_range_into(qm, layer, begin, end, chunk_flags_,
                                   scratch_);
  };
  quant::EpochGuard* guard = qm.epoch_guard();
  if (guard == nullptr) {
    scan_range();
    return;
  }
  // The validated range is the layer's whole byte range: interleaved
  // layouts scatter a group's members across the entire layer, so the
  // layer range is the true read set.
  const auto [b0, b1] = qm.layer_byte_range(layer);
  bool done = false;
  for (int attempt = 0; attempt < cfg_.max_retries && !done; ++attempt) {
    if (!guard->read_begin(b0, b1, epoch_snap_)) {
      ++epoch_retries_;
      std::this_thread::yield();
      continue;
    }
    scan_range();
    if (guard->read_validate(b0, b1, epoch_snap_)) {
      done = true;
    } else {
      ++epoch_retries_;  // writer overlapped: verdict discarded
    }
  }
  if (!done) {
    // Quiescent fallback: lock writers out for one bounded scan so a
    // hot writer can delay detection, never defeat it.
    ++epoch_fallbacks_;
    auto lock = guard->lock_writers();
    scan_range();
  }
}

ScanScheduler::Slice ScanScheduler::run_slice(
    const quant::QuantizedModel& qm) {
  RADAR_REQUIRE(planned(), "scheduler run_slice before plan");
  Slice out;
  slice_flags_.clear();
  if (cfg_.budget_us == 0 || cfg_.budget_bytes == 0) {
    out.starved = true;  // scan is starved: coverage age keeps growing
    return out;
  }

  const auto t0 = Clock::now();
  const auto elapsed_ns = [&] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - t0)
        .count();
  };
  const auto budget_left = [&] {
    if (cfg_.budget_bytes > 0 && out.bytes >= cfg_.budget_bytes)
      return false;
    if (cfg_.budget_us > 0 && elapsed_ns() >= cfg_.budget_us * 1000)
      return false;
    return true;
  };

  std::int64_t units = 0;
  // Priority pass: dirty groups (recovery rewrites) before sweep work.
  // Flags are reported via slice_flags_ only — never merged into the
  // sweep report, which must stay bit-identical to a serial scan.
  while (!dirty_queue_.empty() && (units == 0 || budget_left())) {
    const auto [layer, group] = dirty_queue_.front();
    dirty_queue_.pop_front();
    dirty_set_.erase({layer, group});
    scan_range_guarded(qm, layer, group, group + 1);
    for (std::int64_t g : chunk_flags_) slice_flags_.emplace_back(layer, g);
    const GroupLayout& layout = scheme_->layout(layer);
    out.bytes += std::max<std::int64_t>(
        1, (layout.num_weights() + layout.num_groups() - 1) /
               layout.num_groups());
    ++out.dirty_groups;
    ++dirty_scanned_;
    ++units;
  }

  // Round-robin sweep chunks until the budget runs out or a sweep
  // completes (a slice never scans past a wrap: callers harvest the
  // per-sweep report at that stable point).
  while (units == 0 || budget_left()) {
    if (!sweep_started_ && cursor_ == 0) {
      sweep_start_ = Clock::now();
      sweep_started_ = true;
    }
    const ScanChunk& ch = plan_[cursor_];
    scan_range_guarded(qm, ch.layer, ch.begin, ch.end);
    auto& accum = building_.flagged[ch.layer];
    accum.insert(accum.end(), chunk_flags_.begin(), chunk_flags_.end());
    for (std::int64_t g : chunk_flags_) slice_flags_.emplace_back(ch.layer, g);
    out.bytes += ch.bytes;
    ++out.chunks;
    ++chunks_scanned_;
    ++units;
    if (++cursor_ == plan_.size()) {
      cursor_ = 0;
      ++sweeps_;
      out.wrapped = true;
      sweep_end_ = Clock::now();
      last_sweep_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           sweep_end_ - sweep_start_)
                           .count();
      sweep_started_ = false;
      std::swap(sweep_report_.flagged, building_.flagged);
      for (auto& v : building_.flagged) v.clear();
      break;
    }
  }

  bytes_scanned_ += out.bytes;
  out.flagged = !slice_flags_.empty();
  out.elapsed_ns = elapsed_ns();
  return out;
}

}  // namespace radar::core
