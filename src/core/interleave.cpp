#include "core/interleave.h"

#include <algorithm>

namespace radar::core {

namespace {
// Validates before the division so a zero group size cannot SIGFPE in the
// member initializer.
std::int64_t checked_group_count(std::int64_t w, std::int64_t g,
                                 std::int64_t skew) {
  RADAR_REQUIRE(w > 0, "layer must have weights");
  RADAR_REQUIRE(g > 0, "group size must be positive");
  RADAR_REQUIRE(skew >= 0, "skew must be non-negative");
  return (w + g - 1) / g;
}
}  // namespace

GroupLayout::GroupLayout(std::int64_t w, std::int64_t g, bool inter,
                         std::int64_t skew)
    : num_weights_(w),
      group_size_(g),
      num_groups_(checked_group_count(w, g, skew)),
      skew_(skew),
      interleaved_(inter) {}

GroupLayout GroupLayout::contiguous(std::int64_t num_weights,
                                    std::int64_t group_size) {
  return GroupLayout(num_weights, group_size, /*inter=*/false, /*skew=*/0);
}

GroupLayout GroupLayout::interleaved(std::int64_t num_weights,
                                     std::int64_t group_size,
                                     std::int64_t skew) {
  return GroupLayout(num_weights, group_size, /*inter=*/true, skew);
}

std::int64_t GroupLayout::group_of(std::int64_t i) const {
  RADAR_REQUIRE(i >= 0 && i < num_weights_, "weight index out of range");
  if (!interleaved_) return i / group_size_;
  const std::int64_t r = i / num_groups_;
  const std::int64_t c = i % num_groups_;
  return (c + skew_ * r) % num_groups_;
}

std::int64_t GroupLayout::slot_of(std::int64_t i) const {
  RADAR_REQUIRE(i >= 0 && i < num_weights_, "weight index out of range");
  if (!interleaved_) return i % group_size_;
  return i / num_groups_;
}

std::int64_t GroupLayout::member(std::int64_t group, std::int64_t slot) const {
  RADAR_REQUIRE(group >= 0 && group < num_groups_, "group out of range");
  RADAR_REQUIRE(slot >= 0 && slot < group_size_, "slot out of range");
  std::int64_t i;
  if (!interleaved_) {
    i = group * group_size_ + slot;
  } else {
    // Invert group = (c + t*r) mod Ng with r = slot.
    const std::int64_t c =
        ((group - skew_ * slot) % num_groups_ + num_groups_) % num_groups_;
    i = slot * num_groups_ + c;
  }
  return i < num_weights_ ? i : -1;
}

std::vector<std::int64_t> GroupLayout::group_members(
    std::int64_t group) const {
  std::vector<std::int64_t> out;
  out.reserve(static_cast<std::size_t>(group_size_));
  for (std::int64_t s = 0; s < group_size_; ++s) {
    const std::int64_t i = member(group, s);
    if (i >= 0) out.push_back(i);
  }
  return out;
}

void GroupLayout::gather(std::span<const std::int8_t> weights,
                         std::int64_t group,
                         std::span<std::int8_t> block) const {
  RADAR_REQUIRE(static_cast<std::int64_t>(weights.size()) == num_weights_,
                "weight buffer size does not match layout");
  RADAR_REQUIRE(static_cast<std::int64_t>(block.size()) == group_size_,
                "block size must equal the group size");
  RADAR_REQUIRE(group >= 0 && group < num_groups_, "group out of range");
  const std::int8_t* w = weights.data();
  std::int8_t* out = block.data();
  if (!interleaved_) {
    const std::int64_t base = group * group_size_;
    const std::int64_t n = std::min(group_size_, num_weights_ - base);
    std::copy(w + base, w + base + n, out);
    std::fill(out + n, out + group_size_, std::int8_t{0});
    return;
  }
  // Slot r sits at column c = (group - skew*r) mod Ng of row r, so c
  // steps by -skew mod Ng per slot.
  const std::int64_t skew = skew_ % num_groups_;
  std::int64_t c = group;
  for (std::int64_t r = 0; r < group_size_; ++r) {
    const std::int64_t i = r * num_groups_ + c;
    out[r] = i < num_weights_ ? w[i] : std::int8_t{0};
    c -= skew;
    if (c < 0) c += num_groups_;
  }
}

}  // namespace radar::core
