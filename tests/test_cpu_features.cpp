// Dispatch-level plumbing and differential checks for the shared SIMD
// primitives (dot_i8 / axpy_i8 / bytes_equal): every level the machine
// supports must be bit-identical to the scalar reference on adversarial
// lengths (sub-vector, exactly-vector, vector+tail) and extreme values
// (+-127, the int16-product corners), including the positions around the
// int64 drain boundary of the widened accumulators.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "common/simd_ops.h"

namespace radar {
namespace {

std::vector<cpu::SimdLevel> supported_levels() {
  std::vector<cpu::SimdLevel> out;
  for (int l = 0; l < cpu::kNumSimdLevels; ++l) {
    const auto lvl = static_cast<cpu::SimdLevel>(l);
    if (cpu::level_supported(lvl)) out.push_back(lvl);
  }
  return out;
}

TEST(CpuFeatures, ScalarAlwaysSupportedAndDetectedIsSupported) {
  EXPECT_TRUE(cpu::level_supported(cpu::SimdLevel::kScalar));
  EXPECT_TRUE(cpu::level_supported(cpu::detected_level()));
  if (cpu::has_avx512_vnni()) {
    EXPECT_TRUE(cpu::level_supported(cpu::SimdLevel::kAvx512));
  }
}

TEST(CpuFeatures, SetActiveLevelClampsToSupported) {
  const cpu::SimdLevel prev = cpu::active_level();
  // Requesting the top tier installs the best supported level <= it.
  const cpu::SimdLevel got =
      cpu::set_active_level(cpu::SimdLevel::kAvx512);
  EXPECT_TRUE(cpu::level_supported(got));
  EXPECT_LE(static_cast<int>(got),
            static_cast<int>(cpu::SimdLevel::kAvx512));
  EXPECT_EQ(cpu::set_active_level(cpu::SimdLevel::kScalar),
            cpu::SimdLevel::kScalar);
  cpu::set_active_level(prev);
}

TEST(CpuFeatures, ScopedLevelRestores) {
  const cpu::SimdLevel prev = cpu::active_level();
  {
    cpu::ScopedSimdLevel guard(cpu::SimdLevel::kScalar);
    EXPECT_EQ(cpu::active_level(), cpu::SimdLevel::kScalar);
  }
  EXPECT_EQ(cpu::active_level(), prev);
}

TEST(CpuFeatures, ParseLevelRoundTripsAndNativeDetects) {
  for (int l = 0; l < cpu::kNumSimdLevels; ++l) {
    const auto lvl = static_cast<cpu::SimdLevel>(l);
    EXPECT_EQ(cpu::parse_level(cpu::level_name(lvl)), lvl);
  }
  EXPECT_EQ(cpu::parse_level("native"), cpu::detected_level());
  EXPECT_EQ(cpu::parse_level("bogus"), cpu::detected_level());
}

TEST(SimdOps, DotMatchesScalarAcrossLevelsLengthsAndExtremes) {
  Rng rng(0xD07);
  // Lengths straddling every vector width and its tail handling, plus
  // large enough to cross the int64 drain boundary at least twice.
  const std::vector<std::int64_t> lengths = {0,  1,  7,   15,  16,  17,
                                             31, 32, 33,  63,  64,  65,
                                             127, 255, 4096, (1 << 20) + 3};
  for (const std::int64_t n : lengths) {
    std::vector<std::int8_t> a(static_cast<std::size_t>(n));
    std::vector<std::int8_t> b(static_cast<std::size_t>(n));
    for (auto& v : a)
      v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
    // Signs only, as the scan kernels guarantee: keeps the true sum in
    // int32 at every length while the products hit the +-127 corners.
    for (auto& v : b)
      v = static_cast<std::int8_t>(rng.uniform_int(0, 1) * 2 - 1);
    cpu::ScopedSimdLevel scalar_guard(cpu::SimdLevel::kScalar);
    const std::int32_t want = simd::dot_i8(a.data(), b.data(), n);
    for (const cpu::SimdLevel lvl : supported_levels()) {
      cpu::ScopedSimdLevel guard(lvl);
      EXPECT_EQ(simd::dot_i8(a.data(), b.data(), n), want)
          << "n=" << n << " level=" << cpu::level_name(lvl);
    }
  }
}

TEST(SimdOps, AxpyMatchesScalarAcrossLevels) {
  Rng rng(0xA4B1);
  for (const std::int64_t n : {1, 15, 16, 17, 31, 32, 33, 63, 64, 65,
                               1000, 4099}) {
    std::vector<std::int8_t> w(static_cast<std::size_t>(n));
    std::vector<std::int8_t> s(static_cast<std::size_t>(n));
    std::vector<std::int32_t> init(static_cast<std::size_t>(n));
    for (auto& v : w)
      v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
    for (auto& v : s)
      v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
    for (auto& v : init)
      v = static_cast<std::int32_t>(rng.uniform_int(-1000000, 1000000));
    std::vector<std::int32_t> want = init;
    {
      cpu::ScopedSimdLevel guard(cpu::SimdLevel::kScalar);
      simd::axpy_i8(want.data(), w.data(), s.data(), n);
    }
    for (const cpu::SimdLevel lvl : supported_levels()) {
      cpu::ScopedSimdLevel guard(lvl);
      std::vector<std::int32_t> got = init;
      simd::axpy_i8(got.data(), w.data(), s.data(), n);
      EXPECT_EQ(got, want) << "n=" << n
                           << " level=" << cpu::level_name(lvl);
    }
  }
}

TEST(SimdOps, BytesEqualMatchesMemcmpAcrossLevels) {
  Rng rng(0xBE5);
  for (const std::int64_t n : {0, 1, 31, 32, 33, 63, 64, 65, 4097}) {
    std::vector<std::uint8_t> a(static_cast<std::size_t>(n));
    for (auto& v : a)
      v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    std::vector<std::uint8_t> b = a;
    for (const cpu::SimdLevel lvl : supported_levels()) {
      cpu::ScopedSimdLevel guard(lvl);
      EXPECT_TRUE(simd::bytes_equal(a.data(), b.data(),
                                    static_cast<std::size_t>(n)))
          << "n=" << n << " level=" << cpu::level_name(lvl);
      if (n == 0) continue;
      // Flip one byte at the front, middle, back: each must be caught.
      for (const std::int64_t pos : {std::int64_t{0}, n / 2, n - 1}) {
        b[static_cast<std::size_t>(pos)] ^= 0x40;
        EXPECT_FALSE(simd::bytes_equal(a.data(), b.data(),
                                       static_cast<std::size_t>(n)))
            << "n=" << n << " pos=" << pos
            << " level=" << cpu::level_name(lvl);
        b[static_cast<std::size_t>(pos)] ^= 0x40;
      }
    }
  }
}

}  // namespace
}  // namespace radar
