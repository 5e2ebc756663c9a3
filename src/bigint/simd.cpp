#include "bigint/simd.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <string>

#include "bigint/simd_detail.h"
#include "obs/metrics.h"

namespace ppms::simd {

namespace {

#ifndef PPMS_SIMD_DEFAULT
#define PPMS_SIMD_DEFAULT "auto"
#endif

Level detect_cpu() {
#if defined(__x86_64__) || defined(__i386__)
  if (detail::compiled_avx512() && __builtin_cpu_supports("avx512f")) {
    return Level::kAvx512;
  }
  if (detail::compiled_avx2() && __builtin_cpu_supports("avx2")) {
    return Level::kAvx2;
  }
#endif
  return Level::kScalar;
}

Level clamp_to(Level want, Level det) {
  return static_cast<int>(want) <= static_cast<int>(det) ? want : det;
}

// Resolve the configured level: CMake default, overridden by the PPMS_SIMD
// environment variable, clamped to what the CPU/build supports. Unknown
// values fall back to auto (= detected) rather than silently to scalar, so
// a typo never quietly turns the fast path off.
Level initial_level(Level det) {
  const char* env = std::getenv("PPMS_SIMD");
  std::string v(env != nullptr ? env : PPMS_SIMD_DEFAULT);
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (v == "off" || v == "0" || v == "scalar" || v == "false" ||
      v == "none") {
    return Level::kScalar;
  }
  if (v == "avx2") return clamp_to(Level::kAvx2, det);
  if (v == "avx512") return clamp_to(Level::kAvx512, det);
  return det;  // "auto", "on", "1", anything else
}

obs::Gauge& dispatch_gauge() {
  static obs::Gauge& g = obs::gauge("crypto.simd.dispatch_level");
  return g;
}

std::atomic<int>& level_flag() {
  static std::atomic<int> flag{[] {
    const Level lv = initial_level(detected());
    dispatch_gauge().set(static_cast<std::uint64_t>(lv));
    return static_cast<int>(lv);
  }()};
  return flag;
}

}  // namespace

Level detected() {
  static const Level det = detect_cpu();
  return det;
}

Level level() {
  return static_cast<Level>(level_flag().load(std::memory_order_relaxed));
}

void set_level(Level lv) {
  const Level eff = clamp_to(lv, detected());
  level_flag().store(static_cast<int>(eff), std::memory_order_relaxed);
  dispatch_gauge().set(static_cast<std::uint64_t>(eff));
}

const char* level_name(Level lv) {
  switch (lv) {
    case Level::kAvx512: return "avx512";
    case Level::kAvx2: return "avx2";
    default: return "scalar";
  }
}

std::size_t lanes(Level lv) {
  switch (lv) {
    case Level::kAvx512: return 8;
    case Level::kAvx2: return 4;
    default: return 1;
  }
}

std::size_t lanes() { return lanes(level()); }

std::size_t batch_width(std::size_t n) {
  // Measured per product against cios_mont_mul, 8 jobs per call on an
  // AVX-512 IFMA host: AVX2 0.85-0.95x at n = 2..16; AVX-512F 0.90x at
  // n = 2, 1.2-2.2x at n = 4..16; IFMA 1.1x at n = 2, 1.8-5.0x at 4..16.
  const bool wins = n == 4 || n == 8 || n == 16;
  return wins && level() == Level::kAvx512 ? lanes(Level::kAvx512) : 1;
}

// Below this many jobs a lane group is mostly padding and the scalar
// kernel wins on every width we batch; such calls run the in-order scalar
// loop (same bits either way — the threshold is purely a cost choice).
constexpr std::size_t kMinBatch = 4;

bool cios_mont_mul_xk(const MontJob* jobs, std::size_t k, const limb::Limb* m,
                      limb::Limb n0, std::size_t n) {
  if (k == 0) return false;
  const Level lv = k < kMinBatch ? Level::kScalar : level();
  bool served = false;
  if (lv == Level::kAvx512) {
    // Within the avx512 level, prefer the vpmadd52 kernel when the CPU has
    // it — same widths, bit-identical output, far fewer lane products.
    static const bool ifma =
#if defined(__x86_64__) || defined(__i386__)
        detail::compiled_avx512ifma() &&
        __builtin_cpu_supports("avx512ifma");
#else
        false;
#endif
    if (ifma) served = detail::run_avx512ifma(jobs, k, m, n0, n);
    if (!served) served = detail::run_avx512(jobs, k, m, n0, n);
  } else if (lv == Level::kAvx2) {
    served = detail::run_avx2(jobs, k, m, n0, n);
  }
  if (served) {
    static obs::Counter& muls = obs::counter("crypto.simd.batched_muls");
    static obs::Counter& lane_slots = obs::counter("crypto.simd.lanes");
    const std::size_t width = lanes(lv);
    muls.add(k);
    lane_slots.add((k + width - 1) / width * width);
    return true;
  }
  for (std::size_t i = 0; i < k; ++i) {
    limb::cios_mont_mul(jobs[i].r, jobs[i].a, jobs[i].b, m, n0, n);
  }
  return false;
}

bool mont_sqr_xk(limb::Limb* const* r, const limb::Limb* const* a,
                 std::size_t k, const limb::Limb* m, limb::Limb n0,
                 std::size_t n) {
  constexpr std::size_t kChunk = 64;
  MontJob jobs[kChunk];
  bool served = k > 0;
  for (std::size_t i = 0; i < k; i += kChunk) {
    const std::size_t c = std::min(kChunk, k - i);
    for (std::size_t j = 0; j < c; ++j) {
      jobs[j] = MontJob{r[i + j], a[i + j], a[i + j]};
    }
    served = cios_mont_mul_xk(jobs, c, m, n0, n) && served;
  }
  return served;
}

}  // namespace ppms::simd
