// Lane-batched Montgomery kernels with runtime dispatch.
//
// The flat-limb core (bigint/limbs.h) funnels every hot Montgomery product
// through one scalar CIOS kernel. The batch entry points here run K
// independent same-modulus products side by side across SIMD lanes: the
// operands are re-expressed in radix 2^28 so the whole product/REDC
// schedule is carry-free 32x32->64 multiply-accumulate (`vpmuludq`), which
// vectorizes where the scalar kernel's 64-bit carry chains cannot.
//
// Bit-identity contract: one operand is pre-shifted by e = 28f - 64n bits
// (f = ceil(64n/28) digits), which keeps the external Montgomery domain at
// the scalar kernel's R = 2^(64n) — the REDC quotient of the shifted
// product is exactly 2^e times the scalar quotient, so the pre-subtraction
// accumulator is numerically identical and the same conditional subtract
// yields the same limbs, for any in-width operands (reduced or not).
// tests/bigint/simd_diff_test.cpp pins this against the scalar oracle.
//
// Dispatch: the compiled default comes from the CMake cache variable
// PPMS_SIMD (auto|off|avx2|avx512); the PPMS_SIMD environment variable
// overrides it at process start and set_level() overrides it at runtime
// (tests, benches) — both clamped to what the CPU actually supports. The
// scalar cios_mont_mul path is always available: a batch call that the
// active level cannot serve returns false and the caller runs the jobs
// scalar, in order.
#pragma once

#include <cstddef>

#include "bigint/limbs.h"

namespace ppms::simd {

/// Dispatch levels, ordered by capability. kAvx2 runs 4 lanes per group,
/// kAvx512 runs 8; kScalar means every batch call falls back to the
/// caller's scalar loop.
enum class Level : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Best level this CPU (and this build) supports — CPUID-probed once.
Level detected();

/// Active level: detected() clamped by PPMS_SIMD (CMake default, then the
/// environment variable) and any set_level() override.
Level level();

/// Override the active level (clamped to detected()). Thread-safe; in
/// flight batch calls finish on the level they read at entry.
void set_level(Level lv);

/// "scalar" / "avx2" / "avx512".
const char* level_name(Level lv);

/// Jobs per lane group at `lv` (1 / 4 / 8).
std::size_t lanes(Level lv);

/// Jobs per lane group at the active level.
std::size_t lanes();

/// How many independent same-modulus n-limb products a caller should group
/// per batch call when it could run them either one by one or side by side
/// (the Miller-Rabin confirmation rounds): lanes() when the active level's
/// kernel beats the scalar kernel at n limbs, 1 otherwise. Today that is
/// kAvx512 at n in {4, 8, 16}: the 8-lane kernels run 1.2-5x scalar there,
/// while the 4-lane AVX2 kernel runs below scalar at every width.
std::size_t batch_width(std::size_t n);

/// One independent Montgomery product r = a·b·2^{-64n} mod m. `r` may
/// alias that job's own `a` or `b` (inputs are read before any store), but
/// must not alias the operands of any *other* job in the same batch call —
/// jobs in one call are computed as-if simultaneously, not sequentially.
struct MontJob {
  limb::Limb* r;
  const limb::Limb* a;
  const limb::Limb* b;
};

/// Run k jobs (any k, including ragged tails smaller than a lane group)
/// that share modulus m (odd, n limbs) and n0 = -m^{-1} mod 2^64. Always
/// executes every job: the vector kernel serves lane-batched widths
/// (n in {2, 4, 8, 16}) when the active level allows, and everything else
/// runs through the scalar limb::cios_mont_mul in job order. Returns true
/// iff a SIMD kernel served the batch (telemetry / tests).
bool cios_mont_mul_xk(const MontJob* jobs, std::size_t k, const limb::Limb* m,
                      limb::Limb n0, std::size_t n);

/// Squaring batch: r[i] = a[i]²·2^{-64n} mod m. Same contract and return
/// convention as cios_mont_mul_xk (a squaring is a product with b = a).
bool mont_sqr_xk(limb::Limb* const* r, const limb::Limb* const* a,
                 std::size_t k, const limb::Limb* m, limb::Limb n0,
                 std::size_t n);

}  // namespace ppms::simd
