// Flat-limb kernels: mpn-style fixed-width arithmetic over raw uint64_t
// arrays, and the FpCtx/FpElem/Fp2Elem layer every Montgomery product in
// the program runs on.
//
// `ppms::Bigint` pays a heap-allocated limb vector plus sign/size
// normalization on every operation; inside a Miller loop or a modexp
// ladder that allocator traffic is the measured floor, not the multiplies.
// The kernels here are the GMP-`mpn` shape instead: little-endian 64-bit
// limb arrays of a caller-known width, no allocation, no sign logic,
// carries returned to the caller. On top of them `FpCtx` fixes one odd
// modulus of at most 2048 bits at setup and `FpElem` is a stack-resident
// residue sized to it; every Montgomery product runs CIOS with 64-bit limbs
// and never touches the heap.
//
// Conversion discipline: `Bigint` appears only at API boundaries
// (`to_mont` / `from_mont`). Everything between stays on raw limbs, and
// Montgomery form never leaves FpElem. The schoolbook Bigint arithmetic
// (`(a*b).mod(m)`, `modexp_binary`) is the differential oracle; see
// tests/bigint/flatlimb_diff_test.cpp for the adversarial suite that pins
// the two together.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "bigint/bigint.h"

namespace ppms {

namespace simd {
struct MontJob;
}

/// The flat-limb kernels are the program's only Montgomery arithmetic, so
/// this is always true. It stays as a function because benchmark reports
/// print it in their context block (`flat_limbs: true`), which keeps their
/// output comparable with reports from builds that had a Bigint fallback.
inline bool flat_limbs_enabled() { return true; }

namespace limb {

using Limb = std::uint64_t;
__extension__ typedef unsigned __int128 Dlimb;  // double-limb accumulator

/// Widest modulus FpCtx accepts, in 64-bit limbs and in bits. Wider
/// moduli have no Montgomery context: modexp sends them to the windowed
/// Bigint ladder, and key/parameter loaders reject them.
inline constexpr std::size_t kMaxFpLimbs = 32;
inline constexpr std::size_t kMaxFpBits = 64 * kMaxFpLimbs;

// All kernels operate on little-endian arrays of exactly `n` limbs unless
// a separate length is given. Output may alias either input for add_n and
// sub_n; mul/sqr require a disjoint output (they write before reading
// would finish).

/// r = a + b, returns the carry out (0 or 1).
Limb add_n(Limb* r, const Limb* a, const Limb* b, std::size_t n);

/// r = a - b, returns the borrow out (0 or 1).
Limb sub_n(Limb* r, const Limb* a, const Limb* b, std::size_t n);

/// r[0..an+bn) = a * b (schoolbook). r must not alias a or b.
void mul(Limb* r, const Limb* a, std::size_t an, const Limb* b,
         std::size_t bn);

/// r[0..2n) = a². Off-diagonal products are computed once and doubled.
/// r must not alias a.
void sqr(Limb* r, const Limb* a, std::size_t n);

/// Lexicographic magnitude compare: -1, 0, +1.
int cmp_n(const Limb* a, const Limb* b, std::size_t n);

/// True when all n limbs are zero.
bool is_zero_n(const Limb* a, std::size_t n);

/// Fused CIOS Montgomery product: r = a·b·2^{-64n} mod m for a, b < 2^{64n},
/// m odd, n0 = -m^{-1} mod 2^64. The accumulator lives on the stack; r may
/// alias a or b. For a, b < m the result is fully reduced; for larger
/// in-width operands it is < m + 2^{64n} and the caller must post-reduce.
/// Precondition: 1 <= n <= kMaxFpLimbs — the stack accumulator is sized to
/// kMaxFpLimbs, so a wider caller-supplied n would smash it; out-of-range n
/// throws std::invalid_argument instead of writing out of bounds.
void cios_mont_mul(Limb* r, const Limb* a, const Limb* b, const Limb* m,
                   Limb n0, std::size_t n);

/// -m^{-1} mod 2^64 for odd m0 (Newton iteration).
Limb neg_inverse(Limb m0);

}  // namespace limb

/// One residue mod the FpCtx modulus: a fixed-capacity stack array of which
/// the context's first `limbs()` entries are significant. Plain aggregate —
/// copies are memcpy, no allocation anywhere.
struct FpElem {
  std::array<limb::Limb, limb::kMaxFpLimbs> v{};
};

/// F_p² element (a + b·i) over FpElem coordinates; the flat counterpart of
/// `Fp2` for the pairing's target field.
struct Fp2Elem {
  FpElem a, b;
};

/// Fixed-modulus flat-limb field context, sized to the market modulus at
/// setup. Precomputes n0' and R² (R = 2^(64·limbs())), then serves
/// allocation-free modular arithmetic on FpElem. All methods are const and
/// thread-safe. Long-lived moduli share one context through the
/// `montgomery_ctx` cache (bigint/modarith.h); transient ones (prime
/// candidates) build their own.
class FpCtx {
 public:
  /// Requires m odd, > 1 and at most kMaxFpLimbs·64 bits wide; throws
  /// std::invalid_argument otherwise (use supports() to pre-check).
  explicit FpCtx(const Bigint& m);

  /// True when FpCtx(m) would succeed.
  static bool supports(const Bigint& m);

  /// Significant limbs of every element under this context.
  std::size_t limbs() const { return n_; }

  const Bigint& modulus() const { return m_big_; }

  FpElem zero() const { return FpElem{}; }

  /// 1 in Montgomery form (R mod m).
  const FpElem& one() const { return r_mod_m_; }

  bool is_zero(const FpElem& a) const { return limb::is_zero_n(a.v.data(), n_); }
  bool equal(const FpElem& a, const FpElem& b) const {
    return limb::cmp_n(a.v.data(), b.v.data(), n_) == 0;
  }

  // Modular ring ops on reduced elements (linear ops are domain-agnostic;
  // mul/sqr are Montgomery products). Outputs may alias inputs. Defined
  // inline: at pairing widths (2–4 limbs) these are a handful of
  // instructions, and the call into three limb kernels (add_n + cmp_n +
  // sub_n) costs more than the arithmetic — the Miller-loop profile is
  // dominated by them once the products are lane-batched. One fused pass
  // computes both the raw result and its modulus-adjusted sibling, then a
  // mask picks the reduced one; temporaries make aliasing trivially safe.
  void add(FpElem& r, const FpElem& a, const FpElem& b) const {
    add_raw(r.v.data(), a.v.data(), b.v.data());
  }
  void sub(FpElem& r, const FpElem& a, const FpElem& b) const {
    sub_raw(r.v.data(), a.v.data(), b.v.data());
  }
  void neg(FpElem& r, const FpElem& a) const {
    neg_raw(r.v.data(), a.v.data());
  }
  // Raw-pointer forms of the linear ops for callers that keep residues in
  // compact limbs()-stride arrays instead of full-width FpElems (batch
  // scratch, line tables). Each array holds limbs() limbs; outputs may
  // alias inputs.
  void add_raw(limb::Limb* r, const limb::Limb* a, const limb::Limb* b) const {
    limb::Limb t[limb::kMaxFpLimbs], s[limb::kMaxFpLimbs];
    limb::Limb c = 0, bw = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      const limb::Dlimb sum =
          static_cast<limb::Dlimb>(a[i]) + b[i] + c;
      t[i] = static_cast<limb::Limb>(sum);
      c = static_cast<limb::Limb>(sum >> 64);
      const limb::Dlimb dif =
          static_cast<limb::Dlimb>(t[i]) - m_[i] - bw;
      s[i] = static_cast<limb::Limb>(dif);
      bw = static_cast<limb::Limb>(dif >> 64) & 1;
    }
    // Reduce when the sum overflowed n limbs or reached m (no borrow).
    const limb::Limb mask = 0 - (c | (bw ^ 1));
    for (std::size_t i = 0; i < n_; ++i) {
      r[i] = (s[i] & mask) | (t[i] & ~mask);
    }
  }
  void sub_raw(limb::Limb* r, const limb::Limb* a, const limb::Limb* b) const {
    limb::Limb d[limb::kMaxFpLimbs], s[limb::kMaxFpLimbs];
    limb::Limb c = 0, bw = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      const limb::Dlimb dif =
          static_cast<limb::Dlimb>(a[i]) - b[i] - bw;
      d[i] = static_cast<limb::Limb>(dif);
      bw = static_cast<limb::Limb>(dif >> 64) & 1;
      const limb::Dlimb sum =
          static_cast<limb::Dlimb>(d[i]) + m_[i] + c;
      s[i] = static_cast<limb::Limb>(sum);
      c = static_cast<limb::Limb>(sum >> 64);
    }
    const limb::Limb mask = 0 - bw;  // borrowed: take d + m
    for (std::size_t i = 0; i < n_; ++i) {
      r[i] = (s[i] & mask) | (d[i] & ~mask);
    }
  }
  void neg_raw(limb::Limb* r, const limb::Limb* a) const {
    limb::Limb s[limb::kMaxFpLimbs];
    limb::Limb nz = 0, bw = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      nz |= a[i];
      const limb::Dlimb dif =
          static_cast<limb::Dlimb>(m_[i]) - a[i] - bw;
      s[i] = static_cast<limb::Limb>(dif);
      bw = static_cast<limb::Limb>(dif >> 64) & 1;
    }
    const limb::Limb mask = 0 - static_cast<limb::Limb>(nz != 0);
    for (std::size_t i = 0; i < n_; ++i) r[i] = s[i] & mask;
  }
  void dbl(FpElem& r, const FpElem& a) const { add(r, a, a); }
  void mul(FpElem& r, const FpElem& a, const FpElem& b) const {
    limb::cios_mont_mul(r.v.data(), a.v.data(), b.v.data(), m_.data(), n0_,
                        n_);
  }
  void sqr(FpElem& r, const FpElem& a) const { mul(r, a, a); }

  /// x (any integer) into Montgomery form: x·R mod m.
  FpElem to_mont(const Bigint& x) const;

  /// Montgomery-form element back to an ordinary Bigint residue.
  Bigint from_mont(const FpElem& a) const;

  /// x^e for e >= 0, x and the result in Montgomery form: sliding-window
  /// (width 4) square-and-multiply, allocation-free.
  FpElem pow(const FpElem& x, const Bigint& e) const;

  /// r[i] = x[i]^e for i < k, all sharing one exponent e >= 0: the same
  /// window walk as pow, with each squaring and table multiplication run
  /// for every lane at once through mul_batch_raw. Results equal pow's bit
  /// for bit. r[i] may alias x[i]. Scratch (the lanes' odd-power tables)
  /// lives on the stack, one lane group of at most kPowBatchLanes at a
  /// time.
  void pow_batch(FpElem* r, const FpElem* x, std::size_t k,
                 const Bigint& e) const;
  static constexpr std::size_t kPowBatchLanes = 8;

  /// Copy the low limbs of a non-negative x < 2^{64·limbs()} into an FpElem
  /// without any domain change (pack) and back (unpack).
  FpElem pack(const Bigint& x) const;
  Bigint unpack(const FpElem& a) const;

  /// One queued Montgomery product for mul_batch. The output may alias the
  /// job's own inputs, but must not alias the operands of any other job in
  /// the same batch: the batch is computed as-if simultaneously (SIMD lane
  /// groups), not sequentially.
  struct MulJob {
    FpElem* r;
    const FpElem* a;
    const FpElem* b;
  };

  /// Run k independent Montgomery products, lane-batched across SIMD
  /// lanes when the dispatch level (bigint/simd.h) allows, in-order scalar
  /// otherwise. Either way every job executes and each result is the exact
  /// cios_mont_mul output.
  void mul_batch(const MulJob* jobs, std::size_t k) const;

  /// Same batch on raw-pointer jobs (each pointer addresses limbs() limbs),
  /// for callers that already hold compact limb arrays — skips the
  /// FpElem-to-raw repackaging pass mul_batch does.
  void mul_batch_raw(const simd::MontJob* jobs, std::size_t k) const;

  /// Squaring batch: r[i] = a[i]² in the Montgomery domain.
  void sqr_batch(FpElem* const* r, const FpElem* const* a,
                 std::size_t k) const;

 private:
  std::size_t n_ = 0;
  limb::Limb n0_ = 0;
  std::array<limb::Limb, limb::kMaxFpLimbs> m_{};
  FpElem r_mod_m_;   // R mod m
  FpElem r2_mod_m_;  // R² mod m
  Bigint m_big_;
};

/// Collects independent Montgomery products and flushes them through
/// FpCtx::mul_batch in one call, so hot loops can phrase "these k products
/// don't depend on each other" without touching the SIMD layer directly.
/// Queued outputs must not alias other queued jobs' inputs (scratch
/// outputs make this trivial); flush() preserves queue order for the
/// scalar fallback. The referenced FpCtx and every queued operand must
/// outlive the flush.
class FpLaneBatch {
 public:
  explicit FpLaneBatch(const FpCtx& F) : F_(&F) {}

  void mul(FpElem& r, const FpElem& a, const FpElem& b) {
    jobs_.push_back(FpCtx::MulJob{&r, &a, &b});
  }
  void sqr(FpElem& r, const FpElem& a) {
    jobs_.push_back(FpCtx::MulJob{&r, &a, &a});
  }

  std::size_t pending() const { return jobs_.size(); }
  void reserve(std::size_t n) { jobs_.reserve(n); }

  /// Run everything queued since the last flush, then clear the queue.
  void flush() {
    F_->mul_batch(jobs_.data(), jobs_.size());
    jobs_.clear();
  }

 private:
  const FpCtx* F_;
  std::vector<FpCtx::MulJob> jobs_;
};

// F_p² helpers over Fp2Elem. Same 3-multiplication Karatsuba shapes as the
// fp2.h reference implementations; outputs may alias inputs. Inversion
// lives with the pairing engine (it needs the instrumented fp_inv).
void fp2_mul(const FpCtx& F, Fp2Elem& r, const Fp2Elem& x, const Fp2Elem& y);
void fp2_sqr(const FpCtx& F, Fp2Elem& r, const Fp2Elem& x);
void fp2_conj(const FpCtx& F, Fp2Elem& r, const Fp2Elem& x);

/// x^e for e >= 0 by square-and-multiply (MSB first), all in-domain.
void fp2_pow(const FpCtx& F, Fp2Elem& r, const Fp2Elem& x, const Bigint& e);

}  // namespace ppms
