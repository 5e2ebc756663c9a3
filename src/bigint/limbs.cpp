#include "bigint/limbs.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bigint/simd.h"
#include "obs/metrics.h"

namespace ppms {

namespace {

__extension__ typedef unsigned __int128 u128;

}  // namespace

namespace limb {

Limb add_n(Limb* r, const Limb* a, const Limb* b, std::size_t n) {
  Limb carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const u128 cur = static_cast<u128>(a[i]) + b[i] + carry;
    r[i] = static_cast<Limb>(cur);
    carry = static_cast<Limb>(cur >> 64);
  }
  return carry;
}

Limb sub_n(Limb* r, const Limb* a, const Limb* b, std::size_t n) {
  Limb borrow = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const u128 cur = static_cast<u128>(a[i]) - b[i] - borrow;
    r[i] = static_cast<Limb>(cur);
    borrow = static_cast<Limb>((cur >> 64) & 1);
  }
  return borrow;
}

void mul(Limb* r, const Limb* a, std::size_t an, const Limb* b,
         std::size_t bn) {
  for (std::size_t i = 0; i < an + bn; ++i) r[i] = 0;
  for (std::size_t i = 0; i < an; ++i) {
    Limb carry = 0;
    const Limb ai = a[i];
    for (std::size_t j = 0; j < bn; ++j) {
      const u128 cur = static_cast<u128>(r[i + j]) +
                       static_cast<u128>(ai) * b[j] + carry;
      r[i + j] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> 64);
    }
    r[i + bn] = carry;
  }
}

void sqr(Limb* r, const Limb* a, std::size_t n) {
  // Off-diagonal half, doubled, then the diagonal squares folded in.
  for (std::size_t i = 0; i < 2 * n; ++i) r[i] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Limb carry = 0;
    const Limb ai = a[i];
    for (std::size_t j = i + 1; j < n; ++j) {
      const u128 cur = static_cast<u128>(r[i + j]) +
                       static_cast<u128>(ai) * a[j] + carry;
      r[i + j] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> 64);
    }
    r[i + n] = carry;
  }
  // Double (shift left one bit across 2n limbs).
  Limb top = 0;
  for (std::size_t i = 0; i < 2 * n; ++i) {
    const Limb next = r[i] >> 63;
    r[i] = (r[i] << 1) | top;
    top = next;
  }
  // Add the diagonal a_i².
  Limb carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const u128 sq = static_cast<u128>(a[i]) * a[i];
    u128 cur = static_cast<u128>(r[2 * i]) + static_cast<Limb>(sq) + carry;
    r[2 * i] = static_cast<Limb>(cur);
    cur = static_cast<u128>(r[2 * i + 1]) + static_cast<Limb>(sq >> 64) +
          static_cast<Limb>(cur >> 64);
    r[2 * i + 1] = static_cast<Limb>(cur);
    carry = static_cast<Limb>(cur >> 64);
  }
}

int cmp_n(const Limb* a, const Limb* b, std::size_t n) {
  for (std::size_t i = n; i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

bool is_zero_n(const Limb* a, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != 0) return false;
  }
  return true;
}

Limb neg_inverse(Limb m0) {
  Limb inv = m0;  // correct to 3 bits (m0 odd => m0² ≡ 1 mod 8)
  for (int i = 0; i < 5; ++i) inv *= 2 - m0 * inv;
  return ~inv + 1;
}

namespace {

// The fused-CIOS core, generic over the limb count. Kept in a template so
// the common widths below compile with the loop trip counts known — the
// compiler fully unrolls the inner MAC chains. N == 0 is the variable-width
// fallback.
template <std::size_t N>
void cios_core(Limb* r, const Limb* a, const Limb* b, const Limb* m, Limb n0,
               std::size_t n_rt) {
  const std::size_t n = N == 0 ? n_rt : N;
  Limb t[kMaxFpLimbs + 2];
  for (std::size_t i = 0; i < n + 2; ++i) t[i] = 0;

  for (std::size_t i = 0; i < n; ++i) {
    // t += a_i · b.
    const Limb ai = a[i];
    Limb carry = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const u128 cur = static_cast<u128>(t[j]) + static_cast<u128>(ai) * b[j] +
                       carry;
      t[j] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> 64);
    }
    u128 cur = static_cast<u128>(t[n]) + carry;
    t[n] = static_cast<Limb>(cur);
    t[n + 1] = static_cast<Limb>(cur >> 64);
    // REDC fold: make t divisible by 2^64 and shift down one limb.
    const Limb u = t[0] * n0;
    cur = static_cast<u128>(t[0]) + static_cast<u128>(u) * m[0];
    carry = static_cast<Limb>(cur >> 64);
    for (std::size_t j = 1; j < n; ++j) {
      cur = static_cast<u128>(t[j]) + static_cast<u128>(u) * m[j] + carry;
      t[j - 1] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> 64);
    }
    cur = static_cast<u128>(t[n]) + carry;
    t[n - 1] = static_cast<Limb>(cur);
    t[n] = t[n + 1] + static_cast<Limb>(cur >> 64);
    t[n + 1] = 0;
  }

  // One conditional subtraction brings operands < m fully below m;
  // in-width operands >= m can leave t[n] == 1, which the subtraction
  // clears (callers post-reduce in that out-of-domain case).
  bool ge = t[n] != 0;
  if (!ge) ge = cmp_n(t, m, n) >= 0;
  if (ge) {
    Limb borrow = sub_n(t, t, m, n);
    t[n] -= borrow;
  }
  for (std::size_t i = 0; i < n; ++i) r[i] = t[i];
}

}  // namespace

void cios_mont_mul(Limb* r, const Limb* a, const Limb* b, const Limb* m,
                   Limb n0, std::size_t n) {
  // The accumulator in cios_core is sized to kMaxFpLimbs; a wider
  // caller-supplied n would index past it (stack smash), so reject it here
  // at the public entry point rather than trusting every caller.
  if (n == 0 || n > kMaxFpLimbs) {
    throw std::invalid_argument(
        "cios_mont_mul: n must be in [1, kMaxFpLimbs]");
  }
  // Dispatch the market's common widths to fully unrolled instances:
  // 128-bit test curves (2), 256/512-bit pairing fields (4, 8), 1024-bit
  // RSA/ZKP moduli (16).
  switch (n) {
    case 2: cios_core<2>(r, a, b, m, n0, n); return;
    case 4: cios_core<4>(r, a, b, m, n0, n); return;
    case 8: cios_core<8>(r, a, b, m, n0, n); return;
    case 16: cios_core<16>(r, a, b, m, n0, n); return;
    default: cios_core<0>(r, a, b, m, n0, n); return;
  }
}

}  // namespace limb

namespace {

obs::Counter& fp_ctx_builds_counter() {
  static obs::Counter& c = obs::counter("crypto.fp.ctx_builds");
  return c;
}

}  // namespace

bool FpCtx::supports(const Bigint& m) {
  if (m.sign() <= 0 || m.is_even() || m.is_one()) return false;
  return m.bit_length() <= limb::kMaxFpBits;
}

FpCtx::FpCtx(const Bigint& m) : m_big_(m) {
  if (!supports(m)) {
    throw std::invalid_argument(
        "FpCtx: modulus must be odd, > 1 and at most 2048 bits");
  }
  fp_ctx_builds_counter().add();
  const auto& l32 = m.raw_limbs();
  n_ = (l32.size() + 1) / 2;
  for (std::size_t i = 0; i < l32.size(); ++i) {
    m_[i / 2] |= static_cast<limb::Limb>(l32[i]) << (32 * (i % 2));
  }
  n0_ = limb::neg_inverse(m_[0]);
  const Bigint r = Bigint::two_pow(64 * n_);
  r_mod_m_ = pack(r.mod(m));
  r2_mod_m_ = pack((r * r).mod(m));
}

void FpCtx::mul_batch(const MulJob* jobs, std::size_t k) const {
  // Repackage FpElem-level jobs into raw-limb jobs in stack chunks; every
  // chunk executes inside cios_mont_mul_xk (SIMD lanes or the in-order
  // scalar fallback), so chunking never changes what ran.
  constexpr std::size_t kChunk = 128;
  simd::MontJob raw[kChunk];
  for (std::size_t i = 0; i < k; i += kChunk) {
    const std::size_t c = std::min(kChunk, k - i);
    for (std::size_t j = 0; j < c; ++j) {
      const MulJob& job = jobs[i + j];
      raw[j] = simd::MontJob{job.r->v.data(), job.a->v.data(),
                             job.b->v.data()};
    }
    simd::cios_mont_mul_xk(raw, c, m_.data(), n0_, n_);
  }
}

void FpCtx::mul_batch_raw(const simd::MontJob* jobs, std::size_t k) const {
  simd::cios_mont_mul_xk(jobs, k, m_.data(), n0_, n_);
}

void FpCtx::sqr_batch(FpElem* const* r, const FpElem* const* a,
                      std::size_t k) const {
  constexpr std::size_t kChunk = 128;
  simd::MontJob raw[kChunk];
  for (std::size_t i = 0; i < k; i += kChunk) {
    const std::size_t c = std::min(kChunk, k - i);
    for (std::size_t j = 0; j < c; ++j) {
      raw[j] = simd::MontJob{r[i + j]->v.data(), a[i + j]->v.data(),
                             a[i + j]->v.data()};
    }
    simd::cios_mont_mul_xk(raw, c, m_.data(), n0_, n_);
  }
}

FpElem FpCtx::pack(const Bigint& x) const {
  if (x.is_negative()) {
    throw std::invalid_argument("FpCtx::pack: negative value");
  }
  const auto& l32 = x.raw_limbs();
  if (l32.size() > 2 * n_) {
    throw std::invalid_argument("FpCtx::pack: value wider than context");
  }
  FpElem out;
  for (std::size_t i = 0; i < l32.size(); ++i) {
    out.v[i / 2] |= static_cast<limb::Limb>(l32[i]) << (32 * (i % 2));
  }
  return out;
}

Bigint FpCtx::unpack(const FpElem& a) const {
  std::vector<std::uint32_t> l32(2 * n_, 0);
  for (std::size_t i = 0; i < n_; ++i) {
    l32[2 * i] = static_cast<std::uint32_t>(a.v[i]);
    l32[2 * i + 1] = static_cast<std::uint32_t>(a.v[i] >> 32);
  }
  return Bigint::from_raw_limbs(std::move(l32));
}

FpElem FpCtx::to_mont(const Bigint& x) const {
  const bool reduced = !x.is_negative() && x < m_big_;
  const FpElem plain = pack(reduced ? x : x.mod(m_big_));
  FpElem out;
  mul(out, plain, r2_mod_m_);
  return out;
}

Bigint FpCtx::from_mont(const FpElem& a) const {
  // REDC as a Montgomery product with 1: a·1·R^{-1} = a·R^{-1}. For a < R
  // the result is below m after cios's single conditional subtraction.
  FpElem one_plain;
  one_plain.v[0] = 1;
  FpElem out;
  mul(out, a, one_plain);
  return unpack(out);
}

namespace {

// Width-4 sliding window over the odd powers x^1, x^3, ..., x^15.
constexpr std::size_t kWindow = 4;
constexpr std::size_t kOddPowers = std::size_t{1} << (kWindow - 1);

// The window walk behind pow and pow_batch: scans e from its top bit and
// calls sqr() for every squaring of the accumulator and mul(i) for every
// multiplication by the odd power x^(2i+1).
template <class Sqr, class Mul>
void walk_windows(const Bigint& e, Sqr&& sqr, Mul&& mul) {
  std::ptrdiff_t i = static_cast<std::ptrdiff_t>(e.bit_length()) - 1;
  while (i >= 0) {
    if (!e.bit(static_cast<std::size_t>(i))) {
      sqr();
      --i;
      continue;
    }
    // Longest window [j, i] with j > i - kWindow whose low bit is 1.
    std::ptrdiff_t j = std::max<std::ptrdiff_t>(0, i - kWindow + 1);
    while (!e.bit(static_cast<std::size_t>(j))) ++j;
    std::uint32_t window = 0;
    for (std::ptrdiff_t k = i; k >= j; --k) {
      sqr();
      window = (window << 1) | (e.bit(static_cast<std::size_t>(k)) ? 1 : 0);
    }
    mul((window - 1) / 2);
    i = j - 1;
  }
}

}  // namespace

FpElem FpCtx::pow(const FpElem& x, const Bigint& e) const {
  if (e.is_negative()) {
    throw std::invalid_argument("FpCtx::pow: negative exponent");
  }
  std::array<FpElem, kOddPowers> odd_powers;
  odd_powers[0] = x;
  FpElem x2;
  sqr(x2, x);
  for (std::size_t i = 1; i < kOddPowers; ++i) {
    mul(odd_powers[i], odd_powers[i - 1], x2);
  }
  FpElem acc = one();
  walk_windows(
      e, [&] { sqr(acc, acc); },
      [&](std::size_t i) { mul(acc, acc, odd_powers[i]); });
  return acc;
}

void FpCtx::pow_batch(FpElem* r, const FpElem* x, std::size_t k,
                      const Bigint& e) const {
  if (e.is_negative()) {
    throw std::invalid_argument("FpCtx::pow_batch: negative exponent");
  }
  for (std::size_t c0 = 0; c0 < k; c0 += kPowBatchLanes) {
    const std::size_t c = std::min(kPowBatchLanes, k - c0);
    FpElem* acc = r + c0;
    // Per lane: the odd-power table, and acc holding x² while it fills.
    FpElem odd[kPowBatchLanes][kOddPowers];
    simd::MontJob jobs[kPowBatchLanes];
    for (std::size_t l = 0; l < c; ++l) {
      odd[l][0] = x[c0 + l];
      jobs[l] = simd::MontJob{acc[l].v.data(), odd[l][0].v.data(),
                              odd[l][0].v.data()};
    }
    mul_batch_raw(jobs, c);
    for (std::size_t i = 1; i < kOddPowers; ++i) {
      for (std::size_t l = 0; l < c; ++l) {
        jobs[l] = simd::MontJob{odd[l][i].v.data(), odd[l][i - 1].v.data(),
                                acc[l].v.data()};
      }
      mul_batch_raw(jobs, c);
    }
    // The walk's two job shapes, fixed for the whole exponent.
    simd::MontJob sqr_jobs[kPowBatchLanes];
    simd::MontJob mul_jobs[kOddPowers][kPowBatchLanes];
    for (std::size_t l = 0; l < c; ++l) {
      acc[l] = one();
      limb::Limb* a = acc[l].v.data();
      sqr_jobs[l] = simd::MontJob{a, a, a};
      for (std::size_t i = 0; i < kOddPowers; ++i) {
        mul_jobs[i][l] = simd::MontJob{a, a, odd[l][i].v.data()};
      }
    }
    walk_windows(
        e, [&] { mul_batch_raw(sqr_jobs, c); },
        [&](std::size_t i) { mul_batch_raw(mul_jobs[i], c); });
  }
}

void fp2_mul(const FpCtx& F, Fp2Elem& r, const Fp2Elem& x, const Fp2Elem& y) {
  FpElem ac, bd, sx, sy, cross;
  F.mul(ac, x.a, y.a);
  F.mul(bd, x.b, y.b);
  F.add(sx, x.a, x.b);
  F.add(sy, y.a, y.b);
  F.mul(cross, sx, sy);
  F.sub(r.a, ac, bd);
  F.sub(cross, cross, ac);
  F.sub(r.b, cross, bd);
}

void fp2_sqr(const FpCtx& F, Fp2Elem& r, const Fp2Elem& x) {
  FpElem s, d, t2;
  F.add(s, x.a, x.b);
  F.sub(d, x.a, x.b);
  F.mul(t2, x.a, x.b);
  F.mul(r.a, s, d);
  F.add(r.b, t2, t2);
}

void fp2_conj(const FpCtx& F, Fp2Elem& r, const Fp2Elem& x) {
  r.a = x.a;
  F.neg(r.b, x.b);
}

void fp2_pow(const FpCtx& F, Fp2Elem& r, const Fp2Elem& x, const Bigint& e) {
  Fp2Elem acc{F.one(), F.zero()};
  for (std::size_t i = e.bit_length(); i-- > 0;) {
    fp2_sqr(F, acc, acc);
    if (e.bit(i)) fp2_mul(F, acc, acc, x);
  }
  r = acc;
}

}  // namespace ppms
