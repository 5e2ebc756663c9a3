#include "bigint/prime.h"

#include <algorithm>
#include <array>
#include <optional>
#include <stdexcept>

#include "bigint/limbs.h"
#include "bigint/modarith.h"
#include "bigint/simd.h"

namespace ppms {

namespace {

// Miller-Rabin witness test for one odd candidate n > 3, with
// n - 1 = d·2^s decomposed once. For n that FpCtx holds, the squaring
// chain stays in the Montgomery domain of a context built once per
// candidate, so the R/R² setup divisions are paid once per candidate
// instead of once per witness; canonical residues compare equal exactly
// when the values do. The context is local, not from montgomery_ctx:
// candidates are throwaway moduli, and inserting them into the shared
// cache would evict the live session moduli. Wider candidates run the
// same test on schoolbook Bigint.
//
// Witnesses for one candidate share n and d and differ only in the base,
// so up to width() of them run as one lane-batched exponentiation
// (FpCtx::pow_batch). width() is simd::batch_width at the candidate's
// limb count: 1 wherever the lane kernels do not beat the scalar one.
class MillerRabin {
 public:
  static constexpr std::size_t kMaxWidth = FpCtx::kPowBatchLanes;

  explicit MillerRabin(const Bigint& n) : n_(n), n1_(n - Bigint(1)), d_(n1_) {
    while (d_.is_even()) {
      d_ = d_ >> 1;
      ++s_;
    }
    if (FpCtx::supports(n)) {
      F_.emplace(n);
      n1_mont_ = F_->to_mont(n1_);
      width_ = std::min(kMaxWidth, simd::batch_width(F_->limbs()));
    }
  }

  std::size_t width() const { return width_; }

  /// False when `base` witnesses that n is composite.
  bool passes(const Bigint& base) const {
    if (!F_) return passes_wide(base);
    return chain_passes(F_->pow(F_->to_mont(base), d_));
  }

  /// Index of the first of bases[0..k) that witnesses n composite, or k
  /// when none does; k <= width().
  std::size_t first_witness(const Bigint* bases, std::size_t k) const {
    if (k == 1) return passes(bases[0]) ? 1 : 0;
    const FpCtx& F = *F_;
    FpElem x[kMaxWidth];
    for (std::size_t i = 0; i < k; ++i) x[i] = F.to_mont(bases[i]);
    F.pow_batch(x, x, k, d_);
    for (std::size_t i = 0; i < k; ++i) {
      if (!chain_passes(x[i])) return i;
    }
    return k;
  }

 private:
  // The verdict on x = base^d: ±1 passes, else s - 1 squarings must reach
  // -1 before they reach 1.
  bool chain_passes(FpElem x) const {
    const FpCtx& F = *F_;
    if (F.equal(x, F.one()) || F.equal(x, n1_mont_)) return true;
    for (std::size_t i = 1; i < s_; ++i) {
      F.sqr(x, x);
      if (F.equal(x, n1_mont_)) return true;
      if (F.equal(x, F.one())) return false;  // nontrivial sqrt of 1
    }
    return false;
  }

  bool passes_wide(const Bigint& base) const {
    Bigint x = modexp(base, d_, n_);
    if (x.is_one() || x == n1_) return true;
    for (std::size_t i = 1; i < s_; ++i) {
      x = (x * x).mod(n_);
      if (x == n1_) return true;
      if (x.is_one()) return false;
    }
    return false;
  }

  Bigint n_, n1_, d_;
  std::size_t s_ = 0;
  std::optional<FpCtx> F_;
  FpElem n1_mont_;
  std::size_t width_ = 1;
};

// Trial division by word residues. The small primes are packed, in order,
// into groups whose product stays below 2^32. One pass over n's 32-bit
// limbs reduces n modulo a block of group products at once (Barrett
// steps: no division instruction, no Bigint temporaries), and each prime's
// divisibility is then read off its group's residue with a multiply and a
// compare. Blocks go in prime order and stop at the first factor, so the
// common case (an odd candidate with a factor below 180, about four in
// five) costs one pass.
struct TrialTable {
  static constexpr std::size_t kBlock = 8;  // residues advanced per pass
  // Per group: the product, floor((2^64 - 1) / product), and the end of
  // its slice of the prime arrays (the slice starts where the previous
  // group's ends).
  std::vector<std::uint32_t> product;
  std::vector<std::uint64_t> reciprocal;
  std::vector<std::size_t> end;
  // Per prime: p | r (for r < 2^32) exactly when r·inverse mod 2^32 <=
  // limit. For odd p, inverse = p^-1 mod 2^32 and limit = floor((2^32 -
  // 1) / p); for p = 2, inverse = 2^31 and limit = 0 test the low bit.
  std::vector<std::uint32_t> prime, inverse, limit;
};

const TrialTable& trial_table() {
  static const TrialTable table = [] {
    TrialTable t;
    std::uint64_t product = 1;
    const auto close_group = [&] {
      t.product.push_back(static_cast<std::uint32_t>(product));
      t.reciprocal.push_back(~std::uint64_t{0} / product);
      t.end.push_back(t.prime.size());
      product = 1;
    };
    for (const std::uint32_t p : small_primes()) {
      if (product * p > 0xFFFFFFFFull) close_group();
      product *= p;
      std::uint32_t inverse = 1u << 31, limit = 0;
      if (p != 2) {
        inverse = p;  // Newton: correct to 3 bits for odd p, doubling each
        for (int k = 0; k < 4; ++k) inverse *= 2 - p * inverse;
        limit = 0xFFFFFFFFu / p;
      }
      t.prime.push_back(p);
      t.inverse.push_back(inverse);
      t.limit.push_back(limit);
    }
    close_group();
    return t;
  }();
  return table;
}

}  // namespace

const std::vector<std::uint32_t>& small_primes() {
  static const std::vector<std::uint32_t> primes = [] {
    // Sieve of Eratosthenes up to 2048.
    constexpr std::uint32_t kLimit = 2048;
    std::vector<bool> composite(kLimit, false);
    std::vector<std::uint32_t> out;
    for (std::uint32_t p = 2; p < kLimit; ++p) {
      if (composite[p]) continue;
      out.push_back(p);
      for (std::uint32_t q = p * p; q < kLimit; q += p) composite[q] = true;
    }
    return out;
  }();
  return primes;
}

bool has_small_factor(const Bigint& n) {
  const TrialTable& t = trial_table();
  const auto& words = n.raw_limbs();  // |n|, 32-bit limbs, low first
  // n itself being one of the primes does not count as a small factor.
  const std::uint32_t self =
      !n.is_negative() && words.size() == 1 ? words[0] : 0;
  const std::size_t groups = t.product.size();
  std::size_t i = 0;  // next prime to check
  for (std::size_t g0 = 0; g0 < groups; g0 += TrialTable::kBlock) {
    const std::size_t gn = std::min(TrialTable::kBlock, groups - g0);
    std::uint32_t residue[TrialTable::kBlock] = {};
    for (std::size_t w = words.size(); w-- > 0;) {
      for (std::size_t g = 0; g < gn; ++g) {
        // x < product·2^32, so the Barrett quotient is low by at most one.
        const std::uint64_t m = t.product[g0 + g];
        const std::uint64_t x =
            (static_cast<std::uint64_t>(residue[g]) << 32) | words[w];
        const std::uint64_t q = static_cast<std::uint64_t>(
            (static_cast<limb::Dlimb>(x) * t.reciprocal[g0 + g]) >> 64);
        std::uint64_t r = x - q * m;
        if (r >= m) r -= m;
        residue[g] = static_cast<std::uint32_t>(r);
      }
    }
    for (std::size_t g = 0; g < gn; ++g) {
      for (; i < t.end[g0 + g]; ++i) {
        if (residue[g] * t.inverse[i] <= t.limit[i] && t.prime[i] != self) {
          return true;
        }
      }
    }
  }
  return false;
}

bool is_prime_u64(std::uint64_t n) {
  __extension__ using U128 = unsigned __int128;
  if (n < 2) return false;
  for (const std::uint64_t p :
       {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull, 23ull, 29ull,
        31ull, 37ull}) {
    if (n % p == 0) return n == p;
  }
  const auto mulmod = [](std::uint64_t a, std::uint64_t b, std::uint64_t m) {
    return static_cast<std::uint64_t>((static_cast<U128>(a) * b) % m);
  };
  std::uint64_t d = n - 1;
  int s = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++s;
  }
  for (const std::uint64_t a :
       {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull, 23ull, 29ull,
        31ull, 37ull}) {
    std::uint64_t x = 1 % n;
    // powmod a^d mod n
    std::uint64_t base = a % n, e = d;
    while (e > 0) {
      if (e & 1) x = mulmod(x, base, n);
      base = mulmod(base, base, n);
      e >>= 1;
    }
    if (x == 1 || x == n - 1) continue;
    bool witness = true;
    for (int i = 1; i < s; ++i) {
      x = mulmod(x, x, n);
      if (x == n - 1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

bool miller_rabin_round(const Bigint& n, const Bigint& base) {
  // n - 1 must have an odd part: for n = 1 the decomposition never ends.
  if (n < Bigint(3) || n.is_even()) {
    throw std::invalid_argument("miller_rabin_round: n must be odd and > 2");
  }
  return MillerRabin(n).passes(base);
}

bool is_probable_prime(const Bigint& n, SecureRandom& rng, int rounds) {
  if (n < Bigint(2)) return false;
  if (n == Bigint(2) || n == Bigint(3)) return true;
  if (n.is_even()) return false;
  if (has_small_factor(n)) return false;
  // Values below 2048^2 that survive the sieve are prime.
  if (n < Bigint(2048LL * 2048LL)) return true;

  // Witnesses are drawn and judged in the sequential order: round one runs
  // alone (nearly every candidate that reaches it is a composite it
  // rejects), then the confirmation rounds go up to mr.width() at a time.
  // Drawing a group consumes its bases from rng ahead of the verdicts, so
  // a group with a witness at lane i rewinds rng to its snapshot and
  // redraws exactly i + 1 bases: prime, verdict and rng state all match
  // one-base-at-a-time testing for every seed and every dispatch level.
  const MillerRabin mr(n);
  const Bigint n_minus_2 = n - Bigint(2);
  const auto draw = [&] {
    return Bigint::random_range(rng, Bigint(2), n_minus_2);
  };
  std::array<Bigint, MillerRabin::kMaxWidth> bases;
  for (int done = 0; done < rounds;) {
    const std::size_t left = static_cast<std::size_t>(rounds - done);
    const std::size_t k = done == 0 ? 1 : std::min(mr.width(), left);
    const SecureRandom snapshot = rng;
    for (std::size_t i = 0; i < k; ++i) bases[i] = draw();
    const std::size_t witness = mr.first_witness(bases.data(), k);
    if (witness < k) {
      if (witness + 1 < k) {
        rng = snapshot;
        for (std::size_t i = 0; i <= witness; ++i) draw();
      }
      return false;
    }
    done += static_cast<int>(k);
  }
  return true;
}

Bigint random_prime(SecureRandom& rng, std::size_t bits, int rounds) {
  if (bits < 2) throw std::invalid_argument("random_prime: bits < 2");
  for (;;) {
    Bigint candidate = Bigint::random_bits(rng, bits);
    if (candidate.is_even()) candidate += Bigint(1);
    // Forcing the low bit may not overflow the bit width (top bit was set,
    // +1 on an even number only flips bit 0).
    if (is_probable_prime(candidate, rng, rounds)) return candidate;
  }
}

Bigint random_safe_prime(SecureRandom& rng, std::size_t bits, int rounds) {
  if (bits < 3) throw std::invalid_argument("random_safe_prime: bits < 3");
  for (;;) {
    const Bigint q = random_prime(rng, bits - 1, rounds);
    const Bigint p = q * Bigint(2) + Bigint(1);
    if (p.bit_length() != bits) continue;
    if (is_probable_prime(p, rng, rounds)) return p;
  }
}

}  // namespace ppms
