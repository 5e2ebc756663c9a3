#include "bigint/prime.h"

#include <optional>
#include <stdexcept>

#include "bigint/limbs.h"
#include "bigint/modarith.h"

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
class MillerRabin {
 public:
  explicit MillerRabin(const Bigint& n) : n_(n), n1_(n - Bigint(1)), d_(n1_) {
    while (d_.is_even()) {
      d_ = d_ >> 1;
      ++s_;
    }
    if (FpCtx::supports(n)) {
      F_.emplace(n);
      n1_mont_ = F_->to_mont(n1_);
    }
  }

  /// False when `base` witnesses that n is composite.
  bool passes(const Bigint& base) const {
    if (!F_) return passes_wide(base);
    const FpCtx& F = *F_;
    FpElem x = F.pow(F.to_mont(base), d_);
    if (F.equal(x, F.one()) || F.equal(x, n1_mont_)) return true;
    for (std::size_t i = 1; i < s_; ++i) {
      F.sqr(x, x);
      if (F.equal(x, n1_mont_)) return true;
      if (F.equal(x, F.one())) return false;  // nontrivial sqrt of 1
    }
    return false;
  }

 private:
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
};

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
  for (const std::uint32_t p : small_primes()) {
    const Bigint bp(static_cast<std::int64_t>(p));
    if (n == bp) return false;
    if ((n % bp).is_zero()) return true;
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

  const MillerRabin mr(n);
  const Bigint n_minus_2 = n - Bigint(2);
  for (int i = 0; i < rounds; ++i) {
    if (!mr.passes(Bigint::random_range(rng, Bigint(2), n_minus_2))) {
      return false;
    }
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
