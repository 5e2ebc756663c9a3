// Sequential reference prime search: one Bigint remainder per trial prime
// and one Miller-Rabin exponentiation per witness, drawn and tested in
// order. Production (bigint/prime.h) groups the trial primes into word
// residues and runs the confirmation witnesses lane-batched; these stay in
// the tests as the oracle the differential suites pin it to: the same
// verdicts, the same primes, and the same SecureRandom state afterwards.
#pragma once

#include <optional>
#include <utility>

#include "bigint/limbs.h"
#include "bigint/modarith.h"
#include "bigint/prime.h"

namespace ppms::testing {

/// True when n has a prime factor < 2048 that is not n itself.
inline bool oracle_has_small_factor(const Bigint& n) {
  for (const std::uint32_t p : small_primes()) {
    const Bigint bp(static_cast<std::int64_t>(p));
    if (n == bp) return false;
    if ((n % bp).is_zero()) return true;
  }
  return false;
}

/// Miller-Rabin witness test for one odd n > 3 on a local FpCtx (schoolbook
/// Bigint past 2048 bits), n - 1 = d·2^s decomposed once.
class OracleMillerRabin {
 public:
  explicit OracleMillerRabin(const Bigint& n)
      : n_(n), n1_(n - Bigint(1)), d_(n1_) {
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
    if (!F_) {
      Bigint x = modexp(base, d_, n_);
      if (x.is_one() || x == n1_) return true;
      for (std::size_t i = 1; i < s_; ++i) {
        x = (x * x).mod(n_);
        if (x == n1_) return true;
        if (x.is_one()) return false;
      }
      return false;
    }
    const FpCtx& F = *F_;
    FpElem x = F.pow(F.to_mont(base), d_);
    if (F.equal(x, F.one()) || F.equal(x, n1_mont_)) return true;
    for (std::size_t i = 1; i < s_; ++i) {
      F.sqr(x, x);
      if (F.equal(x, n1_mont_)) return true;
      if (F.equal(x, F.one())) return false;
    }
    return false;
  }

 private:
  Bigint n_, n1_, d_;
  std::size_t s_ = 0;
  std::optional<FpCtx> F_;
  FpElem n1_mont_;
};

/// Index of the first of `rounds` sequentially drawn bases that witnesses
/// n composite, or `rounds` when none does. Requires n odd, > 2048² and
/// free of small factors (the inputs that reach Miller-Rabin).
inline int oracle_first_witness(const Bigint& n, SecureRandom& rng,
                                int rounds = 32) {
  const OracleMillerRabin mr(n);
  const Bigint n_minus_2 = n - Bigint(2);
  for (int i = 0; i < rounds; ++i) {
    if (!mr.passes(Bigint::random_range(rng, Bigint(2), n_minus_2))) {
      return i;
    }
  }
  return rounds;
}

inline bool oracle_is_probable_prime(const Bigint& n, SecureRandom& rng,
                                     int rounds = 32) {
  if (n < Bigint(2)) return false;
  if (n == Bigint(2) || n == Bigint(3)) return true;
  if (n.is_even()) return false;
  if (oracle_has_small_factor(n)) return false;
  if (n < Bigint(2048LL * 2048LL)) return true;
  return oracle_first_witness(n, rng, rounds) == rounds;
}

inline Bigint oracle_random_prime(SecureRandom& rng, std::size_t bits,
                                  int rounds = 32) {
  for (;;) {
    Bigint candidate = Bigint::random_bits(rng, bits);
    if (candidate.is_even()) candidate += Bigint(1);
    if (oracle_is_probable_prime(candidate, rng, rounds)) return candidate;
  }
}

/// The primes rsa_generate(rng, bits, e) settles on, drawn by the same
/// retry loop over oracle_random_prime.
inline std::pair<Bigint, Bigint> oracle_rsa_primes(SecureRandom& rng,
                                                   std::size_t bits,
                                                   const Bigint& e) {
  const std::size_t half = bits / 2;
  for (;;) {
    const Bigint p = oracle_random_prime(rng, half);
    const Bigint q = oracle_random_prime(rng, half);
    if (p == q) continue;
    if ((p * q).bit_length() != bits) continue;
    if (!gcd(e, lcm(p - Bigint(1), q - Bigint(1))).is_one()) continue;
    return {p, q};
  }
}

}  // namespace ppms::testing
