#include "bigint/prime.h"

#include <gtest/gtest.h>

#include <vector>

#include "bigint/modarith.h"
#include "bigint/simd.h"
#include "support/prime_oracle.h"

namespace ppms {
namespace {

TEST(PrimeTest, SmallPrimesTableSane) {
  const auto& primes = small_primes();
  EXPECT_EQ(primes.front(), 2u);
  EXPECT_EQ(primes[1], 3u);
  EXPECT_LT(primes.back(), 2048u);
  // pi(2048) == 309.
  EXPECT_EQ(primes.size(), 309u);
}

TEST(PrimeTest, HasSmallFactor) {
  EXPECT_TRUE(has_small_factor(Bigint(15)));
  EXPECT_FALSE(has_small_factor(Bigint(13)));  // 13 itself is in the table
  // 2048th-ish prime squared-ish value with no small factor: 2053 * 2063.
  EXPECT_FALSE(has_small_factor(Bigint(2053) * Bigint(2063)));
}

TEST(PrimeTest, KnownPrimesPass) {
  SecureRandom rng(1);
  for (const std::int64_t p :
       {2LL, 3LL, 5LL, 97LL, 7919LL, 1000003LL, 2147483647LL}) {
    EXPECT_TRUE(is_probable_prime(Bigint(p), rng)) << p;
  }
  // 2^127 - 1 (Mersenne prime).
  EXPECT_TRUE(is_probable_prime(
      Bigint::from_decimal("170141183460469231731687303715884105727"), rng));
}

TEST(PrimeTest, KnownCompositesFail) {
  SecureRandom rng(2);
  for (const std::int64_t n :
       {0LL, 1LL, 4LL, 100LL, 7917LL, 2147483647LL * 2}) {
    EXPECT_FALSE(is_probable_prime(Bigint(n), rng)) << n;
  }
  EXPECT_FALSE(is_probable_prime(Bigint(-7), rng));
}

TEST(PrimeTest, CarmichaelNumbersRejected) {
  // Fermat pseudoprimes to every base; Miller-Rabin must still reject.
  SecureRandom rng(3);
  for (const std::int64_t n : {561LL, 1105LL, 1729LL, 41041LL, 825265LL,
                               321197185LL}) {
    EXPECT_FALSE(is_probable_prime(Bigint(n), rng)) << n;
  }
}

TEST(PrimeTest, LargeSemiprimeRejected) {
  SecureRandom rng(4);
  const Bigint p = random_prime(rng, 128);
  const Bigint q = random_prime(rng, 128);
  EXPECT_FALSE(is_probable_prime(p * q, rng));
}

class RandomPrimeWidths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RandomPrimeWidths, ExactBitLengthAndPrime) {
  SecureRandom rng(GetParam());
  const Bigint p = random_prime(rng, GetParam());
  EXPECT_EQ(p.bit_length(), GetParam());
  EXPECT_TRUE(is_probable_prime(p, rng));
}

INSTANTIATE_TEST_SUITE_P(Bits, RandomPrimeWidths,
                         ::testing::Values(8, 16, 32, 64, 128, 256));

TEST(PrimeTest, RandomPrimeRejectsTinyWidth) {
  SecureRandom rng(5);
  EXPECT_THROW(random_prime(rng, 1), std::invalid_argument);
}

TEST(PrimeTest, SafePrimeStructure) {
  SecureRandom rng(6);
  const Bigint p = random_safe_prime(rng, 64);
  EXPECT_EQ(p.bit_length(), 64u);
  EXPECT_TRUE(is_probable_prime(p, rng));
  const Bigint q = (p - Bigint(1)) / Bigint(2);
  EXPECT_TRUE(is_probable_prime(q, rng));
}

TEST(PrimeTest, MillerRabinRoundWitnessDetectsComposite) {
  // 2 is a Miller-Rabin witness for 221 = 13 * 17.
  EXPECT_FALSE(miller_rabin_round(Bigint(221), Bigint(2)));
  // ...but 174 is a strong liar for 221.
  EXPECT_TRUE(miller_rabin_round(Bigint(221), Bigint(174)));
}

TEST(PrimeTest, MillerRabinRoundRejectsOutOfDomainModulus) {
  // For n = 1, decomposing n - 1 = 0 into d·2^s would never terminate.
  EXPECT_THROW(miller_rabin_round(Bigint(1), Bigint(2)),
               std::invalid_argument);
  EXPECT_THROW(miller_rabin_round(Bigint(0), Bigint(2)),
               std::invalid_argument);
  EXPECT_THROW(miller_rabin_round(Bigint(1000), Bigint(3)),
               std::invalid_argument);
  EXPECT_TRUE(miller_rabin_round(Bigint(3), Bigint(2)));
}

TEST(PrimeTest, CandidateTestingLeavesContextCacheAlone) {
  // Miller-Rabin candidates are throwaway moduli: testing them must not
  // touch the shared per-modulus context cache, or prime generation (RSA
  // keygen per pseudonym) would keep evicting the live session contexts.
  SecureRandom rng(30);
  const Bigint p = random_prime(rng, 512);
  const auto hot = montgomery_ctx(p);
  const std::size_t cached = montgomery_cache_size();
  int tested = 0;
  while (tested < 120) {
    Bigint c = Bigint::random_bits(rng, 511) + Bigint::two_pow(511);
    if (c.is_even()) c += Bigint(1);
    if (has_small_factor(c)) continue;  // only count candidates MR sees
    (void)is_probable_prime(c, rng);
    ++tested;
  }
  EXPECT_EQ(montgomery_ctx(p).get(), hot.get());
  EXPECT_EQ(montgomery_cache_size(), cached);
}

TEST(PrimeTest, CandidatesWiderThanFpCtxStillTested) {
  // Past 2048 bits there is no Montgomery context; the witness loop runs
  // on schoolbook Bigint instead. 2^2203 - 1 is a Mersenne prime.
  SecureRandom rng(31);
  const Bigint m2203 = Bigint::two_pow(2203) - Bigint(1);
  EXPECT_TRUE(is_probable_prime(m2203, rng, 2));
  EXPECT_TRUE(miller_rabin_round(m2203, Bigint(3)));
  // 2^2204 + 1 = (2^4)^551 + 1 is divisible by 17, and 2 witnesses it:
  // the order of 2 is 4408, so no 2^(2^i) along the chain is ±1.
  EXPECT_FALSE(miller_rabin_round(Bigint::two_pow(2204) + Bigint(1),
                                  Bigint(2)));
}

// --- differential suite against the sequential oracle -------------------

// Every dispatch level this CPU can run, restored to the level active
// before the test when the guard goes out of scope.
class EachSimdLevel {
 public:
  EachSimdLevel() : saved_(simd::level()) {
    for (const simd::Level lv :
         {simd::Level::kScalar, simd::Level::kAvx2, simd::Level::kAvx512}) {
      if (static_cast<int>(lv) <= static_cast<int>(simd::detected())) {
        levels_.push_back(lv);
      }
    }
  }
  ~EachSimdLevel() { simd::set_level(saved_); }
  const std::vector<simd::Level>& levels() const { return levels_; }

 private:
  simd::Level saved_;
  std::vector<simd::Level> levels_;
};

TEST(PrimeOracleDiff, HasSmallFactorMatchesOracle) {
  const auto check = [](const Bigint& n) {
    EXPECT_EQ(has_small_factor(n), testing::oracle_has_small_factor(n))
        << n.to_decimal();
  };
  SecureRandom rng(40);
  for (int i = 0; i < 600; ++i) {
    const std::size_t bits = 13 + rng.uniform(2048 - 13 + 1);
    check(Bigint::random_bits(rng, bits));
  }
  const auto& primes = small_primes();
  for (std::size_t i = 0; i < primes.size(); ++i) {
    const Bigint p(static_cast<std::int64_t>(primes[i]));
    check(p);
    check(-p);
    check(p * p);
    check(p * Bigint(static_cast<std::int64_t>(primes[(7 * i + 3) %
                                                       primes.size()])));
    // A large cofactor free of small primes times one small prime.
    check(p * (Bigint::two_pow(521) - Bigint(1)));
  }
  check(Bigint(2039) * Bigint(2039));
  check(Bigint(2053) * Bigint(2063));
  for (const std::int64_t v : {0LL, 1LL, -1LL, 2048LL, 2053LL, 4294967291LL,
                               4294967296LL}) {
    check(Bigint(v));
  }
}

TEST(PrimeOracleDiff, RandomPrimeMatchesOracleAtEveryLevel) {
  // Same prime and same RNG state afterwards, for every seed, width and
  // dispatch level: the lane-batched confirmation rounds draw their bases
  // exactly as the sequential loop does.
  EachSimdLevel guard;
  for (const simd::Level lv : guard.levels()) {
    simd::set_level(lv);
    for (const std::size_t bits : {64, 128, 256, 512, 1024}) {
      const int seeds = bits >= 1024 ? 2 : bits >= 512 ? 3 : 5;
      for (int seed = 0; seed < seeds; ++seed) {
        SecureRandom a(500 + seed), b(500 + seed);
        EXPECT_EQ(random_prime(a, bits), testing::oracle_random_prime(b, bits))
            << simd::level_name(lv) << " bits=" << bits << " seed=" << seed;
        EXPECT_EQ(a.next_u64(), b.next_u64())
            << simd::level_name(lv) << " bits=" << bits << " seed=" << seed;
      }
    }
  }
}

TEST(PrimeOracleDiff, VerdictsMatchOracleOnCandidates) {
  EachSimdLevel guard;
  for (const simd::Level lv : guard.levels()) {
    simd::set_level(lv);
    SecureRandom gen(41);
    for (const std::size_t bits : {256, 512}) {
      for (int i = 0; i < 40; ++i) {
        Bigint n = Bigint::random_bits(gen, bits);
        if (n.is_even()) n += Bigint(1);
        if (i % 4 == 0) n = random_prime(gen, bits);
        SecureRandom a(600 + i), b(600 + i);
        EXPECT_EQ(is_probable_prime(n, a),
                  testing::oracle_is_probable_prime(n, b))
            << simd::level_name(lv) << " " << n.to_decimal();
        EXPECT_EQ(a.next_u64(), b.next_u64())
            << simd::level_name(lv) << " " << n.to_decimal();
      }
    }
    // Fewer rounds than a lane group, and none at all.
    const Bigint p = testing::oracle_random_prime(gen, 256);
    for (const int rounds : {0, 1, 2, 5, 9}) {
      SecureRandom a(700), b(700);
      EXPECT_TRUE(is_probable_prime(p, a, rounds));
      EXPECT_TRUE(testing::oracle_is_probable_prime(p, b, rounds));
      EXPECT_EQ(a.next_u64(), b.next_u64()) << rounds;
    }
  }
}

// A prime p = 3 mod 4 of `bits` bits for which 2p - 1 is prime too.
Bigint liar_rich_factor(SecureRandom& rng, std::size_t bits) {
  for (;;) {
    Bigint p = Bigint::random_bits(rng, bits);
    p += Bigint(3 - static_cast<std::int64_t>((p % Bigint(4)).to_u64()));
    if (p.bit_length() != bits) continue;
    const Bigint q = p * Bigint(2) - Bigint(1);
    if (has_small_factor(p) || has_small_factor(q)) continue;
    if (is_probable_prime(p, rng) && is_probable_prime(q, rng)) return p;
  }
}

TEST(PrimeOracleDiff, LiarRichCompositesRewindToTheFirstWitness) {
  // n = p(2p - 1) with p = 3 mod 4: a quarter of all bases are strong
  // liars, so over many seeds the first witness lands in every lane of the
  // first confirmation group, and the RNG must still end where the
  // sequential loop leaves it.
  EachSimdLevel guard;
  SecureRandom gen(42);
  for (const std::size_t bits : {127, 255}) {
    const Bigint p = liar_rich_factor(gen, bits);
    const Bigint n = p * (p * Bigint(2) - Bigint(1));
    ASSERT_FALSE(has_small_factor(n));
    std::vector<int> first_witness(17, 0);
    for (int seed = 0; seed < 400; ++seed) {
      SecureRandom w(seed);
      const int at = testing::oracle_first_witness(n, w);
      ++first_witness[static_cast<std::size_t>(std::min(at, 16))];
    }
    // Witnesses past round one, inside the first group of eight.
    int mid_group = 0;
    for (std::size_t i = 2; i < 8; ++i) mid_group += first_witness[i];
    EXPECT_GT(first_witness[1], 0) << bits;
    EXPECT_GT(mid_group, 0) << bits;
    for (const simd::Level lv : guard.levels()) {
      simd::set_level(lv);
      for (int seed = 0; seed < 400; ++seed) {
        SecureRandom a(seed), b(seed);
        EXPECT_FALSE(is_probable_prime(n, a)) << bits << " " << seed;
        EXPECT_FALSE(testing::oracle_is_probable_prime(n, b));
        EXPECT_EQ(a.next_u64(), b.next_u64())
            << simd::level_name(lv) << " bits=" << bits << " seed=" << seed;
      }
    }
  }
}

}  // namespace
}  // namespace ppms
