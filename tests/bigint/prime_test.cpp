#include "bigint/prime.h"

#include <gtest/gtest.h>

#include "bigint/modarith.h"

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

}  // namespace
}  // namespace ppms
