#include "bigint/modarith.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bigint/cunningham.h"
#include "bigint/montgomery.h"
#include "bigint/prime.h"

namespace ppms {
namespace {

TEST(ModArith, ModmulSmall) {
  EXPECT_EQ(modmul(Bigint(7), Bigint(8), Bigint(10)), Bigint(6));
  EXPECT_EQ(modmul(Bigint(-7), Bigint(8), Bigint(10)), Bigint(4));
  EXPECT_THROW(modmul(Bigint(1), Bigint(1), Bigint(0)), std::domain_error);
}

TEST(ModExp, SmallKnownValues) {
  EXPECT_EQ(modexp(Bigint(2), Bigint(10), Bigint(1000)), Bigint(24));
  EXPECT_EQ(modexp(Bigint(3), Bigint(0), Bigint(7)), Bigint(1));
  EXPECT_EQ(modexp(Bigint(0), Bigint(5), Bigint(7)), Bigint(0));
  EXPECT_EQ(modexp(Bigint(5), Bigint(3), Bigint(1)), Bigint(0));
}

TEST(ModExp, NegativeBaseReduced) {
  // (-2)^3 mod 7 == -8 mod 7 == 6.
  EXPECT_EQ(modexp(Bigint(-2), Bigint(3), Bigint(7)), Bigint(6));
}

TEST(ModExp, NegativeExponentThrows) {
  EXPECT_THROW(modexp_binary(Bigint(2), Bigint(-1), Bigint(7)),
               std::invalid_argument);
  EXPECT_THROW(modexp_window(Bigint(2), Bigint(-1), Bigint(7)),
               std::invalid_argument);
}

TEST(ModExp, FermatLittleTheorem) {
  // a^(p-1) == 1 mod p for prime p and gcd(a, p) == 1.
  const Bigint p = Bigint::from_decimal(
      "170141183460469231731687303715884105727");  // 2^127 - 1, prime
  SecureRandom rng(60);
  for (int i = 0; i < 10; ++i) {
    const Bigint a = Bigint::random_range(rng, Bigint(2), p);
    EXPECT_EQ(modexp(a, p - Bigint(1), p), Bigint(1));
  }
}

class ModExpStrategies : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModExpStrategies, AllStrategiesAgree) {
  SecureRandom rng(GetParam());
  for (int i = 0; i < 8; ++i) {
    Bigint m = Bigint::random_bits(rng, 256);
    if (m.is_even()) m += Bigint(1);
    const Bigint base = Bigint::random_bits(rng, 300);
    const Bigint exp = Bigint::random_bits(rng, 128);
    const Bigint r1 = modexp_binary(base, exp, m);
    const Bigint r2 = modexp_window(base, exp, m);
    const Bigint r3 = modexp_montgomery(base, exp, m);
    const Bigint r4 = modexp(base, exp, m);
    EXPECT_EQ(r1, r2);
    EXPECT_EQ(r1, r3);
    EXPECT_EQ(r1, r4);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModExpStrategies,
                         ::testing::Values(101, 102, 103));

TEST(ModExp, EvenModulusFallsBackCorrectly) {
  // Montgomery cannot handle even moduli; the facade must still be right.
  const Bigint m = Bigint::from_decimal("1000000000000000000000000");  // even
  const Bigint r = modexp(Bigint(3), Bigint(100), m);
  EXPECT_EQ(r, modexp_binary(Bigint(3), Bigint(100), m));
}

TEST(ModExp, ModulusOneCanonicalZeroAllStrategies) {
  // x mod 1 == 0 for every x; all four entry points must return the
  // canonical zero (empty limb vector), not a denormalized one.
  for (const auto& base : {Bigint(0), Bigint(5), Bigint(-3)}) {
    for (const auto& exp : {Bigint(0), Bigint(1), Bigint(100)}) {
      EXPECT_EQ(modexp(base, exp, Bigint(1)), Bigint());
      EXPECT_EQ(modexp_binary(base, exp, Bigint(1)), Bigint());
      EXPECT_EQ(modexp_window(base, exp, Bigint(1)), Bigint());
      EXPECT_EQ(modexp_montgomery(base, exp, Bigint(1)), Bigint());
    }
  }
}

TEST(ModExp, NonPositiveModulusThrows) {
  EXPECT_THROW(modexp(Bigint(2), Bigint(3), Bigint(0)), std::domain_error);
  EXPECT_THROW(modexp(Bigint(2), Bigint(3), Bigint(-5)), std::domain_error);
}

TEST(ModExp, EvenModulusLargeExponentDispatch) {
  // Montgomery needs odd moduli; the facade must route even moduli to the
  // window ladder no matter how large the exponent gets.
  SecureRandom rng(105);
  for (int i = 0; i < 4; ++i) {
    Bigint m = Bigint::random_bits(rng, 256);
    if (m.is_odd()) m += Bigint(1);
    const Bigint base = Bigint::random_bits(rng, 256);
    const Bigint exp = Bigint::random_bits(rng, 512);
    EXPECT_EQ(modexp(base, exp, m), modexp_binary(base, exp, m));
  }
}

TEST(ModExp, ExplicitContextMatchesFacade) {
  SecureRandom rng(106);
  Bigint m = Bigint::random_bits(rng, 512);
  if (m.is_even()) m += Bigint(1);
  const auto ctx = montgomery_ctx(m);
  for (int i = 0; i < 8; ++i) {
    const Bigint base = Bigint::random_bits(rng, 600);
    const Bigint exp = Bigint::random_bits(rng, 256);
    EXPECT_EQ(modexp(base, exp, *ctx), modexp_binary(base, exp, m));
  }
  EXPECT_THROW(modexp(Bigint(2), Bigint(-1), *ctx), std::invalid_argument);
}

TEST(MontgomeryCache, SharesOneContextPerModulus) {
  montgomery_cache_clear();
  const Bigint m(1000003);
  const auto a = montgomery_ctx(m);
  const auto b = montgomery_ctx(m);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(montgomery_cache_size(), 1u);
  montgomery_cache_clear();
  EXPECT_EQ(montgomery_cache_size(), 0u);
}

TEST(MontgomeryCache, RejectsDegenerateModuli) {
  EXPECT_THROW(montgomery_ctx(Bigint(10)), std::invalid_argument);  // even
  EXPECT_THROW(montgomery_ctx(Bigint(1)), std::invalid_argument);
  EXPECT_THROW(montgomery_ctx(Bigint(0)), std::invalid_argument);
  EXPECT_THROW(montgomery_ctx(Bigint(-7)), std::invalid_argument);
  // Odd but 2049 bits: wider than FpCtx holds.
  EXPECT_THROW(montgomery_ctx(Bigint::two_pow(2048) + Bigint(1)),
               std::invalid_argument);
}

TEST(MontgomeryCache, CapacityStaysBounded) {
  montgomery_cache_clear();
  for (int i = 0; i < 200; ++i) {
    (void)montgomery_ctx(Bigint(1000003 + 2 * i));
  }
  EXPECT_LE(montgomery_cache_size(), 64u);
  montgomery_cache_clear();
}

TEST(FixedBasePow, MatchesGeneralModexp) {
  SecureRandom rng(110);
  Bigint m = Bigint::random_bits(rng, 512);
  if (m.is_even()) m += Bigint(1);
  const Bigint base = Bigint::random_below(rng, m);
  const FixedBasePow table(montgomery_ctx(m), base, 256);
  for (int i = 0; i < 10; ++i) {
    const Bigint exp = Bigint::random_bits(rng, 256);
    EXPECT_EQ(table.pow(exp), modexp_binary(base, exp, m));
  }
  // Edge exponents.
  EXPECT_EQ(table.pow(Bigint(0)), Bigint(1));
  EXPECT_EQ(table.pow(Bigint(1)), base);
  EXPECT_THROW(table.pow(Bigint(-1)), std::invalid_argument);
  // Exponents beyond the table width fall back to the plain ladder.
  const Bigint wide = Bigint::random_bits(rng, 400);
  EXPECT_EQ(table.pow(wide), modexp_binary(base, wide, m));
}

TEST(Montgomery, ReduceHandlesMaximalInput) {
  // from_mont is a REDC of any in-width residue; the all-ones maximum
  // 2^(64n) - 1 (above the modulus) drives the carry ripple to its
  // furthest column. Cross-check against the direct t·R^{-1} mod m with
  // R = 2^(64n), including odd 32-bit limb counts (96 bits).
  SecureRandom rng(107);
  for (const int bits : {96, 128, 256, 512, 1024, 2048}) {
    Bigint m = Bigint::random_bits(rng, static_cast<std::size_t>(bits));
    if (m.is_even()) m += Bigint(1);
    const MontgomeryCtx ctx(m);
    const FpCtx& F = ctx.fp();
    const std::size_t n = F.limbs();
    FpElem t;
    for (std::size_t i = 0; i < n; ++i) t.v[i] = ~limb::Limb{0};
    const Bigint t_big = Bigint::two_pow(64 * n) - Bigint(1);
    const Bigint r_inv = modinv(Bigint::two_pow(64 * n), m);
    EXPECT_EQ(F.from_mont(t), (t_big * r_inv).mod(m)) << bits;
  }
}

TEST(Montgomery, ReduceMatchesPlainProductAtWordBoundaries) {
  // a·b with both operands just below the modulus lands near the m·R
  // in-domain ceiling — the regime where a missed final subtraction or a
  // carry overrun would first show.
  SecureRandom rng(108);
  for (const int bits : {96, 128, 512, 2048}) {
    Bigint m = Bigint::random_bits(rng, static_cast<std::size_t>(bits));
    if (m.is_even()) m += Bigint(1);
    const MontgomeryCtx ctx(m);
    const FpCtx& F = ctx.fp();
    const Bigint a = m - Bigint(1);
    const Bigint b = m - Bigint(2);
    FpElem r;
    F.mul(r, F.to_mont(a), F.to_mont(b));
    EXPECT_EQ(F.from_mont(r), (a * b).mod(m)) << bits;
  }
}

TEST(Montgomery, MulHandlesOutOfDomainOperands) {
  // to_mont accepts any integer — at or above the modulus, negative, wider
  // than it, or a single limb — and reduces it on entry, so products of
  // entered operands match the schoolbook product of the reduced values.
  SecureRandom rng(109);
  Bigint m = Bigint::random_bits(rng, 160);
  if (m.is_even()) m += Bigint(1);
  const MontgomeryCtx ctx(m);
  const FpCtx& F = ctx.fp();
  const std::vector<Bigint> vals{m + Bigint(12345), m, Bigint(0), Bigint(7),
                                 Bigint(-5), Bigint::random_bits(rng, 320)};
  for (const Bigint& a : vals) {
    for (const Bigint& b : vals) {
      FpElem r;
      F.mul(r, F.to_mont(a), F.to_mont(b));
      EXPECT_EQ(F.from_mont(r), (a * b).mod(m));
    }
  }
}

TEST(Montgomery, RejectsBadModulus) {
  EXPECT_THROW(MontgomeryCtx(Bigint(10)), std::invalid_argument);  // even
  EXPECT_THROW(MontgomeryCtx(Bigint(1)), std::invalid_argument);
  EXPECT_THROW(MontgomeryCtx(Bigint(0)), std::invalid_argument);
  EXPECT_THROW(MontgomeryCtx(Bigint(-7)), std::invalid_argument);
  // Wider than FpCtx holds: odd, 2049 bits.
  EXPECT_THROW(MontgomeryCtx(Bigint::two_pow(2048) + Bigint(1)),
               std::invalid_argument);
}

TEST(Montgomery, ToFromRoundTrip) {
  SecureRandom rng(70);
  Bigint m = Bigint::random_bits(rng, 512);
  if (m.is_even()) m += Bigint(1);
  const MontgomeryCtx ctx(m);
  const FpCtx& F = ctx.fp();
  for (int i = 0; i < 20; ++i) {
    const Bigint x = Bigint::random_below(rng, m);
    EXPECT_EQ(F.from_mont(F.to_mont(x)), x);
  }
}

TEST(Montgomery, MulMatchesPlainModmul) {
  SecureRandom rng(71);
  Bigint m = Bigint::random_bits(rng, 384);
  if (m.is_even()) m += Bigint(1);
  const MontgomeryCtx ctx(m);
  const FpCtx& F = ctx.fp();
  for (int i = 0; i < 20; ++i) {
    const Bigint a = Bigint::random_below(rng, m);
    const Bigint b = Bigint::random_below(rng, m);
    FpElem r;
    F.mul(r, F.to_mont(a), F.to_mont(b));
    EXPECT_EQ(F.from_mont(r), (a * b).mod(m));
  }
}

TEST(Montgomery, PowEdgeExponents) {
  const MontgomeryCtx ctx(Bigint(1000003));
  EXPECT_EQ(ctx.pow(Bigint(5), Bigint(0)), Bigint(1));
  EXPECT_EQ(ctx.pow(Bigint(5), Bigint(1)), Bigint(5));
  EXPECT_EQ(ctx.pow(Bigint(2), Bigint(20)), Bigint(1048576 % 1000003));
  EXPECT_THROW(ctx.pow(Bigint(2), Bigint(-1)), std::invalid_argument);
}

TEST(ModSqrt, FastPathPrime3Mod4) {
  SecureRandom rng(200);
  const Bigint p(1000003);  // ≡ 3 (mod 4)
  for (int i = 0; i < 30; ++i) {
    const Bigint a = Bigint::random_range(rng, Bigint(1), p);
    const Bigint sq = (a * a).mod(p);
    const auto r = mod_sqrt(sq, p, rng);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(((*r) * (*r)).mod(p), sq);
  }
}

TEST(ModSqrt, TonelliShanksPrime1Mod4) {
  SecureRandom rng(201);
  const Bigint p(1000033);  // ≡ 1 (mod 4): the general path
  for (int i = 0; i < 30; ++i) {
    const Bigint a = Bigint::random_range(rng, Bigint(1), p);
    const Bigint sq = (a * a).mod(p);
    const auto r = mod_sqrt(sq, p, rng);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(((*r) * (*r)).mod(p), sq);
  }
}

TEST(ModSqrt, HighTwoAdicityPrime) {
  // p - 1 = q·2^s with large s stresses the loop: 97 has s = 5; also use
  // a 64-bit Proth-like prime 13·2^20 + 1 = 13631489.
  SecureRandom rng(202);
  for (const std::int64_t pv : {97LL, 13631489LL}) {
    const Bigint p(pv);
    for (int i = 1; i <= 20; ++i) {
      const Bigint sq = (Bigint(i) * Bigint(i)).mod(p);
      const auto r = mod_sqrt(sq, p, rng);
      ASSERT_TRUE(r.has_value()) << pv << " " << i;
      EXPECT_EQ(((*r) * (*r)).mod(p), sq);
    }
  }
}

TEST(ModSqrt, NonResidueReturnsNullopt) {
  SecureRandom rng(203);
  const Bigint p(1000033);
  int nullopts = 0;
  for (int i = 0; i < 40; ++i) {
    const Bigint a = Bigint::random_range(rng, Bigint(1), p);
    if (!mod_sqrt(a, p, rng).has_value()) ++nullopts;
  }
  EXPECT_GT(nullopts, 5);  // about half should be non-residues
}

TEST(ModSqrt, ZeroAndBadModulus) {
  SecureRandom rng(204);
  EXPECT_EQ(mod_sqrt(Bigint(0), Bigint(97), rng), Bigint(0));
  EXPECT_THROW(mod_sqrt(Bigint(1), Bigint(8), rng), std::invalid_argument);
  EXPECT_THROW(mod_sqrt(Bigint(1), Bigint(1), rng), std::invalid_argument);
}

TEST(ModSqrt, AgreesWithFpSqrtOnSharedDomain) {
  SecureRandom rng(205);
  const Bigint p = random_prime(rng, 64);
  if ((p % Bigint(4)).to_u64() == 3) {
    const Bigint a = Bigint::random_below(rng, p);
    const Bigint sq = (a * a).mod(p);
    const auto r = mod_sqrt(sq, p, rng);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(((*r) * (*r)).mod(p), sq);
  }
}

TEST(Isqrt, ExactSquaresAndNeighbours) {
  for (const std::int64_t v : {0LL, 1LL, 2LL, 3LL, 4LL, 99LL, 100LL,
                               101LL, 1LL << 40}) {
    const Bigint n(v);
    const Bigint s = isqrt(n);
    EXPECT_LE(s * s, n);
    EXPECT_GT((s + Bigint(1)) * (s + Bigint(1)), n);
  }
  EXPECT_THROW(isqrt(Bigint(-1)), std::domain_error);
}

TEST(Isqrt, LargeValueProperty) {
  SecureRandom rng(206);
  for (int i = 0; i < 10; ++i) {
    const Bigint n = Bigint::random_bits(rng, 500);
    const Bigint s = isqrt(n);
    EXPECT_LE(s * s, n);
    EXPECT_GT((s + Bigint(1)) * (s + Bigint(1)), n);
  }
  // Perfect square round trip.
  const Bigint a = Bigint::random_bits(rng, 300);
  EXPECT_EQ(isqrt(a * a), a);
}

TEST(Montgomery, RsaStyleRoundTrip) {
  // Tiny RSA relation exercises a full enc/dec cycle through modexp.
  const Bigint p(61), q(53);
  const Bigint n = p * q;                       // 3233
  const Bigint e(17), d(413);  // e*d == 1 mod lambda(n) == 780
  const Bigint msg(65);
  const Bigint c = modexp(msg, e, n);
  EXPECT_EQ(modexp(c, d, n), msg);
}

// Moduli with an odd number of 32-bit limbs once ran a separate 32-bit
// Montgomery kernel; they now share FpCtx (R = 2^(64·⌈n/2⌉)) with every
// other width. The paper preset (L = 12 over the table chain) puts its
// upper tower levels here: 65–70-bit primes, three 32-bit limbs.
std::vector<Bigint> kernel_width_moduli(SecureRandom& rng) {
  std::vector<Bigint> out;
  for (const Bigint& p : table_chain(14, rng).primes) {
    if (p.bit_length() >= 65 && p.bit_length() <= 70) out.push_back(p);
  }
  for (const std::size_t bits : {96, 160, 1056, 2016, 2047, 2048}) {
    Bigint m = Bigint::random_bits(rng, bits - 1) + Bigint::two_pow(bits - 1);
    if (m.is_even()) m += Bigint(1);
    out.push_back(m);
  }
  out.push_back(Bigint::two_pow(2048) - Bigint(1));  // all-ones boundary
  return out;
}

TEST(MontgomeryDiff, KernelWidthModuliMatchSchoolbook) {
  SecureRandom rng(120);
  const std::vector<Bigint> moduli = kernel_width_moduli(rng);
  std::size_t tower_levels = 0;
  for (const Bigint& m : moduli) {
    if (m.bit_length() <= 70) ++tower_levels;
  }
  ASSERT_EQ(tower_levels, 6u);  // tower[7..12] of the paper preset
  for (const Bigint& m : moduli) {
    const std::size_t bits = m.bit_length();
    const auto ctx = montgomery_ctx(m);
    // Exponents: the trivial ones, a short one below the facade's
    // Montgomery threshold, and one as wide as the modulus (capped so the
    // schoolbook oracle stays quick at 2048 bits).
    const std::size_t wide = std::min<std::size_t>(bits, 384);
    const std::vector<Bigint> exps{Bigint(0), Bigint(1), Bigint(65537),
                                   Bigint::random_bits(rng, 12),
                                   Bigint::random_bits(rng, wide)};
    const std::vector<Bigint> bases{Bigint::random_below(rng, m), m - Bigint(1),
                                    Bigint::random_bits(rng, bits + 40),
                                    Bigint(-3)};
    for (const Bigint& base : bases) {
      const FixedBasePow table(ctx, base, wide);
      for (const Bigint& e : exps) {
        const Bigint want = modexp_binary(base, e, m);
        EXPECT_EQ(ctx->pow(base, e), want) << bits << "-bit pow";
        EXPECT_EQ(modexp(base, e, m), want) << bits << "-bit facade";
        EXPECT_EQ(modexp(base, e, *ctx), want) << bits << "-bit explicit";
        EXPECT_EQ(table.pow(e), want) << bits << "-bit fixed base";
      }
      // Beyond the table width FixedBasePow falls back to the ladder.
      const Bigint past = Bigint::random_bits(rng, wide + 8);
      EXPECT_EQ(table.pow(past), modexp_binary(base, past, m)) << bits;
    }
  }
}

TEST(MontgomeryDiff, ModexpAboveFpCtxWidthMatchesSchoolbook) {
  // No Montgomery context exists past 2048 bits: the facade takes the
  // windowed ladder, stays exact, and leaves the context cache alone.
  SecureRandom rng(121);
  for (const std::size_t bits : {2049, 3072}) {
    Bigint m = Bigint::random_bits(rng, bits - 1) + Bigint::two_pow(bits - 1);
    if (m.is_even()) m += Bigint(1);
    const std::size_t cached = montgomery_cache_size();
    const Bigint base = Bigint::random_below(rng, m);
    const Bigint e = Bigint::random_bits(rng, 96);
    EXPECT_EQ(modexp(base, e, m), modexp_binary(base, e, m)) << bits;
    EXPECT_EQ(montgomery_cache_size(), cached) << bits;
    EXPECT_THROW(montgomery_ctx(m), std::invalid_argument) << bits;
    EXPECT_THROW(modexp_montgomery(base, e, m), std::invalid_argument);
  }
}

}  // namespace
}  // namespace ppms
