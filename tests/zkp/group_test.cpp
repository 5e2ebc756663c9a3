#include "zkp/group.h"

#include <gtest/gtest.h>

#include <vector>

#include "bigint/cunningham.h"
#include "bigint/modarith.h"
#include "bigint/prime.h"

namespace ppms {
namespace {

// Shared fixtures: one safe-prime Zn group, one curve-based pair.
const ZnGroup& zn() {
  static const ZnGroup g = [] {
    SecureRandom rng(11);
    const Bigint p = random_safe_prime(rng, 96);
    return ZnGroup::quadratic_residues(p, rng);
  }();
  return g;
}

const TypeAParams& params() {
  static const TypeAParams prm = [] {
    SecureRandom rng(12);
    return typea_generate(rng, 48, 128);
  }();
  return prm;
}

// Generic algebraic laws every Group implementation must satisfy.
void check_group_laws(const Group& g, const Bytes& gen, SecureRandom& rng) {
  ASSERT_TRUE(g.contains(gen));
  const Bytes id = g.identity();
  EXPECT_EQ(g.op(gen, id), gen);
  EXPECT_EQ(g.op(id, gen), gen);
  EXPECT_EQ(g.op(gen, g.inv(gen)), id);
  // Exponent laws.
  const Bigint a = Bigint::random_below(rng, g.order());
  const Bigint b = Bigint::random_below(rng, g.order());
  EXPECT_EQ(g.op(g.pow(gen, a), g.pow(gen, b)),
            g.pow(gen, (a + b).mod(g.order())));
  EXPECT_EQ(g.pow(g.pow(gen, a), b), g.pow(gen, (a * b).mod(g.order())));
  // Order annihilates.
  EXPECT_EQ(g.pow(gen, g.order()), id);
  // Negative exponents reduce.
  EXPECT_EQ(g.pow(gen, Bigint(-1)), g.inv(gen));
  // Membership of powers.
  EXPECT_TRUE(g.contains(g.pow(gen, a)));
}

TEST(ZnGroupTest, SatisfiesGroupLaws) {
  SecureRandom rng(1);
  check_group_laws(zn(), zn().generator(), rng);
}

TEST(ZnGroupTest, RejectsNonMembers) {
  // Zero, the modulus width mismatch, and a quadratic non-residue.
  EXPECT_FALSE(zn().contains(Bytes(3, 0)));
  EXPECT_FALSE(zn().contains(zn().encode(Bigint(0))));
  // -1 is a non-residue mod a safe prime p ≡ 3 (mod 4).
  const Bigint minus1 = zn().modulus() - Bigint(1);
  if ((zn().modulus() % Bigint(4)).to_u64() == 3) {
    EXPECT_FALSE(zn().contains(zn().encode(minus1)));
  }
}

TEST(ZnGroupTest, ConstructionValidatesGenerator) {
  EXPECT_THROW(ZnGroup(Bigint(23), Bigint(11), Bigint(1)),
               std::invalid_argument);
  EXPECT_THROW(ZnGroup(Bigint(23), Bigint(11), Bigint(23)),
               std::invalid_argument);
  // 5 has order 22 mod 23, not 11.
  EXPECT_THROW(ZnGroup(Bigint(23), Bigint(11), Bigint(5)),
               std::invalid_argument);
  // 2 is a QR mod 23 (order 11): fine.
  EXPECT_NO_THROW(ZnGroup(Bigint(23), Bigint(11), Bigint(2)));
}

TEST(ZnGroupTest, EncodeDecodeRoundTrip) {
  const Bigint x(123456);
  EXPECT_EQ(zn().decode(zn().encode(x)), x);
  EXPECT_THROW(zn().decode(Bytes(1)), std::invalid_argument);
}

TEST(EcGroupTest, SatisfiesGroupLaws) {
  SecureRandom rng(2);
  const EcGroup g(params());
  check_group_laws(g, g.generator(), rng);
}

TEST(EcGroupTest, RejectsPointOutsideSubgroup) {
  const EcGroup g(params());
  SecureRandom rng(3);
  // A random curve point is in the full group of order r·h; with
  // overwhelming probability it is NOT in the order-r subgroup.
  const EcPoint raw = ec_random_point(rng, params().p);
  if (!ec_mul(raw, params().r, params().p).infinity) {
    EXPECT_FALSE(g.contains(g.encode(raw)));
  }
  EXPECT_FALSE(g.contains(Bytes(5, 1)));
}

TEST(GtGroupTest, SatisfiesGroupLaws) {
  SecureRandom rng(4);
  const GtGroup g(params());
  const Bytes gen = g.pair(params().g, params().g);
  check_group_laws(g, gen, rng);
}

TEST(GtGroupTest, PairGivesSubgroupElement) {
  SecureRandom rng(5);
  const GtGroup g(params());
  const EcPoint P = typea_random_subgroup_point(params(), rng);
  EXPECT_TRUE(g.contains(g.pair(P, params().g)));
}

TEST(GtGroupTest, RejectsNonMembers) {
  const GtGroup g(params());
  EXPECT_FALSE(g.contains(Bytes(3)));
  // A random Fp2 element is almost surely not in the order-r subgroup.
  SecureRandom rng(6);
  const Fp2 x{Bigint::random_below(rng, params().p),
              Bigint::random_below(rng, params().p)};
  if (!fp2_is_one(fp2_pow(x, params().r, params().p))) {
    EXPECT_FALSE(g.contains(g.encode(x)));
  }
}

TEST(GtGroupTest, ConstructorRejectsUnservableFieldPrime) {
  for (const Bigint& p : {params().p + Bigint(1), params().p + Bigint(2),
                          Bigint::two_pow(2049) - Bigint(1)}) {
    TypeAParams bad = params();
    bad.p = p;
    EXPECT_THROW(GtGroup{bad}, std::invalid_argument)
        << p.bit_length() << "-bit p";
  }
}

// Shamir double exponentiation must agree with the two-pows-and-an-op
// definition in every group, including degenerate exponents.
void check_pow2(const Group& g, const Bytes& b1, const Bytes& b2,
                SecureRandom& rng) {
  for (int i = 0; i < 5; ++i) {
    const Bigint e1 = Bigint::random_below(rng, g.order());
    const Bigint e2 = Bigint::random_below(rng, g.order());
    EXPECT_EQ(g.pow2(b1, e1, b2, e2), g.op(g.pow(b1, e1), g.pow(b2, e2)));
  }
  EXPECT_EQ(g.pow2(b1, Bigint(0), b2, Bigint(0)), g.identity());
  EXPECT_EQ(g.pow2(b1, Bigint(1), b2, Bigint(0)), b1);
  EXPECT_EQ(g.pow2(b1, Bigint(0), b2, Bigint(1)), b2);
  EXPECT_EQ(g.pow2(b1, g.order(), b2, g.order()), g.identity());
  // Negative exponents reduce mod the order, matching pow.
  EXPECT_EQ(g.pow2(b1, Bigint(-1), b2, Bigint(2)),
            g.op(g.inv(b1), g.pow(b2, Bigint(2))));
}

TEST(ZnGroupTest, PowGenMatchesGeneratorPow) {
  SecureRandom rng(23);
  const ZnGroup& g = zn();
  // Random exponents, including ones far above the order.
  for (int i = 0; i < 8; ++i) {
    const Bigint e = Bigint::random_below(rng, g.order() * g.order());
    EXPECT_EQ(g.pow_gen(e), g.pow(g.generator(), e));
  }
  // Edge exponents: zero, one, order-1, order, order+1.
  EXPECT_EQ(g.pow_gen(Bigint(0)), g.identity());
  EXPECT_EQ(g.pow_gen(Bigint(1)), g.generator());
  EXPECT_EQ(g.pow_gen(g.order() - Bigint(1)), g.inv(g.generator()));
  EXPECT_EQ(g.pow_gen(g.order()), g.identity());
  EXPECT_EQ(g.pow_gen(g.order() + Bigint(1)), g.generator());
  // A copy taken before/after the lazy build agrees with the original.
  const ZnGroup copy = g;
  const Bigint e = Bigint::random_below(rng, g.order());
  EXPECT_EQ(copy.pow_gen(e), g.pow(g.generator(), e));
}

TEST(ZnGroupTest, Pow2MatchesTwoPows) {
  SecureRandom rng(21);
  const Bytes b1 = zn().generator();
  const Bytes b2 = zn().pow(b1, Bigint::random_below(rng, zn().order()));
  check_pow2(zn(), b1, b2, rng);
}

TEST(EcGroupTest, Pow2MatchesTwoPows) {
  SecureRandom rng(22);
  const EcGroup g(params());
  const Bytes b1 = g.generator();
  const Bytes b2 = g.pow(b1, Bigint::random_below(rng, g.order()));
  check_pow2(g, b1, b2, rng);
}

TEST(GtGroupTest, Pow2MatchesTwoPows) {
  SecureRandom rng(23);
  const GtGroup g(params());
  const Bytes b1 = g.pair(params().g, params().g);
  const Bytes b2 = g.pow(b1, Bigint::random_below(rng, g.order()));
  check_pow2(g, b1, b2, rng);
}

TEST(GroupDescribeTest, DistinctGroupsDistinctDescriptions) {
  const EcGroup ec(params());
  const GtGroup gt(params());
  EXPECT_NE(zn().describe(), ec.describe());
  EXPECT_NE(ec.describe(), gt.describe());
}

// ZnGroup's exponentiation surfaces against schoolbook modexp_binary on
// moduli with an odd number of 32-bit limbs, which once ran a separate
// 32-bit kernel, and at the 2048-bit boundary. The tower groups are the
// paper preset's upper levels (L = 12 over the table chain: 65–70-bit
// moduli); the wider groups are Z*_p of a random prime p with order p - 1,
// so every base has an order dividing it.
TEST(ZnGroupTest, ExponentiationsMatchSchoolbookAcrossKernelWidths) {
  SecureRandom rng(14);
  std::vector<ZnGroup> groups;
  const CunninghamChain chain = table_chain(14, rng);
  for (std::size_t i = 1; i < chain.primes.size(); ++i) {
    const std::size_t bits = chain.primes[i].bit_length();
    if (bits >= 65 && bits <= 70) {
      groups.push_back(ZnGroup::quadratic_residues(chain.primes[i], rng));
    }
  }
  ASSERT_EQ(groups.size(), 6u);
  for (const std::size_t bits : {96, 160, 1056, 2016, 2048}) {
    const Bigint p = random_prime(rng, bits, 4);
    groups.emplace_back(p, p - Bigint(1), Bigint(3));
  }
  for (const ZnGroup& g : groups) {
    const Bigint& m = g.modulus();
    const Bigint a = Bigint::random_range(rng, Bigint(2), m);
    const Bigint b = Bigint::random_range(rng, Bigint(2), m);
    for (int i = 0; i < 3; ++i) {
      const Bigint e1 = Bigint::random_below(rng, g.order());
      const Bigint e2 = Bigint::random_below(rng, g.order());
      const Bigint want_a = modexp_binary(a, e1, m);
      EXPECT_EQ(g.pow(g.encode(a), e1), g.encode(want_a)) << m.bit_length();
      EXPECT_EQ(g.pow2(g.encode(a), e1, g.encode(b), e2),
                g.encode((want_a * modexp_binary(b, e2, m)).mod(m)))
          << m.bit_length();
      EXPECT_EQ(g.pow_gen(e1),
                g.encode(modexp_binary(g.generator_value(), e1, m)))
          << m.bit_length();
    }
  }
}

}  // namespace
}  // namespace ppms
