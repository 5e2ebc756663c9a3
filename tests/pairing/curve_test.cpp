#include "pairing/curve.h"

#include <gtest/gtest.h>

#include "pairing/typea.h"

namespace ppms {
namespace {

// Shared small parameters: generating them once keeps the suite fast.
const TypeAParams& params() {
  static const TypeAParams prm = [] {
    SecureRandom rng(42);
    return typea_generate(rng, 48, 128);
  }();
  return prm;
}

TEST(CurveTest, RandomPointsAreOnCurve) {
  SecureRandom rng(1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(ec_on_curve(ec_random_point(rng, params().p), params().p));
  }
}

TEST(CurveTest, InfinityIsIdentity) {
  SecureRandom rng(2);
  const EcPoint pt = ec_random_point(rng, params().p);
  const EcPoint inf = EcPoint::at_infinity();
  EXPECT_EQ(ec_add(pt, inf, params().p), pt);
  EXPECT_EQ(ec_add(inf, pt, params().p), pt);
  EXPECT_TRUE(ec_on_curve(inf, params().p));
}

TEST(CurveTest, AdditionWithInverseGivesInfinity) {
  SecureRandom rng(3);
  const EcPoint pt = ec_random_point(rng, params().p);
  EXPECT_TRUE(ec_add(pt, ec_neg(pt, params().p), params().p).infinity);
}

TEST(CurveTest, AdditionCommutesAndAssociates) {
  SecureRandom rng(4);
  const EcPoint a = ec_random_point(rng, params().p);
  const EcPoint b = ec_random_point(rng, params().p);
  const EcPoint c = ec_random_point(rng, params().p);
  EXPECT_EQ(ec_add(a, b, params().p), ec_add(b, a, params().p));
  EXPECT_EQ(ec_add(ec_add(a, b, params().p), c, params().p),
            ec_add(a, ec_add(b, c, params().p), params().p));
}

TEST(CurveTest, DoublingMatchesAddition) {
  SecureRandom rng(5);
  const EcPoint a = ec_random_point(rng, params().p);
  EXPECT_EQ(ec_add(a, a, params().p), ec_mul(a, Bigint(2), params().p));
}

TEST(CurveTest, ScalarMulLinearity) {
  SecureRandom rng(6);
  const EcPoint a = ec_random_point(rng, params().p);
  const Bigint k1(37), k2(115);
  EXPECT_EQ(ec_add(ec_mul(a, k1, params().p), ec_mul(a, k2, params().p),
                   params().p),
            ec_mul(a, k1 + k2, params().p));
  EXPECT_EQ(ec_mul(ec_mul(a, k1, params().p), k2, params().p),
            ec_mul(a, k1 * k2, params().p));
}

TEST(CurveTest, ScalarZeroGivesInfinity) {
  SecureRandom rng(7);
  const EcPoint a = ec_random_point(rng, params().p);
  EXPECT_TRUE(ec_mul(a, Bigint(0), params().p).infinity);
  EXPECT_THROW(ec_mul(a, Bigint(-1), params().p), std::invalid_argument);
}

TEST(CurveTest, CurveOrderAnnihilatesEveryPoint) {
  // #E = p + 1 for this supersingular curve.
  SecureRandom rng(8);
  const EcPoint a = ec_random_point(rng, params().p);
  EXPECT_TRUE(ec_mul(a, params().p + Bigint(1), params().p).infinity);
}

TEST(CurveTest, SubgroupGeneratorHasOrderR) {
  EXPECT_FALSE(params().g.infinity);
  EXPECT_TRUE(ec_mul(params().g, params().r, params().p).infinity);
}

TEST(CurveTest, SubgroupSamplingStaysInSubgroup) {
  SecureRandom rng(9);
  const EcPoint s = typea_random_subgroup_point(params(), rng);
  EXPECT_FALSE(s.infinity);
  EXPECT_TRUE(ec_mul(s, params().r, params().p).infinity);
}

TEST(CurveTest, SerializationRoundTrip) {
  SecureRandom rng(10);
  const EcPoint a = ec_random_point(rng, params().p);
  EXPECT_EQ(ec_deserialize(ec_serialize(a, params().p), params().p), a);
  const EcPoint inf = EcPoint::at_infinity();
  EXPECT_EQ(ec_deserialize(ec_serialize(inf, params().p), params().p), inf);
}

TEST(CurveTest, DeserializeRejectsOffCurvePoint) {
  SecureRandom rng(11);
  EcPoint a = ec_random_point(rng, params().p);
  a.y = fp_add(a.y, Bigint(1), params().p);
  EXPECT_THROW(ec_deserialize(ec_serialize(a, params().p), params().p),
               std::invalid_argument);
  EXPECT_THROW(ec_deserialize(Bytes(5), params().p), std::invalid_argument);
}

TEST(TypeAParamsTest, StructuralInvariants) {
  EXPECT_EQ(params().r * params().h, params().p + Bigint(1));
  EXPECT_EQ((params().p % Bigint(4)).to_u64(), 3u);
  EXPECT_TRUE((params().h % Bigint(4)).is_zero());
  EXPECT_EQ(params().r.bit_length(), 48u);
  EXPECT_EQ(params().p.bit_length(), 128u);
}

TEST(TypeAParamsTest, SerializationRoundTrip) {
  const Bytes data = params().serialize();
  const TypeAParams copy = TypeAParams::deserialize(data);
  EXPECT_EQ(copy.p, params().p);
  EXPECT_EQ(copy.r, params().r);
  EXPECT_EQ(copy.h, params().h);
  EXPECT_EQ(copy.g, params().g);
}

TEST(TypeAParamsTest, DeserializeChecksCofactorRelation) {
  TypeAParams bad = params();
  bad.h += Bigint(4);
  EXPECT_THROW(TypeAParams::deserialize(bad.serialize()),
               std::invalid_argument);
}

TEST(TypeAParamsTest, DeserializeRejectsUnservableFieldPrime) {
  // Even p, p ≡ 1 (mod 4) and p wider than 2048 bits are refused at load:
  // no pairing engine could serve them.
  for (const Bigint& p : {params().p + Bigint(1), params().p + Bigint(2),
                          Bigint::two_pow(2049) - Bigint(1)}) {
    TypeAParams bad = params();
    bad.p = p;
    EXPECT_THROW(TypeAParams::deserialize(bad.serialize()),
                 std::invalid_argument)
        << p.bit_length() << "-bit p";
  }
}

TEST(TypeAParamsTest, GenerateForOrderValidatesInput) {
  SecureRandom rng(12);
  EXPECT_THROW(typea_generate_for_order(rng, Bigint(4), 64),
               std::invalid_argument);
  EXPECT_THROW(typea_generate_for_order(rng, Bigint(101), 9),
               std::invalid_argument);
}

}  // namespace
}  // namespace ppms
