// The pairing's algebraic properties (order, bilinearity, symmetry,
// non-degeneracy), checked on the production PairingEngine, plus its
// bit-exact agreement with the affine tate_pairing_affine oracle.
#include "pairing/tate.h"

#include <gtest/gtest.h>

#include "pairing/pipeline.h"

namespace ppms {
namespace {

const TypeAParams& params() {
  static const TypeAParams prm = [] {
    SecureRandom rng(77);
    return typea_generate(rng, 48, 128);
  }();
  return prm;
}

const PairingEngine& engine() {
  static const PairingEngine eng(params());
  return eng;
}

TEST(TateTest, PairingValueHasOrderR) {
  SecureRandom rng(1);
  const EcPoint P = typea_random_subgroup_point(params(), rng);
  const EcPoint Q = typea_random_subgroup_point(params(), rng);
  const Fp2 e = engine().pair(P, Q);
  EXPECT_TRUE(fp2_is_one(fp2_pow(e, params().r, params().p)));
}

TEST(TateTest, NonDegenerateOnGenerator) {
  const Fp2 e = engine().pair(params().g, params().g);
  EXPECT_FALSE(fp2_is_one(e));
}

TEST(TateTest, BilinearInFirstArgument) {
  SecureRandom rng(2);
  const EcPoint P = typea_random_subgroup_point(params(), rng);
  const EcPoint Q = typea_random_subgroup_point(params(), rng);
  const Bigint a(12345);
  const Fp2 lhs = engine().pair(ec_mul(P, a, params().p), Q);
  const Fp2 rhs = fp2_pow(engine().pair(P, Q), a, params().p);
  EXPECT_EQ(lhs, rhs);
}

TEST(TateTest, BilinearInSecondArgument) {
  SecureRandom rng(3);
  const EcPoint P = typea_random_subgroup_point(params(), rng);
  const EcPoint Q = typea_random_subgroup_point(params(), rng);
  const Bigint b(6789);
  const Fp2 lhs = engine().pair(P, ec_mul(Q, b, params().p));
  const Fp2 rhs = fp2_pow(engine().pair(P, Q), b, params().p);
  EXPECT_EQ(lhs, rhs);
}

TEST(TateTest, JointBilinearity) {
  // ê(aP, bQ) == ê(P, Q)^{ab} — the property every CL verification
  // equation rests on.
  SecureRandom rng(4);
  const EcPoint P = typea_random_subgroup_point(params(), rng);
  const EcPoint Q = typea_random_subgroup_point(params(), rng);
  const Bigint a = Bigint::random_range(rng, Bigint(1), params().r);
  const Bigint b = Bigint::random_range(rng, Bigint(1), params().r);
  const Fp2 lhs = engine().pair(ec_mul(P, a, params().p),
                               ec_mul(Q, b, params().p));
  const Fp2 rhs =
      fp2_pow(engine().pair(P, Q), (a * b).mod(params().r),
              params().p);
  EXPECT_EQ(lhs, rhs);
}

TEST(TateTest, SymmetricPairing) {
  // With the distortion map the modified pairing is symmetric.
  SecureRandom rng(5);
  const EcPoint P = typea_random_subgroup_point(params(), rng);
  const EcPoint Q = typea_random_subgroup_point(params(), rng);
  EXPECT_EQ(engine().pair(P, Q), engine().pair(Q, P));
}

TEST(TateTest, InfinityMapsToOne) {
  SecureRandom rng(6);
  const EcPoint P = typea_random_subgroup_point(params(), rng);
  EXPECT_TRUE(
      fp2_is_one(engine().pair(P, EcPoint::at_infinity())));
  EXPECT_TRUE(
      fp2_is_one(engine().pair(EcPoint::at_infinity(), P)));
}

TEST(TateTest, MultiplicativeHomomorphism) {
  // ê(P1 + P2, Q) == ê(P1, Q) · ê(P2, Q).
  SecureRandom rng(7);
  const EcPoint P1 = typea_random_subgroup_point(params(), rng);
  const EcPoint P2 = typea_random_subgroup_point(params(), rng);
  const EcPoint Q = typea_random_subgroup_point(params(), rng);
  const Fp2 lhs = engine().pair(ec_add(P1, P2, params().p), Q);
  const Fp2 rhs = fp2_mul(engine().pair(P1, Q),
                          engine().pair(P2, Q), params().p);
  EXPECT_EQ(lhs, rhs);
}

TEST(TateTest, RejectsOffCurveInput) {
  SecureRandom rng(8);
  EcPoint bad = typea_random_subgroup_point(params(), rng);
  bad.x = fp_add(bad.x, Bigint(1), params().p);
  EXPECT_THROW(engine().pair(bad, params().g),
               std::invalid_argument);
}

TEST(TateTest, ProjectiveMatchesAffineBitExact) {
  // The engine's Jacobian Miller loop scales every line value by a factor
  // in F_p*; the final exponentiation must kill all of them, leaving the
  // output bit-for-bit equal to the affine loop's.
  SecureRandom rng(10);
  for (int i = 0; i < 8; ++i) {
    const EcPoint P = typea_random_subgroup_point(params(), rng);
    const EcPoint Q = typea_random_subgroup_point(params(), rng);
    const Fp2 proj = engine().pair(P, Q);
    const Fp2 aff = tate_pairing_affine(params(), P, Q);
    EXPECT_EQ(fp2_serialize(proj, params().p),
              fp2_serialize(aff, params().p));
  }
  // Scalar multiples of the generator hit the V == ±P special cases of
  // the addition step at the loop's tail.
  for (const std::int64_t k : {1LL, 2LL, 3LL, 7LL}) {
    const EcPoint P = ec_mul(params().g, Bigint(k), params().p);
    EXPECT_EQ(fp2_serialize(engine().pair(P, params().g),
                            params().p),
              fp2_serialize(tate_pairing_affine(params(), P, params().g),
                            params().p));
  }
}

TEST(TateTest, ProjectiveLoopPerformsExactlyOneInversion) {
  SecureRandom rng(11);
  const EcPoint P = typea_random_subgroup_point(params(), rng);
  const EcPoint Q = typea_random_subgroup_point(params(), rng);
  // Warm up so lazily-built fixtures don't pollute the counter.
  (void)engine().pair(P, Q);
  const std::uint64_t before = fp_inv_calls();
  (void)engine().pair(P, Q);
  // Zero inversions per Miller step: the only one is the fp2_inv inside
  // the final exponentiation.
  EXPECT_EQ(fp_inv_calls() - before, 1u);
  // The affine loop, by contrast, inverts on (nearly) every step.
  const std::uint64_t before_affine = fp_inv_calls();
  (void)tate_pairing_affine(params(), P, Q);
  EXPECT_GT(fp_inv_calls() - before_affine, params().r.bit_length() / 2);
}

TEST(TateTest, DistinctPointsDistinctValues) {
  // Pairing against the generator is injective on the subgroup.
  SecureRandom rng(9);
  const EcPoint P = ec_mul(params().g, Bigint(2), params().p);
  const EcPoint Q = ec_mul(params().g, Bigint(3), params().p);
  EXPECT_FALSE(engine().pair(P, params().g) ==
               engine().pair(Q, params().g));
}

}  // namespace
}  // namespace ppms
