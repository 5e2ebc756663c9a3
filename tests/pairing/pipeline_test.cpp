// Differential suite for the pairing pipeline: every fast path
// (Montgomery-domain Miller loop, fixed-argument precomp replay,
// product-of-pairings with shared squarings and one final exponentiation)
// must be bit-identical to the tate_pairing_affine oracle composed with
// fp2_pow / fp2_inv / fp2_mul.
#include "pairing/pipeline.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "obs/metrics.h"
#include "pairing/tate.h"

namespace ppms {
namespace {

const TypeAParams& params() {
  static const TypeAParams prm = [] {
    SecureRandom rng(4242);
    return typea_generate(rng, 48, 128);
  }();
  return prm;
}

const PairingEngine& engine() {
  static const PairingEngine eng(params());
  return eng;
}

// Reference value of one product factor ê(P, Q)^{±e}, built entirely from
// the affine oracle and the plain F_p² helpers.
Fp2 oracle_term(const EcPoint& P, const EcPoint& Q, const Bigint& exp,
                bool invert) {
  const Bigint& p = params().p;
  Fp2 v = fp2_pow(tate_pairing_affine(params(), P, Q), exp.mod(params().r), p);
  if (invert) v = fp2_inv(v, p);
  return v;
}

TEST(PairingPipelineTest, PairMatchesBothOracles) {
  SecureRandom rng(1);
  for (int i = 0; i < 4; ++i) {
    const EcPoint P = typea_random_subgroup_point(params(), rng);
    const EcPoint Q = typea_random_subgroup_point(params(), rng);
    const Fp2 fast = engine().pair(P, Q);
    EXPECT_EQ(fast, tate_pairing_affine(params(), P, Q));
  }
  // The generator paired with itself is the canonical GT generator.
  EXPECT_EQ(engine().pair(params().g, params().g),
            tate_pairing_affine(params(), params().g, params().g));
}

TEST(PairingPipelineTest, PrecompReplayMatchesLiveLoop) {
  SecureRandom rng(2);
  const EcPoint P = typea_random_subgroup_point(params(), rng);
  const PairingPrecomp pre = engine().precompute(P);
  EXPECT_FALSE(pre.empty());
  EXPECT_EQ(pre.point(), P);
  for (int i = 0; i < 4; ++i) {
    const EcPoint Q = typea_random_subgroup_point(params(), rng);
    EXPECT_EQ(engine().pair(pre, Q), tate_pairing_affine(params(), P, Q));
  }
  // Repeated point: Q == P exercises the tangent branch of the recorded
  // steps exactly as the live loop does.
  EXPECT_EQ(engine().pair(pre, P), tate_pairing_affine(params(), P, P));
  const PairingPrecomp pre_g = engine().precompute(params().g);
  EXPECT_EQ(engine().pair(pre_g, params().g),
            tate_pairing_affine(params(), params().g, params().g));
}

TEST(PairingPipelineTest, InfinityInputsYieldIdentity) {
  SecureRandom rng(3);
  const EcPoint P = typea_random_subgroup_point(params(), rng);
  const EcPoint inf = EcPoint::at_infinity();
  EXPECT_TRUE(fp2_is_one(engine().pair(inf, P)));
  EXPECT_TRUE(fp2_is_one(engine().pair(P, inf)));
  EXPECT_TRUE(fp2_is_one(engine().pair(inf, inf)));
  // A table compiled for the point at infinity pairs to 1 with everything.
  const PairingPrecomp pre_inf = engine().precompute(inf);
  EXPECT_FALSE(pre_inf.empty());
  EXPECT_TRUE(fp2_is_one(engine().pair(pre_inf, P)));
  // As a product factor, an infinity on either side contributes factor 1.
  const Fp2 via_product = engine().pair_product({
      PairingTerm{.P = P, .Q = P},
      PairingTerm{.P = inf, .Q = P},
      PairingTerm{.pre = &pre_inf, .Q = P},
      PairingTerm{.P = P, .Q = inf},
  });
  EXPECT_EQ(via_product, tate_pairing_affine(params(), P, P));
}

TEST(PairingPipelineTest, EmptyProductIsIdentity) {
  EXPECT_TRUE(fp2_is_one(engine().pair_product({})));
  // All factors degenerate (k effectively 0) also folds to 1 without a
  // final exponentiation.
  SecureRandom rng(4);
  const EcPoint P = typea_random_subgroup_point(params(), rng);
  EXPECT_TRUE(fp2_is_one(engine().pair_product({
      PairingTerm{.P = P, .Q = P, .exp = Bigint(0)},
      PairingTerm{.P = EcPoint::at_infinity(), .Q = P},
  })));
}

TEST(PairingPipelineTest, SingleTermProductMatchesPair) {
  SecureRandom rng(5);
  const EcPoint P = typea_random_subgroup_point(params(), rng);
  const EcPoint Q = typea_random_subgroup_point(params(), rng);
  EXPECT_EQ(engine().pair_product({PairingTerm{.P = P, .Q = Q}}),
            engine().pair(P, Q));
  const PairingPrecomp pre = engine().precompute(P);
  EXPECT_EQ(engine().pair_product({PairingTerm{.pre = &pre, .Q = Q}}),
            engine().pair(P, Q));
  // k = 1 with a non-unit exponent and with inversion.
  const Bigint e(98765);
  EXPECT_EQ(engine().pair_product({PairingTerm{.P = P, .Q = Q, .exp = e}}),
            oracle_term(P, Q, e, false));
  EXPECT_EQ(engine().pair_product(
                {PairingTerm{.P = P, .Q = Q, .invert = true}}),
            oracle_term(P, Q, Bigint(1), true));
}

TEST(PairingPipelineTest, MixedProductMatchesComposedOracles) {
  SecureRandom rng(6);
  const Bigint& p = params().p;
  const EcPoint P1 = typea_random_subgroup_point(params(), rng);
  const EcPoint P2 = typea_random_subgroup_point(params(), rng);
  const EcPoint Q1 = typea_random_subgroup_point(params(), rng);
  const EcPoint Q2 = typea_random_subgroup_point(params(), rng);
  const PairingPrecomp pre1 = engine().precompute(P1);
  const Bigint e1 = Bigint::random_range(rng, Bigint(2), params().r);
  const Bigint e2 = Bigint::random_range(rng, Bigint(2), params().r);

  // Precomp + live factors, unit and non-unit exponents, an inverted
  // factor, a repeated point, and a zero-exponent factor that must drop
  // out — all folded through one final exponentiation.
  const Fp2 fast = engine().pair_product({
      PairingTerm{.pre = &pre1, .Q = Q1},
      PairingTerm{.P = P2, .Q = Q2, .exp = e1},
      PairingTerm{.P = P1, .Q = Q2, .exp = e2, .invert = true},
      PairingTerm{.P = Q2, .Q = Q2},
      PairingTerm{.P = P2, .Q = Q1, .exp = Bigint(0)},
  });
  Fp2 ref = oracle_term(P1, Q1, Bigint(1), false);
  ref = fp2_mul(ref, oracle_term(P2, Q2, e1, false), p);
  ref = fp2_mul(ref, oracle_term(P1, Q2, e2, true), p);
  ref = fp2_mul(ref, oracle_term(Q2, Q2, Bigint(1), false), p);
  EXPECT_EQ(fast, ref);
}

TEST(PairingPipelineTest, SharedExponentFactorsShareOneAccumulator) {
  // The batch-verify shape: several factors under the same δ. Grouping
  // them into one accumulator (raised to δ once) must stay bit-identical
  // to exponentiating each factor separately.
  SecureRandom rng(7);
  const Bigint& p = params().p;
  const EcPoint P1 = typea_random_subgroup_point(params(), rng);
  const EcPoint P2 = typea_random_subgroup_point(params(), rng);
  const EcPoint Q = typea_random_subgroup_point(params(), rng);
  const Bigint d1 = Bigint::random_range(rng, Bigint(2), params().r);
  const Bigint d2 = Bigint::random_range(rng, Bigint(2), params().r);
  const Fp2 fast = engine().pair_product({
      PairingTerm{.P = P1, .Q = Q, .exp = d1},
      PairingTerm{.P = P2, .Q = Q, .exp = d1, .invert = true},
      PairingTerm{.P = P1, .Q = P2, .exp = d2},
      PairingTerm{.P = P2, .Q = P2, .exp = d1},
  });
  Fp2 ref = oracle_term(P1, Q, d1, false);
  ref = fp2_mul(ref, oracle_term(P2, Q, d1, true), p);
  ref = fp2_mul(ref, oracle_term(P1, P2, d2, false), p);
  ref = fp2_mul(ref, oracle_term(P2, P2, d1, false), p);
  EXPECT_EQ(fast, ref);
}

TEST(PairingPipelineTest, ExponentsReduceModuloGroupOrder) {
  SecureRandom rng(8);
  const EcPoint P = typea_random_subgroup_point(params(), rng);
  const EcPoint Q = typea_random_subgroup_point(params(), rng);
  const Bigint k(31337);
  EXPECT_EQ(engine().pair_product(
                {PairingTerm{.P = P, .Q = Q, .exp = params().r + k}}),
            oracle_term(P, Q, k, false));
  // exp ≡ 0 (mod r) is the trivial factor.
  EXPECT_TRUE(fp2_is_one(engine().pair_product(
      {PairingTerm{.P = P, .Q = Q, .exp = params().r}})));
}

TEST(PairingPipelineTest, PairingEquationHoldsAsProduct) {
  // ê(aP, Q) · ê(P, aQ)^{-1} == 1 — the shape every verification
  // equation in the protocol reduces to, checked without computing
  // either side separately.
  SecureRandom rng(9);
  const EcPoint P = typea_random_subgroup_point(params(), rng);
  const EcPoint Q = typea_random_subgroup_point(params(), rng);
  const Bigint a = Bigint::random_range(rng, Bigint(1), params().r);
  const EcPoint aP = ec_mul(P, a, params().p);
  const EcPoint aQ = ec_mul(Q, a, params().p);
  EXPECT_TRUE(fp2_is_one(engine().pair_product({
      PairingTerm{.P = aP, .Q = Q},
      PairingTerm{.P = P, .Q = aQ, .invert = true},
  })));
  // And the equivalent exponent form ê(P, Q)^a · ê(aP, Q)^{-1} == 1.
  EXPECT_TRUE(fp2_is_one(engine().pair_product({
      PairingTerm{.P = P, .Q = Q, .exp = a},
      PairingTerm{.P = aP, .Q = Q, .invert = true},
  })));
}

TEST(PairingPipelineTest, InvalidInputsThrow) {
  SecureRandom rng(10);
  const EcPoint P = typea_random_subgroup_point(params(), rng);
  EcPoint off = P;
  off.x = fp_add(off.x, Bigint(1), params().p);
  EXPECT_THROW(engine().precompute(off), std::invalid_argument);
  EXPECT_THROW(engine().pair(off, P), std::invalid_argument);
  EXPECT_THROW(engine().pair(P, off), std::invalid_argument);
  const PairingPrecomp unbuilt;
  EXPECT_TRUE(unbuilt.empty());
  EXPECT_THROW(engine().pair(unbuilt, P), std::invalid_argument);
  EXPECT_THROW(
      engine().pair_product({PairingTerm{.pre = &unbuilt, .Q = P}}),
      std::invalid_argument);
  EXPECT_THROW(engine().pair_product({PairingTerm{.P = off, .Q = P}}),
               std::invalid_argument);
  EXPECT_THROW(engine().pair_product({PairingTerm{.P = P, .Q = off}}),
               std::invalid_argument);
}

TEST(PairingPipelineTest, GtPowMatchesFp2Pow) {
  SecureRandom rng(11);
  const EcPoint P = typea_random_subgroup_point(params(), rng);
  const Fp2 x = tate_pairing_affine(params(), P, P);
  for (const Bigint& e :
       {Bigint(0), Bigint(1), Bigint(2), Bigint(0xdeadbeefULL),
        Bigint::random_range(rng, Bigint(1), params().r)}) {
    EXPECT_EQ(engine().gt_pow(x, e), fp2_pow(x, e, params().p));
  }
  EXPECT_THROW(engine().gt_pow(x, Bigint(-1)), std::invalid_argument);
}

TEST(PairingPipelineTest, GtPow2MatchesComposedPowers) {
  SecureRandom rng(12);
  const EcPoint P = typea_random_subgroup_point(params(), rng);
  const EcPoint Q = typea_random_subgroup_point(params(), rng);
  const Bigint& p = params().p;
  const Fp2 x1 = tate_pairing_affine(params(), P, P);
  const Fp2 x2 = tate_pairing_affine(params(), P, Q);
  const Bigint e1 = Bigint::random_range(rng, Bigint(1), params().r);
  const Bigint e2 = Bigint::random_range(rng, Bigint(1), params().r);
  EXPECT_EQ(engine().gt_pow2(x1, e1, x2, e2),
            fp2_mul(fp2_pow(x1, e1, p), fp2_pow(x2, e2, p), p));
  EXPECT_EQ(engine().gt_pow2(x1, Bigint(0), x2, Bigint(0)), fp2_one());
  EXPECT_THROW(engine().gt_pow2(x1, Bigint(-1), x2, e2),
               std::invalid_argument);
}

TEST(PairingPipelineTest, CountersTrackMillerWorkAndFinalExps) {
  obs::set_metrics_enabled(true);
  SecureRandom rng(13);
  const EcPoint P = typea_random_subgroup_point(params(), rng);
  const EcPoint Q = typea_random_subgroup_point(params(), rng);
  const PairingPrecomp pre = engine().precompute(P);

  const std::uint64_t calls0 = obs::counter("crypto.pairing.calls").value();
  const std::uint64_t miller0 = obs::counter("crypto.pairing.miller").value();
  const std::uint64_t fe0 = obs::counter("crypto.pairing.finalexp").value();
  const std::uint64_t hits0 =
      obs::counter("crypto.pairing.precomp_hits").value();

  engine().pair(P, Q);       // 1 call, 1 loop, 1 FE
  engine().pair(pre, Q);     // 1 call, 1 loop, 1 FE, 1 table hit
  engine().pair_product({    // 3 calls, 2 loops (one factor skipped), 1 FE
      PairingTerm{.pre = &pre, .Q = Q},
      PairingTerm{.P = Q, .Q = Q},
      PairingTerm{.P = P, .Q = Q, .exp = Bigint(0)},
  });

  EXPECT_EQ(obs::counter("crypto.pairing.calls").value() - calls0, 5u);
  EXPECT_EQ(obs::counter("crypto.pairing.miller").value() - miller0, 4u);
  EXPECT_EQ(obs::counter("crypto.pairing.finalexp").value() - fe0, 3u);
  EXPECT_EQ(obs::counter("crypto.pairing.precomp_hits").value() - hits0, 2u);
  obs::set_metrics_enabled(false);
}

}  // namespace
}  // namespace ppms
