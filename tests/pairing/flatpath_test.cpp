// Flat-limb pairing engine vs the affine Bigint oracle: live pairings,
// precomp replays, products and GT powers must be bit-identical to
// tate_pairing_affine composed with the plain F_p² helpers, and a shared
// engine, like the scalar ladders sharing one field context, must stay
// exact under concurrent use (the TSan angle).
#include "pairing/pipeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "bigint/modarith.h"
#include "clsig/clsig.h"
#include "pairing/fp.h"
#include "pairing/fp2.h"
#include "pairing/tate.h"
#include "support/ec_oracle.h"

namespace ppms {
namespace {

const TypeAParams& params() {
  static const TypeAParams prm = [] {
    SecureRandom rng(9100);
    return typea_generate(rng, 48, 128);
  }();
  return prm;
}

const PairingEngine& engine() {
  static const PairingEngine eng(params());
  return eng;
}

TEST(FlatPairingPath, LivePairMatchesAffineOracle) {
  SecureRandom rng(9101);
  for (int i = 0; i < 4; ++i) {
    const EcPoint P = typea_random_subgroup_point(params(), rng);
    const EcPoint Q = typea_random_subgroup_point(params(), rng);
    EXPECT_EQ(engine().pair(P, Q), tate_pairing_affine(params(), P, Q));
  }
}

TEST(FlatPairingPath, PrecompReplayMatchesAffineOracle) {
  SecureRandom rng(9103);
  const EcPoint P = typea_random_subgroup_point(params(), rng);
  const EcPoint Q = typea_random_subgroup_point(params(), rng);
  const PairingPrecomp pre = engine().precompute(P);
  EXPECT_EQ(engine().pair(pre, Q), tate_pairing_affine(params(), P, Q));
  // A table compiled under a field of another width is refused rather
  // than replayed out of bounds.
  const TypeAParams wide = typea_generate(rng, 48, 192);
  const PairingEngine wide_engine(wide);
  const PairingPrecomp wide_pre = wide_engine.precompute(wide.g);
  EXPECT_THROW(engine().pair(wide_pre, Q), std::invalid_argument);
  EXPECT_THROW(engine().pair_product({PairingTerm{.pre = &wide_pre, .Q = Q}}),
               std::invalid_argument);
}

TEST(FlatPairingPath, PairProductMatchesComposedAffineOracle) {
  SecureRandom rng(9104);
  const PairingPrecomp pre =
      engine().precompute(typea_random_subgroup_point(params(), rng));
  std::vector<PairingTerm> terms;
  for (int i = 0; i < 3; ++i) {
    PairingTerm t;
    t.P = typea_random_subgroup_point(params(), rng);
    t.Q = typea_random_subgroup_point(params(), rng);
    t.exp = Bigint::random_below(rng, params().r);
    t.invert = i % 2 == 1;
    terms.push_back(t);
  }
  PairingTerm pt;
  pt.pre = &pre;
  pt.Q = typea_random_subgroup_point(params(), rng);
  pt.exp = terms[0].exp;  // shares an accumulator group
  terms.push_back(pt);

  // Oracle reference: compose affine pairings with plain F_p² arithmetic.
  const Bigint& p = params().p;
  Fp2 expect = fp2_one();
  for (const PairingTerm& t : terms) {
    const EcPoint& P = t.pre != nullptr ? t.pre->point() : t.P;
    Fp2 v = fp2_pow(tate_pairing_affine(params(), P, t.Q),
                    t.exp.mod(params().r), p);
    if (t.invert) v = fp2_inv(v, p);
    expect = fp2_mul(expect, v, p);
  }
  EXPECT_EQ(engine().pair_product(terms), expect);
}

TEST(FlatPairingPath, GtPowsMatchFp2Oracle) {
  SecureRandom rng(9105);
  const Bigint& p = params().p;
  const Fp2 g = tate_pairing_affine(params(), params().g, params().g);
  const Fp2 h = tate_pairing_affine(
      params(), typea_random_subgroup_point(params(), rng), params().g);
  for (int i = 0; i < 4; ++i) {
    const Bigint e1 = Bigint::random_below(rng, params().r);
    const Bigint e2 = Bigint::random_below(rng, params().r);
    EXPECT_EQ(engine().gt_pow(g, e1), fp2_pow(g, e1, p));
    EXPECT_EQ(engine().gt_pow2(g, e1, h, e2),
              fp2_mul(fp2_pow(g, e1, p), fp2_pow(h, e2, p), p));
  }
}

TEST(FlatPairingPath, InversionBudgetUnchanged) {
  // The flat final exponentiation must keep the one-fp_inv-per-pairing
  // budget the projective pipeline is built around.
  SecureRandom rng(9106);
  const EcPoint P = typea_random_subgroup_point(params(), rng);
  const EcPoint Q = typea_random_subgroup_point(params(), rng);
  const std::uint64_t before = fp_inv_calls();
  (void)engine().pair(P, Q);
  EXPECT_EQ(fp_inv_calls() - before, 1u);
  (void)engine().pair_product(
      {PairingTerm{nullptr, P, Q, Bigint(1), false},
       PairingTerm{nullptr, Q, P, Bigint(2), true}});
  EXPECT_EQ(fp_inv_calls() - before, 2u);  // one more for the whole product
}

// TSan target: one engine and one shared precomp table driven from
// many threads; every result is checked against a fixed expected value so
// data races surface as wrong answers even without the sanitizer.
TEST(FlatPairingConcurrency, SharedFlatEngineUnderThreads) {
  SecureRandom rng(9107);
  const EcPoint P = typea_random_subgroup_point(params(), rng);
  const EcPoint Q = typea_random_subgroup_point(params(), rng);
  const PairingPrecomp pre = engine().precompute(P);
  const Fp2 expect = tate_pairing_affine(params(), P, Q);
  constexpr int kThreads = 8;
  constexpr int kIters = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        if (engine().pair(pre, Q) != expect) failures.fetch_add(1);
        if (engine().pair(P, Q) != expect) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// TSan target: scalar ladders on one shared parameter set from many
// threads, the shape of a deposit-pool mint. ec_mul and cl_randomize all
// take the montgomery_ctx(p) entry, and one thread keeps clearing the
// cache so lookups race its rebuild. Every output is checked against a
// value computed single-threaded up front (the affine oracle for ec_mul).
TEST(FlatPairingConcurrency, SharedFieldScalarLaddersUnderThreads) {
  SecureRandom rng(9108);
  const TypeAParams& prm = params();
  const ClKeyPair kp = cl_keygen(prm, rng);
  const ClSignature sig = cl_sign(prm, kp.sk, Bigint(12345), rng);
  constexpr int kThreads = 8;
  constexpr int kIters = 4;
  constexpr std::uint64_t kSeed = 9200;
  std::vector<Bigint> ks;
  std::vector<EcPoint> want_mul;
  std::vector<ClSignature> want_sig;
  for (int i = 0; i < kThreads * kIters; ++i) {
    ks.push_back(Bigint::random_below(rng, prm.r));
    want_mul.push_back(testing::ec_mul_affine(prm.g, ks.back(), prm.p));
    SecureRandom sig_rng(kSeed + i);
    want_sig.push_back(cl_randomize(prm, sig, sig_rng));
  }
  ASSERT_TRUE(cl_verify(prm, kp.pk, Bigint(12345), want_sig[0]));
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const int idx = t * kIters + i;
        if (ec_mul(prm.g, ks[idx], prm.p) != want_mul[idx]) {
          failures.fetch_add(1);
        }
        SecureRandom sig_rng(kSeed + idx);
        const ClSignature got = cl_randomize(prm, sig, sig_rng);
        if (got.a != want_sig[idx].a || got.b != want_sig[idx].b ||
            got.c != want_sig[idx].c) {
          failures.fetch_add(1);
        }
        if (t == 0) montgomery_cache_clear();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace ppms
