// Cross-module edge cases collected from review: completeness properties
// of published chains, degenerate message values, and arithmetic corners
// that no other suite pins down.
#include <gtest/gtest.h>

#include "bigint/cunningham.h"
#include "bigint/prime.h"
#include "clsig/clsig.h"
#include "core/attack.h"
#include "hash/hmac.h"
#include "pairing/pipeline.h"

namespace ppms {
namespace {

// --- Cunningham chain completeness --------------------------------------------

TEST(EdgeCaseTest, PublishedChainsAreComplete) {
  // A005602 lists *complete* chains: the element after the last one must
  // be composite, otherwise the table understates the chain.
  SecureRandom rng(1);
  for (const std::size_t len : {6u, 7u, 8u, 9u, 14u}) {
    const CunninghamChain chain = table_chain(len, rng);
    const Bigint next = chain.primes.back() * Bigint(2) + Bigint(1);
    EXPECT_FALSE(is_probable_prime(next, rng))
        << "chain of length " << len << " extends further";
  }
}

TEST(EdgeCaseTest, ChainStartsAreThemselvesUnreachable) {
  // The start of a complete chain must not be reachable from a smaller
  // prime: (start - 1) / 2 is composite or the division does not yield an
  // integer predecessor.
  SecureRandom rng(2);
  for (const std::size_t len : {7u, 8u, 9u}) {
    const Bigint start = known_chain_start(len);
    const Bigint pred = (start - Bigint(1)) / Bigint(2);
    const bool extends_backwards =
        (pred * Bigint(2) + Bigint(1) == start) &&
        is_probable_prime(pred, rng);
    EXPECT_FALSE(extends_backwards) << "length " << len;
  }
}

// --- CL signature degenerate messages -----------------------------------------

TEST(EdgeCaseTest, ClSignatureOnZeroAndOrderMinusOne) {
  SecureRandom rng(3);
  const TypeAParams params = typea_generate(rng, 48, 128);
  const ClKeyPair kp = cl_keygen(params, rng);
  for (const Bigint& m : {Bigint(0), params.r - Bigint(1)}) {
    const ClSignature sig = cl_sign(params, kp.sk, m, rng);
    EXPECT_TRUE(cl_verify(params, kp.pk, m, sig));
    EXPECT_FALSE(cl_verify(params, kp.pk, m + Bigint(1), sig));
  }
}

// --- pairing inverse relation ---------------------------------------------------

TEST(EdgeCaseTest, PairingOfNegatedPointIsInverse) {
  SecureRandom rng(4);
  const TypeAParams params = typea_generate(rng, 48, 128);
  const EcPoint P = typea_random_subgroup_point(params, rng);
  const EcPoint Q = typea_random_subgroup_point(params, rng);
  const PairingEngine engine(params);
  const Fp2 e = engine.pair(P, Q);
  const Fp2 e_neg = engine.pair(ec_neg(P, params.p), Q);
  EXPECT_TRUE(fp2_is_one(fp2_mul(e, e_neg, params.p)));
}

// --- HMAC remaining RFC 4231 vectors --------------------------------------------

TEST(EdgeCaseTest, HmacRfc4231Case4) {
  Bytes key;
  for (int i = 1; i <= 25; ++i) key.push_back(static_cast<std::uint8_t>(i));
  const Bytes data(50, 0xcd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(EdgeCaseTest, HmacRfc4231Case7LargeKeyAndData) {
  const Bytes key(131, 0xaa);
  const Bytes data = bytes_of(
      "This is a test using a larger than block-size key and a larger "
      "than block-size data. The key needs to be hashed before being "
      "used by the HMAC algorithm.");
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

// --- attack analyzer corners ------------------------------------------------------

TEST(EdgeCaseTest, ConsistentJobsEmptyObservation) {
  EXPECT_TRUE(consistent_jobs({5, 7}, {}).empty());
}

TEST(EdgeCaseTest, ConsistentJobsAllCoinsAboveEveryPayment) {
  EXPECT_TRUE(consistent_jobs({3, 4}, {100, 200}).empty());
}

TEST(EdgeCaseTest, ObservedCoinValuesSkipsDebits) {
  VBank bank;
  const std::string aid = bank.open_account("x");
  bank.credit(aid, 5, 1);
  bank.debit(aid, 2, 2);
  bank.credit(aid, 3, 3);
  EXPECT_EQ(observed_coin_values(bank, aid),
            (std::vector<std::uint64_t>{5, 3}));
}

// --- Bigint parsing corners ---------------------------------------------------------

TEST(EdgeCaseTest, DecimalLeadingZerosAccepted) {
  EXPECT_EQ(Bigint::from_decimal("000123"), Bigint(123));
  EXPECT_EQ(Bigint::from_decimal("-007"), Bigint(-7));
  EXPECT_EQ(Bigint::from_decimal("0"), Bigint(0));
}

TEST(EdgeCaseTest, NegativeHexRoundTrip) {
  const Bigint v = Bigint::from_hex("-deadbeef");
  EXPECT_TRUE(v.is_negative());
  EXPECT_EQ(v.to_hex(), "-deadbeef");
  EXPECT_EQ(v + Bigint::from_hex("deadbeef"), Bigint(0));
}

TEST(EdgeCaseTest, JacobiOfNegativeArgument) {
  // jacobi reduces a mod n first: (-1 / 7) == (6 / 7).
  EXPECT_EQ(jacobi(Bigint(-1), Bigint(7)), jacobi(Bigint(6), Bigint(7)));
}

TEST(EdgeCaseTest, ModinvModulusTwo) {
  EXPECT_EQ(modinv(Bigint(1), Bigint(2)), Bigint(1));
  EXPECT_THROW(modinv(Bigint(0), Bigint(2)), std::domain_error);
}

}  // namespace
}  // namespace ppms
