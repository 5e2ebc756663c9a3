#include "rsa/rsa.h"

#include <gtest/gtest.h>

#include "bigint/modarith.h"
#include "bigint/prime.h"

namespace ppms {
namespace {

// One shared key per suite: keygen is the expensive part.
const RsaKeyPair& test_key() {
  static const RsaKeyPair kp = [] {
    SecureRandom rng(1001);
    return rsa_generate(rng, 1024);
  }();
  return kp;
}

TEST(RsaKeygen, ModulusHasExactWidth) {
  EXPECT_EQ(test_key().pub.n.bit_length(), 1024u);
  EXPECT_EQ(test_key().pub.modulus_bytes(), 128u);
}

TEST(RsaKeygen, FactorsAreDistinctPrimes) {
  SecureRandom rng(1);
  const RsaPrivateKey& priv = test_key().priv;
  EXPECT_TRUE(is_probable_prime(priv.p, rng));
  EXPECT_TRUE(is_probable_prime(priv.q, rng));
  EXPECT_NE(priv.p, priv.q);
  EXPECT_EQ(priv.p * priv.q, priv.n);
}

TEST(RsaKeygen, CrtParametersConsistent) {
  const RsaPrivateKey& priv = test_key().priv;
  EXPECT_EQ(priv.dp, priv.d.mod(priv.p - Bigint(1)));
  EXPECT_EQ(priv.dq, priv.d.mod(priv.q - Bigint(1)));
  EXPECT_EQ((priv.qinv * priv.q).mod(priv.p), Bigint(1));
}

TEST(RsaKeygen, EdInverseRelation) {
  const RsaPrivateKey& priv = test_key().priv;
  const Bigint lambda = lcm(priv.p - Bigint(1), priv.q - Bigint(1));
  EXPECT_EQ((priv.e * priv.d).mod(lambda), Bigint(1));
}

TEST(RsaKeygen, RejectsBadParameters) {
  SecureRandom rng(2);
  EXPECT_THROW(rsa_generate(rng, 30), std::invalid_argument);
  EXPECT_THROW(rsa_generate(rng, 129), std::invalid_argument);
  // Wider than the 2048 bits a Montgomery context holds.
  EXPECT_THROW(rsa_generate(rng, 2050), std::invalid_argument);
  EXPECT_THROW(rsa_generate(rng, 512, Bigint(4)), std::invalid_argument);
  EXPECT_THROW(rsa_generate(rng, 512, Bigint(1)), std::invalid_argument);
}

TEST(RsaKeygen, CustomExponent) {
  SecureRandom rng(3);
  const RsaKeyPair kp = rsa_generate(rng, 256, Bigint(3));
  EXPECT_EQ(kp.pub.e, Bigint(3));
  const Bigint m(42);
  EXPECT_EQ(rsa_private_op(kp.priv, rsa_public_op(kp.pub, m)), m);
}

TEST(RsaRawOp, RoundTripRandomMessages) {
  SecureRandom rng(4);
  const RsaKeyPair& kp = test_key();
  for (int i = 0; i < 10; ++i) {
    const Bigint m = Bigint::random_below(rng, kp.pub.n);
    EXPECT_EQ(rsa_private_op(kp.priv, rsa_public_op(kp.pub, m)), m);
    EXPECT_EQ(rsa_public_op(kp.pub, rsa_private_op(kp.priv, m)), m);
  }
}

TEST(RsaRawOp, CrtMatchesDirectExponentiation) {
  SecureRandom rng(5);
  const RsaKeyPair& kp = test_key();
  const Bigint c = Bigint::random_below(rng, kp.pub.n);
  EXPECT_EQ(rsa_private_op(kp.priv, c), modexp(c, kp.priv.d, kp.priv.n));
}

TEST(RsaRawOp, RejectsOutOfRangeInput) {
  const RsaKeyPair& kp = test_key();
  EXPECT_THROW(rsa_public_op(kp.pub, kp.pub.n), std::invalid_argument);
  EXPECT_THROW(rsa_public_op(kp.pub, Bigint(-1)), std::invalid_argument);
  EXPECT_THROW(rsa_private_op(kp.priv, kp.pub.n), std::invalid_argument);
}

TEST(RsaPublicKeySerde, RoundTrip) {
  const RsaPublicKey& pub = test_key().pub;
  EXPECT_EQ(RsaPublicKey::deserialize(pub.serialize()), pub);
}

TEST(RsaPublicKeySerde, TrailingBytesRejected) {
  Bytes data = test_key().pub.serialize();
  data.push_back(0);
  EXPECT_THROW(RsaPublicKey::deserialize(data), std::invalid_argument);
}

TEST(RsaPublicKeySerde, FingerprintIsStableAndDistinct) {
  SecureRandom rng(6);
  const RsaPublicKey& a = test_key().pub;
  const RsaKeyPair other = rsa_generate(rng, 256);
  EXPECT_EQ(a.fingerprint(), a.fingerprint());
  EXPECT_NE(a.fingerprint(), other.pub.fingerprint());
  EXPECT_EQ(a.fingerprint().size(), 32u);
}

TEST(RsaFdh, InRangeAndDeterministic) {
  const RsaPublicKey& pub = test_key().pub;
  const Bigint h1 = rsa_fdh(pub, bytes_of("message"));
  const Bigint h2 = rsa_fdh(pub, bytes_of("message"));
  EXPECT_EQ(h1, h2);
  EXPECT_GE(h1, Bigint(0));
  EXPECT_LT(h1, pub.n);
  EXPECT_NE(h1, rsa_fdh(pub, bytes_of("messagf")));
}

TEST(RsaPrivateKeySerde, RoundTripAndUse) {
  const RsaPrivateKey& priv = test_key().priv;
  const RsaPrivateKey copy = RsaPrivateKey::deserialize(priv.serialize());
  SecureRandom rng(7);
  const Bigint m = Bigint::random_below(rng, priv.n);
  EXPECT_EQ(rsa_private_op(copy, rsa_public_op(test_key().pub, m)), m);
}

TEST(RsaPrivateKeySerde, CorruptedComponentRejected) {
  Bytes data = test_key().priv.serialize();
  data[data.size() / 3] ^= 0x01;
  EXPECT_THROW(RsaPrivateKey::deserialize(data), std::exception);
}

TEST(RsaPrivateKeySerde, TruncationRejected) {
  Bytes data = test_key().priv.serialize();
  data.resize(data.size() - 1);
  EXPECT_THROW(RsaPrivateKey::deserialize(data), std::exception);
}

TEST(RsaPrivateKeySerde, SwappedPrimesRejected) {
  // p and q swapped breaks qinv: must be caught by validation.
  RsaPrivateKey bad = test_key().priv;
  std::swap(bad.p, bad.q);
  EXPECT_THROW(RsaPrivateKey::deserialize(bad.serialize()),
               std::invalid_argument);
}

TEST(RsaFdh, CoversHighBits) {
  // Over several messages the FDH output should exceed n/2 sometimes —
  // i.e. it is genuinely full-domain, not confined to a hash-sized prefix.
  const RsaPublicKey& pub = test_key().pub;
  const Bigint half = pub.n >> 1;
  bool above = false;
  for (int i = 0; i < 32 && !above; ++i) {
    above = rsa_fdh(pub, Bytes{static_cast<std::uint8_t>(i)}) > half;
  }
  EXPECT_TRUE(above);
}

// A structurally valid key whose modulus is 2050 bits wide: built by hand,
// since rsa_generate refuses the width.
const RsaPrivateKey& wide_key() {
  static const RsaPrivateKey key = [] {
    SecureRandom rng(13);
    for (;;) {
      RsaPrivateKey k;
      k.p = random_prime(rng, 1025);
      k.q = random_prime(rng, 1025);
      k.n = k.p * k.q;
      k.e = Bigint(65537);
      const Bigint p1 = k.p - Bigint(1);
      const Bigint q1 = k.q - Bigint(1);
      const Bigint lambda = lcm(p1, q1);
      if (k.p == k.q || !gcd(k.e, lambda).is_one()) continue;
      k.d = modinv(k.e, lambda);
      k.dp = k.d.mod(p1);
      k.dq = k.d.mod(q1);
      k.qinv = modinv(k.q, k.p);
      return k;
    }
  }();
  return key;
}

TEST(RsaPublicKeySerde, ModulusWiderThan2048BitsRejected) {
  ASSERT_GT(wide_key().n.bit_length(), 2048u);
  EXPECT_THROW(RsaPublicKey::deserialize(wide_key().public_key().serialize()),
               std::invalid_argument);
}

TEST(RsaPrivateKeySerde, ModulusWiderThan2048BitsRejected) {
  EXPECT_THROW(RsaPrivateKey::deserialize(wide_key().serialize()),
               std::invalid_argument);
}

}  // namespace
}  // namespace ppms
