// RSA key generation and the raw trapdoor permutation.
//
// Built from scratch on ppms::Bigint. Key generation produces CRT
// parameters; private operations use the CRT split (about 3-4x faster than
// a single full-width exponentiation). Padding lives in oaep.h / pss.h /
// pkcs1.h — nothing here is safe to use on raw attacker-chosen values
// except the blind-signature schemes in src/blind, which are designed
// around the raw permutation.
#pragma once

#include <string>

#include "bigint/bigint.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace ppms {

struct RsaPublicKey {
  Bigint n;  ///< modulus
  Bigint e;  ///< public exponent

  /// Size of the modulus in whole bytes (ciphertext/signature width).
  std::size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }

  /// Canonical wire encoding (length-prefixed n, e). deserialize throws
  /// std::invalid_argument for trailing bytes or an n wider than 2048 bits.
  Bytes serialize() const;
  static RsaPublicKey deserialize(const Bytes& data);

  /// SHA-256 of the serialization; the pseudonymous "identity information"
  /// residents hand to the market.
  Bytes fingerprint() const;

  friend bool operator==(const RsaPublicKey&, const RsaPublicKey&) = default;
};

struct RsaPrivateKey {
  Bigint n, e, d;
  Bigint p, q;        ///< prime factors, p != q
  Bigint dp, dq;      ///< d mod (p-1), d mod (q-1)
  Bigint qinv;        ///< q^{-1} mod p

  RsaPublicKey public_key() const { return {n, e}; }

  /// Persist all components (callers are responsible for storing the
  /// result confidentially; consider secure_wipe on intermediate copies).
  Bytes serialize() const;

  /// Load and validate: n at most 2048 bits, n == p·q, CRT parameters
  /// consistent, e·d ≡ 1 (mod lambda). Throws std::invalid_argument on any
  /// inconsistency.
  static RsaPrivateKey deserialize(const Bytes& data);
};

struct RsaKeyPair {
  RsaPublicKey pub;
  RsaPrivateKey priv;
};

/// Generate an RSA key with modulus of exactly `bits` bits (even, in
/// [32, 2048]; std::invalid_argument otherwise). The default exponent is
/// 65537; generation retries primes until gcd(e, lambda(n)) == 1.
RsaKeyPair rsa_generate(SecureRandom& rng, std::size_t bits,
                        const Bigint& e = Bigint(65537));

/// c = m^e mod n. Requires 0 <= m < n.
Bigint rsa_public_op(const RsaPublicKey& key, const Bigint& m);

/// m = c^d mod n via CRT. Requires 0 <= c < n.
Bigint rsa_private_op(const RsaPrivateKey& key, const Bigint& c);

/// Full-domain hash of `msg` into [0, n): MGF1-expand SHA-256(msg) to the
/// modulus width and reduce. Shared by the signature schemes in src/blind.
Bigint rsa_fdh(const RsaPublicKey& key, const Bytes& msg);

}  // namespace ppms
