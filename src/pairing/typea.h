// Type-A pairing parameters (the construction behind jPBC's TypeA curves,
// which the paper's implementation used).
//
// p = r·h - 1 with p ≡ 3 (mod 4) prime and r prime: the curve
// y² = x³ + x over F_p is supersingular with #E(F_p) = p + 1 = r·h, so the
// order-r subgroup G = <g> admits a symmetric pairing ê: G × G → GT ⊂ F_p²
// via the Tate pairing composed with the distortion map (x,y) → (-x, iy).
#pragma once

#include "pairing/curve.h"
#include "pairing/fp2.h"

namespace ppms {

struct TypeAParams {
  Bigint p;   ///< field prime, p ≡ 3 (mod 4)
  Bigint r;   ///< prime group order, r | p + 1
  Bigint h;   ///< cofactor, p + 1 = r·h, 4 | h
  EcPoint g;  ///< generator of the order-r subgroup

  /// Canonical serialization for publishing in market setup messages.
  /// deserialize throws std::invalid_argument for malformed data, for
  /// r·h != p + 1 and for a p that fails typea_field_supported.
  Bytes serialize() const;
  static TypeAParams deserialize(const Bytes& data);
};

/// True when p can be a Type-A field prime this program serves: p ≡ 3
/// (mod 4), which the distortion map needs, and at most 2048 bits wide,
/// which the flat-limb field kernels hold. Primality is not checked.
bool typea_field_supported(const Bigint& p);

/// Generate fresh parameters with an `rbits`-bit group order inside a
/// field of roughly `pbits` bits (pbits > rbits + 3).
TypeAParams typea_generate(SecureRandom& rng, std::size_t rbits,
                           std::size_t pbits);

/// Generate parameters for a *prescribed* prime group order r (used by the
/// DEC setup, where r must equal the first Cunningham-chain prime so that
/// wallet secrets live in the same exponent group as coin serials).
TypeAParams typea_generate_for_order(SecureRandom& rng, const Bigint& r,
                                     std::size_t pbits);

/// Uniform point in the order-r subgroup (cofactor-multiplied); never
/// infinity.
EcPoint typea_random_subgroup_point(const TypeAParams& params,
                                    SecureRandom& rng);

}  // namespace ppms
