// The supersingular curve E: y² = x³ + x over F_p (p ≡ 3 mod 4).
//
// #E(F_p) = p + 1 and the embedding degree is 2, which is the "Type A"
// setting of the PBC/jPBC libraries the paper's experiments used. Points
// travel in affine coordinates plus an explicit infinity flag. A single
// addition (ec_add) stays affine, one field inversion; the scalar ladders
// (ec_mul, ec_mul2) run in Jacobian coordinates on the field's shared
// flat-limb context (pairing/jacobian.h) and invert once, at the end.
#pragma once

#include <optional>

#include "pairing/fp.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace ppms {

struct EcPoint {
  Bigint x, y;
  bool infinity = false;

  static EcPoint at_infinity() { return EcPoint{Bigint(0), Bigint(0), true}; }

  friend bool operator==(const EcPoint&, const EcPoint&) = default;
};

/// True when P satisfies y² = x³ + x (or is infinity).
bool ec_on_curve(const EcPoint& pt, const Bigint& p);

/// Point addition (handles doubling, inverses and infinity).
EcPoint ec_add(const EcPoint& a, const EcPoint& b, const Bigint& p);

EcPoint ec_neg(const EcPoint& a, const Bigint& p);

/// Scalar multiplication k·P for k >= 0: a Jacobian double-and-add on
/// montgomery_ctx(p)->fp() with one fp_inv for a finite result and none
/// for infinity. Throws std::invalid_argument for k < 0, for a point not
/// on the curve, and for a p that FpCtx cannot serve (even, or wider than
/// 2048 bits).
EcPoint ec_mul(const EcPoint& a, const Bigint& k, const Bigint& p);

/// k1·A + k2·B for k1, k2 >= 0 (Shamir/Straus: one shared doubling chain
/// over the longer scalar). Same contract and inversion budget as ec_mul.
EcPoint ec_mul2(const EcPoint& a, const Bigint& k1, const EcPoint& b,
                const Bigint& k2, const Bigint& p);

/// Uniform-ish point: random x until x³ + x is square, then a random
/// choice of root. Never returns infinity.
EcPoint ec_random_point(SecureRandom& rng, const Bigint& p);

/// Fixed-width serialization (x || y || infinity flag).
Bytes ec_serialize(const EcPoint& pt, const Bigint& p);
EcPoint ec_deserialize(const Bytes& data, const Bigint& p);

}  // namespace ppms
