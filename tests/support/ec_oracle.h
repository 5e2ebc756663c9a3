// Affine reference ladders for the curve's scalar multiplications: the
// double-and-add and Shamir/Straus loops over ec_add, one field inversion
// per step. Production runs the Jacobian ladders of pairing/jacobian.h;
// these stay in the tests as the oracle the differential suites pin them
// to, bit for bit.
#pragma once

#include <algorithm>

#include "pairing/curve.h"

namespace ppms::testing {

/// k·A by affine double-and-add, for k >= 0.
inline EcPoint ec_mul_affine(const EcPoint& a, const Bigint& k,
                             const Bigint& p) {
  EcPoint result = EcPoint::at_infinity();
  for (std::size_t i = k.bit_length(); i-- > 0;) {
    result = ec_add(result, result, p);
    if (k.bit(i)) result = ec_add(result, a, p);
  }
  return result;
}

/// k1·A + k2·B by an affine Shamir ladder over {A, B, A + B}.
inline EcPoint ec_mul2_affine(const EcPoint& a, const Bigint& k1,
                              const EcPoint& b, const Bigint& k2,
                              const Bigint& p) {
  const EcPoint ab = ec_add(a, b, p);
  EcPoint acc = EcPoint::at_infinity();
  for (std::size_t i = std::max(k1.bit_length(), k2.bit_length()); i-- > 0;) {
    acc = ec_add(acc, acc, p);
    const bool ba = k1.bit(i);
    const bool bb = k2.bit(i);
    if (ba && bb) {
      acc = ec_add(acc, ab, p);
    } else if (ba) {
      acc = ec_add(acc, a, p);
    } else if (bb) {
      acc = ec_add(acc, b, p);
    }
  }
  return acc;
}

}  // namespace ppms::testing
