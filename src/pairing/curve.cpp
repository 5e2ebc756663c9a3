#include "pairing/curve.h"

#include <algorithm>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>

#include "bigint/modarith.h"
#include "bigint/montgomery.h"
#include "pairing/jacobian.h"

namespace ppms {

bool ec_on_curve(const EcPoint& pt, const Bigint& p) {
  if (pt.infinity) return true;
  if (pt.x.is_negative() || pt.x >= p || pt.y.is_negative() || pt.y >= p) {
    return false;
  }
  const Bigint lhs = fp_mul(pt.y, pt.y, p);
  const Bigint x3 = fp_mul(fp_mul(pt.x, pt.x, p), pt.x, p);
  return lhs == fp_add(x3, pt.x, p);
}

EcPoint ec_neg(const EcPoint& a, const Bigint& p) {
  if (a.infinity) return a;
  return EcPoint{a.x, fp_neg(a.y, p), false};
}

EcPoint ec_add(const EcPoint& a, const EcPoint& b, const Bigint& p) {
  if (a.infinity) return b;
  if (b.infinity) return a;
  if (a.x == b.x) {
    if (fp_add(a.y, b.y, p).is_zero()) return EcPoint::at_infinity();
    // Doubling: lambda = (3x² + 1) / 2y.
    const Bigint x2 = fp_mul(a.x, a.x, p);
    const Bigint num = fp_add(fp_add(fp_add(x2, x2, p), x2, p), Bigint(1), p);
    const Bigint lambda = fp_mul(num, fp_inv(fp_add(a.y, a.y, p), p), p);
    const Bigint x3 = fp_sub(fp_mul(lambda, lambda, p),
                             fp_add(a.x, a.x, p), p);
    const Bigint y3 =
        fp_sub(fp_mul(lambda, fp_sub(a.x, x3, p), p), a.y, p);
    return EcPoint{x3, y3, false};
  }
  const Bigint lambda =
      fp_mul(fp_sub(b.y, a.y, p), fp_inv(fp_sub(b.x, a.x, p), p), p);
  const Bigint x3 =
      fp_sub(fp_sub(fp_mul(lambda, lambda, p), a.x, p), b.x, p);
  const Bigint y3 = fp_sub(fp_mul(lambda, fp_sub(a.x, x3, p), p), a.y, p);
  return EcPoint{x3, y3, false};
}

namespace {

// The field context every ladder over p runs on, after validating the
// points the Jacobian formulas would otherwise silently misread.
// montgomery_ctx throws std::invalid_argument for a p FpCtx cannot serve.
std::shared_ptr<const MontgomeryCtx> ladder_ctx(
    const char* who, const Bigint& p,
    std::initializer_list<const EcPoint*> points) {
  for (const EcPoint* pt : points) {
    if (!ec_on_curve(*pt, p)) {
      throw std::invalid_argument(std::string(who) + ": point not on curve");
    }
  }
  return montgomery_ctx(p);
}

// k1·A + k2·B with one shared doubling chain. A + B is precomputed in
// Jacobian coordinates (no inversion) and added with the full Jacobian
// formula; single-base bits use mixed addition. An infinite base or a
// zero scalar drops its term.
Jac shamir_ladder(const FpCtx& F, const EcPoint& a, const Bigint& k1,
                  const EcPoint& b, const Bigint& k2) {
  const bool use_a = !a.infinity && !k1.is_zero();
  const bool use_b = !b.infinity && !k2.is_zero();
  const FpElem ax = use_a ? F.to_mont(a.x) : F.zero();
  const FpElem ay = use_a ? F.to_mont(a.y) : F.zero();
  const FpElem bx = use_b ? F.to_mont(b.x) : F.zero();
  const FpElem by = use_b ? F.to_mont(b.y) : F.zero();
  Jac ab = jac_infinity(F);
  if (use_a && use_b) {
    ab = Jac{ax, ay, F.one()};
    jac_add(F, ab, bx, by);
  }
  const bool ab_finite = !F.is_zero(ab.Z);  // false for B = -A
  Jac V = jac_infinity(F);
  for (std::size_t i = std::max(k1.bit_length(), k2.bit_length()); i-- > 0;) {
    jac_dbl(F, V);
    const bool ba = use_a && k1.bit(i);
    const bool bb = use_b && k2.bit(i);
    if (ba && bb) {
      if (ab_finite) jac_add(F, V, ab.X, ab.Y, &ab.Z);
    } else if (ba) {
      jac_add(F, V, ax, ay);
    } else if (bb) {
      jac_add(F, V, bx, by);
    }
  }
  return V;
}

}  // namespace

EcPoint jac_to_affine(const FpCtx& F, const Jac& V) {
  if (F.is_zero(V.Z)) return EcPoint::at_infinity();
  const FpElem zi = F.to_mont(fp_inv(F.from_mont(V.Z), F.modulus()));
  FpElem zi2, zi3, x, y;
  F.sqr(zi2, zi);
  F.mul(zi3, zi2, zi);
  F.mul(x, V.X, zi2);
  F.mul(y, V.Y, zi3);
  return EcPoint{F.from_mont(x), F.from_mont(y), false};
}

EcPoint ec_mul(const EcPoint& a, const Bigint& k, const Bigint& p) {
  if (k.is_negative()) {
    throw std::invalid_argument("ec_mul: negative scalar");
  }
  const auto ctx = ladder_ctx("ec_mul", p, {&a});
  const FpCtx& F = ctx->fp();
  return jac_to_affine(
      F, shamir_ladder(F, a, k, EcPoint::at_infinity(), Bigint(0)));
}

EcPoint ec_mul2(const EcPoint& a, const Bigint& k1, const EcPoint& b,
                const Bigint& k2, const Bigint& p) {
  if (k1.is_negative() || k2.is_negative()) {
    throw std::invalid_argument("ec_mul2: negative scalar");
  }
  const auto ctx = ladder_ctx("ec_mul2", p, {&a, &b});
  const FpCtx& F = ctx->fp();
  return jac_to_affine(F, shamir_ladder(F, a, k1, b, k2));
}

EcPoint ec_random_point(SecureRandom& rng, const Bigint& p) {
  for (;;) {
    const Bigint x = Bigint::random_below(rng, p);
    const Bigint rhs = fp_add(fp_mul(fp_mul(x, x, p), x, p), x, p);
    const auto y = fp_sqrt(rhs, p);
    if (!y.has_value() || y->is_zero()) continue;
    return EcPoint{x, rng.uniform(2) ? *y : fp_neg(*y, p), false};
  }
}

Bytes ec_serialize(const EcPoint& pt, const Bigint& p) {
  const std::size_t width = (p.bit_length() + 7) / 8;
  Bytes out = concat(pt.x.to_bytes_be(width), pt.y.to_bytes_be(width));
  out.push_back(pt.infinity ? 1 : 0);
  return out;
}

EcPoint ec_deserialize(const Bytes& data, const Bigint& p) {
  const std::size_t width = (p.bit_length() + 7) / 8;
  if (data.size() != 2 * width + 1 || data.back() > 1) {
    throw std::invalid_argument("ec_deserialize: malformed encoding");
  }
  EcPoint pt;
  pt.x = Bigint::from_bytes_be(
      Bytes(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(width)));
  pt.y = Bigint::from_bytes_be(
      Bytes(data.begin() + static_cast<std::ptrdiff_t>(width),
            data.end() - 1));
  pt.infinity = data.back() == 1;
  if (!ec_on_curve(pt, p)) {
    throw std::invalid_argument("ec_deserialize: point not on curve");
  }
  return pt;
}

}  // namespace ppms
