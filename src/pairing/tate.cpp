#include "pairing/tate.h"

#include <stdexcept>

namespace ppms {

namespace {

// Evaluate the line through A and B (tangent when A == B) at the distorted
// point φ(Q) = (-xq, i·yq). Vertical lines return 1 (denominator
// elimination: their value lies in F_p and dies in the final
// exponentiation).
Fp2 line_at_phi_q(const EcPoint& A, const EcPoint& B, const Bigint& xq,
                  const Bigint& yq, const Bigint& p) {
  if (A.infinity || B.infinity) return fp2_one();
  Bigint lambda;
  if (A.x == B.x) {
    if (fp_add(A.y, B.y, p).is_zero()) return fp2_one();  // vertical
    // Tangent slope (3x² + 1) / 2y.
    const Bigint x2 = fp_mul(A.x, A.x, p);
    const Bigint num =
        fp_add(fp_add(fp_add(x2, x2, p), x2, p), Bigint(1), p);
    lambda = fp_mul(num, fp_inv(fp_add(A.y, A.y, p), p), p);
  } else {
    lambda = fp_mul(fp_sub(B.y, A.y, p), fp_inv(fp_sub(B.x, A.x, p), p), p);
  }
  // l(φQ) = i·yq - yA - λ(-xq - xA) = [λ(xq + xA) - yA] + yq·i.
  const Bigint real = fp_sub(fp_mul(lambda, fp_add(xq, A.x, p), p), A.y, p);
  return Fp2{real, yq};
}

// f^{(p²-1)/r} = (conj(f)·f^{-1})^h — Frobenius is conjugation in F_p[i].
Fp2 final_exponentiation(const TypeAParams& params, const Fp2& f) {
  const Bigint& p = params.p;
  const Fp2 fp_minus_1 = fp2_mul(fp2_conj(f, p), fp2_inv(f, p), p);
  return fp2_pow(fp_minus_1, params.h, p);
}

}  // namespace

Fp2 tate_pairing_affine(const TypeAParams& params, const EcPoint& P,
                        const EcPoint& Q) {
  const Bigint& p = params.p;
  if (!ec_on_curve(P, p) || !ec_on_curve(Q, p)) {
    throw std::invalid_argument("tate_pairing_affine: point not on curve");
  }
  if (P.infinity || Q.infinity) return fp2_one();

  Fp2 f = fp2_one();
  EcPoint V = P;
  const Bigint& r = params.r;
  for (std::size_t i = r.bit_length() - 1; i-- > 0;) {
    f = fp2_mul(fp2_square(f, p), line_at_phi_q(V, V, Q.x, Q.y, p), p);
    V = ec_add(V, V, p);
    if (r.bit(i)) {
      f = fp2_mul(f, line_at_phi_q(V, P, Q.x, Q.y, p), p);
      V = ec_add(V, P, p);
    }
  }
  return final_exponentiation(params, f);
}

}  // namespace ppms
