// Jacobian-coordinate arithmetic on E: y² = x³ + x over a flat-limb field
// context — the one copy of the doubling and addition formulas, shared by
// the Miller loop (pairing/pipeline.cpp), which also takes each step's
// line coefficients, and the scalar ladders (ec_mul, ec_mul2), which do
// not.
//
// (X : Y : Z) stands for the affine point (X/Z², Y/Z³); Z = 0 is infinity.
// Every coordinate is a Montgomery-form FpElem of the caller's FpCtx, and
// no step inverts: a ladder leaves Jacobian coordinates once, through
// jac_to_affine's single fp_inv. Field products of reduced operands are
// canonical, so the affine result is the exact point the affine formulas
// (ec_add) compute, limb for limb.
//
// Internal to the pairing layer: callers outside it use ec_mul / ec_mul2.
#pragma once

#include "bigint/limbs.h"
#include "pairing/curve.h"

namespace ppms {

struct Jac {
  FpElem X, Y, Z;
};

/// Line through a Miller-loop step, as coefficients: its value at
/// φ(Q) = (-xq, i·yq) is (c0 + c1·xq) + (c2·yq)·i, up to an F_p* factor
/// the final exponentiation kills. Degenerate events (infinity, vertical
/// lines) give the unit line (1, 0, 0).
struct Line {
  FpElem c0, c1, c2;
};

inline Line unit_line(const FpCtx& F) { return {F.one(), F.zero(), F.zero()}; }

inline Jac jac_infinity(const FpCtx& F) { return {F.one(), F.one(), F.zero()}; }

/// V ← 2V (a = 1 in the tangent slope 3x² + a). With `line`, also the
/// tangent at the old V.
inline void jac_dbl(const FpCtx& F, Jac& V, Line* line = nullptr) {
  if (F.is_zero(V.Z)) {
    if (line) *line = unit_line(F);
    return;
  }
  if (F.is_zero(V.Y)) {  // order-2 point: vertical tangent
    V = jac_infinity(F);
    if (line) *line = unit_line(F);
    return;
  }
  FpElem T, A, B, C, xb, D, E, X3, c8, Y3, Z3, t;
  F.sqr(T, V.Z);
  F.sqr(A, V.X);
  F.sqr(B, V.Y);
  F.sqr(C, B);
  F.add(xb, V.X, B);
  F.sqr(t, xb);
  F.sub(D, t, A);
  F.sub(D, D, C);
  F.dbl(D, D);
  F.add(E, A, A);
  F.add(E, E, A);
  F.sqr(t, T);
  F.add(E, E, t);
  F.sqr(X3, E);
  F.add(t, D, D);
  F.sub(X3, X3, t);
  F.add(c8, C, C);
  F.dbl(c8, c8);
  F.dbl(c8, c8);
  F.sub(t, D, X3);
  F.mul(Y3, E, t);
  F.sub(Y3, Y3, c8);
  F.mul(t, V.Y, V.Z);
  F.add(Z3, t, t);
  if (line) {
    F.mul(t, E, V.X);
    FpElem b2;
    F.add(b2, B, B);
    F.sub(line->c0, t, b2);
    F.mul(line->c1, E, T);
    F.mul(line->c2, Z3, T);
  }
  V = Jac{X3, Y3, Z3};
}

/// V ← V + W for a finite W = (wx : wy : *wz), or the affine W = (wx, wy)
/// when `wz` is null (mixed addition: four products fewer). With `line`
/// (affine W only), also the chord through V and W.
inline void jac_add(const FpCtx& F, Jac& V, const FpElem& wx,
                    const FpElem& wy, const FpElem* wz = nullptr,
                    Line* line = nullptr) {
  if (F.is_zero(V.Z)) {
    V = Jac{wx, wy, wz ? *wz : F.one()};
    if (line) *line = unit_line(F);
    return;
  }
  // U1 = X1·Z2², S1 = Y1·Z2³ (V's coordinates when W is affine);
  // U2 = X2·Z1², S2 = Y2·Z1³.
  FpElem U1 = V.X, S1 = V.Y, T, U2, S2, H, R, t, t2;
  if (wz) {
    F.sqr(T, *wz);
    F.mul(U1, V.X, T);
    F.mul(t, T, *wz);
    F.mul(S1, V.Y, t);
  }
  F.sqr(T, V.Z);
  F.mul(U2, wx, T);
  F.mul(t, T, V.Z);
  F.mul(S2, wy, t);
  F.sub(H, U2, U1);
  F.sub(R, S2, S1);
  if (F.is_zero(H)) {
    if (F.is_zero(R)) return jac_dbl(F, V, line);  // V == W: tangent
    // V == -W: vertical line, the sum is the point at infinity.
    V = jac_infinity(F);
    if (line) *line = unit_line(F);
    return;
  }
  FpElem H2, H3, UH2, X3, Y3, Z3;
  F.sqr(H2, H);
  F.mul(H3, H, H2);
  F.mul(UH2, U1, H2);
  F.sqr(X3, R);
  F.sub(X3, X3, H3);
  F.add(t, UH2, UH2);
  F.sub(X3, X3, t);
  F.sub(t, UH2, X3);
  F.mul(Y3, R, t);
  F.mul(t2, S1, H3);
  F.sub(Y3, Y3, t2);
  F.mul(Z3, V.Z, H);
  if (wz) F.mul(Z3, Z3, *wz);
  if (line) {
    F.mul(t, R, wx);
    F.mul(t2, wy, Z3);
    F.sub(line->c0, t, t2);
    line->c1 = R;
    line->c2 = Z3;
  }
  V = Jac{X3, Y3, Z3};
}

/// The affine point V stands for: one fp_inv when V is finite, none for
/// infinity.
EcPoint jac_to_affine(const FpCtx& F, const Jac& V);

}  // namespace ppms
