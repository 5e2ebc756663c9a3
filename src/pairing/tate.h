// Reference Tate pairing on the Type-A curve, via Miller's algorithm.
//
// `tate_pairing_affine(params, P, Q)` computes the symmetric pairing
// ê(P, Q) = f_{r,P}(φ(Q))^{(p²-1)/r} with the distortion map
// φ(x, y) = (-x, i·y). Vertical lines evaluate into F_p and are killed by
// the (p-1) factor of the final exponentiation, so the Miller loop skips
// them (standard denominator elimination for even embedding degree).
//
// This is the differential oracle, written for clarity on schoolbook
// Bigint arithmetic; production pairings run on PairingEngine
// (pairing/pipeline.h), which must agree with it bit for bit.
#pragma once

#include "pairing/typea.h"

namespace ppms {

/// ê(P, Q) in GT ⊂ F_p² with the textbook affine Miller loop (one field
/// inversion per doubling/addition step). Both inputs must lie on the
/// curve (std::invalid_argument otherwise); points at infinity yield 1.
Fp2 tate_pairing_affine(const TypeAParams& params, const EcPoint& P,
                        const EcPoint& Q);

}  // namespace ppms
