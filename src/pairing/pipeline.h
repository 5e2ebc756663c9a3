// Pairing pipeline: fixed-argument Miller precomputation, products of
// pairings, and a session-lifetime engine on the flat-limb field kernels.
//
// The protocol's pairing equations all have the shape
//     ê(P_1,Q_1)^{e_1} · ê(P_2,Q_2)^{e_2} · ... == 1  (or == some GT value)
// where the first arguments are a handful of per-market constants (the
// curve generator g, the bank's CL key points X and Y — the pairing is
// symmetric, so every equation can be oriented constant-first). Three
// observations make this much cheaper than independent pairings:
//
//  * the Miller loop's line coefficients depend only on the first point
//    and the bits of r, so a fixed P can be "compiled" once into a
//    `PairingPrecomp` table and each later pairing replays it with two
//    field products per step instead of a full Jacobian double/add;
//  * the final exponentiation f ↦ f^{(p²-1)/r} is multiplicative, so a
//    product of k pairings needs only one of them (`pair_product`
//    combines the Miller values first); an inverted factor costs nothing
//    extra because FE(conj(f)) = FE(f)^{-1};
//  * every F_p product runs on stack-resident FpElem residues in the
//    Montgomery domain of the shared per-modulus context
//    (montgomery_ctx(p), bigint/limbs.h), entering once per pairing and
//    leaving once at the end, with independent products lane-batched.
//
// All of this is exact, not approximate: each fast path produces results
// bit-identical to the `tate_pairing_affine` oracle (see
// tests/pairing/pipeline_test.cpp for the differential suite).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "pairing/typea.h"

namespace ppms {

class MontgomeryCtx;
class PairingEngine;

/// Compiled Miller line table for a fixed first pairing argument. Immutable
/// after construction (safe to share across threads); build one via
/// `PairingEngine::precompute` for each per-market constant point.
class PairingPrecomp {
 public:
  PairingPrecomp() = default;

  /// The fixed point this table was compiled for.
  const EcPoint& point() const { return point_; }

  /// True until `PairingEngine::precompute` has filled the table.
  bool empty() const { return !built_; }

 private:
  friend class PairingEngine;

  // One Miller-loop event per step, in loop order. Coefficients are
  // stored in the engine's Montgomery form, c0‖c1‖c2 per step with
  // `limbs_` 64-bit limbs each; the line value at φ(Q) = (-xq, i·yq) is
  // (c0 + c1·xq) + (c2·yq)·i. Doubling events fold a squaring of the
  // accumulator, addition events (adds_[i] set) do not. This mirrors the
  // loop structure bit for bit, including the degenerate vertical/infinity
  // events, which encode the constant 1 as (1, 0, 0).
  EcPoint point_;
  std::vector<std::uint64_t> coeffs_;
  std::vector<bool> adds_;
  std::size_t limbs_ = 0;
  bool built_ = false;
};

/// One factor ê(P, Q)^{±exp} of a product of pairings. Set `pre` to use a
/// fixed-argument table (P is then ignored); otherwise P is used directly.
/// `exp` is reduced modulo r; `invert` contributes the factor's inverse
/// (computed by conjugation, which is exact for GT elements).
struct PairingTerm {
  const PairingPrecomp* pre = nullptr;
  EcPoint P = EcPoint::at_infinity();
  EcPoint Q = EcPoint::at_infinity();
  Bigint exp = Bigint(1);
  bool invert = false;
};

/// Session-lifetime pairing engine for one set of Type-A parameters.
/// Construction is cheap (the field context is shared per modulus through
/// montgomery_ctx), but callers that hold one across calls also amortize
/// the precomp tables they build. All methods are const and thread-safe.
class PairingEngine {
 public:
  /// Throws std::invalid_argument unless typea_field_supported(params.p).
  explicit PairingEngine(TypeAParams params);

  const TypeAParams& params() const { return params_; }

  /// Compile the Miller line table for fixed first argument P. Validates
  /// P on-curve once (std::invalid_argument otherwise); the table costs
  /// about one Miller loop to build and pays for itself after roughly two
  /// pairings against it.
  PairingPrecomp precompute(const EcPoint& P) const;

  /// ê(P, Q), bit-identical to the tate_pairing_affine oracle.
  Fp2 pair(const EcPoint& P, const EcPoint& Q) const;

  /// ê(pre.point(), Q) via the compiled table, which must come from an
  /// engine over the same field (std::invalid_argument for another width).
  Fp2 pair(const PairingPrecomp& pre, const EcPoint& Q) const;

  /// ∏_i ê(P_i, Q_i)^{±e_i} with one final exponentiation for the whole
  /// product. Unit-exponent factors share the accumulator; factors with
  /// equal non-unit exponents share a second one (the batch-verify shape).
  /// Returns 1 for an empty product. Bit-identical to composing the
  /// oracle pairings with fp2_pow / fp2_inv.
  Fp2 pair_product(const std::vector<PairingTerm>& terms) const;

  /// x^e in F_p² for e >= 0, in the Montgomery domain; bit-identical to
  /// fp2_pow. Backs GtGroup::pow and GtGroup::contains.
  Fp2 gt_pow(const Fp2& x, const Bigint& e) const;

  /// x1^e1 · x2^e2 (Shamir/Straus interleaving) for e1, e2 >= 0;
  /// bit-identical to fp2_mul(fp2_pow(...), fp2_pow(...)).
  Fp2 gt_pow2(const Fp2& x1, const Bigint& e1, const Fp2& x2,
              const Bigint& e2) const;

 private:
  /// Throws unless `pre` was built by an engine over this field's width.
  void check_table(const PairingPrecomp& pre) const;

  TypeAParams params_;
  std::shared_ptr<const MontgomeryCtx> mont_;
};

}  // namespace ppms
