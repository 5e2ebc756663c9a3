// Montgomery exponentiation context for a fixed odd modulus.
//
// A thin facade over one owned FpCtx (bigint/limbs.h): the context pays
// the n0' and R² mod m setup once, and every exponentiation under it runs
// on the flat 64-bit-limb kernels. One context is typically reused for an
// entire protocol session (RSA key, pairing field, ZKP group), which is
// where the speedup over division-based reduction comes from. Montgomery
// form never appears in this API: callers hand in and get back ordinary
// residues, and callers that run their own ladders (ZnGroup::pow2, the
// Miller-Rabin witness loop, the pairing engine) work on FpElem through
// fp().
#pragma once

#include <memory>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/limbs.h"

namespace ppms {

class MontgomeryCtx {
 public:
  /// Requires FpCtx::supports(m): m odd, > 1 and at most 2048 bits wide.
  /// Throws std::invalid_argument otherwise.
  explicit MontgomeryCtx(const Bigint& m);

  const Bigint& modulus() const { return fp_.modulus(); }

  /// The field context every product under this modulus runs on.
  const FpCtx& fp() const { return fp_; }

  /// base^exp mod m via sliding-window exponentiation in the Montgomery
  /// domain (base any integer; result in [0, m)). exp >= 0.
  Bigint pow(const Bigint& base, const Bigint& exp) const;

 private:
  FpCtx fp_;
};

/// Fixed-base exponentiation with a radix-16 digit table: base^(d·16^i) is
/// precomputed in Montgomery form for every digit position, so each later
/// pow() costs one Montgomery product per nonzero exponent digit — no
/// squarings at all. Worth building whenever one base under one modulus is
/// raised to many different exponents (a tower generator across proof
/// rounds, a verification base across a session); the table pays for
/// itself after a handful of calls.
class FixedBasePow {
 public:
  /// Table covers exponents up to `max_exp_bits` bits; larger exponents
  /// fall back to plain ctx->pow. `ctx` is shared (typically from
  /// montgomery_ctx) and kept alive by this object.
  FixedBasePow(std::shared_ptr<const MontgomeryCtx> ctx, const Bigint& base,
               std::size_t max_exp_bits);

  /// base^exp mod m. exp >= 0 (throws std::invalid_argument otherwise).
  Bigint pow(const Bigint& exp) const;

  const Bigint& base() const { return base_; }

 private:
  std::shared_ptr<const MontgomeryCtx> ctx_;
  Bigint base_;
  // table_[i][d-1] = base^(d · 16^i) in Montgomery form, d in 1..15.
  // pow() gathers the selected digit entries and folds them as a balanced
  // tree through the lane-batched FpCtx::mul_batch.
  std::vector<std::vector<FpElem>> table_;
};

}  // namespace ppms
