// Modular arithmetic on Bigint: modular multiplication and three modular
// exponentiation strategies (plain binary, sliding window, Montgomery).
//
// `modexp` is the facade everything else calls; it picks Montgomery for odd
// moduli of at most 2048 bits and the windowed method otherwise. The
// individual strategies stay public for the A2 ablation benchmark, and
// `modexp_binary` is the schoolbook oracle the differential tests compare
// against.
//
// Fixed-modulus fast path: the RSA, blind-signature, CL, ZKP and pairing
// layers fire thousands of exponentiations against the same handful of
// moduli, so the Montgomery precomputation (R mod m, R² mod m — two full
// divisions) is cached per modulus. `montgomery_ctx(m)` returns the shared
// context — the program's one per-modulus cache — and
// `modexp(base, exp, ctx)` lets session-lifetime callers skip even the
// cache lookup. The facade uses the cache transparently.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>

#include "bigint/bigint.h"

namespace ppms {

class MontgomeryCtx;

/// (a * b) mod m, with m > 0.
Bigint modmul(const Bigint& a, const Bigint& b, const Bigint& m);

/// base^exp mod m. Requires exp >= 0 and m > 0; base may be any integer.
/// Picks the fastest applicable strategy; m == 1 yields canonical zero.
Bigint modexp(const Bigint& base, const Bigint& exp, const Bigint& m);

/// base^exp mod ctx.modulus() with the precomputation already paid.
/// Requires exp >= 0. This is the hot-path entry point for callers that
/// hold a context for a session's lifetime (RSA keys, ZKP groups, tower
/// primes).
Bigint modexp(const Bigint& base, const Bigint& exp,
              const MontgomeryCtx& ctx);

/// Shared per-modulus Montgomery context from the process-wide cache
/// (created on first use; later calls for the same modulus are a
/// shared-lock lookup). Requires FpCtx::supports(m), like MontgomeryCtx
/// itself; throws std::invalid_argument otherwise. The returned pointer
/// stays valid even if the cache is cleared.
std::shared_ptr<const MontgomeryCtx> montgomery_ctx(const Bigint& m);

/// Number of cached Montgomery contexts (observability for tests/bench).
std::size_t montgomery_cache_size();

/// Drop all cached contexts (outstanding shared_ptrs stay alive).
void montgomery_cache_clear();

/// Left-to-right square-and-multiply (baseline strategy).
Bigint modexp_binary(const Bigint& base, const Bigint& exp, const Bigint& m);

/// Sliding-window exponentiation (window 4) without Montgomery form.
Bigint modexp_window(const Bigint& base, const Bigint& exp, const Bigint& m);

/// Montgomery-form sliding-window exponentiation. Requires m odd and at
/// most 2048 bits; m == 1 yields canonical zero like the other strategies.
/// Builds a throwaway context — the uncached baseline the ablation bench
/// compares against.
Bigint modexp_montgomery(const Bigint& base, const Bigint& exp,
                         const Bigint& m);

/// Square root of a modulo an odd prime p (Tonelli-Shanks; a single
/// exponentiation when p ≡ 3 mod 4). Returns one of the two roots in
/// [0, p) — callers needing a canonical choice take min(r, p-r) — or
/// nullopt for quadratic non-residues. `rng` samples the auxiliary
/// non-residue the general case needs. Throws std::invalid_argument if p
/// is even or < 3.
std::optional<Bigint> mod_sqrt(const Bigint& a, const Bigint& p,
                               SecureRandom& rng);

/// Integer square root: the largest s with s² <= n (Newton's method).
/// Throws std::domain_error for negative n.
Bigint isqrt(const Bigint& n);

}  // namespace ppms
