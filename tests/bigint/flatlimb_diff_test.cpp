// Differential fuzz harness: the flat-limb kernels and FpCtx layer
// (bigint/limbs.h) against the Bigint oracle, on adversarial operands —
// all-ones limbs, carry-chain boundaries, operands at/near the modulus,
// in-place aliasing. Any divergence is a hard failure: the flat-limb core
// is the program's only modular arithmetic, and it ships only because it
// is bit-identical to the reference arithmetic.
#include "bigint/limbs.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/modarith.h"
#include "bigint/montgomery.h"

namespace ppms {
namespace {

using limb::Limb;

Bigint from_limbs(const Limb* w, std::size_t n) {
  std::vector<std::uint32_t> l32;
  l32.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    l32.push_back(static_cast<std::uint32_t>(w[i]));
    l32.push_back(static_cast<std::uint32_t>(w[i] >> 32));
  }
  return Bigint::from_raw_limbs(std::move(l32));
}

std::vector<Limb> to_limbs(const Bigint& v, std::size_t n) {
  std::vector<Limb> out(n, 0);
  const auto& l32 = v.raw_limbs();
  for (std::size_t i = 0; i < l32.size(); ++i) {
    out[i / 2] |= static_cast<Limb>(l32[i]) << (32 * (i % 2));
  }
  return out;
}

// Operand zoo for one width: carry-chain extremes, bit patterns that
// exercise every partial-product path, plus a few random fillers.
std::vector<std::vector<Limb>> adversarial_operands(std::size_t n,
                                                    SecureRandom& rng) {
  std::vector<std::vector<Limb>> ops;
  ops.emplace_back(n, Limb{0});          // zero
  ops.emplace_back(n, ~Limb{0});         // all ones: 2^{64n} - 1
  std::vector<Limb> v(n, 0);
  v[0] = 1;
  ops.push_back(v);                      // one
  v.assign(n, 0);
  v[n - 1] = Limb{1} << 63;
  ops.push_back(v);                      // top bit only
  v.assign(n, 0);
  v[0] = ~Limb{0};
  ops.push_back(v);                      // low limb saturated
  v.assign(n, ~Limb{0});
  v[0] -= 1;
  ops.push_back(v);                      // 2^{64n} - 2: carry chain boundary
  ops.emplace_back(n, Limb{0xAAAAAAAAAAAAAAAAull});
  ops.emplace_back(n, Limb{0x5555555555555555ull});
  for (int k = 0; k < 4; ++k) {
    v.resize(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = rng.next_u64();
    ops.push_back(v);
  }
  return ops;
}

TEST(FlatLimbKernels, AddSubCarryChainsMatchBigint) {
  SecureRandom rng(7001);
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{4}, std::size_t{8},
                              std::size_t{32}}) {
    const Bigint wrap = Bigint::two_pow(64 * n);
    const auto ops = adversarial_operands(n, rng);
    for (const auto& a : ops) {
      for (const auto& b : ops) {
        const Bigint A = from_limbs(a.data(), n);
        const Bigint B = from_limbs(b.data(), n);
        std::vector<Limb> r(n);
        const Limb carry = limb::add_n(r.data(), a.data(), b.data(), n);
        ASSERT_EQ(from_limbs(r.data(), n) +
                      (carry ? wrap : Bigint(0)),
                  A + B)
            << "add_n n=" << n;
        const Limb borrow = limb::sub_n(r.data(), a.data(), b.data(), n);
        ASSERT_EQ(from_limbs(r.data(), n),
                  A - B + (borrow ? wrap : Bigint(0)))
            << "sub_n n=" << n;
        // In-place aliasing: r aliasing the first and the second operand.
        std::vector<Limb> r2 = a;
        ASSERT_EQ(limb::add_n(r2.data(), r2.data(), b.data(), n), carry);
        ASSERT_EQ(from_limbs(r2.data(), n),
                  A + B - (carry ? wrap : Bigint(0)))
            << "aliased add_n result drifted";
        r2 = b;
        const Limb borrow2 = limb::sub_n(r2.data(), a.data(), r2.data(), n);
        ASSERT_EQ(borrow2, borrow);
        ASSERT_EQ(from_limbs(r2.data(), n),
                  A - B + (borrow ? wrap : Bigint(0)));
      }
    }
  }
}

TEST(FlatLimbKernels, MulSqrMatchBigint) {
  SecureRandom rng(7002);
  for (const std::size_t an : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                               std::size_t{4}, std::size_t{8}}) {
    for (const std::size_t bn :
         {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
      const auto as = adversarial_operands(an, rng);
      const auto bs = adversarial_operands(bn, rng);
      for (const auto& a : as) {
        for (const auto& b : bs) {
          std::vector<Limb> r(an + bn);
          limb::mul(r.data(), a.data(), an, b.data(), bn);
          ASSERT_EQ(from_limbs(r.data(), an + bn),
                    from_limbs(a.data(), an) * from_limbs(b.data(), bn))
              << "mul " << an << "x" << bn;
        }
        std::vector<Limb> sq(2 * an);
        limb::sqr(sq.data(), a.data(), an);
        const Bigint A = from_limbs(a.data(), an);
        ASSERT_EQ(from_limbs(sq.data(), 2 * an), A * A) << "sqr n=" << an;
      }
    }
  }
}

TEST(FlatLimbKernels, CmpIsZeroNegInverse) {
  SecureRandom rng(7003);
  const auto ops = adversarial_operands(4, rng);
  for (const auto& a : ops) {
    for (const auto& b : ops) {
      const Bigint A = from_limbs(a.data(), 4);
      const Bigint B = from_limbs(b.data(), 4);
      const int expect = A < B ? -1 : (A == B ? 0 : 1);
      ASSERT_EQ(limb::cmp_n(a.data(), b.data(), 4), expect);
    }
    ASSERT_EQ(limb::is_zero_n(a.data(), 4), from_limbs(a.data(), 4).is_zero());
  }
  for (int i = 0; i < 64; ++i) {
    const Limb m0 = rng.next_u64() | 1;  // odd
    // m0 · (-m0^{-1}) ≡ -1 (mod 2^64).
    ASSERT_EQ(static_cast<Limb>(m0 * limb::neg_inverse(m0)), ~Limb{0});
  }
}

// Adversarial odd moduli of a given 64-limb width (top limb nonzero).
std::vector<Bigint> adversarial_moduli(std::size_t n, SecureRandom& rng) {
  std::vector<Bigint> ms;
  ms.push_back(Bigint::two_pow(64 * n) - Bigint(1));        // all ones
  ms.push_back(Bigint::two_pow(64 * n) - Bigint(179));      // near 2^{64n}
  ms.push_back(Bigint::two_pow(64 * n - 1) + Bigint(1));    // top bit + 1
  Bigint r =
      Bigint::random_bits(rng, 64 * n - 1) + Bigint::two_pow(64 * n - 1);
  if (r.is_even()) r += Bigint(1);  // full width and odd
  ms.push_back(r);
  return ms;
}

TEST(FlatLimbKernels, CiosMatchesMontgomeryOracle) {
  SecureRandom rng(7004);
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{4}, std::size_t{8},
                              std::size_t{16}, std::size_t{32}}) {
    for (const Bigint& m : adversarial_moduli(n, rng)) {
      const Bigint rinv = modinv(Bigint::two_pow(64 * n), m);
      const auto ml = to_limbs(m, n);
      const Limb n0 = limb::neg_inverse(ml[0]);
      auto ops = adversarial_operands(n, rng);
      for (auto& o : ops) {  // reduce below m: the fully-reduced contract
        o = to_limbs(from_limbs(o.data(), n).mod(m), n);
      }
      for (const auto& a : ops) {
        for (const auto& b : ops) {
          const Bigint A = from_limbs(a.data(), n);
          const Bigint B = from_limbs(b.data(), n);
          const Bigint expect = modmul(modmul(A, B, m), rinv, m);
          std::vector<Limb> r(n);
          limb::cios_mont_mul(r.data(), a.data(), b.data(), ml.data(), n0, n);
          ASSERT_EQ(from_limbs(r.data(), n), expect)
              << "cios n=" << n << " m=" << m.to_hex();
          // r aliasing a (the in-place accumulate shape of the Miller loop).
          std::vector<Limb> ra = a;
          limb::cios_mont_mul(ra.data(), ra.data(), b.data(), ml.data(), n0,
                              n);
          ASSERT_EQ(from_limbs(ra.data(), n), expect);
        }
        // Squaring via the same entry point, r aliasing the operand.
        std::vector<Limb> rs = a;
        limb::cios_mont_mul(rs.data(), rs.data(), rs.data(), ml.data(), n0,
                            n);
        const Bigint A = from_limbs(a.data(), n);
        ASSERT_EQ(from_limbs(rs.data(), n), modmul(modmul(A, A, m), rinv, m));
      }
    }
  }
}

TEST(FlatLimbFpCtx, RingOpsAtModulusBoundaries) {
  SecureRandom rng(7005);
  for (const std::size_t n :
       {std::size_t{2}, std::size_t{3}, std::size_t{4}, std::size_t{16}}) {
    for (const Bigint& m : adversarial_moduli(n, rng)) {
      const FpCtx F(m);
      ASSERT_EQ(F.limbs(), n);
      std::vector<Bigint> vals{Bigint(0), Bigint(1), m - Bigint(1),
                               m - Bigint(2), m >> 1};
      for (int i = 0; i < 3; ++i) {
        vals.push_back(Bigint::random_bits(rng, 64 * n).mod(m));
      }
      for (const Bigint& x : vals) {
        // pack/unpack and Montgomery round trips.
        ASSERT_EQ(F.unpack(F.pack(x)), x);
        ASSERT_EQ(F.from_mont(F.to_mont(x)), x.mod(m));
        for (const Bigint& y : vals) {
          FpElem r;
          F.add(r, F.pack(x), F.pack(y));
          ASSERT_EQ(F.unpack(r), (x + y).mod(m)) << "add";
          F.sub(r, F.pack(x), F.pack(y));
          ASSERT_EQ(F.unpack(r), (x - y).mod(m)) << "sub";
          F.mul(r, F.to_mont(x), F.to_mont(y));
          ASSERT_EQ(F.from_mont(r), (x * y).mod(m)) << "mul";
          // Aliased output over both inputs.
          FpElem xa = F.pack(x);
          F.add(xa, xa, F.pack(y));
          ASSERT_EQ(F.unpack(xa), (x + y).mod(m)) << "aliased add";
        }
        FpElem r;
        F.neg(r, F.pack(x));
        ASSERT_EQ(F.unpack(r), (-x).mod(m)) << "neg";
        F.dbl(r, F.pack(x));
        ASSERT_EQ(F.unpack(r), (x + x).mod(m)) << "dbl";
      }
    }
  }
}

TEST(FlatLimbFpCtx, RejectsUnsupportedModuli) {
  EXPECT_FALSE(FpCtx::supports(Bigint(4)));   // even
  EXPECT_FALSE(FpCtx::supports(Bigint(1)));   // too small
  EXPECT_FALSE(FpCtx::supports(Bigint(-7)));  // negative
  EXPECT_FALSE(FpCtx::supports(Bigint::two_pow(2048) + Bigint(1)));  // wide
  EXPECT_TRUE(FpCtx::supports(Bigint::two_pow(2048) - Bigint(1)));
  EXPECT_THROW(FpCtx ctx(Bigint(8)), std::invalid_argument);
}

// The one per-modulus cache (montgomery_ctx) hands every caller the same
// context, and so the same FpCtx.
TEST(FlatLimbFpCtxCache, SharedPerModulus) {
  SecureRandom rng(7008);
  Bigint m = Bigint::random_bits(rng, 255) + Bigint::two_pow(255);
  if (m.is_even()) m += Bigint(1);
  montgomery_cache_clear();
  const auto c1 = montgomery_ctx(m);
  const auto c2 = montgomery_ctx(m);
  EXPECT_EQ(c1.get(), c2.get());
  EXPECT_EQ(&c1->fp(), &c2->fp());
  EXPECT_EQ(montgomery_cache_size(), 1u);
  montgomery_cache_clear();
  EXPECT_EQ(montgomery_cache_size(), 0u);
  // Outstanding handles survive a clear: 1·1 still evaluates to 1.
  const FpCtx& F = c1->fp();
  FpElem r;
  F.mul(r, F.one(), F.one());
  EXPECT_EQ(F.from_mont(r), Bigint(1));
}

// TSan target: the montgomery_ctx cache (shared_mutex + rebuild-on-clear)
// and its shared FpCtx contexts hammered from many threads, with results
// checked against a precomputed oracle so a silent race in the kernels
// also fails loudly.
TEST(FlatLimbConcurrency, SharedCtxAndCacheUnderThreads) {
  SecureRandom seed_rng(7009);
  std::vector<Bigint> moduli;
  for (int i = 0; i < 4; ++i) {
    Bigint m = Bigint::random_bits(seed_rng, 191) + Bigint::two_pow(191);
    if (m.is_even()) m += Bigint(1);
    moduli.push_back(m);
  }
  // Oracle values: x^17 mod m for a fixed x, per modulus.
  const Bigint x = Bigint::random_bits(seed_rng, 160);
  std::vector<Bigint> expected;
  for (const Bigint& m : moduli) {
    expected.push_back(modexp(x, Bigint(17), m));
  }

  constexpr int kThreads = 8;
  constexpr int kIters = 60;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::size_t mi = (t + i) % moduli.size();
        const auto ctx = montgomery_ctx(moduli[mi]);
        const FpCtx& F = ctx->fp();
        FpElem acc = F.to_mont(x);
        const FpElem base = acc;
        for (int k = 0; k < 4; ++k) F.sqr(acc, acc);  // x^16
        F.mul(acc, acc, base);                        // x^17
        if (F.from_mont(acc) != expected[mi]) failures.fetch_add(1);
        if (ctx->pow(x, Bigint(17)) != expected[mi]) failures.fetch_add(1);
        if (i % 16 == 0 && t == 0) montgomery_cache_clear();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace ppms
