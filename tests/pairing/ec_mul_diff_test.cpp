// Differential suite for the Jacobian scalar ladders (ec_mul, ec_mul2)
// against the affine oracle (support/ec_oracle.h), on a toy 128-bit field
// and a 512-bit field the size of the paper preset's: edge scalars
// around r, p + 1 and the cofactor, random scalars up to 600 bits, and
// bases in and out of the order-r subgroup, including the order-2 point
// (0, 0) and infinity. Also pins the ladder's inversion budget and input
// checks.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "pairing/fp.h"
#include "pairing/typea.h"
#include "support/ec_oracle.h"

namespace ppms {
namespace {

using testing::ec_mul2_affine;
using testing::ec_mul_affine;

struct Field {
  std::string name;
  TypeAParams params;
  std::vector<EcPoint> bases;
  std::vector<Bigint> scalars;
};

Field make_field(const std::string& name, std::uint64_t seed,
                 std::size_t rbits, std::size_t pbits) {
  SecureRandom rng(seed);
  Field f{name, typea_generate(rng, rbits, pbits), {}, {}};
  const TypeAParams& prm = f.params;
  EcPoint outside = ec_random_point(rng, prm.p);
  while (ec_mul_affine(outside, prm.r, prm.p).infinity) {
    outside = ec_random_point(rng, prm.p);
  }
  f.bases = {prm.g, typea_random_subgroup_point(prm, rng), outside,
             EcPoint{Bigint(0), Bigint(0), false},  // order 2
             EcPoint::at_infinity()};
  const Bigint one(1);
  f.scalars = {Bigint(0),  Bigint(1),      Bigint(2),
               prm.r - one, prm.r,          prm.r + one,
               prm.p + one, prm.h};
  for (const std::size_t bits : {1u, 17u, 64u, 200u, 513u, 600u}) {
    f.scalars.push_back(Bigint::random_bits(rng, bits));
  }
  return f;
}

const std::vector<Field>& fields() {
  static const std::vector<Field> fs = {
      make_field("toy-128", 4101, 48, 128),
      make_field("paper-512", 4102, 57, 512),
  };
  return fs;
}

TEST(EcMulDiff, ScalarLadderMatchesAffineOracle) {
  for (const Field& f : fields()) {
    const Bigint& p = f.params.p;
    for (std::size_t bi = 0; bi < f.bases.size(); ++bi) {
      for (const Bigint& k : f.scalars) {
        EXPECT_EQ(ec_mul(f.bases[bi], k, p), ec_mul_affine(f.bases[bi], k, p))
            << f.name << " base " << bi << " k " << k.to_hex();
      }
    }
  }
}

TEST(EcMulDiff, ShamirLadderMatchesAffineOracle) {
  for (const Field& f : fields()) {
    const Bigint& p = f.params.p;
    const EcPoint& a = f.bases[1];
    // Mixed bases, then the degenerate pairs: b = a (A + B doubles),
    // b = -a (A + B is infinity) and a base at infinity.
    const std::vector<std::pair<EcPoint, EcPoint>> pairs = {
        {f.bases[0], f.bases[1]}, {f.bases[1], f.bases[2]},
        {f.bases[2], f.bases[3]}, {a, a},
        {a, ec_neg(a, p)},        {f.bases[4], a},
        {a, f.bases[4]},          {f.bases[4], f.bases[4]},
    };
    for (std::size_t pi = 0; pi < pairs.size(); ++pi) {
      const auto& [x, y] = pairs[pi];
      for (std::size_t i = 0; i < f.scalars.size(); ++i) {
        const Bigint& k1 = f.scalars[i];
        const Bigint& k2 = f.scalars[(i * 5 + 3) % f.scalars.size()];
        EXPECT_EQ(ec_mul2(x, k1, y, k2, p), ec_mul2_affine(x, k1, y, k2, p))
            << f.name << " pair " << pi << " k1 " << k1.to_hex() << " k2 "
            << k2.to_hex();
        if (k1.bit_length() > p.bit_length() + 1) continue;
        EXPECT_EQ(ec_mul2(x, k1, y, k1, p), ec_mul2_affine(x, k1, y, k1, p))
            << f.name << " pair " << pi << " equal scalars " << k1.to_hex();
      }
    }
  }
}

// The ladders never invert per step: one fp_inv brings a finite result
// back to affine, and an infinite one needs none.
TEST(EcMulDiff, OneInversionPerFiniteResult) {
  for (const Field& f : fields()) {
    const Bigint& p = f.params.p;
    for (const EcPoint& base : f.bases) {
      for (const Bigint& k : f.scalars) {
        const std::uint64_t before = fp_inv_calls();
        const EcPoint out = ec_mul(base, k, p);
        EXPECT_EQ(fp_inv_calls() - before, out.infinity ? 0u : 1u)
            << f.name << " k " << k.to_hex();
      }
    }
    const std::uint64_t before = fp_inv_calls();
    const EcPoint out =
        ec_mul2(f.bases[0], f.scalars.back(), f.bases[2], f.scalars[10], p);
    ASSERT_FALSE(out.infinity);
    EXPECT_EQ(fp_inv_calls() - before, 1u) << f.name;
  }
}

TEST(EcMulDiff, RejectsBadInputs) {
  const Field& f = fields()[0];
  const Bigint& p = f.params.p;
  const EcPoint& g = f.params.g;
  EXPECT_THROW(ec_mul(g, Bigint(-1), p), std::invalid_argument);
  EXPECT_THROW(ec_mul2(g, Bigint(1), g, Bigint(-1), p),
               std::invalid_argument);
  EcPoint off = g;
  off.y = fp_add(off.y, Bigint(1), p);
  EXPECT_THROW(ec_mul(off, Bigint(3), p), std::invalid_argument);
  EXPECT_THROW(ec_mul2(g, Bigint(3), off, Bigint(5), p),
               std::invalid_argument);
  // Fields the flat-limb context cannot serve: even, and wider than
  // 2048 bits. Infinity is on every curve, so only the field is at fault.
  const EcPoint inf = EcPoint::at_infinity();
  EXPECT_THROW(ec_mul(inf, Bigint(3), p + Bigint(1)), std::invalid_argument);
  EXPECT_THROW(ec_mul(inf, Bigint(3), Bigint::two_pow(2049) - Bigint(1)),
               std::invalid_argument);
  EXPECT_THROW(ec_mul2(inf, Bigint(3), inf, Bigint(1), p + Bigint(1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace ppms
