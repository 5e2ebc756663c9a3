#include "pairing/typea.h"

#include <stdexcept>

#include "bigint/limbs.h"
#include "bigint/prime.h"
#include "util/serial.h"

namespace ppms {

Bytes TypeAParams::serialize() const {
  Writer w;
  w.put_bytes(p.to_bytes_be());
  w.put_bytes(r.to_bytes_be());
  w.put_bytes(h.to_bytes_be());
  w.put_bytes(ec_serialize(g, p));
  return w.take();
}

bool typea_field_supported(const Bigint& p) {
  return FpCtx::supports(p) && (p % Bigint(4)).to_u64() == 3;
}

TypeAParams TypeAParams::deserialize(const Bytes& data) {
  Reader rd(data);
  TypeAParams params;
  params.p = Bigint::from_bytes_be(rd.get_bytes());
  if (!typea_field_supported(params.p)) {
    throw std::invalid_argument(
        "TypeAParams: p must be = 3 (mod 4) and at most 2048 bits");
  }
  params.r = Bigint::from_bytes_be(rd.get_bytes());
  params.h = Bigint::from_bytes_be(rd.get_bytes());
  params.g = ec_deserialize(rd.get_bytes(), params.p);
  if (!rd.exhausted()) {
    throw std::invalid_argument("TypeAParams: trailing bytes");
  }
  if (params.r * params.h != params.p + Bigint(1)) {
    throw std::invalid_argument("TypeAParams: r*h != p+1");
  }
  return params;
}

namespace {

// Find a generator of the order-r subgroup given valid (p, r, h).
EcPoint find_generator(SecureRandom& rng, const Bigint& p, const Bigint& r,
                       const Bigint& h) {
  for (;;) {
    const EcPoint pt = ec_random_point(rng, p);
    const EcPoint g = ec_mul(pt, h, p);
    if (g.infinity) continue;
    // Order divides prime r and is not 1, hence exactly r.
    if (!ec_mul(g, r, p).infinity) {
      throw std::logic_error("typea: curve order mismatch");
    }
    return g;
  }
}

}  // namespace

TypeAParams typea_generate_for_order(SecureRandom& rng, const Bigint& r,
                                     std::size_t pbits) {
  if (r < Bigint(5) || r.is_even()) {
    throw std::invalid_argument("typea: r must be an odd prime >= 5");
  }
  if (pbits < r.bit_length() + 3) {
    throw std::invalid_argument("typea: pbits too small for r");
  }
  const std::size_t hbits = pbits - r.bit_length();
  for (;;) {
    // h = 4m keeps p = r*h - 1 ≡ 3 (mod 4) since r is odd.
    const Bigint m = Bigint::random_bits(rng, hbits - 2);
    const Bigint h = m * Bigint(4);
    const Bigint p = r * h - Bigint(1);
    if (p.bit_length() != pbits) continue;
    if (!is_probable_prime(p, rng)) continue;
    TypeAParams params;
    params.p = p;
    params.r = r;
    params.h = h;
    params.g = find_generator(rng, p, r, h);
    return params;
  }
}

TypeAParams typea_generate(SecureRandom& rng, std::size_t rbits,
                           std::size_t pbits) {
  const Bigint r = random_prime(rng, rbits);
  return typea_generate_for_order(rng, r, pbits);
}

EcPoint typea_random_subgroup_point(const TypeAParams& params,
                                    SecureRandom& rng) {
  for (;;) {
    const EcPoint pt = ec_random_point(rng, params.p);
    const EcPoint out = ec_mul(pt, params.h, params.p);
    if (!out.infinity) return out;
  }
}

}  // namespace ppms
