#include "bigint/montgomery.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "bigint/simd.h"

namespace ppms {

MontgomeryCtx::MontgomeryCtx(const Bigint& m) : fp_(m) {}

Bigint MontgomeryCtx::pow(const Bigint& base, const Bigint& exp) const {
  return fp_.from_mont(fp_.pow(fp_.to_mont(base), exp));
}

FixedBasePow::FixedBasePow(std::shared_ptr<const MontgomeryCtx> ctx,
                           const Bigint& base, std::size_t max_exp_bits)
    : ctx_(std::move(ctx)), base_(base), digits_((max_exp_bits + 3) / 4) {
  if (!ctx_) {
    throw std::invalid_argument("FixedBasePow: null context");
  }
  const FpCtx& F = ctx_->fp();
  const std::size_t n = F.limbs();
  table_.resize(digits_ * 15 * n);
  // cur = base^(16^i) in Montgomery form, advanced one digit per row via
  // base^(15·16^i) · base^(16^i) — one product instead of four squarings.
  FpElem cur = F.to_mont(base);
  for (std::size_t i = 0; i < digits_; ++i) {
    limb::Limb* row = table_.data() + i * 15 * n;
    FpElem e = cur;
    for (std::size_t d = 0; d < 15; ++d) {
      if (d > 0) F.mul(e, e, cur);
      std::copy(e.v.begin(), e.v.begin() + static_cast<std::ptrdiff_t>(n),
                row + d * n);
    }
    F.mul(cur, e, cur);
  }
}

Bigint FixedBasePow::pow(const Bigint& exp) const {
  if (exp.is_negative()) {
    throw std::invalid_argument("FixedBasePow::pow: negative exponent");
  }
  const std::size_t bits = exp.bit_length();
  if (bits > 4 * digits_) return ctx_->pow(base_, exp);
  // Gather the nonzero-digit entries and fold them pairwise, each tree
  // level one lane-batched mul_batch_raw call. Montgomery products of
  // reduced operands are canonical, so the balanced tree returns the same
  // limbs as a sequential accumulator chain.
  const FpCtx& F = ctx_->fp();
  const std::size_t n = F.limbs();
  std::vector<const limb::Limb*> items;
  items.reserve((bits + 3) / 4);
  for (std::size_t i = 0; i * 4 < bits; ++i) {
    const std::uint32_t d = (exp.bit(4 * i) ? 1u : 0u) |
                            (exp.bit(4 * i + 1) ? 2u : 0u) |
                            (exp.bit(4 * i + 2) ? 4u : 0u) |
                            (exp.bit(4 * i + 3) ? 8u : 0u);
    if (d) items.push_back(table_.data() + (15 * i + d - 1) * n);
  }
  if (items.empty()) return F.from_mont(F.one());
  std::vector<limb::Limb> buf(items.size() * n);  // stable fold scratch
  std::vector<simd::MontJob> jobs;
  std::size_t used = 0;
  while (items.size() > 1) {
    jobs.clear();
    std::size_t out = 0;
    std::size_t i = 0;
    for (; i + 1 < items.size(); i += 2) {
      limb::Limb* dst = buf.data() + n * used++;
      jobs.push_back(simd::MontJob{dst, items[i], items[i + 1]});
      items[out++] = dst;
    }
    if (i < items.size()) items[out++] = items[i];
    items.resize(out);
    F.mul_batch_raw(jobs.data(), jobs.size());
  }
  FpElem r;
  std::copy(items[0], items[0] + n, r.v.begin());
  return F.from_mont(r);
}

}  // namespace ppms
