#include "pairing/pipeline.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "bigint/limbs.h"
#include "bigint/modarith.h"
#include "bigint/montgomery.h"
#include "bigint/simd.h"
#include "obs/metrics.h"
#include "pairing/fp.h"
#include "pairing/jacobian.h"

namespace ppms {

namespace {

struct PairingCounters {
  obs::Counter& calls;
  obs::Counter& miller;
  obs::Counter& finalexp;
  obs::Counter& precomp_hits;
};

PairingCounters& counters() {
  static PairingCounters c{obs::counter("crypto.pairing.calls"),
                           obs::counter("crypto.pairing.miller"),
                           obs::counter("crypto.pairing.finalexp"),
                           obs::counter("crypto.pairing.precomp_hits")};
  return c;
}

// Miller-loop steps on the shared Jacobian formulas (pairing/jacobian.h).
// They mirror the affine oracle (pairing/tate.cpp) up to a line factor in
// F_p* that the final exponentiation kills, with every product a
// Montgomery product on flat limbs. Lines come back as coefficients, so
// they can be recorded in a PairingPrecomp table or evaluated against any
// Q. Degenerate events return the unit line.

FpElem load(const std::uint64_t* src, std::size_t n) {
  FpElem e;
  std::copy(src, src + n, e.v.begin());
  return e;
}

Fp2Elem eval_line(const FpCtx& F, const Line& line, const FpElem& xq,
                  const FpElem& yq) {
  Fp2Elem v;
  FpElem t;
  F.mul(t, line.c1, xq);
  F.add(v.a, line.c0, t);
  F.mul(v.b, line.c2, yq);
  return v;
}

Line dbl_step(const FpCtx& F, Jac& V) {
  Line line;
  jac_dbl(F, V, &line);
  return line;
}

Line add_step(const FpCtx& F, Jac& V, const FpElem& px, const FpElem& py) {
  Line line;
  jac_add(F, V, px, py, nullptr, &line);
  return line;
}

// 1/x in F_p²: one instrumented fp_inv of the norm, everything else flat.
// This is the pairing's only field inversion.
Fp2Elem fp2_inv_mont(const FpCtx& F, const Fp2Elem& x) {
  FpElem aa, bb, nrm;
  F.sqr(aa, x.a);
  F.sqr(bb, x.b);
  F.add(nrm, aa, bb);
  const Bigint norm = F.from_mont(nrm);
  if (norm.is_zero()) throw std::domain_error("pairing: zero element");
  const FpElem ninv = F.to_mont(fp_inv(norm, F.modulus()));
  Fp2Elem r;
  F.mul(r.a, x.a, ninv);
  FpElem nb;
  F.neg(nb, x.b);
  F.mul(r.b, nb, ninv);
  return r;
}

// f^{(p²-1)/r} = (conj(f)·f^{-1})^h — Frobenius is conjugation in F_p[i].
Fp2Elem final_exp(const FpCtx& F, const Bigint& h, const Fp2Elem& f) {
  Fp2Elem conj;
  fp2_conj(F, conj, f);
  const Fp2Elem inv = fp2_inv_mont(F, f);
  Fp2Elem base;
  fp2_mul(F, base, conj, inv);
  Fp2Elem out;
  fp2_pow(F, out, base, h);
  return out;
}

// Lane-batch collector for independent F_p² products: queues fp2_mul /
// fp2_sqr / raw F_p mul ops, then flush() runs the linear pre-adds, pushes
// every Montgomery product through FpCtx::mul_batch in one call (SIMD
// lane-filled when the dispatch level allows), and applies the linear
// post-ops. The mul/sqr shapes mirror fp2_mul/fp2_sqr exactly, and the
// Montgomery products of reduced operands are canonical, so batched
// results are bit-identical to running the queued ops sequentially.
//
// Products land in a chunk-local scratch and an op's destination is only
// written after its own reads, so a destination may alias that op's own
// inputs (acc² in place is fine). A destination must NOT alias another
// queued op's operand, and two ops must not share a destination within
// one flush — ops execute chunk-by-chunk, not as one simultaneous step.
// Queued operands must stay live until flush() returns.
class Fp2Batch {
 public:
  explicit Fp2Batch(const FpCtx& F) : F_(F) {}

  void reserve(std::size_t muls, std::size_t sqrs, std::size_t fmuls) {
    mul_.reserve(muls);
    sqr_.reserve(sqrs);
    fp_.reserve(fmuls);
  }

  void mul(Fp2Elem& r, const Fp2Elem& x, const Fp2Elem& y) {
    mul_.push_back(MulOp{&r, &x, &y});
  }
  void sqr(Fp2Elem& r, const Fp2Elem& x) { sqr_.push_back(SqrOp{&r, &x}); }
  /// Raw F_p product r = a·b (Montgomery). r must be distinct scratch.
  void fmul(FpElem& r, const FpElem& a, const FpElem& b) {
    fp_.push_back(FpCtx::MulJob{&r, &a, &b});
  }

  // One chunk at a time: pre-adds into a compact stack scratch (stride =
  // the context's actual limb count, not kMaxFpLimbs — a full-width MulScr
  // would stream 1.25 KB per product through the cache at pairing widths),
  // one lane-batched kernel call on the chunk, then the post-ops, while
  // the scratch is still L1-resident. Chunks are as-if simultaneous too:
  // every queued destination is written only in its own chunk's post
  // phase, and flush order across chunks preserves queue order for the
  // scalar fallback.
  void flush() {
    const std::size_t n = F_.limbs();
    // Scratch layout per mul op: [sx sy ac bd cross]; per sqr: [s d t2 ra].
    // chunk_ops keeps the used prefix (5·n limbs per op) within this 32 KB
    // block at every width.
    limb::Limb scr[kChunkOps * limb::kMaxFpLimbs];
    simd::MontJob raw[3 * kChunkOps];
    for (std::size_t base = 0; base < mul_.size(); base += chunk_ops(n)) {
      const std::size_t c = std::min(chunk_ops(n), mul_.size() - base);
      std::size_t jn = 0;
      for (std::size_t i = 0; i < c; ++i) {
        const MulOp& op = mul_[base + i];
        limb::Limb* s = scr + i * 5 * n;
        F_.add_raw(s, op.x->a.v.data(), op.x->b.v.data());      // sx
        F_.add_raw(s + n, op.y->a.v.data(), op.y->b.v.data());  // sy
        raw[jn++] = simd::MontJob{s + 2 * n, op.x->a.v.data(),
                                  op.y->a.v.data()};            // ac
        raw[jn++] = simd::MontJob{s + 3 * n, op.x->b.v.data(),
                                  op.y->b.v.data()};            // bd
        raw[jn++] = simd::MontJob{s + 4 * n, s, s + n};         // cross
      }
      F_.mul_batch_raw(raw, jn);
      for (std::size_t i = 0; i < c; ++i) {
        const MulOp& op = mul_[base + i];
        limb::Limb* s = scr + i * 5 * n;
        F_.sub_raw(op.r->a.v.data(), s + 2 * n, s + 3 * n);
        F_.sub_raw(s + 4 * n, s + 4 * n, s + 2 * n);
        F_.sub_raw(op.r->b.v.data(), s + 4 * n, s + 3 * n);
      }
    }
    for (std::size_t base = 0; base < sqr_.size(); base += chunk_ops(n)) {
      const std::size_t c = std::min(chunk_ops(n), sqr_.size() - base);
      std::size_t jn = 0;
      for (std::size_t i = 0; i < c; ++i) {
        const SqrOp& op = sqr_[base + i];
        limb::Limb* s = scr + i * 4 * n;
        F_.add_raw(s, op.x->a.v.data(), op.x->b.v.data());          // s
        F_.sub_raw(s + n, op.x->a.v.data(), op.x->b.v.data());      // d
        raw[jn++] = simd::MontJob{s + 2 * n, op.x->a.v.data(),
                                  op.x->b.v.data()};                // t2
        raw[jn++] = simd::MontJob{s + 3 * n, s, s + n};             // ra
      }
      F_.mul_batch_raw(raw, jn);
      for (std::size_t i = 0; i < c; ++i) {
        const SqrOp& op = sqr_[base + i];
        const limb::Limb* s = scr + i * 4 * n;
        std::copy(s + 3 * n, s + 4 * n, op.r->a.v.begin());
        F_.add_raw(op.r->b.v.data(), s + 2 * n, s + 2 * n);
      }
    }
    for (std::size_t base = 0; base < fp_.size(); base += 3 * kChunkOps) {
      const std::size_t c = std::min(3 * kChunkOps, fp_.size() - base);
      for (std::size_t i = 0; i < c; ++i) {
        const FpCtx::MulJob& job = fp_[base + i];
        raw[i] = simd::MontJob{job.r->v.data(), job.a->v.data(),
                               job.b->v.data()};
      }
      F_.mul_batch_raw(raw, c);
    }
    mul_.clear();
    sqr_.clear();
    fp_.clear();
  }

 private:
  struct MulOp {
    Fp2Elem* r;
    const Fp2Elem* x;
    const Fp2Elem* y;
  };
  struct SqrOp {
    Fp2Elem* r;
    const Fp2Elem* x;
  };
  // Chunk budget: 128 ops at pairing widths, scaled down so the scratch
  // block (5·n limbs per op) stays within the fixed stack buffer for wide
  // moduli.
  static constexpr std::size_t kChunkOps = 128;
  static std::size_t chunk_ops(std::size_t n) {
    return std::max<std::size_t>(
        1, std::min(kChunkOps, kChunkOps * limb::kMaxFpLimbs / (5 * n)));
  }
  const FpCtx& F_;
  std::vector<MulOp> mul_;
  std::vector<SqrOp> sqr_;
  std::vector<FpCtx::MulJob> fp_;
};

}  // namespace

PairingEngine::PairingEngine(TypeAParams params)
    : params_(std::move(params)) {
  if (!typea_field_supported(params_.p)) {
    throw std::invalid_argument(
        "PairingEngine: p must be = 3 (mod 4) and at most 2048 bits");
  }
  mont_ = montgomery_ctx(params_.p);
}

PairingPrecomp PairingEngine::precompute(const EcPoint& P) const {
  if (!ec_on_curve(P, params_.p)) {
    throw std::invalid_argument("PairingEngine: precomp point not on curve");
  }
  PairingPrecomp pre;
  pre.point_ = P;
  pre.built_ = true;
  if (P.infinity) return pre;  // every pairing against it is 1

  const FpCtx& F = mont_->fp();
  const std::size_t n = F.limbs();
  pre.limbs_ = n;
  const FpElem px = F.to_mont(P.x);
  const FpElem py = F.to_mont(P.y);
  Jac V{px, py, F.one()};
  const auto record = [&](const Line& line, bool add) {
    for (const FpElem* c : {&line.c0, &line.c1, &line.c2}) {
      pre.coeffs_.insert(pre.coeffs_.end(), c->v.begin(),
                         c->v.begin() + static_cast<std::ptrdiff_t>(n));
    }
    pre.adds_.push_back(add);
  };
  const Bigint& r = params_.r;
  for (std::size_t i = r.bit_length() - 1; i-- > 0;) {
    record(dbl_step(F, V), false);
    if (r.bit(i)) record(add_step(F, V, px, py), true);
  }
  return pre;
}

Fp2 PairingEngine::pair(const EcPoint& P, const EcPoint& Q) const {
  PairingCounters& ctr = counters();
  ctr.calls.add();
  static obs::Histogram& obs_lat = obs::histogram("crypto.pairing");
  obs::ScopedTimer obs_timer(obs_lat);
  const Bigint& p = params_.p;
  if (!ec_on_curve(P, p) || !ec_on_curve(Q, p)) {
    throw std::invalid_argument("pairing: point not on curve");
  }
  if (P.infinity || Q.infinity) return fp2_one();
  ctr.miller.add();
  ctr.finalexp.add();

  const FpCtx& F = mont_->fp();
  const FpElem px = F.to_mont(P.x);
  const FpElem py = F.to_mont(P.y);
  const FpElem xq = F.to_mont(Q.x);
  const FpElem yq = F.to_mont(Q.y);
  Fp2Elem f{F.one(), F.zero()};
  Jac V{px, py, F.one()};
  const Bigint& r = params_.r;
  for (std::size_t i = r.bit_length() - 1; i-- > 0;) {
    fp2_sqr(F, f, f);
    Fp2Elem v = eval_line(F, dbl_step(F, V), xq, yq);
    fp2_mul(F, f, f, v);
    if (r.bit(i)) {
      v = eval_line(F, add_step(F, V, px, py), xq, yq);
      fp2_mul(F, f, f, v);
    }
  }
  const Fp2Elem e = final_exp(F, params_.h, f);
  return Fp2{F.from_mont(e.a), F.from_mont(e.b)};
}

Fp2 PairingEngine::pair(const PairingPrecomp& pre, const EcPoint& Q) const {
  PairingCounters& ctr = counters();
  ctr.calls.add();
  static obs::Histogram& obs_lat = obs::histogram("crypto.pairing");
  obs::ScopedTimer obs_timer(obs_lat);
  check_table(pre);
  if (!ec_on_curve(Q, params_.p)) {
    throw std::invalid_argument("pairing: point not on curve");
  }
  if (pre.point().infinity || Q.infinity) return fp2_one();
  ctr.miller.add();
  ctr.finalexp.add();
  ctr.precomp_hits.add();

  const FpCtx& F = mont_->fp();
  const std::size_t n = F.limbs();
  const FpElem xq = F.to_mont(Q.x);
  const FpElem yq = F.to_mont(Q.y);
  Fp2Elem f{F.one(), F.zero()};
  const std::uint64_t* c = pre.coeffs_.data();
  for (const bool add : pre.adds_) {
    if (!add) fp2_sqr(F, f, f);
    const Line line{load(c, n), load(c + n, n), load(c + 2 * n, n)};
    c += 3 * n;
    const Fp2Elem v = eval_line(F, line, xq, yq);
    fp2_mul(F, f, f, v);
  }
  const Fp2Elem e = final_exp(F, params_.h, f);
  return Fp2{F.from_mont(e.a), F.from_mont(e.b)};
}

void PairingEngine::check_table(const PairingPrecomp& pre) const {
  if (pre.empty()) {
    throw std::invalid_argument("pairing: precomp table not built");
  }
  if (!pre.point().infinity && pre.limbs_ != mont_->fp().limbs()) {
    throw std::invalid_argument("pairing: precomp table from another field");
  }
}

Fp2 PairingEngine::pair_product(const std::vector<PairingTerm>& terms) const {
  PairingCounters& ctr = counters();
  static obs::Histogram& obs_lat = obs::histogram("crypto.pairing.product");
  obs::ScopedTimer obs_timer(obs_lat);
  const Bigint& p = params_.p;
  const FpCtx& F = mont_->fp();
  const std::size_t n = F.limbs();
  // In-flight state of one non-trivial factor: its line source (table
  // cursor or live Jacobian loop), the Montgomery form of φ(Q)'s
  // coordinates, and which accumulator it feeds.
  struct Active {
    const PairingPrecomp* pre = nullptr;
    std::size_t cursor = 0;  // steps replayed; coeffs at cursor·3n
    Jac V{};
    FpElem px, py, xq, yq;
    bool conj = false;
    std::size_t group = 0;
  };
  // Accumulator 0 collects unit-exponent factors; each distinct non-unit
  // exponent e gets its own accumulator, raised to e after the loop.
  // Factors sharing an exponent (the batch-verify shape, where one δ_j
  // covers a whole verification equation) share squarings too.
  std::vector<Active> active;
  std::vector<Fp2Elem> accs{Fp2Elem{F.one(), F.zero()}};
  std::vector<Bigint> group_exps;
  std::map<Bytes, std::size_t> exp_groups;

  for (const PairingTerm& term : terms) {
    ctr.calls.add();
    if (term.pre != nullptr) check_table(*term.pre);
    const EcPoint& P = term.pre != nullptr ? term.pre->point() : term.P;
    if (term.pre == nullptr && !ec_on_curve(P, p)) {
      throw std::invalid_argument("pair_product: point not on curve");
    }
    if (!ec_on_curve(term.Q, p)) {
      throw std::invalid_argument("pair_product: point not on curve");
    }
    const Bigint e = term.exp.mod(params_.r);
    if (e.is_zero() || P.infinity || term.Q.infinity) continue;  // factor 1

    Active a;
    a.pre = term.pre;
    a.conj = term.invert;
    a.xq = F.to_mont(term.Q.x);
    a.yq = F.to_mont(term.Q.y);
    if (term.pre == nullptr) {
      a.px = F.to_mont(P.x);
      a.py = F.to_mont(P.y);
      a.V = Jac{a.px, a.py, F.one()};
    } else {
      ctr.precomp_hits.add();
    }
    if (e.is_one()) {
      a.group = 0;
    } else {
      const auto [it, fresh] =
          exp_groups.try_emplace(e.to_bytes_be(), accs.size());
      if (fresh) {
        accs.push_back(Fp2Elem{F.one(), F.zero()});
        group_exps.push_back(e);
      }
      a.group = it->second;
    }
    ctr.miller.add();
    active.push_back(a);
  }

  if (active.empty()) return fp2_one();

  // Interleaved Miller loops: one pass over the bits of r drives every
  // factor; accumulators square once per bit regardless of how many
  // factors feed them. An inverted factor conjugates its line values —
  // conjugation is a field automorphism, so the accumulated value is the
  // conjugate of that factor's Miller value, and FE(conj(f)) = FE(f)^{-1}.
  //
  // The whole loop runs through one Fp2Batch so every independent
  // Montgomery product in a phase fills SIMD lanes: the |accs| shared
  // squarings and the 2·|active| line evaluations of a bit go out as one
  // batch, and the per-group absorb products fold as balanced trees
  // batched across groups level by level. Products of reduced operands
  // are canonical, so reassociating the per-group factor chains changes
  // nothing bit-wise (see Fp2Batch).
  Fp2Batch batch(F);
  batch.reserve(active.size() + accs.size(), accs.size(),
                2 * active.size());
  std::vector<Line> lines(active.size());
  std::vector<FpElem> tline(active.size());
  std::vector<Fp2Elem> vline(active.size());
  std::vector<Fp2Elem> foldbuf;
  foldbuf.reserve(active.size() + accs.size());
  std::vector<std::vector<const Fp2Elem*>> gitems(accs.size());

  const auto next_recorded = [&](Active& a) {
    const std::uint64_t* c = a.pre->coeffs_.data() + a.cursor * 3 * n;
    ++a.cursor;
    return Line{load(c, n), load(c + n, n), load(c + 2 * n, n)};
  };
  // Evaluate every active's current line at φ(Q) in one flush (plus any
  // fp2 ops already queued by the caller), leaving v_i in vline[i].
  const auto eval_lines = [&]() {
    for (std::size_t i = 0; i < active.size(); ++i) {
      batch.fmul(tline[i], lines[i].c1, active[i].xq);
      batch.fmul(vline[i].b, lines[i].c2, active[i].yq);
    }
    batch.flush();
    for (std::size_t i = 0; i < active.size(); ++i) {
      F.add(vline[i].a, lines[i].c0, tline[i]);
      if (active[i].conj) F.neg(vline[i].b, vline[i].b);
    }
  };
  // accs[g] *= Π v_i over the group's actives, as per-group balanced
  // trees with each tree level batched across all groups.
  const auto fold_groups = [&]() {
    foldbuf.clear();
    for (std::size_t g = 0; g < gitems.size(); ++g) {
      gitems[g].clear();
      gitems[g].push_back(&accs[g]);
    }
    for (std::size_t i = 0; i < active.size(); ++i) {
      gitems[active[i].group].push_back(&vline[i]);
    }
    bool more = true;
    while (more) {
      more = false;
      for (auto& items : gitems) {
        if (items.size() < 2) continue;
        std::size_t out = 0;
        std::size_t i = 0;
        for (; i + 1 < items.size(); i += 2) {
          Fp2Elem& dst = foldbuf.emplace_back();
          batch.mul(dst, *items[i], *items[i + 1]);
          items[out++] = &dst;
        }
        if (i < items.size()) items[out++] = items[i];
        items.resize(out);
        if (out > 1) more = true;
      }
      batch.flush();
    }
    for (std::size_t g = 0; g < gitems.size(); ++g) {
      if (gitems[g][0] != &accs[g]) accs[g] = *gitems[g][0];
    }
  };

  const Bigint& r = params_.r;
  for (std::size_t i = r.bit_length() - 1; i-- > 0;) {
    for (Fp2Elem& acc : accs) batch.sqr(acc, acc);
    for (std::size_t j = 0; j < active.size(); ++j) {
      Active& a = active[j];
      lines[j] = a.pre != nullptr ? next_recorded(a) : dbl_step(F, a.V);
    }
    eval_lines();  // flushes the squarings alongside the line products
    fold_groups();
    if (r.bit(i)) {
      for (std::size_t j = 0; j < active.size(); ++j) {
        Active& a = active[j];
        lines[j] = a.pre != nullptr ? next_recorded(a)
                                    : add_step(F, a.V, a.px, a.py);
      }
      eval_lines();
      fold_groups();
    }
  }

  // Group-exponent ladders, lockstep across groups: starting every
  // ladder at one and walking down from the longest exponent is exactly
  // fp2_pow's schedule (leading squarings of one are exact), so each
  // pw[g] is bit-identical to a sequential fp2_pow.
  Fp2Elem total = accs[0];
  if (!group_exps.empty()) {
    std::size_t maxb = 0;
    for (const Bigint& e : group_exps) {
      maxb = std::max(maxb, e.bit_length());
    }
    std::vector<Fp2Elem> pw(group_exps.size(), Fp2Elem{F.one(), F.zero()});
    for (std::size_t i = maxb; i-- > 0;) {
      for (Fp2Elem& w : pw) batch.sqr(w, w);
      batch.flush();
      for (std::size_t g = 0; g < pw.size(); ++g) {
        if (group_exps[g].bit(i)) batch.mul(pw[g], pw[g], accs[g + 1]);
      }
      batch.flush();
    }
    // total = accs[0]·Π pw[g], one balanced batched tree.
    std::vector<const Fp2Elem*> items;
    items.reserve(pw.size() + 1);
    items.push_back(&total);
    for (const Fp2Elem& w : pw) items.push_back(&w);
    foldbuf.clear();
    while (items.size() > 1) {
      std::size_t out = 0;
      std::size_t i = 0;
      for (; i + 1 < items.size(); i += 2) {
        Fp2Elem& dst = foldbuf.emplace_back();
        batch.mul(dst, *items[i], *items[i + 1]);
        items[out++] = &dst;
      }
      if (i < items.size()) items[out++] = items[i];
      items.resize(out);
      batch.flush();
    }
    if (items[0] != &total) total = *items[0];
  }
  ctr.finalexp.add();
  const Fp2Elem e = final_exp(F, params_.h, total);
  return Fp2{F.from_mont(e.a), F.from_mont(e.b)};
}

Fp2 PairingEngine::gt_pow(const Fp2& x, const Bigint& e) const {
  if (e.is_negative()) {
    throw std::invalid_argument("PairingEngine::gt_pow: negative exponent");
  }
  const FpCtx& F = mont_->fp();
  const Fp2Elem xm{F.to_mont(x.a), F.to_mont(x.b)};
  Fp2Elem v;
  fp2_pow(F, v, xm, e);
  return Fp2{F.from_mont(v.a), F.from_mont(v.b)};
}

Fp2 PairingEngine::gt_pow2(const Fp2& x1, const Bigint& e1, const Fp2& x2,
                           const Bigint& e2) const {
  if (e1.is_negative() || e2.is_negative()) {
    throw std::invalid_argument("PairingEngine::gt_pow2: negative exponent");
  }
  const FpCtx& F = mont_->fp();
  const Fp2Elem a{F.to_mont(x1.a), F.to_mont(x1.b)};
  const Fp2Elem b{F.to_mont(x2.a), F.to_mont(x2.b)};
  Fp2Elem ab;
  fp2_mul(F, ab, a, b);
  Fp2Elem acc{F.one(), F.zero()};
  const std::size_t bits = std::max(e1.bit_length(), e2.bit_length());
  for (std::size_t i = bits; i-- > 0;) {
    fp2_sqr(F, acc, acc);
    const bool ba = e1.bit(i);
    const bool bb = e2.bit(i);
    if (ba && bb) {
      fp2_mul(F, acc, acc, ab);
    } else if (ba) {
      fp2_mul(F, acc, acc, a);
    } else if (bb) {
      fp2_mul(F, acc, acc, b);
    }
  }
  return Fp2{F.from_mont(acc.a), F.from_mont(acc.b)};
}

}  // namespace ppms
