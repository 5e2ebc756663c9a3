// Per-market pairing session state: the GtGroup (and its pairing engine /
// Montgomery context) plus the fixed-argument Miller tables for the points
// every spend-side pairing is anchored on — the curve generator g and the
// bank's CL key points X, Y.
//
// make_spend / verify_spend used to rebuild a fresh GtGroup per call;
// DecParams::session() now hands out one DecSession per market so that
// setup is paid once, and the precomp tables turn each certificate check
// into table replays instead of full Miller loops.
#pragma once

#include <map>
#include <memory>
#include <mutex>

#include "clsig/clsig.h"
#include "zkp/group.h"

namespace ppms {

/// Fixed-argument tables for one CL public key.
struct ClPkPrecomp {
  PairingPrecomp X, Y;
};

class DecSession {
 public:
  explicit DecSession(TypeAParams pairing);

  const GtGroup& gt() const { return gt_; }

  /// The group's pairing engine.
  const PairingEngine& engine() const { return gt_.engine(); }

  /// Miller table for the curve generator g.
  const PairingPrecomp& pre_g() const { return pre_g_; }

  /// Miller tables for a bank public key, built on first use and cached
  /// by key bytes (a market sees one bank key, adversarial tests a few).
  /// Returns null if either key point is off-curve.
  std::shared_ptr<const ClPkPrecomp> pk_tables(const ClPublicKey& pk) const;

 private:
  GtGroup gt_;
  PairingPrecomp pre_g_;
  mutable std::mutex mu_;
  mutable std::map<Bytes, std::shared_ptr<const ClPkPrecomp>> pk_cache_;
};

}  // namespace ppms
