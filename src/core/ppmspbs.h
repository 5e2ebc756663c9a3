// PPMSpbs — the paper's light-weight mechanism for markets of unitary
// payments (Section V, Algorithm 4), built on the RSA partially blind
// signature instead of e-cash.
//
// The digital coin is the JO's partially blind signature over the SP's
// *real* (account-bound) public key with the session serial s as shared
// info. Blindness hides the payee from the JO (transaction-linkage privacy
// against the JO); at deposit the SP reveals the signature together with
// both real keys, so the MA — deliberately, to thwart money laundering —
// sees who transacted with whom, but never which *job* the transaction
// belonged to (the job was published under a pseudonym and all payments
// are the same unit amount).
//
// Like PPMSdec, every step opens an obs::Span ("ppmspbs.<step>", with
// "ppmspbs.session" as run_round's root and "ppmspbs.redeem.coin" inside
// the scheduled deposit closure) when tracing is enabled.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <set>

#include "blind/partial_blind.h"
#include "market/actors.h"
#include "market/faults.h"
#include "rsa/rsa.h"

namespace ppms {

class ThreadPool;

struct PpmsPbsConfig {
  std::size_t rsa_bits = 1024;
  std::uint64_t min_deposit_delay = 1;
  std::uint64_t max_deposit_delay = 128;
  std::uint64_t initial_balance = 4096;
  /// When > 0, settle() drains the scheduler on an MA-owned worker pool
  /// of this size (same-tick redemptions run in parallel, ticks stay
  /// ordered). Leave 0 for a fully deterministic sequential drain.
  std::size_t settle_threads = 0;
  /// Transport fault plan (market/faults.h). Default-constructed =
  /// lossless, behavior exactly as before. With any fault probability set,
  /// every protocol step travels as an enveloped, idempotent, retrying
  /// call and the ctor requires settle_threads == 0 (retry loops pump the
  /// scheduler re-entrantly, which the parallel drain does not support).
  FaultPlan faults;
  /// Retry discipline for the reliable calls (only used under faults).
  RetryPolicy retry;
};

/// JO-side session for one job. Session objects are thread-confined;
/// distinct sessions may run concurrently against one market, each
/// drawing from its own `rng` (seeded by the market at enrollment).
struct PbsOwnerSession {
  ResidentAccount account;
  RsaKeyPair real_keys;     ///< rpk_JO, bound to the account at setup
  RsaKeyPair session_keys;  ///< rpk_jo, pseudonymous per job
  std::uint64_t job_id = 0;
  SessionLink link;         ///< reliable-transport session identity
  SecureRandom rng{0};      ///< session-confined stream
};

/// SP-side session for one participation.
struct PbsParticipantSession {
  ResidentAccount account;
  RsaKeyPair real_keys;     ///< rpk_SP, bound to the account at setup
  RsaKeyPair session_keys;  ///< rpk_sp, pseudonymous per job
  std::uint64_t job_id = 0;
  Bytes serial;             ///< s, drawn at labor registration
  RsaPublicKey jo_real_pub; ///< learned during labor registration
  PbsBlindingState blinding;
  Bytes coin;               ///< unblinded partially blind signature
  SessionLink link;         ///< reliable-transport session identity
  SecureRandom rng{0};      ///< session-confined stream
};

/// Thread-safety mirrors PpmsDecMarket: the MA-side files (key bindings,
/// pending coins/reports, used serials) are guarded by one mutex, the
/// ledger and scheduler are internally synchronized, and all protocol
/// failures throw MarketError.
class PpmsPbsMarket {
 public:
  PpmsPbsMarket(PpmsPbsConfig config, std::uint64_t seed);
  ~PpmsPbsMarket();

  MarketInfrastructure& infra() { return infra_; }
  const PpmsPbsConfig& config() const { return config_; }
  ReliableLink& link() { return link_; }

  /// Setup: generate the real key pair and bind it to a (possibly
  /// existing) account at the bank.
  PbsOwnerSession enroll_owner(const std::string& identity);
  PbsParticipantSession enroll_participant(const std::string& identity);

  /// Job registration (eqs. 12-13): pseudonymous profile onto the board.
  void register_job(PbsOwnerSession& jo, const std::string& description);

  /// Labor registration (eqs. 14-21): SP sends Enc_rpk_jo(rpk_sp, s); the
  /// JO answers Enc_rpk_sp(rpk_JO, sig). Throws MarketError with
  /// kSignatureRejected if the SP rejects the JO's signature.
  void register_labor(PbsParticipantSession& sp, PbsOwnerSession& jo);

  /// Payment submission (eq. 22): the SP blinds (rpk_SP, s), the JO signs
  /// blindly, and the MA files the pending coin.
  void submit_payment(PbsParticipantSession& sp, PbsOwnerSession& jo);

  /// Data submission; the MA files the report under the SP pseudonym.
  void submit_data(PbsParticipantSession& sp, const Bytes& report);

  /// Payment delivery (eq. 23) + unblind/verify (eqs. 24-25). Returns
  /// false if the unblinded coin fails verification.
  bool deliver_and_open_payment(PbsParticipantSession& sp);

  /// Release the report to the JO after the SP's confirmation. The MA
  /// drops the filed coin then: a later delivery throws kProtocolOrder.
  Bytes confirm_and_release_data(PbsParticipantSession& sp);

  /// Money deposit (eq. 26): reveal (sig, rpk_SP, rpk_JO, s) after a
  /// random delay; the MA verifies, checks serial freshness and moves one
  /// unit from the JO's account to the SP's.
  void deposit(PbsParticipantSession& sp);

  /// Drain the logical scheduler; uses the settlement pool when
  /// config().settle_threads > 0.
  void settle();

  /// Convenience: one full JO+SP round; returns the SP's verdict on the
  /// coin.
  bool run_round(PbsOwnerSession& jo, PbsParticipantSession& sp,
                 const Bytes& report);

  /// Serials already consumed (diagnostics).
  std::size_t used_serials() const;

 private:
  /// Draw a session seed from the master stream.
  std::uint64_t fresh_seed();

  PpmsPbsConfig config_;
  std::mutex rng_mu_;  ///< guards rng_ (master seed stream)
  SecureRandom rng_;
  MarketInfrastructure infra_;
  ReliableLink link_;
  std::unique_ptr<ThreadPool> settle_pool_;
  /// MA-side files, shared by all concurrent sessions.
  mutable std::mutex ma_mu_;
  std::map<Bytes, std::string> account_of_key_;  ///< real pubkey -> AID
  std::map<Bytes, Bytes> pending_coins_;         ///< sp pseudonym -> blind sig
  std::map<Bytes, Bytes> pending_reports_;
  std::set<std::pair<Bytes, Bytes>> used_serials_;  ///< (rpk_JO, s)
};

}  // namespace ppms
