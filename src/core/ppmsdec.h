// PPMSdec — the paper's privacy-preserving market mechanism for arbitrary
// payments (Section IV, Algorithm 1), implemented end-to-end over the
// divisible-e-cash substrate.
//
// One PpmsDecMarket instance is the market administrator (MA): it owns the
// bulletin board, the virtual bank (fiat ledger + DEC bank), the traffic
// meter and the logical clock. JobOwnerSession / ParticipantSession hold
// the per-resident key material and protocol state. Every protocol step
// moves a genuinely serialized message through the traffic meter, so Table
// II numbers fall out of real byte counts, and each party's computation
// runs under its ScopedRole so Table I counts attribute correctly. When
// tracing is enabled (obs/trace.h), every step opens an obs::Span named
// "ppmsdec.<step>" — run_round wraps them in a "ppmsdec.session" root, so
// one round exports as a single trace tree (worked example in
// OBSERVABILITY.md).
//
// Privacy-relevant structure (paper Section IV-B):
//  * job registration and labor registration use throwaway session RSA
//    keys (rpk_jo, rpk_sp) — never the account identity;
//  * the withdrawal is anonymous (commitment + PoK, blind CL issuance);
//  * the payment is cash-broken and padded with fake coins E(0) so the MA
//    cannot run the denomination attack on message sizes;
//  * deposits are scheduled at random logical-time delays; same-tick coins
//    of one SP settle through the bank's batch deposit path.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "core/cash_break.h"
#include "dec/bank.h"
#include "dec/wallet.h"
#include "market/actors.h"
#include "market/faults.h"
#include "rsa/rsa.h"

namespace ppms {

class ThreadPool;

struct PpmsDecConfig {
  std::size_t rsa_bits = 1024;
  CashBreakStrategy strategy = CashBreakStrategy::kEpcba;
  std::uint64_t min_deposit_delay = 1;
  std::uint64_t max_deposit_delay = 128;
  std::uint64_t initial_balance = 1 << 12;  ///< opening balance per resident
  /// Use root-hiding spends (dec/root_hiding.h) for every coin below the
  /// root, so the bank cannot cluster a payment's coins by their shared
  /// root serial. Costs ~kRootHidingRounds extra exponentiations per coin.
  bool hide_roots = false;
  /// When > 0, settle() drains the scheduler on an MA-owned worker pool of
  /// this size: events of one logical tick run in parallel, ticks stay
  /// ordered, so ledger stamps match the single-threaded drain. Leave 0
  /// (fully sequential, deterministic tie-break) for the attack analyses.
  std::size_t settle_threads = 0;
  /// Transport fault plan (market/faults.h). Default-constructed = lossless
  /// and the market behaves exactly as before. With any fault probability
  /// set, every protocol step travels as an enveloped, idempotent,
  /// retrying call; the ctor then requires settle_threads == 0 because the
  /// retry loops pump the scheduler re-entrantly from inside events, which
  /// the parallel drain does not support.
  FaultPlan faults;
  /// Retry discipline for the reliable calls (only used under faults).
  RetryPolicy retry;
};

/// JO-side session state for one job.
struct JobOwnerSession {
  ResidentAccount account;
  RsaKeyPair session_keys;  ///< rpk_jo / rsk_jo, fresh per job
  std::uint64_t job_id = 0;
  std::uint64_t payment = 0;  ///< w
  std::unique_ptr<DecWallet> wallet;
  std::vector<Bytes> received_reports;
  SessionLink link;     ///< reliable-transport session identity
  SecureRandom rng{0};  ///< session-confined stream, seeded by the market
};

/// SP-side session state for one job participation.
struct ParticipantSession {
  ResidentAccount account;
  RsaKeyPair session_keys;  ///< rpk_sp / rsk_sp, fresh per job
  std::uint64_t job_id = 0;
  Bytes payment_ciphertext;           ///< as delivered by the MA
  std::vector<SpendBundle> coins;     ///< verified good coins
  std::vector<RootHidingSpend> hiding_coins;  ///< verified hiding coins
  std::uint64_t verified_value = 0;
  std::size_t fake_coins_seen = 0;
  SessionLink link;     ///< reliable-transport session identity
  SecureRandom rng{0};  ///< session-confined stream, seeded by the market
};

/// Threading: a session object (JobOwnerSession / ParticipantSession) is
/// confined to one thread, but *different* sessions may drive their
/// protocol steps — including whole run_rounds — concurrently against one
/// market. Each session draws from its own SecureRandom (seeded from the
/// market's master stream at registration); the MA-side state concurrent
/// sessions share — the DEC bank, the fiat ledger, the bulletin board, the
/// traffic meter, the scheduler and the pending payment/report files — is
/// internally synchronized. All protocol failures throw MarketError.
class PpmsDecMarket {
 public:
  PpmsDecMarket(DecParams params, PpmsDecConfig config, std::uint64_t seed);
  ~PpmsDecMarket();

  const DecParams& params() const { return params_; }
  const PpmsDecConfig& config() const { return config_; }
  MarketInfrastructure& infra() { return infra_; }
  DecBank& dec_bank() { return dec_bank_; }
  ReliableLink& link() { return link_; }

  /// Steps 1-2: JO sends the job profile (jd, w, rpk_jo) to the MA, which
  /// publishes it on the bulletin board. Throws MarketError with
  /// kPaymentOutOfRange unless 1 <= payment <= 2^L.
  JobOwnerSession register_job(const std::string& identity,
                               const std::string& description,
                               std::uint64_t payment);

  /// Step 3: anonymous withdrawal of E(2^L). Debits the JO's account and
  /// installs the certified wallet. Throws MarketError on a rejected proof
  /// (kWithdrawRejected) or insufficient funds (kInsufficientFunds).
  void withdraw(JobOwnerSession& jo);

  /// Step 5: SP signs up with a fresh pseudonymous key; the MA forwards
  /// rpk_sp to the JO (returned session remembers the job).
  ParticipantSession register_labor(const std::string& identity,
                                    const JobOwnerSession& jo);

  /// Steps 4+6: JO breaks the payment per the configured strategy, signs
  /// the SP's pseudonym, and submits the designated-receiver ciphertext.
  /// Throws MarketError: kProtocolOrder before withdraw, kWalletExhausted
  /// when the wallet cannot cover w.
  void submit_payment(JobOwnerSession& jo, const ParticipantSession& sp);

  /// Step 7a: SP submits its sensing data; the MA files it.
  void submit_data(ParticipantSession& sp, const Bytes& report);

  /// Step 7b: the MA forwards the encrypted payment once the data report
  /// is on file. Throws MarketError with kProtocolOrder if data or payment
  /// are missing.
  void deliver_payment(ParticipantSession& sp);

  struct PaymentCheck {
    bool signature_ok = false;
    std::uint64_t value = 0;        ///< total of verified coins
    std::size_t real_coins = 0;
    std::size_t fake_coins = 0;
  };

  /// Step 8a: SP decrypts the payment, checks the JO's signature on its
  /// pseudonym and verifies every coin, discarding fakes.
  PaymentCheck open_payment(ParticipantSession& sp);

  /// Step 8b: SP confirms; the MA releases the data report to the JO and
  /// drops the filed payment, so a later deliver_payment throws
  /// kProtocolOrder.
  void confirm_and_release_data(ParticipantSession& sp,
                                JobOwnerSession& jo);

  /// Step 9: SP deposits its coins at random logical-time delays; coins
  /// that drew the same tick travel as one batch through the DEC bank's
  /// batch deposit path. Run `settle()` to execute.
  void deposit_coins(ParticipantSession& sp);

  /// Drain the logical scheduler (deposits credit the fiat ledger). Uses
  /// the settlement pool when config().settle_threads > 0.
  void settle();

  /// One whole JO+SP round; returns the SP's payment check.
  PaymentCheck run_round(const std::string& jo_identity,
                         const std::string& sp_identity,
                         const std::string& description,
                         std::uint64_t payment, const Bytes& report);

 private:
  Bytes payment_key(const Bytes& sp_pubkey) const;

  /// Draw a session seed from the master stream (the only rng_ access
  /// concurrent sessions perform besides the MA's own signing).
  std::uint64_t fresh_seed();

  /// One reliable per-coin deposit call (faulty transport only). The
  /// idempotency key folds in the coin's serialized bytes, so a retried or
  /// redelivered deposit can never credit twice.
  void deposit_one(SessionLink& link, const std::string& aid, bool hiding,
                   const Bytes& coin_wire);

  DecParams params_;
  PpmsDecConfig config_;
  std::mutex rng_mu_;  ///< guards rng_ (master stream + MA-side signing)
  SecureRandom rng_;
  MarketInfrastructure infra_;
  DecBank dec_bank_;
  ReliableLink link_;
  std::unique_ptr<ThreadPool> settle_pool_;
  /// MA-held state keyed by the SP pseudonym serialization.
  std::mutex pending_mu_;
  std::map<Bytes, Bytes> pending_payments_;
  std::map<Bytes, Bytes> pending_reports_;
};

}  // namespace ppms
