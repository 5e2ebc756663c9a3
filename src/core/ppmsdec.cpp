#include "core/ppmsdec.h"

#include <algorithm>
#include <utility>

#include "market/error.h"
#include "obs/trace.h"
#include "rsa/hybrid.h"
#include "rsa/pss.h"
#include "util/serial.h"
#include "util/thread_pool.h"

namespace ppms {

namespace {

// Reuse the resident's single account when the identity already banks
// here (the one-account rule), otherwise open one. Two sessions may race
// to open the same identity's account; the loser of the race adopts the
// winner's AID.
ResidentAccount open_or_reuse(MarketInfrastructure& infra,
                              const std::string& identity,
                              std::uint64_t initial_balance) {
  if (const auto aid = infra.bank.find_account(identity)) {
    return ResidentAccount{identity, *aid};
  }
  try {
    return open_resident(infra, identity, initial_balance);
  } catch (const MarketError& e) {
    if (e.code() != MarketErrc::kDuplicateAccount) throw;
    return ResidentAccount{identity, *infra.bank.find_account(identity)};
  }
}

// Hop routes of the two-party steps. Every JO<->MA and SP<->MA exchange
// below travels these as an enveloped, idempotent, retrying call
// (market/faults.h); with a lossless plan the call degenerates to one
// metered round trip.
std::vector<Hop> jo_to_ma() { return {{Role::JobOwner, Role::Admin}}; }
std::vector<Hop> ma_to_jo() { return {{Role::Admin, Role::JobOwner}}; }
std::vector<Hop> sp_to_ma() { return {{Role::Participant, Role::Admin}}; }
std::vector<Hop> ma_to_sp() { return {{Role::Admin, Role::Participant}}; }

// Build the pairing session (GtGroup + Miller tables) before the bank
// copies the params, so the market and its DEC bank share one DecSession.
const DecParams& with_session(const DecParams& params) {
  params.session();
  return params;
}

}  // namespace

PpmsDecMarket::PpmsDecMarket(DecParams params, PpmsDecConfig config,
                             std::uint64_t seed)
    : params_(std::move(params)),
      config_(config),
      rng_(seed),
      dec_bank_(with_session(params_), rng_),
      link_(infra_.traffic, infra_.scheduler, config_.faults,
            config_.retry) {
  if (config_.faults.enabled() && config_.settle_threads > 0) {
    throw MarketError(
        MarketErrc::kInvalidSchedule,
        "PpmsDecMarket: fault injection requires settle_threads == 0 "
        "(retry loops pump the scheduler re-entrantly)");
  }
  if (config_.settle_threads > 0) {
    settle_pool_ = std::make_unique<ThreadPool>(config_.settle_threads);
  }
}

PpmsDecMarket::~PpmsDecMarket() = default;

Bytes PpmsDecMarket::payment_key(const Bytes& sp_pubkey) const {
  return sp_pubkey;
}

std::uint64_t PpmsDecMarket::fresh_seed() {
  std::lock_guard lock(rng_mu_);
  return rng_.next_u64();
}

void PpmsDecMarket::settle() {
  if (settle_pool_) {
    infra_.scheduler.run_all(*settle_pool_);
  } else {
    infra_.scheduler.run_all();
  }
}

JobOwnerSession PpmsDecMarket::register_job(const std::string& identity,
                                            const std::string& description,
                                            std::uint64_t payment) {
  obs::Span span("ppmsdec.register_job");
  if (payment == 0 || payment > params_.root_value()) {
    throw MarketError(MarketErrc::kPaymentOutOfRange,
                      "register_job: payment out of [1, 2^L]");
  }
  JobOwnerSession jo;
  jo.rng = SecureRandom(fresh_seed());
  jo.link = link_.new_session();
  jo.account = open_or_reuse(infra_, identity, config_.initial_balance);
  jo.payment = payment;
  {
    ScopedRole as_jo(Role::JobOwner);
    jo.session_keys = rsa_generate(jo.rng, config_.rsa_bits);
  }
  // JO -> MA: jd, w, rpk_jo (eq. 1); the MA publishes on the bulletin
  // board (eq. 2) and replies with the job id. Publication happens once
  // per idempotency key, so a redelivered registration never creates a
  // second job.
  Writer msg;
  msg.put_string(description);
  msg.put_u64(payment);
  msg.put_bytes(jo.session_keys.pub.serialize());
  const Bytes reply = link_.call(
      jo.link, jo_to_ma(), ma_to_jo(), msg.take(), Bytes{},
      [this](const Bytes& request) {
        Reader r(request);
        JobProfile profile;
        profile.description = r.get_string();
        profile.payment = r.get_u64();
        profile.owner_pseudonym = r.get_bytes();
        if (!r.exhausted()) {
          throw MarketError(MarketErrc::kMalformedMessage,
                            "register_job: trailing garbage");
        }
        Writer out;
        out.put_u64(infra_.bulletin.publish(std::move(profile)));
        return out.take();
      });
  Reader r(reply);
  jo.job_id = r.get_u64();
  if (!r.exhausted()) {
    throw MarketError(MarketErrc::kMalformedMessage,
                      "register_job: malformed job-id reply");
  }
  return jo;
}

void PpmsDecMarket::withdraw(JobOwnerSession& jo) {
  obs::Span span("ppmsdec.withdraw");
  // JO side: fresh wallet, commitment and PoK.
  Bytes request;
  {
    ScopedRole as_jo(Role::JobOwner);
    jo.wallet = std::make_unique<DecWallet>(params_, jo.rng);
    const Bytes ctx = bytes_of("ppmsdec.withdraw");
    Writer msg;
    msg.put_bytes(ec_serialize(jo.wallet->commitment(), params_.pairing.p));
    msg.put_bytes(jo.wallet->prove_commitment(jo.rng, ctx).serialize());
    request = msg.take();
  }
  // MA side: verify PoK, debit the fixed denomination 2^L, issue the
  // blind CL certificate. The handler runs at most once per idempotency
  // key, so a retried withdrawal can never debit the account twice.
  const std::string aid = jo.account.aid;
  const Bytes cert_wire = link_.call(
      jo.link, jo_to_ma(), ma_to_jo(), request, Bytes{},
      [this, aid](const Bytes& filed) {
        ScopedRole as_ma(Role::Admin);
        Reader r(filed);
        const EcPoint commitment =
            ec_deserialize(r.get_bytes(), params_.pairing.p);
        const SchnorrProof pok = SchnorrProof::deserialize(r.get_bytes());
        if (!r.exhausted()) {
          throw MarketError(MarketErrc::kMalformedMessage,
                            "withdraw: trailing garbage");
        }
        std::optional<ClSignature> cert;
        {
          // The MA's blind signing draws from the master stream.
          std::lock_guard rng_lock(rng_mu_);
          cert = dec_bank_.withdraw(commitment, pok,
                                    bytes_of("ppmsdec.withdraw"), rng_);
        }
        if (!cert) {
          throw MarketError(MarketErrc::kWithdrawRejected,
                            "withdraw: proof of commitment rejected");
        }
        infra_.bank.debit(aid, params_.root_value(),
                          infra_.scheduler.now());
        return cert->serialize(params_.pairing);
      });

  // JO installs the certificate (verifies it against its secret).
  ScopedRole as_jo(Role::JobOwner);
  jo.wallet->set_certificate(
      dec_bank_.public_key(),
      ClSignature::deserialize(params_.pairing, cert_wire));
}

ParticipantSession PpmsDecMarket::register_labor(
    const std::string& identity, const JobOwnerSession& jo) {
  obs::Span span("ppmsdec.register_labor");
  ParticipantSession sp;
  sp.rng = SecureRandom(fresh_seed());
  sp.link = link_.new_session();
  sp.account = open_or_reuse(infra_, identity, 0);
  sp.job_id = jo.job_id;
  {
    ScopedRole as_sp(Role::Participant);
    sp.session_keys = rsa_generate(sp.rng, config_.rsa_bits);
  }
  // SP -> MA: rpk_sp (eq. 5); the MA echoes the pseudonym to the JO
  // (eq. 6) as a fire-and-forget accounting leg and acks the SP.
  Writer msg;
  msg.put_bytes(sp.session_keys.pub.serialize());
  link_.call(sp.link, sp_to_ma(), ma_to_sp(), msg.take(), Bytes{},
             [this](const Bytes& request) {
               Reader r(request);
               const Bytes pseudonym = r.get_bytes();
               if (!r.exhausted()) {
                 throw MarketError(MarketErrc::kMalformedMessage,
                                   "register_labor: trailing garbage");
               }
               link_.forward(Role::Admin, Role::JobOwner, pseudonym);
               return Bytes{};
             });
  return sp;
}

void PpmsDecMarket::submit_payment(JobOwnerSession& jo,
                                   const ParticipantSession& sp) {
  obs::Span span("ppmsdec.submit_payment");
  if (!jo.wallet || !jo.wallet->has_certificate()) {
    throw MarketError(MarketErrc::kProtocolOrder,
                      "submit_payment: withdraw first");
  }
  const Bytes sp_pubkey = sp.session_keys.pub.serialize();

  Bytes wire;
  {
    ScopedRole as_jo(Role::JobOwner);
    // Cash break per the configured strategy; zeros become fake coins.
    const std::vector<std::uint64_t> denoms =
        cash_break(config_.strategy, jo.payment, params_.L);
    const auto nodes = jo.wallet->allocate_denominations(denoms);
    if (!nodes) {
      throw MarketError(MarketErrc::kWalletExhausted,
                        "submit_payment: wallet cannot cover w");
    }
    // One tagged coin per node: a root-hiding spend when configured and
    // possible (the whole-coin node has no hideable root), else a regular
    // spend. The tag byte is inside the encrypted entry, invisible to the
    // MA.
    std::vector<Bytes> real;
    std::size_t entry_cap = 0;
    for (const NodeIndex& node : *nodes) {
      Bytes coin;
      if (config_.hide_roots && node.depth >= 1) {
        coin.push_back(1);
        const RootHidingSpend spend = jo.wallet->spend_hiding(
            node, dec_bank_.public_key(), jo.rng, sp_pubkey);
        const Bytes body = spend.serialize(params_);
        coin.insert(coin.end(), body.begin(), body.end());
      } else {
        coin.push_back(0);
        const SpendBundle spend = jo.wallet->spend(
            node, dec_bank_.public_key(), jo.rng, sp_pubkey);
        const Bytes body = spend.serialize(params_);
        coin.insert(coin.end(), body.begin(), body.end());
      }
      real.push_back(std::move(coin));
      entry_cap = std::max(entry_cap, real.back().size());
    }
    // Designated-receiver signature on the SP's pseudonym (eq. 7).
    const Bytes sig = rsa_pss_sign(jo.session_keys.priv, sp_pubkey, jo.rng);
    entry_cap += 4;  // room for the length prefix
    const std::size_t fakes = denoms.size() - real.size();

    Writer payload;
    payload.put_u32(static_cast<std::uint32_t>(denoms.size()));
    payload.put_u32(static_cast<std::uint32_t>(entry_cap));
    for (const Bytes& coin : real) {
      Bytes entry;
      append_u32_be(entry, static_cast<std::uint32_t>(coin.size()));
      entry.insert(entry.end(), coin.begin(), coin.end());
      const Bytes pad = jo.rng.bytes(entry_cap - entry.size());
      entry.insert(entry.end(), pad.begin(), pad.end());
      payload.put_bytes(entry);
    }
    for (std::size_t i = 0; i < fakes; ++i) {
      payload.put_bytes(jo.rng.bytes(entry_cap));  // E(0)
    }
    payload.put_bytes(sig);

    Writer msg;
    msg.put_bytes(
        hybrid_encrypt(sp.session_keys.pub, payload.take(), jo.rng));
    msg.put_bytes(sp_pubkey);
    wire = msg.take();
  }
  // MA files the designated-receiver ciphertext until the data arrives
  // (filing is a map assignment — naturally idempotent, and deduplicated
  // by key anyway under faults).
  link_.call(jo.link, jo_to_ma(), ma_to_jo(), wire, Bytes{},
             [this](const Bytes& filed) {
               ScopedRole as_ma(Role::Admin);
               Reader r(filed);
               const Bytes ciphertext = r.get_bytes();
               const Bytes key = r.get_bytes();
               if (!r.exhausted()) {
                 throw MarketError(MarketErrc::kMalformedMessage,
                                   "submit_payment: trailing garbage");
               }
               std::lock_guard lock(pending_mu_);
               pending_payments_[payment_key(key)] = ciphertext;
               return Bytes{};
             });
}

void PpmsDecMarket::submit_data(ParticipantSession& sp,
                                const Bytes& report) {
  obs::Span span("ppmsdec.submit_data");
  Writer msg;
  msg.put_bytes(report);
  msg.put_bytes(sp.session_keys.pub.serialize());
  link_.call(sp.link, sp_to_ma(), ma_to_sp(), msg.take(), Bytes{},
             [this](const Bytes& wire) {
               Reader r(wire);
               const Bytes filed_report = r.get_bytes();
               const Bytes key = r.get_bytes();
               if (!r.exhausted()) {
                 throw MarketError(MarketErrc::kMalformedMessage,
                                   "submit_data: trailing garbage");
               }
               std::lock_guard lock(pending_mu_);
               pending_reports_[payment_key(key)] = filed_report;
               return Bytes{};
             });
}

void PpmsDecMarket::deliver_payment(ParticipantSession& sp) {
  obs::Span span("ppmsdec.deliver_payment");
  // SP requests its payment; the filed designated-receiver ciphertext
  // still travels MA -> SP, as the reply leg.
  Writer msg;
  msg.put_bytes(sp.session_keys.pub.serialize());
  sp.payment_ciphertext = link_.call(
      sp.link, sp_to_ma(), ma_to_sp(), msg.take(), Bytes{},
      [this](const Bytes& request) {
        Reader r(request);
        const Bytes key = payment_key(r.get_bytes());
        if (!r.exhausted()) {
          throw MarketError(MarketErrc::kMalformedMessage,
                            "deliver_payment: trailing garbage");
        }
        std::lock_guard lock(pending_mu_);
        if (pending_reports_.count(key) == 0) {
          throw MarketError(MarketErrc::kProtocolOrder,
                            "deliver_payment: no data report on file");
        }
        const auto it = pending_payments_.find(key);
        if (it == pending_payments_.end()) {
          throw MarketError(MarketErrc::kProtocolOrder,
                            "deliver_payment: no payment on file");
        }
        return it->second;
      });
}

PpmsDecMarket::PaymentCheck PpmsDecMarket::open_payment(
    ParticipantSession& sp) {
  obs::Span span("ppmsdec.open_payment");
  ScopedRole as_sp(Role::Participant);
  PaymentCheck check;
  const Bytes payload =
      hybrid_decrypt(sp.session_keys.priv, sp.payment_ciphertext);
  Reader r(payload);
  const std::uint32_t n_entries = r.get_u32();
  const std::uint32_t entry_cap = r.get_u32();
  std::vector<Bytes> entries;
  for (std::uint32_t i = 0; i < n_entries; ++i) {
    entries.push_back(r.get_bytes());
  }
  const Bytes sig = r.get_bytes();
  if (!r.exhausted()) {
    throw MarketError(MarketErrc::kMalformedMessage,
                      "open_payment: trailing garbage in payment payload");
  }

  // Signature of the job owner over our pseudonym, using the pseudonymous
  // key published on the bulletin board.
  const auto profile = infra_.bulletin.get(sp.job_id);
  if (!profile) {
    throw MarketError(MarketErrc::kUnknownJob, "open_payment: unknown job");
  }
  const RsaPublicKey jo_pub =
      RsaPublicKey::deserialize(profile->owner_pseudonym);
  const Bytes my_pubkey = sp.session_keys.pub.serialize();
  check.signature_ok = rsa_pss_verify(jo_pub, my_pubkey, sig);

  // Coins: verify each entry; anything that does not parse into a valid
  // spend designated to us is a fake E(0).
  for (const Bytes& entry : entries) {
    if (entry.size() != entry_cap) {
      ++check.fake_coins;
      continue;
    }
    bool good = false;
    try {
      const std::uint32_t len = read_u32_be(entry, 0);
      if (len >= 1 && len <= entry_cap - 4) {
        const std::uint8_t tag = entry[4];
        const Bytes body(entry.begin() + 5, entry.begin() + 4 + len);
        if (tag == 0) {
          SpendBundle bundle = SpendBundle::deserialize(params_, body);
          good = bundle.context == my_pubkey &&
                 verify_spend(params_, dec_bank_.public_key(), bundle);
          if (good) {
            check.value += params_.node_value(bundle.node.depth);
            sp.coins.push_back(std::move(bundle));
          }
        } else if (tag == 1) {
          RootHidingSpend bundle =
              RootHidingSpend::deserialize(params_, body);
          good = bundle.context == my_pubkey &&
                 verify_root_hiding_spend(params_, dec_bank_.public_key(),
                                          bundle);
          if (good) {
            check.value += params_.node_value(bundle.node.depth);
            sp.hiding_coins.push_back(std::move(bundle));
          }
        }
      }
    } catch (const std::exception&) {
      good = false;
    }
    if (good) {
      ++check.real_coins;
    } else {
      ++check.fake_coins;
    }
  }
  sp.verified_value = check.value;
  sp.fake_coins_seen = check.fake_coins;
  return check;
}

void PpmsDecMarket::confirm_and_release_data(ParticipantSession& sp,
                                             JobOwnerSession& jo) {
  obs::Span span("ppmsdec.confirm");
  // SP -> MA: confirmation; the MA releases the report, which travels
  // MA -> JO as the reply leg (alg. line 8).
  Writer msg;
  msg.put_string("confirm");
  msg.put_bytes(sp.session_keys.pub.serialize());
  jo.received_reports.push_back(link_.call(
      sp.link, sp_to_ma(), ma_to_jo(), msg.take(), Bytes{},
      [this](const Bytes& request) {
        Reader r(request);
        const std::string confirm = r.get_string();
        const Bytes key = payment_key(r.get_bytes());
        if (!r.exhausted() || confirm != "confirm") {
          throw MarketError(MarketErrc::kMalformedMessage,
                            "confirm_and_release_data: malformed request");
        }
        std::lock_guard lock(pending_mu_);
        const auto it = pending_reports_.find(key);
        if (it == pending_reports_.end()) {
          throw MarketError(MarketErrc::kProtocolOrder,
                            "confirm_and_release_data: no report on file");
        }
        // The SP holds its payment once it confirms and the report leaves
        // with this reply: drop both files (a redelivered envelope still
        // replays its cached reply; a fresh deliver_payment or confirm
        // finds nothing on file).
        Bytes report = std::move(it->second);
        pending_reports_.erase(it);
        pending_payments_.erase(key);
        return report;
      }));
}

void PpmsDecMarket::deposit_one(SessionLink& link, const std::string& aid,
                                bool hiding, const Bytes& coin_wire) {
  obs::Span span("ppmsdec.deposit.coin");
  Writer msg;
  msg.put_string(aid);
  msg.put_bool(hiding);
  msg.put_bytes(coin_wire);
  // The coin's serialized bytes salt the idempotency key, so the dedup is
  // per coin as well as per message; the striped double-spend store backs
  // it up for replays across distinct sessions.
  link_.call(link, sp_to_ma(), ma_to_sp(), msg.take(), coin_wire,
             [this](const Bytes& wire) {
               ScopedRole as_ma(Role::Admin);
               Reader r(wire);
               const std::string account = r.get_string();
               const bool is_hiding = r.get_bool();
               const Bytes body = r.get_bytes();
               if (!r.exhausted()) {
                 throw MarketError(MarketErrc::kMalformedMessage,
                                   "deposit: trailing garbage");
               }
               SettleOutcome result;
               if (is_hiding) {
                 result = dec_bank_.deposit_hiding(
                     RootHidingSpend::deserialize(params_, body));
               } else {
                 result = dec_bank_.deposit(
                     SpendBundle::deserialize(params_, body));
               }
               if (result.accepted()) {
                 infra_.bank.credit(account, result.value,
                                    infra_.scheduler.now());
               }
               Writer out;
               out.put_bool(result.accepted());
               out.put_u64(result.value);
               return out.take();
             });
}

void PpmsDecMarket::deposit_coins(ParticipantSession& sp) {
  obs::Span span("ppmsdec.deposit");
  const std::string aid = sp.account.aid;
  const std::uint64_t span_ticks =
      config_.max_deposit_delay - config_.min_deposit_delay + 1;

  if (link_.plan().enabled()) {
    // Faulty transport: every coin travels as its own reliable,
    // idempotent deposit call at its own random delay. Each scheduled
    // closure owns a fresh session link, so a late redelivery can never
    // dangle on this (stack-local) session; the call's retry loop pumps
    // the logical clock re-entrantly from inside the event while replies
    // are in flight.
    for (RootHidingSpend& coin : sp.hiding_coins) {
      const std::uint64_t delay =
          config_.min_deposit_delay + sp.rng.uniform(span_ticks);
      infra_.scheduler.schedule_after(
          delay, [this, aid, link = link_.new_session(),
                  wire = coin.serialize(params_)]() mutable {
            deposit_one(link, aid, /*hiding=*/true, wire);
          });
    }
    sp.hiding_coins.clear();
    for (SpendBundle& coin : sp.coins) {
      const std::uint64_t delay =
          config_.min_deposit_delay + sp.rng.uniform(span_ticks);
      infra_.scheduler.schedule_after(
          delay, [this, aid, link = link_.new_session(),
                  wire = coin.serialize(params_)]() mutable {
            deposit_one(link, aid, /*hiding=*/false, wire);
          });
    }
    sp.coins.clear();
    return;
  }

  // Lossless transport: the legacy batch path, byte for byte. Each coin
  // draws an independent random delay (eq. 11); coins landing on the same
  // tick travel to the bank as one batch. Ledger entries are stamped with
  // the logical clock, so timing — the observation stream the attacks
  // mine — is exactly the per-coin schedule.
  struct TickBatch {
    std::vector<RootHidingSpend> hiding;
    std::vector<SpendBundle> regular;
  };
  std::map<std::uint64_t, TickBatch> batches;
  for (RootHidingSpend& coin : sp.hiding_coins) {
    const std::uint64_t delay =
        config_.min_deposit_delay + sp.rng.uniform(span_ticks);
    batches[delay].hiding.push_back(std::move(coin));
  }
  sp.hiding_coins.clear();
  for (SpendBundle& coin : sp.coins) {
    const std::uint64_t delay =
        config_.min_deposit_delay + sp.rng.uniform(span_ticks);
    batches[delay].regular.push_back(std::move(coin));
  }
  sp.coins.clear();

  for (auto& [delay, batch] : batches) {
    infra_.scheduler.schedule_after(
        delay, [this, aid, batch = std::move(batch)]() {
          // SP -> MA, one wire message per coin (Table II accounting is
          // per coin, batching is a bank-side settlement concern).
          std::vector<RootHidingSpend> arrived_hiding;
          std::vector<SpendBundle> arrived_regular;
          std::string account;
          for (const RootHidingSpend& coin : batch.hiding) {
            obs::Span span("ppmsdec.deposit.coin");
            Writer msg;
            msg.put_string(aid);
            msg.put_bytes(coin.serialize(params_));
            const Bytes wire = infra_.traffic.send(
                Role::Participant, Role::Admin, msg.take());
            ScopedRole as_ma(Role::Admin);
            Reader r(wire);
            account = r.get_string();
            arrived_hiding.push_back(
                RootHidingSpend::deserialize(params_, r.get_bytes()));
          }
          for (const SpendBundle& coin : batch.regular) {
            obs::Span span("ppmsdec.deposit.coin");
            Writer msg;
            msg.put_string(aid);
            msg.put_bytes(coin.serialize(params_));
            const Bytes wire = infra_.traffic.send(
                Role::Participant, Role::Admin, msg.take());
            ScopedRole as_ma(Role::Admin);
            Reader r(wire);
            account = r.get_string();
            arrived_regular.push_back(
                SpendBundle::deserialize(params_, r.get_bytes()));
          }
          // MA: verify + double-spend check + ledger credit. The batch
          // runs inline here (no nested pool) — when settle() drains in
          // parallel, the tick's batches already run concurrently.
          ScopedRole as_ma(Role::Admin);
          const auto results = dec_bank_.deposit_batch(
              arrived_hiding, arrived_regular, nullptr);
          for (const auto& result : results) {
            if (result.accepted()) {
              infra_.bank.credit(account, result.value,
                                 infra_.scheduler.now());
            }
          }
        });
  }
}

PpmsDecMarket::PaymentCheck PpmsDecMarket::run_round(
    const std::string& jo_identity, const std::string& sp_identity,
    const std::string& description, std::uint64_t payment,
    const Bytes& report) {
  obs::Span session("ppmsdec.session");
  JobOwnerSession jo = register_job(jo_identity, description, payment);
  withdraw(jo);
  ParticipantSession sp = register_labor(sp_identity, jo);
  submit_payment(jo, sp);
  submit_data(sp, report);
  deliver_payment(sp);
  const PaymentCheck check = open_payment(sp);
  confirm_and_release_data(sp, jo);
  deposit_coins(sp);
  settle();
  return check;
}

}  // namespace ppms
