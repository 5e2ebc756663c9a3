#include "core/ppmspbs.h"

#include <utility>

#include "market/error.h"
#include "obs/trace.h"
#include "rsa/hybrid.h"
#include "rsa/pss.h"
#include "util/serial.h"
#include "util/thread_pool.h"

namespace ppms {

namespace {

// Hop routes (market/faults.h). Single-hop routes for the SP<->MA and
// JO<->MA exchanges; the relayed steps (labor registration, blind
// signing) list both legs so each is independently metered and faulty.
std::vector<Hop> jo_to_ma() { return {{Role::JobOwner, Role::Admin}}; }
std::vector<Hop> ma_to_jo() { return {{Role::Admin, Role::JobOwner}}; }
std::vector<Hop> sp_to_ma() { return {{Role::Participant, Role::Admin}}; }
std::vector<Hop> ma_to_sp() { return {{Role::Admin, Role::Participant}}; }
std::vector<Hop> sp_via_ma_to_jo() {
  return {{Role::Participant, Role::Admin}, {Role::Admin, Role::JobOwner}};
}
std::vector<Hop> jo_via_ma_to_sp() {
  return {{Role::JobOwner, Role::Admin}, {Role::Admin, Role::Participant}};
}

}  // namespace

PpmsPbsMarket::PpmsPbsMarket(PpmsPbsConfig config, std::uint64_t seed)
    : config_(config),
      rng_(seed),
      link_(infra_.traffic, infra_.scheduler, config_.faults,
            config_.retry) {
  if (config_.faults.enabled() && config_.settle_threads > 0) {
    throw MarketError(
        MarketErrc::kInvalidSchedule,
        "PpmsPbsMarket: fault injection requires settle_threads == 0 "
        "(retry loops pump the scheduler re-entrantly)");
  }
  if (config_.settle_threads > 0) {
    settle_pool_ = std::make_unique<ThreadPool>(config_.settle_threads);
  }
}

PpmsPbsMarket::~PpmsPbsMarket() = default;

std::uint64_t PpmsPbsMarket::fresh_seed() {
  std::lock_guard lock(rng_mu_);
  return rng_.next_u64();
}

void PpmsPbsMarket::settle() {
  if (settle_pool_) {
    infra_.scheduler.run_all(*settle_pool_);
  } else {
    infra_.scheduler.run_all();
  }
}

std::size_t PpmsPbsMarket::used_serials() const {
  std::lock_guard lock(ma_mu_);
  return used_serials_.size();
}

PbsOwnerSession PpmsPbsMarket::enroll_owner(const std::string& identity) {
  PbsOwnerSession jo;
  jo.rng = SecureRandom(fresh_seed());
  jo.link = link_.new_session();
  if (const auto aid = infra_.bank.find_account(identity)) {
    jo.account = {identity, *aid};
  } else {
    jo.account = open_resident(infra_, identity, config_.initial_balance);
  }
  {
    ScopedRole as_jo(Role::JobOwner);
    jo.real_keys = rsa_generate(jo.rng, config_.rsa_bits);
  }
  // Bind rpk_JO to the account (setup step, over the wire). The binding is
  // a map assignment — idempotent under redelivery by construction.
  const std::string aid = jo.account.aid;
  Writer msg;
  msg.put_bytes(jo.real_keys.pub.serialize());
  link_.call(jo.link, jo_to_ma(), ma_to_jo(), msg.take(), Bytes{},
             [this, aid](const Bytes& request) {
               Reader r(request);
               const Bytes pk = r.get_bytes();
               if (!r.exhausted()) {
                 throw MarketError(MarketErrc::kMalformedMessage,
                                   "enroll_owner: trailing garbage");
               }
               std::lock_guard lock(ma_mu_);
               account_of_key_[pk] = aid;
               return Bytes{};
             });
  return jo;
}

PbsParticipantSession PpmsPbsMarket::enroll_participant(
    const std::string& identity) {
  PbsParticipantSession sp;
  sp.rng = SecureRandom(fresh_seed());
  sp.link = link_.new_session();
  if (const auto aid = infra_.bank.find_account(identity)) {
    sp.account = {identity, *aid};
  } else {
    sp.account = open_resident(infra_, identity, 0);
  }
  {
    ScopedRole as_sp(Role::Participant);
    sp.real_keys = rsa_generate(sp.rng, config_.rsa_bits);
  }
  const std::string aid = sp.account.aid;
  Writer msg;
  msg.put_bytes(sp.real_keys.pub.serialize());
  link_.call(sp.link, sp_to_ma(), ma_to_sp(), msg.take(), Bytes{},
             [this, aid](const Bytes& request) {
               Reader r(request);
               const Bytes pk = r.get_bytes();
               if (!r.exhausted()) {
                 throw MarketError(MarketErrc::kMalformedMessage,
                                   "enroll_participant: trailing garbage");
               }
               std::lock_guard lock(ma_mu_);
               account_of_key_[pk] = aid;
               return Bytes{};
             });
  return sp;
}

void PpmsPbsMarket::register_job(PbsOwnerSession& jo,
                                 const std::string& description) {
  obs::Span span("ppmspbs.register_job");
  {
    ScopedRole as_jo(Role::JobOwner);
    jo.session_keys = rsa_generate(jo.rng, config_.rsa_bits);
  }
  // JO -> MA: jd, rpk_jo (eq. 12); MA -> BB (eq. 13), reply carries the
  // job id. Published once per idempotency key.
  Writer msg;
  msg.put_string(description);
  msg.put_bytes(jo.session_keys.pub.serialize());
  const Bytes reply = link_.call(
      jo.link, jo_to_ma(), ma_to_jo(), msg.take(), Bytes{},
      [this](const Bytes& request) {
        Reader r(request);
        JobProfile profile;
        profile.description = r.get_string();
        profile.payment = 1;  // unitary market
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
}

void PpmsPbsMarket::register_labor(PbsParticipantSession& sp,
                                   PbsOwnerSession& jo) {
  obs::Span span("ppmspbs.register_labor");
  sp.job_id = jo.job_id;
  // SP: fresh pseudonym + serial, encrypted to rpk_jo (eq. 14).
  Bytes request;
  {
    ScopedRole as_sp(Role::Participant);
    sp.session_keys = rsa_generate(sp.rng, config_.rsa_bits);
    sp.serial = sp.rng.bytes(16);
    Writer inner;
    inner.put_bytes(sp.session_keys.pub.serialize());
    inner.put_bytes(sp.serial);
    request = hybrid_encrypt(jo.session_keys.pub, inner.take(), sp.rng);
  }
  // SP -> MA -> JO (eqs. 14-15); the JO decrypts, signs (rpk_sp, s) and
  // answers with its real key (eqs. 16-18), which travels JO -> MA -> SP
  // (eqs. 18-19). One reliable 4-leg call; the JO-side work runs once per
  // idempotency key, so a redelivered registration reuses the same
  // signature. The handler borrows `jo`, which outlives the call (the
  // round holds both sessions).
  PbsOwnerSession* owner = &jo;
  const Bytes to_sp = link_.call(
      sp.link, sp_via_ma_to_jo(), jo_via_ma_to_sp(), request, Bytes{},
      [owner](const Bytes& to_jo) {
        ScopedRole as_jo(Role::JobOwner);
        const Bytes inner = hybrid_decrypt(owner->session_keys.priv, to_jo);
        Reader r(inner);
        const Bytes sp_pseudonym = r.get_bytes();
        const Bytes serial = r.get_bytes();
        if (!r.exhausted()) {
          throw MarketError(MarketErrc::kMalformedMessage,
                            "register_labor: trailing garbage");
        }
        const RsaPublicKey sp_pub = RsaPublicKey::deserialize(sp_pseudonym);
        Writer signed_part;
        signed_part.put_bytes(sp_pseudonym);
        signed_part.put_bytes(serial);
        const Bytes sig = rsa_pss_sign(owner->session_keys.priv,
                                       signed_part.data(), owner->rng);
        Writer inner_reply;
        inner_reply.put_bytes(owner->real_keys.pub.serialize());
        inner_reply.put_bytes(sig);
        return hybrid_encrypt(sp_pub, inner_reply.take(), owner->rng);
      });

  // SP: decrypt and verify with the *pseudonymous* job key (eqs. 20-21).
  ScopedRole as_sp(Role::Participant);
  const Bytes inner = hybrid_decrypt(sp.session_keys.priv, to_sp);
  Reader r(inner);
  const Bytes jo_real = r.get_bytes();
  const Bytes sig = r.get_bytes();
  if (!r.exhausted()) {
    throw MarketError(MarketErrc::kMalformedMessage,
                      "register_labor: trailing garbage in JO reply");
  }
  Writer signed_part;
  signed_part.put_bytes(sp.session_keys.pub.serialize());
  signed_part.put_bytes(sp.serial);
  if (!rsa_pss_verify(jo.session_keys.pub, signed_part.data(), sig)) {
    throw MarketError(MarketErrc::kSignatureRejected,
                      "register_labor: JO signature rejected");
  }
  sp.jo_real_pub = RsaPublicKey::deserialize(jo_real);
}

void PpmsPbsMarket::submit_payment(PbsParticipantSession& sp,
                                   PbsOwnerSession& jo) {
  obs::Span span("ppmspbs.issue");
  // SP blinds its real key under the shared serial (eq. 22).
  Bytes blinded_wire;
  {
    ScopedRole as_sp(Role::Participant);
    auto [blinded, state] =
        pbs_blind(sp.jo_real_pub, sp.real_keys.pub.serialize(), sp.serial,
                  sp.rng);
    sp.blinding = state;
    Writer msg;
    msg.put_bytes(blinded.value.to_bytes_be());
    msg.put_bytes(sp.serial);
    msg.put_bytes(sp.session_keys.pub.serialize());
    blinded_wire = msg.take();
  }
  // SP -> MA -> JO; the JO signs blindly under the info-derived exponent
  // (once per idempotency key — a redelivery reuses the same blind
  // signature) and the signed coin travels JO -> MA as the reply leg.
  PbsOwnerSession* owner = &jo;
  const Bytes to_ma = link_.call(
      sp.link, sp_via_ma_to_jo(), jo_to_ma(), blinded_wire, Bytes{},
      [owner](const Bytes& to_jo) {
        ScopedRole as_jo(Role::JobOwner);
        Reader r(to_jo);
        const PbsBlindedMessage blinded{Bigint::from_bytes_be(r.get_bytes())};
        const Bytes serial = r.get_bytes();
        const Bytes sp_pseudonym = r.get_bytes();
        if (!r.exhausted()) {
          throw MarketError(MarketErrc::kMalformedMessage,
                            "submit_payment: trailing garbage");
        }
        const auto blind_sig =
            pbs_sign(owner->real_keys.priv, blinded, serial);
        if (!blind_sig) {
          throw MarketError(MarketErrc::kDegenerateBlinding,
                            "submit_payment: degenerate info exponent");
        }
        Writer msg;
        msg.put_bytes(blind_sig->to_bytes_be());
        msg.put_bytes(sp_pseudonym);
        return msg.take();
      });
  // MA files the pending blind signature under the SP pseudonym.
  Reader r(to_ma);
  const Bytes blind_sig = r.get_bytes();
  const Bytes key = r.get_bytes();
  if (!r.exhausted()) {
    throw MarketError(MarketErrc::kMalformedMessage,
                      "submit_payment: malformed signed reply");
  }
  std::lock_guard lock(ma_mu_);
  pending_coins_[key] = blind_sig;
}

void PpmsPbsMarket::submit_data(PbsParticipantSession& sp,
                                const Bytes& report) {
  obs::Span span("ppmspbs.submit_data");
  Writer msg;
  msg.put_bytes(report);
  msg.put_bytes(sp.session_keys.pub.serialize());
  link_.call(sp.link, sp_to_ma(), ma_to_sp(), msg.take(), Bytes{},
             [this](const Bytes& wire) {
               Reader r(wire);
               const Bytes filed = r.get_bytes();
               const Bytes key = r.get_bytes();
               if (!r.exhausted()) {
                 throw MarketError(MarketErrc::kMalformedMessage,
                                   "submit_data: trailing garbage");
               }
               std::lock_guard lock(ma_mu_);
               pending_reports_[key] = filed;
               return Bytes{};
             });
}

bool PpmsPbsMarket::deliver_and_open_payment(PbsParticipantSession& sp) {
  obs::Span span("ppmspbs.deliver_open");
  // SP requests its coin; the filed blind signature travels MA -> SP as
  // the reply leg (eq. 23).
  Writer msg;
  msg.put_bytes(sp.session_keys.pub.serialize());
  const Bytes wire = link_.call(
      sp.link, sp_to_ma(), ma_to_sp(), msg.take(), Bytes{},
      [this](const Bytes& request) {
        Reader r(request);
        const Bytes key = r.get_bytes();
        if (!r.exhausted()) {
          throw MarketError(MarketErrc::kMalformedMessage,
                            "deliver_and_open_payment: trailing garbage");
        }
        std::lock_guard lock(ma_mu_);
        if (pending_reports_.count(key) == 0) {
          throw MarketError(MarketErrc::kProtocolOrder,
                            "deliver_and_open_payment: no report on file");
        }
        const auto it = pending_coins_.find(key);
        if (it == pending_coins_.end()) {
          throw MarketError(MarketErrc::kProtocolOrder,
                            "deliver_and_open_payment: no coin on file");
        }
        return it->second;
      });

  // SP: unblind and verify (eqs. 24-25).
  ScopedRole as_sp(Role::Participant);
  sp.coin = pbs_unblind(sp.jo_real_pub, Bigint::from_bytes_be(wire),
                        sp.blinding);
  return pbs_verify(sp.jo_real_pub, sp.real_keys.pub.serialize(), sp.serial,
                    sp.coin);
}

Bytes PpmsPbsMarket::confirm_and_release_data(PbsParticipantSession& sp) {
  // SP -> MA: confirmation; the MA releases the report, which travels
  // MA -> JO as the reply leg.
  Writer msg;
  msg.put_string("confirm");
  msg.put_bytes(sp.session_keys.pub.serialize());
  return link_.call(
      sp.link, sp_to_ma(), ma_to_jo(), msg.take(), Bytes{},
      [this](const Bytes& request) {
        Reader r(request);
        const std::string confirm = r.get_string();
        const Bytes key = r.get_bytes();
        if (!r.exhausted() || confirm != "confirm") {
          throw MarketError(MarketErrc::kMalformedMessage,
                            "confirm_and_release_data: malformed request");
        }
        std::lock_guard lock(ma_mu_);
        const auto it = pending_reports_.find(key);
        if (it == pending_reports_.end()) {
          throw MarketError(MarketErrc::kProtocolOrder,
                            "confirm_and_release_data: no report on file");
        }
        // The SP holds its coin once it confirms and the report leaves with
        // this reply: drop both files (a redelivered envelope still replays
        // its cached reply; a fresh one finds nothing on file).
        Bytes report = std::move(it->second);
        pending_reports_.erase(it);
        pending_coins_.erase(key);
        return report;
      });
}

void PpmsPbsMarket::deposit(PbsParticipantSession& sp) {
  obs::Span span("ppmspbs.redeem");
  // SP -> MA after a random delay: sig, rpk_SP, rpk_JO, s (eq. 26).
  Writer msg;
  msg.put_bytes(sp.coin);
  msg.put_bytes(sp.real_keys.pub.serialize());
  msg.put_bytes(sp.jo_real_pub.serialize());
  msg.put_bytes(sp.serial);
  const Bytes wire = msg.take();

  if (link_.plan().enabled()) {
    // Faulty transport: the redemption is a reliable, idempotent call
    // salted with the coin serial — a retried or duplicated deposit can
    // never move the unit twice (the serial file backs the reply cache
    // up for replays across distinct sessions). The closure owns a fresh
    // session link so nothing dangles on this stack-local session.
    const Bytes salt = sp.serial;
    infra_.scheduler.schedule_random(
        sp.rng, config_.min_deposit_delay, config_.max_deposit_delay,
        [this, wire, salt, link = link_.new_session()]() mutable {
          obs::Span span("ppmspbs.redeem.coin");
          link_.call(
              link, sp_to_ma(), ma_to_sp(), wire, salt,
              [this](const Bytes& received) {
                ScopedRole as_ma(Role::Admin);
                Reader r(received);
                const Bytes sig = r.get_bytes();
                const Bytes sp_real = r.get_bytes();
                const Bytes jo_real = r.get_bytes();
                const Bytes serial = r.get_bytes();
                if (!r.exhausted()) {
                  throw MarketError(MarketErrc::kMalformedMessage,
                                    "deposit: trailing garbage");
                }
                Writer out;
                const RsaPublicKey jo_pub =
                    RsaPublicKey::deserialize(jo_real);
                if (!pbs_verify(jo_pub, sp_real, serial, sig)) {
                  out.put_bool(false);
                  return out.take();
                }
                std::string payer_aid, payee_aid;
                {
                  std::lock_guard lock(ma_mu_);
                  if (!used_serials_.insert({jo_real, serial}).second) {
                    out.put_bool(false);  // serial replay
                    return out.take();
                  }
                  const auto payer = account_of_key_.find(jo_real);
                  const auto payee = account_of_key_.find(sp_real);
                  if (payer == account_of_key_.end() ||
                      payee == account_of_key_.end()) {
                    out.put_bool(false);  // unknown binding, serial stays
                    return out.take();
                  }
                  payer_aid = payer->second;
                  payee_aid = payee->second;
                }
                try {
                  infra_.bank.transfer(payer_aid, payee_aid, 1,
                                       infra_.scheduler.now());
                } catch (const MarketError& e) {
                  if (e.code() != MarketErrc::kInsufficientFunds) throw;
                  // Payer overdrawn: release the serial so the SP can
                  // retry once the payer is funded again.
                  std::lock_guard lock(ma_mu_);
                  used_serials_.erase({jo_real, serial});
                  out.put_bool(false);
                  return out.take();
                }
                out.put_bool(true);
                return out.take();
              });
        });
    return;
  }

  // Lossless transport: the legacy inline redemption, byte for byte.
  infra_.scheduler.schedule_random(
      sp.rng, config_.min_deposit_delay, config_.max_deposit_delay,
      [this, wire]() {
        obs::Span span("ppmspbs.redeem.coin");
        const Bytes received =
            infra_.traffic.send(Role::Participant, Role::Admin, wire);
        ScopedRole as_ma(Role::Admin);
        Reader r(received);
        const Bytes sig = r.get_bytes();
        const Bytes sp_real = r.get_bytes();
        const Bytes jo_real = r.get_bytes();
        const Bytes serial = r.get_bytes();

        const RsaPublicKey jo_pub = RsaPublicKey::deserialize(jo_real);
        if (!pbs_verify(jo_pub, sp_real, serial, sig)) return;
        std::string payer_aid, payee_aid;
        {
          std::lock_guard lock(ma_mu_);
          if (!used_serials_.insert({jo_real, serial}).second) {
            return;  // serial replay
          }
          const auto payer = account_of_key_.find(jo_real);
          const auto payee = account_of_key_.find(sp_real);
          if (payer == account_of_key_.end() ||
              payee == account_of_key_.end()) {
            return;  // unknown key binding (serial stays consumed)
          }
          payer_aid = payer->second;
          payee_aid = payee->second;
        }
        try {
          infra_.bank.transfer(payer_aid, payee_aid, 1,
                               infra_.scheduler.now());
        } catch (const MarketError& e) {
          if (e.code() != MarketErrc::kInsufficientFunds) throw;
          // Payer overdrawn: the deposit fails but the market keeps
          // running. Release the serial so the SP can retry once the
          // payer is funded again.
          std::lock_guard lock(ma_mu_);
          used_serials_.erase({jo_real, serial});
        }
      });
}

bool PpmsPbsMarket::run_round(PbsOwnerSession& jo, PbsParticipantSession& sp,
                              const Bytes& report) {
  obs::Span session("ppmspbs.session");
  register_job(jo, "job");
  register_labor(sp, jo);
  submit_payment(sp, jo);
  submit_data(sp, report);
  const bool ok = deliver_and_open_payment(sp);
  confirm_and_release_data(sp);
  deposit(sp);
  settle();
  return ok;
}

}  // namespace ppms
