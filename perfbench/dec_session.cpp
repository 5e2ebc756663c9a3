// dec_session — whole PPMSdec rounds, one after another on one thread,
// in PpmsDecMarket::run_round's step order: what a JO/SP pair waits for.
// Each session has a fresh JO and SP and pays a w drawn uniformly from
// [1, 2^L]; its coins settle through the market's in-memory per-tick
// deposit batches.
#include <limits>
#include <memory>

#include "core/cash_break.h"
#include "hash/sha256.h"
#include "sessions.h"
#include "util/serial.h"

namespace perfbench {

namespace {

using namespace ppms;

PpmsDecConfig dec_config() {
  PpmsDecConfig config;
  config.rsa_bits = kRsaBits;
  config.strategy = CashBreakStrategy::kEpcba;
  return config;
}

/// The MA: Setup(DEC) plus the market (DEC bank keys, ledger), from the
/// deployment's seed for set-up repetition `rep`.
std::unique_ptr<PpmsDecMarket> build_market(std::uint64_t rep) {
  return std::make_unique<PpmsDecMarket>(
      paper_params(), dec_config(), deployment_seed("dec.market", rep));
}

const std::vector<StepDef> kSteps = {
    {"perfbench.dec.register_job", "core.register_job_ms"},
    {"perfbench.dec.withdraw", "dec.withdraw_ms"},
    {"perfbench.dec.register_labor", "core.register_labor_ms"},
    {"perfbench.dec.submit_payment", "core.submit_payment_ms"},
    {"perfbench.dec.submit_data", "core.submit_data_ms"},
    {"perfbench.dec.deliver_payment", "core.deliver_ms"},
    {"perfbench.dec.open_payment", "core.open_payment_ms"},
    {"perfbench.dec.confirm_and_release_data", "core.release_ms"},
    {"perfbench.dec.deposit_coins+settle", "core.deposit_settle_ms"},
};

/// One round on `m`. Sessions run in index order on one thread, so the
/// market's master stream (the session RSA keys, which register_job and
/// register_labor draw as they open the session) hands session i the
/// same seeds on every run; everything else the JO and SP draw comes
/// from the session's own (seed, index) streams.
SessionResult run_session(PpmsDecMarket& m, std::uint64_t seed,
                          std::uint64_t index, Report& report) {
  const std::uint64_t payment = session_payment(seed, index);
  const std::string tag = std::to_string(index);
  const Bytes data = bytes_of("perfbench sensing report " + tag);
  auto& bank = m.infra().bank;
  const std::uint64_t bytes0 = m.infra().traffic.total_bytes();

  SessionResult r;
  JobOwnerSession jo;
  ParticipantSession sp;
  PpmsDecMarket::PaymentCheck check;
  try {
    r.t0 = Clock::now();
    {
      obs::Span root(kSessionSpan);
      step(kSteps[0].span, [&] {
        jo = m.register_job("jo-" + tag, "perfbench job " + tag, payment);
      });
      jo.rng = stream(seed, "dec.jo", index);
      step(kSteps[1].span, [&] { m.withdraw(jo); });
      step(kSteps[2].span,
           [&] { sp = m.register_labor("sp-" + tag, jo); });
      sp.rng = stream(seed, "dec.sp", index);
      step(kSteps[3].span, [&] { m.submit_payment(jo, sp); });
      step(kSteps[4].span, [&] { m.submit_data(sp, data); });
      step(kSteps[5].span, [&] { m.deliver_payment(sp); });
      step(kSteps[6].span, [&] { check = m.open_payment(sp); });
      step(kSteps[7].span, [&] { m.confirm_and_release_data(sp, jo); });
      step(kSteps[8].span, [&] {
        m.deposit_coins(sp);
        m.settle();
      });
    }
    r.t1 = Clock::now();
  } catch (const std::exception& e) {
    r.t1 = Clock::now();
    report.check(false, "dec session " + tag + " threw: " + e.what());
    return r;
  }
  r.wire_bytes = m.infra().traffic.total_bytes() - bytes0;
  r.coins = check.real_coins;
  r.fake_coins = check.fake_coins;

  // The SP's check equals the payment, the break is the EPCBA one, the
  // report reached the JO, and money is conserved: the JO's 2^L debit is
  // the SP's credit plus what is left unspent in the JO's wallet.
  std::size_t real = 0;
  const auto denoms = cash_break(CashBreakStrategy::kEpcba, payment,
                                 kTreeLevel);
  for (std::uint64_t d : denoms) real += d != 0 ? 1 : 0;
  const std::uint64_t root_value = m.params().root_value();
  const bool ok =
      check.signature_ok && check.value == payment &&
      check.real_coins == real && check.fake_coins == denoms.size() - real &&
      jo.received_reports.size() == 1 && jo.received_reports[0] == data &&
      bank.balance(sp.account.aid) == static_cast<std::int64_t>(payment) &&
      bank.balance(jo.account.aid) ==
          static_cast<std::int64_t>(dec_config().initial_balance -
                                    root_value) &&
      jo.wallet->balance() == root_value - payment;
  report.check(ok, "dec session " + tag + " (w=" + std::to_string(payment) +
                       ") failed its payment/ledger checks");
  return r;
}

}  // namespace

void run_dec_session(const Options& opt, Report& report) {
  std::unique_ptr<PpmsDecMarket> market;
  const SetupTime setup = timed_setup(report, market, build_market);

  Writer inputs;
  inputs.put_string("dec_session");
  inputs.put_bytes(sha256(market->params().serialize()));
  inputs.put_u64(deployment_seed("dec.market"));
  inputs.put_u64(opt.seed);  // names the JO and SP session streams
  for (std::uint64_t i = 0; i < 4096; ++i) {
    inputs.put_u64(session_payment(opt.seed, i));
  }
  report.inputs_sha256 = to_hex(sha256(inputs.data()));
  report.context["sessions_run"] =
      "\"sequentially, one thread, in blocks of " +
      std::to_string(kPaymentStrata) + "\"";
  report.context["deposit_path"] =
      "\"PpmsDecMarket per-tick batches, in-memory ledger\"";

  drive_sessions(opt, report, kSteps, setup, kPaymentStrata,
                 std::numeric_limits<std::uint64_t>::max(),
                 [&](std::uint64_t index) {
                   return run_session(*market, opt.seed, index, report);
                 });
}

}  // namespace perfbench
