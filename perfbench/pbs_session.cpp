// pbs_session — PPMSpbs rounds as in the Fig 5 reproduction: one JO
// enrolled in set-up; each session enrolls a fresh SP, runs run_round's
// steps and settles the deposit, one after another on one thread. Almost
// all of it is 1024-bit RSA key generation; no pairing, DEC or server
// work, so it is the control workload for changes to those layers.
#include <memory>

#include "core/ppmspbs.h"
#include "hash/sha256.h"
#include "sessions.h"
#include "util/serial.h"

namespace perfbench {

namespace {

using namespace ppms;

struct PbsFixture {
  std::unique_ptr<PpmsPbsMarket> market;
  PbsOwnerSession jo;
};

PpmsPbsConfig pbs_config() {
  PpmsPbsConfig config;
  config.rsa_bits = kRsaBits;
  return config;
}

/// The MA and the JO's enrollment (its real RSA key), from the
/// deployment's seed for set-up repetition `rep`.
PbsFixture build_fixture(std::uint64_t rep) {
  PbsFixture f;
  f.market = std::make_unique<PpmsPbsMarket>(
      pbs_config(), deployment_seed("pbs.market", rep));
  f.jo = f.market->enroll_owner("jo");
  return f;
}

const std::vector<StepDef> kSteps = {
    {"perfbench.pbs.enroll_participant", "core.pbs.enroll_participant_ms"},
    {"perfbench.pbs.register_job", "core.pbs.register_job_ms"},
    {"perfbench.pbs.register_labor", "core.pbs.register_labor_ms"},
    {"perfbench.pbs.submit_payment", "core.pbs.submit_payment_ms"},
    {"perfbench.pbs.submit_data", "core.pbs.submit_data_ms"},
    {"perfbench.pbs.deliver_and_open_payment", "core.pbs.open_payment_ms"},
    {"perfbench.pbs.confirm_and_release_data", "core.pbs.release_ms"},
    {"perfbench.pbs.deposit+settle", "core.pbs.deposit_settle_ms"},
};

/// One round on `f`. Sessions run in index order on one thread, so the
/// market's master stream (the SP's real RSA key, drawn as it enrolls)
/// hands session i the same seed on every run; the session keys, serial,
/// blinding and deposit delay come from the session's own (seed, index)
/// streams.
SessionResult run_session(PbsFixture& f, std::uint64_t seed,
                          std::uint64_t index, Report& report) {
  const std::string tag = std::to_string(index);
  const Bytes data = bytes_of("perfbench sensing report " + tag);
  PpmsPbsMarket& m = *f.market;
  auto& bank = m.infra().bank;
  const std::uint64_t bytes0 = m.infra().traffic.total_bytes();
  const std::int64_t jo_before = bank.balance(f.jo.account.aid);
  const std::size_t serials_before = m.used_serials();

  SessionResult r;
  PbsParticipantSession sp;
  bool coin_ok = false;
  Bytes released;
  try {
    f.jo.rng = stream(seed, "pbs.jo", index);
    r.t0 = Clock::now();
    {
      obs::Span root(kSessionSpan);
      step(kSteps[0].span,
           [&] { sp = m.enroll_participant("sp-" + tag); });
      sp.rng = stream(seed, "pbs.sp", index);
      step(kSteps[1].span, [&] { m.register_job(f.jo, "perfbench job"); });
      step(kSteps[2].span, [&] { m.register_labor(sp, f.jo); });
      step(kSteps[3].span, [&] { m.submit_payment(sp, f.jo); });
      step(kSteps[4].span, [&] { m.submit_data(sp, data); });
      step(kSteps[5].span, [&] { coin_ok = m.deliver_and_open_payment(sp); });
      step(kSteps[6].span,
           [&] { released = m.confirm_and_release_data(sp); });
      step(kSteps[7].span, [&] {
        m.deposit(sp);
        m.settle();
      });
    }
    r.t1 = Clock::now();
  } catch (const std::exception& e) {
    r.t1 = Clock::now();
    report.check(false, "pbs session " + tag + " threw: " + e.what());
    return r;
  }
  r.wire_bytes = m.infra().traffic.total_bytes() - bytes0;
  r.coins = 1;

  // The coin verifies, its serial is used exactly once, the report is
  // released, and the unit moved from the JO to the SP.
  const bool ok = coin_ok && released == data &&
                  m.used_serials() == serials_before + 1 &&
                  bank.balance(sp.account.aid) == 1 &&
                  bank.balance(f.jo.account.aid) == jo_before - 1;
  report.check(ok, "pbs session " + tag + " failed its coin/ledger checks");
  return r;
}

}  // namespace

void run_pbs_session(const Options& opt, Report& report) {
  PbsFixture fixture;
  const SetupTime setup = timed_setup(report, fixture, build_fixture);

  Writer inputs;
  inputs.put_string("pbs_session");
  inputs.put_u64(deployment_seed("pbs.market"));
  inputs.put_u64(opt.seed);  // names the JO and SP session streams
  inputs.put_u64(kRsaBits);
  report.inputs_sha256 = to_hex(sha256(inputs.data()));
  report.context["sessions_run"] = "\"sequentially, one thread\"";

  // The JO's opening balance pays one unit per session.
  drive_sessions(opt, report, kSteps, setup, 1,
                 pbs_config().initial_balance, [&](std::uint64_t index) {
                   return run_session(fixture, opt.seed, index, report);
                 });
}

}  // namespace perfbench
