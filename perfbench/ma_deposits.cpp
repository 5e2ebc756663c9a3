// ma_deposits — the MA's deposit pipeline: MarketServer decode -> verify
// -> settle over a durable FileJournal (SyncPolicy::kBatch) on the run
// directory's filesystem.
//
// Set-up mints a fixed pool of coins once: the EPCBA breaks of payments
// drawn as in dec_session, each payment from its own wallet and stream,
// minted on up to 4 threads into fixed slots, so the pool is
// byte-identical whatever the schedule. The timed phase replays the pool
// in passes, each into a fresh MA rebuilt from the same seed (same DEC
// bank keys, same sequential AIDs, fresh WAL and server), so a timed
// window spans many verify batches without paying client proving per
// deposit.
//
// Load is closed-loop: one submitter keeps kWindow deposits in flight.
// PPMS SPs delay deposits on purpose, so the MA's cost is capacity and
// these latencies are saturation latencies.
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.h"
#include "core/cash_break.h"
#include "dec/wallet.h"
#include "hash/sha256.h"
#include "market/scheduler.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "storage/idempotency.h"
#include "storage/recovery.h"
#include "storage/snapshot.h"
#include "util/serial.h"

namespace perfbench {

namespace {

using namespace ppms;

constexpr std::size_t kPoolCoins = 512;
constexpr std::size_t kWindow = 128;      // deposits in flight
constexpr std::size_t kVerifyBatch = 64;  // MarketServer verify_batch_max
constexpr unsigned kMintThreads = 4;

/// Threads the mint uses, and the busy stage threads of a pass.
unsigned busy_threads() {
  return std::clamp<unsigned>(std::thread::hardware_concurrency(), 1,
                              kMintThreads);
}

/// reference_ms(busy_threads()) on the reference host in its usual state:
/// four threads at once read slower than one (kReferenceMs), as the
/// host's vCPUs share cores.
constexpr double kBusyReferenceMs = 3.6;

// Benchmark-side spans: one per deposit pass, one per probed call.
constexpr const char* kPassSpan = "perfbench.ma.deposit_pass";
constexpr const char* kProbeVerify = "perfbench.ma.DecBank::verify_batch";
constexpr const char* kProbeCert = "perfbench.ma.verify_cert_equation_batch";
constexpr const char* kProbeSettle = "perfbench.ma.DecBank::settle_verified";
constexpr const char* kProbeCredit = "perfbench.ma.VBank::credit";

struct Coin {
  Bytes envelope;
  SpendBundle spend;
  std::uint64_t value = 0;
  std::size_t account = 0;  // index into Pool::aids
};

struct Pool {
  std::vector<Coin> coins;
  std::vector<std::string> identities;  // one SP per payment, in order
  std::vector<std::string> aids;
  std::uint64_t value = 0;
};

/// One payment of the pool: its EPCBA real denominations and the slots
/// its coins fill (the last payment may be cut short).
struct PaymentPlan {
  std::vector<std::uint64_t> denoms;
  std::size_t first = 0;
  std::size_t count = 0;
};

std::vector<PaymentPlan> plan_pool(std::uint64_t seed) {
  std::vector<PaymentPlan> plan;
  std::size_t total = 0;
  for (std::uint64_t s = 0; total < kPoolCoins; ++s) {
    PaymentPlan p;
    for (std::uint64_t d : cash_break(CashBreakStrategy::kEpcba,
                                      session_payment(seed, s), kTreeLevel)) {
      if (d != 0) p.denoms.push_back(d);
    }
    p.first = total;
    p.count = std::min(p.denoms.size(), kPoolCoins - total);
    total += p.count;
    plan.push_back(std::move(p));
  }
  return plan;
}

/// Withdraw payment `s`'s wallet and spend its coins into their slots.
void mint_payment(const DecParams& params, DecBank& bank, std::uint64_t seed,
                  std::uint64_t s, const PaymentPlan& p, Pool& pool) {
  SecureRandom rng = stream(seed, "ma.mint", s);
  DecWallet wallet(params, rng);
  const Bytes ctx = bytes_of("perfbench withdraw " + std::to_string(s));
  const SchnorrProof pok = wallet.prove_commitment(rng, ctx);
  const auto cert = bank.withdraw(wallet.commitment(), pok, ctx, rng);
  if (!cert) throw std::runtime_error("mint: withdrawal rejected");
  wallet.set_certificate(bank.public_key(), *cert);
  const auto nodes = wallet.allocate_denominations(p.denoms);
  if (!nodes) throw std::runtime_error("mint: wallet cannot cover payment");
  const Bytes payee = bytes_of("perfbench payee " + std::to_string(s));
  for (std::size_t k = 0; k < p.count; ++k) {
    Coin& coin = pool.coins[p.first + k];
    coin.spend = wallet.spend((*nodes)[k], bank.public_key(), rng, payee);
    coin.value = params.node_value((*nodes)[k].depth);
    coin.account = s;
    Envelope env;
    env.session_id = p.first + k + 1;
    env.seq = 0;
    env.payload = encode_deposit_request(pool.aids[s], /*hiding=*/false,
                                         coin.spend.serialize(params));
    Writer key;
    key.put_u64(env.session_id);
    key.put_u64(env.seq);
    key.put_bytes(env.payload);
    env.idem_key = sha256(key.data());
    coin.envelope = env.serialize();
  }
}

Pool mint_pool(const DecParams& params, DecBank& bank, std::uint64_t seed) {
  const std::vector<PaymentPlan> plan = plan_pool(seed);
  Pool pool;
  pool.coins.resize(kPoolCoins);
  VBank accounts;  // AIDs are sequential: every pass reopens them alike
  for (std::size_t s = 0; s < plan.size(); ++s) {
    pool.identities.push_back("sp-" + std::to_string(s));
    pool.aids.push_back(accounts.open_account(pool.identities.back()));
  }
  std::atomic<std::size_t> next{0};
  std::mutex err_mu;
  std::string error;
  auto worker = [&] {
    for (std::size_t s; (s = next.fetch_add(1)) < plan.size();) {
      try {
        mint_payment(params, bank, seed, s, plan[s], pool);
      } catch (const std::exception& e) {
        std::lock_guard lock(err_mu);
        error = e.what();
      }
    }
  };
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < busy_threads(); ++t) workers.emplace_back(worker);
  for (std::thread& t : workers) t.join();
  if (!error.empty()) throw std::runtime_error(error);
  for (const Coin& c : pool.coins) pool.value += c.value;
  return pool;
}

MarketServerConfig server_config(storage::LedgerJournal* journal) {
  MarketServerConfig config;
  config.decode_threads = 1;
  config.settle_shards = 1;
  // Stage threads never outnumber the cores: decode + verify + settle.
  config.verify_threads = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 3, 4) - 2;
  config.verify_batch_max = kVerifyBatch;
  config.journal = journal;
  return config;
}

struct PassResult {
  Clock::time_point t0;  // first submit
  Clock::time_point t1;  // last reply
  double ms = 0;
  std::vector<double> latency_ms;
  std::uint64_t wire_bytes = 0;
  std::uint64_t retries = 0;
  double submit_us = 0;  // summed time inside MarketServer::submit
};

void clear_wal(const std::string& dir) {
  std::remove((dir + "/wal.log").c_str());
  std::remove((dir + "/snapshot.bin").c_str());
}

storage::DurableLedgerOptions wal_options() {
  storage::DurableLedgerOptions options;
  options.journal.sync = storage::SyncPolicy::kBatch;
  return options;
}

std::unique_ptr<storage::DurableLedger> open_empty_wal(const std::string& dir) {
  clear_wal(dir);
  return std::make_unique<storage::DurableLedger>(dir, wal_options());
}

/// A fresh MA for one pass: the DEC bank rebuilt from the same seed,
/// the SP accounts reopened in order, an empty WAL and a new server.
struct FreshMa {
  FreshMa(const DecParams& params, const Pool& pool, std::uint64_t bank_seed,
          const std::string& wal_dir)
      : ledger(open_empty_wal(wal_dir)),
        bank_rng(bank_seed),
        bank(params, bank_rng) {
    vbank.attach_journal(&ledger->journal());
    for (std::size_t a = 0; a < pool.identities.size(); ++a) {
      aids_match &= vbank.open_account(pool.identities[a]) == pool.aids[a];
    }
  }

  std::unique_ptr<storage::DurableLedger> ledger;
  VBank vbank;
  SecureRandom bank_rng;
  DecBank bank;
  LogicalScheduler scheduler;
  std::unique_ptr<MarketServer> server;
  bool aids_match = true;
};

/// Replay the pool into `ma`. Traced passes count into the obs registry.
/// Checks: every deposit accepted at its value and the ledger holds
/// exactly the pool's value.
PassResult run_pass(const DecParams& params, const Pool& pool, FreshMa& ma,
                    bool traced, Report& report) {
  const std::size_t n = pool.coins.size();
  PassResult result;
  result.latency_ms.resize(n);
  std::vector<Clock::time_point> submitted(n);
  std::vector<std::uint8_t> accepted(n, 0);
  std::vector<std::uint64_t> credited(n, 0);
  std::vector<std::uint64_t> reply_bytes(n, 0);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t in_flight = 0;
  std::size_t done = 0;

  ppms::obs::set_metrics_enabled(traced);
  ppms::obs::set_tracing_enabled(traced);
  ma.server = std::make_unique<MarketServer>(
      params, ma.bank, ma.vbank, ma.scheduler,
      server_config(&ma.ledger->journal()));
  MarketServer& server = *ma.server;
  {
    obs::Span pass_span(kPassSpan);
    result.t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      {
        std::unique_lock lock(mu);
        cv.wait(lock, [&] { return in_flight < kWindow; });
        ++in_flight;
      }
      auto on_reply = [&, i](const SettleOutcome& out) {
        if (out.overloaded()) return;  // shed at admission: retried below
        const auto t = Clock::now();
        result.latency_ms[i] = ms_between(submitted[i], t);
        accepted[i] = out.accepted() ? 1 : 0;
        credited[i] = out.value;
        reply_bytes[i] = out.serialize().size();
        {
          std::lock_guard lock(mu);
          --in_flight;
          ++done;
        }
        cv.notify_all();
      };
      for (;;) {
        submitted[i] = Clock::now();
        const bool admitted = server.submit(pool.coins[i].envelope, on_reply);
        if (traced) {
          result.submit_us += ms_between(submitted[i], Clock::now()) * 1e3;
        }
        if (admitted) break;
        ++result.retries;  // kOverloaded: back off and retry, not a failure
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    {
      std::unique_lock lock(mu);
      cv.wait(lock, [&] { return done == n; });
    }
  }
  result.t1 = Clock::now();
  result.ms = ms_between(result.t0, result.t1);
  server.shutdown();
  ppms::obs::set_metrics_enabled(false);
  ppms::obs::set_tracing_enabled(false);

  std::uint64_t value = 0;
  std::uint64_t ledger_total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    report.check(accepted[i] == 1 && credited[i] == pool.coins[i].value,
                 "deposit " + std::to_string(i) + " not accepted at value");
    value += credited[i];
    result.wire_bytes += pool.coins[i].envelope.size() + reply_bytes[i];
  }
  for (const std::string& aid : pool.aids) {
    ledger_total += static_cast<std::uint64_t>(ma.vbank.balance(aid));
  }
  if (!ma.aids_match) report.fail("reopened accounts got different AIDs");
  if (value != pool.value || ledger_total != pool.value) {
    report.fail("ledger total " + std::to_string(ledger_total) +
                " != accepted value " + std::to_string(pool.value));
  }
  return result;
}

/// A recovery from the WAL alone must rebuild the live ledger bit for bit.
void check_recovery(const DecParams& params, FreshMa& ma,
                    std::uint64_t bank_seed, const std::string& wal_dir,
                    Report& report) {
  const Bytes live =
      storage::ledger_state_digest(ma.vbank, ma.bank, ma.server->store());
  storage::DurableLedger reopened(wal_dir, wal_options());
  VBank vbank;
  SecureRandom rng(bank_seed);
  DecBank bank(params, rng);
  IdempotencyStore idem;
  reopened.recover(vbank, bank, idem);
  report.check(storage::ledger_state_digest(vbank, bank, idem) == live,
               "WAL recovery does not reproduce the live ledger digest");
}

/// Layer probes (traced runs): the bank's and ledger's public calls on
/// the pool's coins, outside the server, each under a step span.
void probe_layers(const DecParams& params, const Pool& pool,
                  std::uint64_t bank_seed, const std::string& dir,
                  Report& report) {
  SecureRandom bank_rng(bank_seed);
  DecBank bank(params, bank_rng);
  ppms::obs::set_tracing_enabled(true);
  for (std::size_t first = 0; first < pool.coins.size();
       first += kVerifyBatch) {
    const std::size_t end = std::min(first + kVerifyBatch, pool.coins.size());
    std::vector<SpendBundle> batch;
    std::vector<const ClSignature*> certs;
    for (std::size_t i = first; i < end; ++i) {
      batch.push_back(pool.coins[i].spend);
      certs.push_back(&pool.coins[i].spend.cert);
    }
    std::vector<bool> ok;
    step(kProbeVerify, [&] { ok = bank.verify_batch({}, batch); });
    for (bool b : ok) report.check(b, "pool coin failed verify_batch");

    // The CL certificate equations of the batch alone.
    SecureRandom scalars = stream(bank_seed, "ma.probe", first);
    step(kProbeCert, [&] {
      ok = verify_cert_equation_batch(params, bank.public_key(), certs,
                                      scalars);
    });
    for (bool b : ok) report.check(b, "pool coin failed its CL batch");
  }

  const auto ledger = open_empty_wal(dir);
  bank.attach_journal(&ledger->journal());
  VBank vbank;
  vbank.attach_journal(&ledger->journal());
  for (const std::string& id : pool.identities) vbank.open_account(id);
  std::vector<SettleOutcome> outcomes;
  step(kProbeSettle, [&] {
    for (const Coin& coin : pool.coins) {
      outcomes.push_back(bank.settle_verified(coin.spend));
    }
  });
  for (const SettleOutcome& out : outcomes) {
    report.check(out.accepted(), "pool coin refused by settle_verified");
  }
  step(kProbeCredit, [&] {
    for (const Coin& coin : pool.coins) {
      vbank.credit(pool.aids[coin.account], coin.value, 0);
    }
  });
  ppms::obs::set_tracing_enabled(false);

  std::map<std::string, double> ms;  // probe name -> total
  for (const auto& r : ppms::obs::trace_records()) {
    ms[r.name] += static_cast<double>(r.dur_us) / 1e3;
  }
  const auto n = static_cast<double>(pool.coins.size());
  const auto batches = static_cast<double>(
      (pool.coins.size() + kVerifyBatch - 1) / kVerifyBatch);
  report.metrics["dec.verify_batch64_ms_per_coin"] = ms[kProbeVerify] / n;
  report.metrics["clsig.verify_batch_ms"] = ms[kProbeCert] / batches;
  report.metrics["dec.settle_verified_us"] = ms[kProbeSettle] * 1e3 / n;
  report.metrics["market.credit_us"] = ms[kProbeCredit] * 1e3 / n;
}

/// Per-layer metrics of the traced passes, from the obs registry.
void server_layer_metrics(double deposits, Report& report) {
  auto count = [](const char* name) {
    return static_cast<double>(ppms::obs::counter(name).value());
  };
  const double coins = count("server.verify.coins");
  const double decode_us = histogram_mean_us("server.stage.decode");
  const double verify_us = histogram_mean_us("server.stage.verify");
  const double settle_us = histogram_mean_us("server.stage.settle");
  auto& m = report.metrics;
  m["server.stage.verify_ms_per_coin"] =
      static_cast<double>(
          ppms::obs::histogram("server.stage.verify").snapshot().sum_us) /
      coins / 1e3;
  m["server.verify.avg_batch"] = coins / count("server.verify.batches");
  m["server.stage.decode_us"] = decode_us;
  m["server.stage.settle_us"] = settle_us;
  // Request latency not spent in a stage's service is queue wait.
  m["server.wait_ms"] = (histogram_mean_us("server.request") - decode_us -
                         verify_us - settle_us) / 1e3;
  m["server.ingress.rejected_per_deposit"] =
      count("server.ingress.rejected") / deposits;
  m["storage.journal.append_us"] = histogram_mean_us("storage.journal.append");
  m["storage.fsyncs_per_deposit"] = count("storage.journal.fsyncs") / deposits;
  m["storage.wal_bytes_per_deposit"] =
      count("storage.journal.bytes") / deposits;
  registry_layer_metrics(report, 0, deposits);
}

}  // namespace

void run_ma_deposits(const Options& opt, Report& report) {
  const std::string wal_dir = opt.run_dir + "/ma_wal";
  ::mkdir(wal_dir.c_str(), 0755);  // EEXIST is fine

  // Set-up: Setup(DEC) and the DEC bank, then the pool is minted once.
  struct Fixture {
    DecParams params;
    std::unique_ptr<DecBank> bank;
  };
  Fixture fixture;
  const SetupTime fixture_setup =
      timed_setup(report, fixture, [](std::uint64_t rep) {
        Fixture f{paper_params(), nullptr};
        SecureRandom rng(deployment_seed("ma.bank", rep));
        f.bank = std::make_unique<DecBank>(f.params, rng);
        return f;
      });
  // The mint and the passes run on several threads: their reference
  // readings run on as many.
  const DecParams& params = fixture.params;
  const std::uint64_t bank_seed = deployment_seed("ma.bank");
  const double mint_ref = reference_ms(busy_threads());
  const auto mint_t0 = Clock::now();
  const Pool pool = mint_pool(params, *fixture.bank, opt.seed);
  const double mint_s = ms_between(mint_t0, Clock::now()) / 1e3;
  const double setup_s =
      fixture_setup.scaled_s +
      mint_s * host_scale(mint_ref, reference_ms(busy_threads()),
                          kBusyReferenceMs);
  report.wall_clock["setup_s"] = fixture_setup.measured_s + mint_s;

  Writer inputs;
  inputs.put_string("ma_deposits");
  inputs.put_bytes(sha256(params.serialize()));
  inputs.put_u64(bank_seed);
  for (const Coin& c : pool.coins) inputs.put_bytes(c.envelope);
  report.inputs_sha256 = to_hex(sha256(inputs.data()));

  const MarketServerConfig config = server_config(nullptr);
  report.context["wal"] =
      "{\"sync\": \"" +
      std::string(storage::sync_policy_name(storage::SyncPolicy::kBatch)) +
      "\", \"batch_records\": " +
      std::to_string(storage::FileJournalOptions{}.batch_records) + "}";
  report.context["server"] =
      "{\"decode_threads\": " + std::to_string(config.decode_threads) +
      ", \"verify_threads\": " + std::to_string(config.verify_threads) +
      ", \"settle_shards\": " + std::to_string(config.settle_shards) +
      ", \"verify_batch_max\": " + std::to_string(config.verify_batch_max) +
      ", \"window\": " + std::to_string(kWindow) + ", \"load\": \"closed\"}";
  report.context["pool"] =
      "{\"coins\": " + std::to_string(pool.coins.size()) +
      ", \"payments\": " + std::to_string(pool.aids.size()) +
      ", \"value\": " + std::to_string(pool.value) +
      ", \"mint_s\": " + json_number(mint_s) + "}";

  // Timed phase: passes until the budget is spent. Each pass is scaled
  // to reference-host time by the readings on either side of it.
  std::vector<double> latency_ms;  // all passes, pooled, as measured
  std::vector<double> pass_rate;   // per pass: deposits/s, p50, p75
  std::vector<double> pass_p50;
  std::vector<double> pass_p75;
  std::vector<double> wall_rate;   // the same, as measured
  std::vector<double> wall_p50;
  std::vector<double> wall_p75;
  double timed_ms = 0;
  double scaled_ms = 0;
  std::uint64_t deposits = 0;
  std::uint64_t wire = 0;
  double submit_us = 0;
  std::unique_ptr<FreshMa> ma;
  while (timed_ms < opt.seconds * 1e3) {
    ma.reset();  // the previous pass's WAL goes before the next opens
    ma = std::make_unique<FreshMa>(params, pool, bank_seed, wal_dir);
    const double ref = reference_ms(busy_threads());
    const PassResult pass = run_pass(params, pool, *ma, opt.trace, report);
    const double scale =
        host_scale(ref, reference_ms(busy_threads()), kBusyReferenceMs);
    wall_rate.push_back(static_cast<double>(pool.coins.size()) /
                        (pass.ms / 1e3));
    wall_p50.push_back(quantile(pass.latency_ms, 0.50));
    wall_p75.push_back(quantile(pass.latency_ms, 0.75));
    pass_rate.push_back(wall_rate.back() / scale);
    pass_p50.push_back(wall_p50.back() * scale);
    pass_p75.push_back(wall_p75.back() * scale);
    scaled_ms += pass.ms * scale;
    latency_ms.insert(latency_ms.end(), pass.latency_ms.begin(),
                      pass.latency_ms.end());
    timed_ms += pass.ms;
    deposits += pool.coins.size();
    wire += pass.wire_bytes;
    submit_us += pass.submit_us;
    report.retries += pass.retries;
  }
  // Untimed: recover the last pass's WAL.
  check_recovery(params, *ma, bank_seed, wal_dir, report);
  ma.reset();
  auto json_list = [](const std::vector<double>& v) {
    std::string out;
    for (double x : v) out += (out.empty() ? "" : ", ") + json_number(x);
    return "[" + out + "]";
  };
  report.checks["pass_throughput_per_s"] = json_list(pass_rate);
  report.checks["pass_latency_ms_p50"] = json_list(pass_p50);
  report.host_scale = scaled_ms / timed_ms;
  report.checks["latency_samples"] = std::to_string(latency_ms.size());

  if (!opt.trace) {
    // Every pass replays the same pool, so the median pass shrugs off a
    // pass slowed by a neighbour on the host.
    report.metrics["throughput_per_s"] = median(pass_rate);
    report.metrics["latency_ms_p50"] = median(pass_p50);
    report.metrics["latency_ms_p75"] = median(pass_p75);
    report.wall_clock["throughput_per_s"] = median(wall_rate);
    report.wall_clock["latency_ms_p50"] = median(wall_p50);
    report.wall_clock["latency_ms_p75"] = median(wall_p75);
    report.metrics["wire_kib_per_op"] =
        static_cast<double>(wire) / static_cast<double>(deposits) / 1024;
    report.metrics["setup_s"] = setup_s;
    report.metrics["peak_rss_mb"] = peak_rss_mb();
    return;
  }
  const auto n = static_cast<double>(deposits);
  server_layer_metrics(n, report);
  report.metrics["deposit.latency_ms_p99"] = quantile(latency_ms, 0.99);
  report.metrics["server.submit_us"] = submit_us / n;
  // Benchmark-side spans in the passes: one per pass.
  report.metrics["trace.span_cost_ms_per_op"] =
      report.span_cost_ms *
      static_cast<double>(ppms::obs::trace_records().size()) / n;
  const std::string probe_dir = opt.run_dir + "/ma_probe_wal";
  ::mkdir(probe_dir.c_str(), 0755);
  probe_layers(params, pool, bank_seed, probe_dir, report);
  report.spans_json = ppms::obs::render_trace_json(ppms::obs::trace_records());
}

}  // namespace perfbench
