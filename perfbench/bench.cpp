// perfbench — the repository's paper-scale benchmark binary.
//
//   perfbench --workload dec_session|ma_deposits|pbs_session --seed N
//             --seconds S --trace 0|1 --run-dir DIR
//             [--git-sha SHA] [--source-sha256 HEX]
//
// Prints a report (context block, checks, and in traced runs the spans
// and the obs registry) and, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics, traced runs the per-layer ones (tables below; the
// same names as BENCHMARK.json). Exits 1 when any self-check failed.
#include "bench.h"

#include <sys/vfs.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <set>
#include <thread>

#include "bigint/limbs.h"
#include "bigint/simd.h"
#include "core/cash_break.h"
#include "dec/group_chain.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics, reported by untraced runs of every workload.
constexpr MetricDef kEndToEnd[] = {
    {"throughput_per_s", "1/s"},  {"latency_ms_p50", "ms"},
    {"latency_ms_p75", "ms"},     {"wire_kib_per_op", "KiB"},
    {"setup_s", "s"},             {"peak_rss_mb", "MiB"},
};

// Per-layer metrics, reported by traced runs of every workload; a layer
// the workload does not exercise reads 0.
constexpr MetricDef kPerLayer[] = {
    // PPMSdec session steps (means per session; they sum to session.total_ms)
    {"core.register_job_ms", "ms"},
    {"dec.withdraw_ms", "ms"},
    {"core.register_labor_ms", "ms"},
    {"core.submit_payment_ms", "ms"},
    {"core.submit_data_ms", "ms"},
    {"core.deliver_ms", "ms"},
    {"core.open_payment_ms", "ms"},
    {"core.release_ms", "ms"},
    {"core.deposit_settle_ms", "ms"},
    // PPMSpbs session steps
    {"core.pbs.enroll_participant_ms", "ms"},
    {"core.pbs.register_job_ms", "ms"},
    {"core.pbs.register_labor_ms", "ms"},
    {"core.pbs.submit_payment_ms", "ms"},
    {"core.pbs.submit_data_ms", "ms"},
    {"core.pbs.open_payment_ms", "ms"},
    {"core.pbs.release_ms", "ms"},
    {"core.pbs.deposit_settle_ms", "ms"},
    // step ledger of either session workload
    {"session.total_ms", "ms"},
    {"session.unattributed_ms", "ms"},
    {"session.step_sum_gap_pct", "%"},
    {"trace.span_cost_ms_per_op", "ms"},
    // per-session counts from the obs registry
    {"zkp.prove_per_session", "count"},
    {"bigint.modexp_calls_per_session", "count"},
    {"bigint.fp_ctx_builds_per_session", "count"},
    {"dec.coins_per_session", "count"},
    {"dec.fake_coins_per_session", "count"},
    {"market.traffic_bytes_per_session", "B"},
    // deposit verification
    {"dec.verify_batch64_ms_per_coin", "ms"},
    {"server.stage.verify_ms_per_coin", "ms"},
    {"pairing.miller_per_coin", "count"},
    {"pairing.product_per_coin", "count"},
    {"clsig.verify_batch_ms", "ms"},
    {"bigint.simd_batched_muls_per_coin", "count"},
    // server pipeline
    {"server.verify.avg_batch", "count"},
    {"server.wait_ms", "ms"},
    {"server.submit_us", "us"},
    {"server.stage.decode_us", "us"},
    {"server.stage.settle_us", "us"},
    {"server.ingress.rejected_per_deposit", "count"},
    {"deposit.latency_ms_p99", "ms"},
    // settle, ledger and journal
    {"dec.settle_verified_us", "us"},
    {"market.credit_us", "us"},
    {"storage.journal.append_us", "us"},
    {"storage.fsyncs_per_deposit", "count"},
    {"storage.wal_bytes_per_deposit", "B"},
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload dec_session|ma_deposits|"
               "pbs_session --seed N --seconds S --trace 0|1 --run-dir DIR\n"
               "                 [--git-sha SHA] [--source-sha256 HEX]\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const std::string val = argv[++i];
    if (arg == "--workload") opt.workload = val;
    else if (arg == "--seed") opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (arg == "--seconds") opt.seconds = std::strtod(val.c_str(), nullptr);
    else if (arg == "--trace") opt.trace = val == "1";
    else if (arg == "--run-dir") opt.run_dir = val;
    else if (arg == "--git-sha") opt.git_sha = val;
    else if (arg == "--source-sha256") opt.source_sha256 = val;
    else usage();
  }
  if (opt.workload.empty() || opt.run_dir.empty() || !(opt.seconds > 0)) {
    usage();
  }
  return opt;
}

// Operand source and result sink of the reference kernel, opaque to the
// compiler so it neither folds the chain nor drops it.
volatile std::uint64_t g_reference_source = 0x9e3779b97f4a7c15ULL;
std::atomic<std::uint64_t> g_reference_sink{0};

std::string filesystem_of(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext2/3/4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return hex;
    }
  }
}

std::string json_map(const std::map<std::string, std::string>& m,
                     const char* indent) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    out += first ? "\n" : ",\n";
    out += indent;
    out += "  " + json_string(k) + ": " + v;
    first = false;
  }
  out += first ? "}" : std::string("\n") + indent + "}";
  return out;
}

}  // namespace

ppms::SecureRandom stream(std::uint64_t seed, const std::string& purpose,
                          std::uint64_t index) {
  return ppms::SecureRandom(ppms::bytes_of(
      "perfbench/1|" + purpose + "|" + std::to_string(seed) + "|" +
      std::to_string(index)));
}

std::uint64_t session_payment(std::uint64_t seed, std::uint64_t index) {
  // Payments sorted by how many real coins EPCBA breaks them into (the
  // main cost of a round), cut into kPaymentStrata equal strata.
  static const std::vector<std::uint64_t> by_coins = [] {
    const std::uint64_t n = std::uint64_t{1} << kTreeLevel;
    std::vector<std::pair<std::size_t, std::uint64_t>> keyed;
    for (std::uint64_t w = 1; w <= n; ++w) {
      std::size_t real = 0;
      for (std::uint64_t d : ppms::cash_break(ppms::CashBreakStrategy::kEpcba,
                                              w, kTreeLevel)) {
        real += d != 0 ? 1 : 0;
      }
      keyed.emplace_back(real, w);
    }
    std::sort(keyed.begin(), keyed.end());
    std::vector<std::uint64_t> sorted;
    for (const auto& [real, w] : keyed) sorted.push_back(w);
    return sorted;
  }();
  const std::uint64_t per_stratum = by_coins.size() / kPaymentStrata;
  // Block b of kPaymentStrata sessions visits every stratum once, in a
  // seeded order (Fisher-Yates off the block's stream).
  std::vector<std::uint64_t> order(kPaymentStrata);
  for (std::uint64_t k = 0; k < kPaymentStrata; ++k) order[k] = k;
  ppms::SecureRandom shuffle = stream(seed, "payment.block",
                                      index / kPaymentStrata);
  for (std::uint64_t k = kPaymentStrata; k > 1; --k) {
    std::swap(order[k - 1], order[shuffle.uniform(k)]);
  }
  const std::uint64_t stratum = order[index % kPaymentStrata];
  return by_coins[stratum * per_stratum +
                  stream(seed, "payment", index).uniform(per_stratum)];
}

std::uint64_t deployment_seed(const std::string& purpose,
                              std::uint64_t rep) {
  return ppms::SecureRandom(ppms::bytes_of("perfbench/1|deployment|" +
                                           purpose + "|" +
                                           std::to_string(rep)))
      .next_u64();
}

ppms::DecParams paper_params() {
  ppms::SecureRandom rng(ppms::bytes_of("perfbench/1|deployment"));
  ppms::DecParams params = ppms::dec_setup(rng, kTreeLevel,
                                           ppms::ChainSource::kTable,
                                           kPairingBits);
  params.session();  // pairing session: part of Setup, not of the rounds
  return params;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

namespace {

/// One thread's reading: thread CPU time of the kernel, in ms.
double reference_kernel_ms() {
  // kMuls chained 1024-bit Montgomery products (CIOS over 16 64-bit
  // limbs) on fixed operands: the same multiply-carry work that
  // dominates the program's bigint layer, in code the program does not
  // share.
  constexpr int kLimbs = 16;
  constexpr int kMuls = 4000;
  using u64 = std::uint64_t;
  __extension__ using u128 = unsigned __int128;
  u64 m[kLimbs];
  u64 a[kLimbs];
  u64 b[kLimbs];
  u64 x = g_reference_source;
  for (int i = 0; i < kLimbs; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    m[i] = x | 1;
    a[i] = x >> 3;
    b[i] = x >> 5;
  }
  m[kLimbs - 1] |= u64{1} << 63;
  u64 inv = 1;  // -m^-1 mod 2^64 by Newton iteration
  for (int i = 0; i < 6; ++i) inv *= 2 - m[0] * inv;
  const u64 minv = 0 - inv;

  timespec t0{};
  timespec t1{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t0);
  for (int r = 0; r < kMuls; ++r) {
    u64 t[kLimbs + 2] = {};
    for (int i = 0; i < kLimbs; ++i) {
      u128 c = 0;
      for (int j = 0; j < kLimbs; ++j) {
        c += static_cast<u128>(a[j]) * b[i] + t[j];
        t[j] = static_cast<u64>(c);
        c >>= 64;
      }
      c += t[kLimbs];
      t[kLimbs] = static_cast<u64>(c);
      t[kLimbs + 1] = static_cast<u64>(c >> 64);
      const u64 q = t[0] * minv;
      c = (static_cast<u128>(q) * m[0] + t[0]) >> 64;
      for (int j = 1; j < kLimbs; ++j) {
        c += static_cast<u128>(q) * m[j] + t[j];
        t[j - 1] = static_cast<u64>(c);
        c >>= 64;
      }
      c += t[kLimbs];
      t[kLimbs - 1] = static_cast<u64>(c);
      t[kLimbs] = t[kLimbs + 1] + static_cast<u64>(c >> 64);
    }
    for (int j = 0; j < kLimbs; ++j) a[j] = t[j];
  }
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t1);
  g_reference_sink.store(a[0], std::memory_order_relaxed);
  return static_cast<double>(t1.tv_sec - t0.tv_sec) * 1e3 +
         static_cast<double>(t1.tv_nsec - t0.tv_nsec) / 1e6;
}

}  // namespace

double reference_ms(unsigned threads) {
  std::vector<double> ms(threads);
  std::vector<std::thread> others;
  for (unsigned t = 1; t < threads; ++t) {
    others.emplace_back([&ms, t] { ms[t] = reference_kernel_ms(); });
  }
  ms[0] = reference_kernel_ms();
  for (std::thread& t : others) t.join();
  double total = 0;
  for (double x : ms) total += x;
  return total / threads;
}

double span_cost_ms() {
  constexpr int kSpans = 20000;
  ppms::obs::set_tracing_enabled(true);
  ppms::obs::set_metrics_enabled(true);
  const auto t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) step("perfbench.span_cost", [] {});
  const double ms = ms_between(t0, Clock::now()) / kSpans;
  ppms::obs::set_tracing_enabled(false);
  ppms::obs::set_metrics_enabled(false);
  ppms::obs::clear_traces();
  ppms::obs::MetricsRegistry::global().reset();
  return ms;
}

void Report::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 16) failures.push_back(why);
}

void Report::check(bool ok, const std::string& why) {
  ++attempted;
  if (!ok) fail(why);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

double peak_rss_mb() {
  // VmHWM is this image's own high-water mark; getrusage's ru_maxrss
  // would also count the parent's pages from before exec.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

double histogram_mean_us(const std::string& name) {
  const auto h = ppms::obs::histogram(name).snapshot();
  return h.count == 0 ? 0.0
                      : static_cast<double>(h.sum_us) /
                            static_cast<double>(h.count);
}

void registry_layer_metrics(Report& report, double sessions, double coins) {
  namespace obs = ppms::obs;
  auto per = [](std::uint64_t count, double div) {
    return static_cast<double>(count) / div;
  };
  if (sessions > 0) {
    report.metrics["zkp.prove_per_session"] =
        per(obs::counter("zkp.prove").value(), sessions);
    report.metrics["bigint.modexp_calls_per_session"] =
        per(obs::counter("crypto.modexp.calls").value(), sessions);
    report.metrics["bigint.fp_ctx_builds_per_session"] =
        per(obs::counter("crypto.fp.ctx_builds").value(), sessions);
  }
  if (coins > 0) {
    report.metrics["pairing.miller_per_coin"] =
        per(obs::counter("crypto.pairing.miller").value(), coins);
    report.metrics["pairing.product_per_coin"] =
        per(obs::histogram("crypto.pairing.product").snapshot().count, coins);
    report.metrics["bigint.simd_batched_muls_per_coin"] =
        per(obs::counter("crypto.simd.batched_muls").value(), coins);
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);
  Report report;
  ppms::obs::set_metrics_enabled(false);
  ppms::obs::MetricsRegistry::global().reset();
  if (opt.trace) report.span_cost_ms = span_cost_ms();

  try {
    if (opt.workload == "dec_session") run_dec_session(opt, report);
    else if (opt.workload == "ma_deposits") run_ma_deposits(opt, report);
    else if (opt.workload == "pbs_session") run_pbs_session(opt, report);
    else usage();
  } catch (const std::exception& e) {
    report.fail(std::string("workload aborted: ") + e.what());
  }
  if (report.attempted == 0) report.fail("no operation completed");

  // Per-layer timings are measured as is; like the end-to-end ones they
  // are reported in reference-host time, scaled by the run's factor.
  if (opt.trace) {
    for (const MetricDef& m : kPerLayer) {
      const std::string unit = m.unit;
      const auto it = report.metrics.find(m.name);
      if (it != report.metrics.end() && (unit == "ms" || unit == "us")) {
        it->second *= report.host_scale;
      }
    }
  }

  // Metric values in table order; a missing end-to-end metric is a bug.
  const std::vector<MetricDef> table =
      opt.trace ? std::vector<MetricDef>(std::begin(kPerLayer), std::end(kPerLayer))
                : std::vector<MetricDef>(std::begin(kEndToEnd), std::end(kEndToEnd));
  std::string metrics;
  for (const MetricDef& m : table) {
    const auto it = report.metrics.find(m.name);
    double value = 0;
    if (it != report.metrics.end()) {
      value = it->second;
    } else if (!opt.trace) {
      report.fail(std::string("metric not measured: ") + m.name);
    }
    metrics += metrics.empty() ? "" : ", ";
    metrics += json_string(m.name) + ": {\"value\": " + json_number(value) +
               ", \"unit\": " + json_string(m.unit) + "}";
  }
  std::set<std::string> known;
  for (const MetricDef& m : table) known.insert(m.name);
  for (const auto& [name, value] : report.metrics) {
    if (known.count(name) == 0) {
      report.fail("metric outside the table: " + name);
    }
  }

  // Context block.
  std::map<std::string, std::string> context = report.context;
  context["workload"] = json_string(opt.workload);
  context["seed"] = std::to_string(opt.seed);
  context["seconds"] = json_number(opt.seconds);
  context["traced"] = opt.trace ? "true" : "false";
  context["host_nproc"] = std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
  // The level the Montgomery batch kernels dispatch at (what the
  // crypto.simd.dispatch_level gauge encodes: 0 scalar, 1 avx2, 2 avx512).
  context["simd_dispatch_level"] =
      json_string(ppms::simd::level_name(ppms::simd::level()));
  context["flat_limbs"] = ppms::flat_limbs_enabled() ? "true" : "false";
  context["preset"] =
      "{\"pairing\": \"Type-A\", \"pairing_bits\": " +
      std::to_string(kPairingBits) + ", \"L\": " +
      std::to_string(kTreeLevel) +
      ", \"chain\": \"table\", \"rsa_bits\": " + std::to_string(kRsaBits) +
      ", \"cash_break\": \"EPCBA\"}";
  context["git_sha"] = json_string(opt.git_sha);
  context["source_sha256"] = json_string(opt.source_sha256);
  context["run_dir_filesystem"] = json_string(filesystem_of(opt.run_dir));

  std::string failures;
  for (const std::string& f : report.failures) {
    failures += failures.empty() ? "" : ", ";
    failures += json_string(f);
  }
  std::printf("{\n  \"report\": \"perfbench\",\n");
  std::printf("  \"context\": %s,\n", json_map(context, "  ").c_str());
  std::printf("  \"inputs_sha256\": %s,\n",
              json_string(report.inputs_sha256).c_str());
  std::printf("  \"checks\": %s,\n", json_map(report.checks, "  ").c_str());
  std::map<std::string, std::string> wall_clock;
  for (const auto& [name, value] : report.wall_clock) {
    wall_clock[name] = json_number(value);
  }
  std::printf("  \"host_scale\": %s,\n",
              json_number(report.host_scale).c_str());
  std::printf("  \"wall_clock\": %s,\n", json_map(wall_clock, "  ").c_str());
  std::printf("  \"retries\": %llu,\n",
              static_cast<unsigned long long>(report.retries));
  std::printf("  \"failures\": [%s]", failures.c_str());
  if (opt.trace) {
    std::printf(",\n  \"trace\": %s,\n  \"registry\": %s",
                report.spans_json.empty() ? "null"
                                          : report.spans_json.c_str(),
                ppms::obs::export_json().c_str());
  }
  std::printf("\n}\n");
  std::printf("inputs_sha256 %s attempted %llu failed %llu\n",
              report.inputs_sha256.c_str(),
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));

  const bool correct = report.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
