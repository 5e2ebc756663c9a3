// Shared plumbing of the paper-scale benchmark: options, deterministic
// input streams, the benchmark-side step spans, statistics and the
// report that main() prints. The three workloads live in their own files.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/ppmsdec.h"
#include "obs/trace.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// The paper preset every workload runs at.
inline constexpr std::size_t kTreeLevel = 12;      // L, coins worth 2^12
inline constexpr std::size_t kPairingBits = 512;   // Type-A field
inline constexpr std::size_t kRsaBits = 1024;      // session / real keys
inline constexpr std::size_t kSetupRepeats = 15;   // setup_s is a median

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string run_dir;        // work directory inside the checkout (WAL)
  std::string git_sha = "unknown";
  std::string source_sha256 = "unknown";
};

/// Stream for one (purpose, index) of a workload seed. Every session,
/// wallet and coin draws from its own stream, so its bytes do not depend
/// on how many draws anything else made or on the thread schedule.
ppms::SecureRandom stream(std::uint64_t seed, const std::string& purpose,
                          std::uint64_t index = 0);

/// Payment of session `index`: uniform on [1, 2^L], as in the paper's
/// denomination-attack experiment, drawn stratified: the 2^L payments are
/// ranked by their EPCBA real-coin count and cut into kPaymentStrata
/// strata, and every block of kPaymentStrata consecutive sessions takes
/// one payment from each stratum in a seeded order. Each payment is still
/// uniform, but a run's mix of coin counts no longer swings with the
/// seed, which would move the median session by whole coins.
inline constexpr std::uint64_t kPaymentStrata = 16;
std::uint64_t session_payment(std::uint64_t seed, std::uint64_t index);

/// DEC parameters at the paper preset. They are the deployment, not an
/// input: Setup runs offline once (paper Section VI-A), so every seed
/// shares them and only the workload's inputs vary with the seed.
ppms::DecParams paper_params();

/// Seed of the deployment's own keys and master streams (DEC bank,
/// market) for set-up repetition `rep`. Fixed like paper_params(), so
/// set-up does the same work whatever the workload seed.
std::uint64_t deployment_seed(const std::string& purpose,
                              std::uint64_t rep = 0);

/// Linear-interpolation quantile of `v` (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Host speed. The shared 4-vCPU host the benchmark was tuned on runs the
/// same code up to 1.5x faster or slower for tens of seconds at a time.
/// reference_ms() times a fixed chain of 1024-bit Montgomery products,
/// the benchmark's own code, in thread CPU time (so a thread of the
/// program competing for the core does not count), on `threads` threads
/// at once, and returns their mean: it speeds up and slows down with the
/// program's bigint work run on as many threads. Every timing is reported
/// in reference-host time, the measured time scaled by host_scale() of
/// the reference readings taken just before and after it.
double reference_ms(unsigned threads = 1);

/// reference_ms() on the reference host in its usual state; sets the
/// unit of every reported timing.
inline constexpr double kReferenceMs = 2.2;

/// Factor from measured to reference-host time for a timing between
/// reference readings `before` and `after`, whose usual value on the
/// reference host is `usual`.
inline double host_scale(double before, double after,
                         double usual = kReferenceMs) {
  return 2 * usual / (before + after);
}

/// Runs one call into a public layer of the program under a
/// benchmark-side obs::Span named `name`. Spans are recorded only while
/// obs tracing is on (traced runs); untraced runs pay a relaxed load.
template <class Fn>
void step(const char* name, Fn&& fn) {
  ppms::obs::Span span(name);
  fn();
}

/// Measured cost of one span with tracing and metrics on (open, close,
/// record, histogram observe), in ms. Leaves no spans and resets the
/// obs registry, so call it before the workload counts anything.
double span_cost_ms();

// JSON helpers for the report.
std::string json_string(const std::string& s);
std::string json_number(double v);

/// What a workload hands back to main(): counts, metrics, context and
/// the JSON fragments of the report.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;  // kOverloaded answers that were retried
  std::vector<std::string> failures;  // first few diagnostics
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> context;  // key -> JSON value
  std::map<std::string, std::string> checks;   // key -> JSON value
  std::string inputs_sha256;
  std::string spans_json;  // obs::render_trace_json of a few traces
  double span_cost_ms = 0;  // traced runs: span_cost_ms()
  /// Measured-to-reference-host factor over the timed phase of a
  /// one-thread workload (1 where timings stay as measured); main()
  /// applies it to the per-layer timings of traced runs.
  double host_scale = 1;
  /// End-to-end timings as measured, before host scaling (for the report).
  std::map<std::string, double> wall_clock;

  void fail(const std::string& why);
  /// Count one operation that passed or failed its self-checks.
  void check(bool ok, const std::string& why);
};

/// Median set-up time: in reference-host seconds, and as measured.
struct SetupTime {
  double scaled_s = 0;
  double measured_s = 0;
};

/// Set the workload up kSetupRepeats times, repetition r from deployment
/// sub-seed r (so one lucky or unlucky key search does not decide
/// setup_s), and keep repetition 0's fixture. Every repetition's time
/// as measured goes into the report.
template <class Fixture, class Build>
SetupTime timed_setup(Report& report, Fixture& keep, Build&& build) {
  std::vector<double> seconds;
  std::vector<double> measured;
  std::string list;
  double ref = reference_ms();
  for (std::uint64_t rep = 0; rep < kSetupRepeats; ++rep) {
    const auto t0 = Clock::now();
    Fixture fixture = build(rep);
    measured.push_back(ms_between(t0, Clock::now()) / 1e3);
    const double next = reference_ms();
    seconds.push_back(measured.back() * host_scale(ref, next));
    ref = next;
    list += (list.empty() ? "" : ", ") + json_number(measured.back());
    if (rep == 0) keep = std::move(fixture);
  }
  report.checks["setup_s_repeats"] = "[" + list + "]";
  return {median(seconds), median(measured)};
}

// Workloads. Each fills the metrics of the run's kind: the end-to-end
// ones untraced, the per-layer ones traced.
void run_dec_session(const Options& opt, Report& report);
void run_ma_deposits(const Options& opt, Report& report);
void run_pbs_session(const Options& opt, Report& report);

/// Per-layer metrics read off the obs registry, which counts only while
/// traced operations run: per-session counts over `sessions`, per-coin
/// counts over `coins` (a zero divisor leaves those metrics unset).
void registry_layer_metrics(Report& report, double sessions, double coins);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// Mean of a global obs registry histogram in µs, 0 when empty.
double histogram_mean_us(const std::string& name);

}  // namespace perfbench
