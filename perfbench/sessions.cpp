#include "sessions.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "obs/export.h"
#include "obs/metrics.h"

namespace perfbench {

namespace {

/// Traces dumped in the report: the first few sessions.
constexpr std::size_t kDumpedTraces = 3;

/// The per-step ledger of a traced run, from the recorded spans: each
/// kSessionSpan root against the sum of its direct children.
void step_ledger(Report& report, const std::vector<StepDef>& steps,
                 double sessions) {
  const std::vector<ppms::obs::SpanRecord> records =
      ppms::obs::trace_records();
  std::map<std::uint64_t, double> root_ms;  // root span id -> duration
  std::set<std::uint64_t> dumped;           // trace ids of the dump
  for (const auto& r : records) {
    if (r.name != kSessionSpan || r.parent_id != 0) continue;
    root_ms[r.span_id] = static_cast<double>(r.dur_us) / 1e3;
    if (dumped.size() < kDumpedTraces) dumped.insert(r.trace_id);
  }
  std::map<std::uint64_t, double> children_ms;  // root span id -> sum
  std::map<std::string, double> step_ms;        // step name -> total
  std::vector<ppms::obs::SpanRecord> dump;
  for (const auto& r : records) {
    if (dumped.count(r.trace_id) != 0) dump.push_back(r);
    if (root_ms.count(r.parent_id) == 0) continue;
    children_ms[r.parent_id] += static_cast<double>(r.dur_us) / 1e3;
    step_ms[r.name] += static_cast<double>(r.dur_us) / 1e3;
  }

  double total_ms = 0;
  double steps_sum_ms = 0;
  double worst_gap = 0;
  for (const auto& [id, ms] : root_ms) {
    const double sum = children_ms[id];
    const double gap = std::fabs(ms - sum) / ms;
    worst_gap = std::max(worst_gap, gap);
    if (gap > kStepSumTolerance) {
      report.fail("session span " + std::to_string(id) +
                  ": step spans miss the session latency by " +
                  json_number(gap * 100) + "%");
    }
    total_ms += ms;
    steps_sum_ms += sum;
  }
  for (const StepDef& s : steps) {
    report.metrics[s.metric] = step_ms[s.span] / sessions;
  }
  report.metrics["session.total_ms"] = total_ms / sessions;
  report.metrics["session.unattributed_ms"] =
      (total_ms - steps_sum_ms) / sessions;
  report.metrics["session.step_sum_gap_pct"] =
      100 * (total_ms - steps_sum_ms) / total_ms;
  // Every span a session records, the program's own included, costs
  // what span_cost_ms() measured.
  report.metrics["trace.span_cost_ms_per_op"] =
      report.span_cost_ms * static_cast<double>(records.size()) / sessions;
  report.checks["traced_sessions"] = std::to_string(root_ms.size());
  report.checks["step_sum_tolerance_pct"] =
      json_number(kStepSumTolerance * 100);
  report.checks["step_sum_worst_gap_pct"] = json_number(worst_gap * 100);
  report.spans_json = ppms::obs::render_trace_json(dump);
}

}  // namespace

void drive_sessions(const Options& opt, Report& report,
                    const std::vector<StepDef>& steps, SetupTime setup,
                    std::uint64_t block, std::uint64_t max_sessions,
                    const SessionFn& session) {
  std::vector<double> latency_ms;   // reference-host time
  std::vector<double> measured_ms;  // as measured
  std::uint64_t wire = 0;
  std::uint64_t coins = 0;
  std::uint64_t fakes = 0;
  ppms::obs::set_tracing_enabled(opt.trace);
  ppms::obs::set_metrics_enabled(opt.trace);
  const auto start = Clock::now();
  double ref = reference_ms();
  for (std::uint64_t i = 0; i < max_sessions; ++i) {
    const bool spent = ms_between(start, Clock::now()) >= opt.seconds * 1e3;
    if (i % block == 0 && spent) break;
    const SessionResult r = session(i);
    const double next = reference_ms();
    measured_ms.push_back(ms_between(r.t0, r.t1));
    latency_ms.push_back(measured_ms.back() * host_scale(ref, next));
    ref = next;
    wire += r.wire_bytes;
    coins += r.coins;
    fakes += r.fake_coins;
  }
  ppms::obs::set_tracing_enabled(false);
  ppms::obs::set_metrics_enabled(false);
  auto sum = [](const std::vector<double>& v) {
    double total = 0;
    for (double x : v) total += x;
    return total;
  };
  report.host_scale = sum(latency_ms) / sum(measured_ms);
  report.checks["latency_samples"] = std::to_string(latency_ms.size());
  report.checks["timed_wall_s"] =
      json_number(ms_between(start, Clock::now()) / 1e3);

  const auto n = static_cast<double>(latency_ms.size());
  if (opt.trace) {
    step_ledger(report, steps, n);
    report.metrics["dec.coins_per_session"] = static_cast<double>(coins) / n;
    report.metrics["dec.fake_coins_per_session"] =
        static_cast<double>(fakes) / n;
    report.metrics["market.traffic_bytes_per_session"] =
        static_cast<double>(wire) / n;
    registry_layer_metrics(report, n, static_cast<double>(coins));
    return;
  }
  // Sessions run back to back, so sessions per second of session time.
  report.metrics["throughput_per_s"] = n / (sum(latency_ms) / 1e3);
  report.metrics["latency_ms_p50"] = quantile(latency_ms, 0.50);
  report.metrics["latency_ms_p75"] = quantile(latency_ms, 0.75);
  report.wall_clock["throughput_per_s"] = n / (sum(measured_ms) / 1e3);
  report.wall_clock["latency_ms_p50"] = quantile(measured_ms, 0.50);
  report.wall_clock["latency_ms_p75"] = quantile(measured_ms, 0.75);
  report.metrics["wire_kib_per_op"] = static_cast<double>(wire) / n / 1024;
  report.metrics["setup_s"] = setup.scaled_s;
  report.wall_clock["setup_s"] = setup.measured_s;
  report.metrics["peak_rss_mb"] = peak_rss_mb();
  std::string samples;
  for (double ms : latency_ms) {
    samples += (samples.empty() ? "" : ", ") + json_number(ms);
  }
  report.checks["session_latency_ms"] = "[" + samples + "]";
}

}  // namespace perfbench
