// Sequential session loop shared by dec_session and pbs_session: plays
// sessions 0, 1, 2, ... on one market until the time budget is spent.
// Untraced runs report the end-to-end metrics; traced runs record every
// protocol step as an obs::Span and report the per-step ledger.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

/// Root span of one session; its protocol steps are its direct children.
inline constexpr const char* kSessionSpan = "perfbench.session";

/// What one session hands back. `t0`/`t1` bracket its root span (its
/// first and last protocol step); the checks after the last step are
/// outside.
struct SessionResult {
  Clock::time_point t0;
  Clock::time_point t1;
  std::uint64_t wire_bytes = 0;
  std::uint64_t coins = 0;       // real coins delivered
  std::uint64_t fake_coins = 0;
};

/// Runs session `index` (checks go into the report): its protocol steps
/// as step() calls under one kSessionSpan.
using SessionFn = std::function<SessionResult(std::uint64_t index)>;

/// The step spans of one workload, in protocol order: span name and the
/// per-layer metric its mean per session is reported as.
struct StepDef {
  const char* span;
  const char* metric;
};

/// Largest tolerated |sum of step spans - session latency|, as a share
/// of the session latency: the step ledger must explain the session.
inline constexpr double kStepSumTolerance = 0.01;

/// Drive sessions and fill the report's metrics. The loop stops only
/// between blocks of `block` sessions, at the first block boundary after
/// opt.seconds, or after `max_sessions`; so a faster or slower program
/// still plays whole blocks of the same inputs. Sessions run on this one
/// thread, so their timings are reported in reference-host time.
void drive_sessions(const Options& opt, Report& report,
                    const std::vector<StepDef>& steps, SetupTime setup,
                    std::uint64_t block, std::uint64_t max_sessions,
                    const SessionFn& session);

}  // namespace perfbench
