// Exponential backoff with deterministic jitter for transient-failure
// retry loops.
//
// The xicd request path retries transient failures under this schedule
// (the batch engine's per-document retries are immediate). Retrying a
// shared service immediately turns a transient overload into a
// stampede; retrying after a fixed delay synchronizes the retriers into
// waves. The standard fix is exponential backoff with jitter -- but
// random jitter would make retried runs unreproducible, which this
// codebase cannot afford (faulted responses are byte-identical across
// thread counts, and tests replay exact schedules). The jitter here is therefore *deterministic*: a hash of
// (seed, key, attempt) spread over the jitter window, so two runs of the
// same workload wait the same milliseconds, while distinct work items
// ("gen1" vs "gen2") decorrelate instead of thundering together.
//
// The default-constructed config has initial_delay_ms == 0 and disables
// waiting entirely (the pre-backoff behavior); callers opt in per
// pipeline.

#ifndef XIC_UTIL_BACKOFF_H_
#define XIC_UTIL_BACKOFF_H_

#include <chrono>
#include <cstdint>
#include <string_view>

namespace xic {

struct BackoffConfig {
  /// Delay before the first retry (attempt 1). 0 disables backoff: every
  /// retry is immediate, and DelayFor returns zero for all attempts.
  uint64_t initial_delay_ms = 0;
  /// Growth factor per attempt (delay for attempt n is
  /// initial * multiplier^(n-1), before jitter and capping).
  double multiplier = 2.0;
  /// Upper bound on the (pre-jitter) delay.
  uint64_t max_delay_ms = 2000;
  /// Fraction of the delay that is jittered: the final delay is drawn
  /// deterministically from [delay * (1 - jitter), delay * (1 + jitter)].
  /// 0 disables jitter; values are clamped to [0, 1].
  double jitter = 0.5;
  /// Keys the deterministic jitter (combined with the work item's key and
  /// the attempt number).
  uint64_t seed = 0;

  bool enabled() const { return initial_delay_ms > 0; }
};

/// The delay to wait before retry number `attempt` (1-based: attempt 1 is
/// the first retry) of work item `key`. Pure function of its inputs --
/// the same (config, key, attempt) always yields the same delay.
std::chrono::milliseconds BackoffDelay(const BackoffConfig& config,
                                       std::string_view key, size_t attempt);

/// Sleeps for BackoffDelay(...). Returns the delay it slept (tests and
/// spans). Never sleeps when the config is disabled or the delay is zero.
std::chrono::milliseconds BackoffSleep(const BackoffConfig& config,
                                       std::string_view key, size_t attempt);

}  // namespace xic

#endif  // XIC_UTIL_BACKOFF_H_
