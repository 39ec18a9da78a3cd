// Run-level deadlines: cooperative cancellation for bounded execution.
//
// A hung run must never hang the sweep: the campaign runner arms one
// Deadline per matrix build and one per run's solve
// (CampaignOptions::run_timeout_ms), and the long compute loops below
// them — the builder's per-packing fan-out, the optimizer stages, the
// exact solver's branch-and-bound — poll it at natural chunk
// boundaries.  Expiry surfaces as a TimeoutError, which
// the runner converts into a *canonical* failed RunResult (the error
// text quotes the configured limit, never the measured time or the
// stage it fired in, so a timed-out run checkpoints and reports
// deterministically like any other failure).
//
// Cooperative by design: each poll sits between bounded units of work
// (one packing is one bounded PPSFP walk; PODEM's backtrack cap bounds
// the ATPG phase; the solver checks every few thousand nodes), so a
// deadline is honored within one unit's latency without instrumenting
// any inner simulation loop.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "obs/clock.h"

namespace fbist::util {

/// Thrown by Deadline::check at a cooperative cancellation point.
class TimeoutError : public std::runtime_error {
 public:
  explicit TimeoutError(const std::string& what) : std::runtime_error(what) {}
};

/// A wall-clock budget on the shared monotonic obs::Clock.  Default
/// constructed it is unarmed and never expires; armed via after_ms.
/// Copyable value type; callers pass `const Deadline*` (null = none).
class Deadline {
 public:
  Deadline() = default;

  static Deadline after_ms(std::uint64_t ms) {
    Deadline d;
    d.armed_ = true;
    d.limit_ms_ = ms;
    d.expires_ns_ = obs::Clock::now_ns() + ms * 1'000'000ull;
    return d;
  }

  bool armed() const { return armed_; }
  bool expired() const {
    return armed_ && obs::Clock::now_ns() >= expires_ns_;
  }
  /// The configured budget (what error messages quote).
  std::uint64_t limit_ms() const { return limit_ms_; }

  /// Throws TimeoutError when expired.  The message names the budget,
  /// not the elapsed time — callers that persist it stay deterministic.
  void check(const char* what) const {
    if (expired()) {
      throw TimeoutError(std::string(what) + ": exceeded the " +
                         std::to_string(limit_ms_) + " ms run deadline");
    }
  }

 private:
  bool armed_ = false;
  std::uint64_t limit_ms_ = 0;
  std::uint64_t expires_ns_ = 0;
};

}  // namespace fbist::util
