// Circuit breakers: degrade gracefully instead of failing repeatedly.
//
// When a disk goes bad mid-sweep (ENOSPC, yanked mount, permission
// flip), every subsequent checkpoint or cache write fails the same way.
// Retrying each one wastes the backoff budget N times over and floods
// stderr; aborting the sweep throws away hours of compute because an
// *optional* durability layer broke.  A CircuitBreaker latches instead:
// after `threshold` consecutive guarded-operation failures it trips,
// warns once (naming the degradation the caller declared — "cache
// turns off", "checkpointing disabled, durability lost"), bumps
// breaker.tripped, and from then on allowed() is false so the caller
// skips the doomed I/O entirely.  The sweep completes; only
// durability is lost — which is exactly the contract the report's
// canonical section never depended on.
//
// Tripping is one-way for the process lifetime (a disk that failed
// `threshold` times in a row mid-sweep is not worth re-probing during
// the same sweep); a success before the threshold resets the
// consecutive count.
#pragma once

#include <atomic>
#include <string>

namespace fbist::util {

class CircuitBreaker {
 public:
  /// `name` labels diagnostics; `degradation` is the one-line
  /// consequence printed when the breaker trips.
  CircuitBreaker(std::string name, std::string degradation,
                 int threshold = 3);

  /// False once tripped — callers skip the guarded operation.
  bool allowed() const {
    return !tripped_.load(std::memory_order_relaxed);
  }
  bool tripped() const {
    return tripped_.load(std::memory_order_relaxed);
  }
  int threshold() const { return threshold_; }

  void record_success();
  /// Counts a consecutive failure; at `threshold` trips the breaker
  /// (warn once + breaker.tripped counter).
  void record_failure();

 private:
  std::string name_;
  std::string degradation_;
  int threshold_;
  std::atomic<int> consecutive_{0};
  std::atomic<bool> tripped_{false};
};

}  // namespace fbist::util
