// The one monotonic clock of the observability layer.
//
// Every timestamp in the stack — span begin/end, metric latency
// samples, report wall_ms, checkpoint write timings — reads this clock,
// so durations from different subsystems compose on one timeline (the
// Chrome trace depends on that: span nesting across layers only lines
// up when everyone shares an epoch).  A timing site keeps the now_ns()
// it started at and converts the difference with to_s/to_ms/to_us.
//
// Timestamps are nanoseconds since the first use in the process (a
// process-local epoch keeps trace numbers small and readable; absolute
// time carries no meaning for intra-run profiling).
#pragma once

#include <chrono>
#include <cstdint>

namespace fbist::obs {

class Clock {
 public:
  /// Nanoseconds since the process-local epoch (monotonic, never
  /// adjusted).  First caller pins the epoch.
  static std::uint64_t now_ns() {
    // Pin the epoch BEFORE sampling: on the very first call the static
    // epoch initialises after a `now()` taken first would have, making
    // t - epoch() a few ns negative — and the uint64 cast would turn
    // that into an astronomically large timestamp.
    const auto t0 = epoch();
    const auto t = std::chrono::steady_clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0).count());
  }

  static double to_s(std::uint64_t ns) {
    return static_cast<double>(ns) * 1e-9;
  }
  static double to_ms(std::uint64_t ns) {
    return static_cast<double>(ns) * 1e-6;
  }
  static double to_us(std::uint64_t ns) {
    return static_cast<double>(ns) * 1e-3;
  }

 private:
  static std::chrono::steady_clock::time_point epoch() {
    static const auto t0 = std::chrono::steady_clock::now();
    return t0;
  }
};

}  // namespace fbist::obs
