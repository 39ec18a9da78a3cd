// Guarded I/O: classified errors, deterministic retry with backoff.
//
// Every file the program reads or writes goes through this layer —
// checkpoint blobs, .dmx cache blobs, report/trace/metrics artifacts,
// spec files, .bench circuits, and the CLI's ROM and .scp files — and
// nothing else opens a file stream.  Each persisted text format is one
// string codec (reseed/serialize.h, cover/instance_io.h,
// netlist/bench_io.h, campaign/checkpoint.h, campaign/spec.h), and
// this layer moves the string.  It gives each site three things:
//
//   1. A failpoint (util::failpoint) at the top of every attempt, so
//      chaos tests inject failures on the exact production path.
//   2. Error *classification*: IoError carries transient() — EINTR/
//      EAGAIN/EIO-shaped failures are worth retrying, ENOSPC/EROFS/
//      EACCES/ENOENT-shaped ones are not.
//   3. A bounded, deterministic retry loop: transients retry up to
//      RetryPolicy::max_attempts with capped exponential backoff
//      (1,2,4,... ms — a fixed sequence, no jitter, so chaos runs are
//      reproducible); permanents propagate immediately.  Retries and
//      give-ups are counted (io.retries / io.giveups) so a --metrics
//      snapshot shows how hard the disk fought back.
//
// Writers are atomic: payload lands in `path + ".tmp.<pid>"`, is
// flush- and close-checked, then renamed over the target — a torn
// write can leave a stale temp (swept by CheckpointStore on open) but
// never a half-written final file.  An existing target that is not a
// regular file (a FIFO, a device, a symlink such as /dev/stdout) is
// never renamed over: it is written in place, with the same checks.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

namespace fbist::util::io {

/// An I/O failure with a retry classification.  Thrown by the helpers
/// below; callers that degrade (breakers) catch this type.
class IoError : public std::runtime_error {
 public:
  IoError(const std::string& what, bool transient)
      : std::runtime_error(what), transient_(transient) {}
  /// True when a retry could plausibly succeed (EINTR, EAGAIN, EIO);
  /// false for structural failures (ENOSPC, EROFS, EACCES, ENOENT).
  bool transient() const { return transient_; }

 private:
  bool transient_;
};

/// Classifies an errno value.  Exposed for tests.
bool errno_is_transient(int err);

struct RetryPolicy {
  int max_attempts = 4;            // total tries, including the first
  std::uint64_t base_backoff_ms = 1;   // doubles per retry
  std::uint64_t max_backoff_ms = 50;   // cap on any single sleep
};

/// Runs `op` with the retry loop described above.  `site` names the
/// operation in give-up messages.  Transient IoError and transient
/// failpoint::InjectedError retry; permanent ones rethrow immediately
/// (injected errors are rewrapped as IoError so callers see one type).
/// Exhausting the budget rethrows the last error with a
/// "(gave up after N attempts)" suffix.
void with_retries(const char* site, const std::function<void()>& op,
                  const RetryPolicy& policy = RetryPolicy{});

/// Atomically writes `payload` to `path` (tmp + flush/close check +
/// rename) under with_retries; evaluates the failpoint `site` on each
/// attempt.  A target that exists and is not a regular file is written
/// in place instead (see the header comment).
void write_file_atomic(const char* site, const std::string& path,
                       const std::string& payload,
                       const RetryPolicy& policy = RetryPolicy{});

/// Reads all of `path` under with_retries; evaluates the failpoint
/// `site` on each attempt.  A missing file is a permanent IoError.
std::string read_file(const char* site, const std::string& path,
                      const RetryPolicy& policy = RetryPolicy{});

}  // namespace fbist::util::io
