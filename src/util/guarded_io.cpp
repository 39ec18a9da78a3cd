#include "util/guarded_io.h"

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "util/failpoint.h"

namespace fs = std::filesystem;

namespace fbist::util::io {

namespace {

std::string errno_suffix(int err) {
  return err == 0 ? std::string()
                  : std::string(": ") + std::strerror(err);
}

void remove_quietly(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
}

std::uint64_t backoff_ms(const RetryPolicy& policy, int retry_index) {
  std::uint64_t ms = policy.base_backoff_ms;
  for (int i = 0; i < retry_index; ++i) {
    ms *= 2;
    if (ms >= policy.max_backoff_ms) return policy.max_backoff_ms;
  }
  return ms < policy.max_backoff_ms ? ms : policy.max_backoff_ms;
}

}  // namespace

bool errno_is_transient(int err) {
  switch (err) {
    // A retry can plausibly see these clear: interrupted call, busy
    // resource, a flaky medium, table pressure.
    case EINTR:
    case EAGAIN:
    case EIO:
    case EBUSY:
    case ENFILE:
    case EMFILE:
      return true;
    // Structural: the disk is full, read-only, forbidden, or the path
    // is wrong — retrying in milliseconds cannot help.
    case ENOSPC:
    case EROFS:
    case EACCES:
    case EPERM:
    case ENOENT:
    case ENOTDIR:
    case EISDIR:
    case ENAMETOOLONG:
#ifdef EDQUOT
    case EDQUOT:
#endif
      return false;
    // Unknown errno (including 0, when a stream fails without setting
    // one): treat as transient — the retry budget bounds the cost and
    // a spurious retry beats a spurious give-up.
    default:
      return true;
  }
}

void with_retries(const char* site, const std::function<void()>& op,
                  const RetryPolicy& policy) {
  OBS_COUNTER(c_retries, "io.retries");
  OBS_COUNTER(c_giveups, "io.giveups");
  int attempt = 1;
  for (;;) {
    bool transient = false;
    std::string err;
    try {
      op();
      return;
    } catch (const failpoint::InjectedError& e) {
      transient = e.transient();
      err = e.what();
    } catch (const IoError& e) {
      transient = e.transient();
      err = e.what();
    }
    if (!transient) {
      OBS_COUNT(c_giveups, 1);
      throw IoError(err, false);
    }
    if (attempt >= policy.max_attempts) {
      OBS_COUNT(c_giveups, 1);
      throw IoError(err + " (" + site + ": gave up after " +
                        std::to_string(attempt) + " attempts)",
                    true);
    }
    OBS_COUNT(c_retries, 1);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(backoff_ms(policy, attempt - 1)));
    ++attempt;
  }
}

void write_file_atomic(const char* site, const std::string& path,
                       const std::string& payload,
                       const RetryPolicy& policy) {
  with_retries(
      site,
      [&] {
        FBIST_FAILPOINT(site);
        // An existing target that is not a regular file (a FIFO, a
        // device, a symlink such as /dev/stdout) is written in place:
        // renaming a temp over it would replace the node itself.
        std::error_code ec;
        const fs::file_status st = fs::symlink_status(path, ec);
        const bool in_place =
            !ec && fs::exists(st) && !fs::is_regular_file(st);
        const std::string target =
            in_place ? path : path + ".tmp." + std::to_string(::getpid());
        errno = 0;
        std::ofstream out(target, std::ios::binary | std::ios::trunc);
        if (!out) {
          throw IoError("cannot open " + target + errno_suffix(errno),
                        errno_is_transient(errno));
        }
        out.write(payload.data(),
                  static_cast<std::streamsize>(payload.size()));
        out.flush();
        out.close();  // a failed write, flush or close leaves errno set
        if (!out) {
          const int err = errno;
          if (!in_place) remove_quietly(target);
          throw IoError("short write to " + target + errno_suffix(err),
                        errno_is_transient(err));
        }
        if (in_place) return;
        fs::rename(target, path, ec);
        if (ec) {
          remove_quietly(target);
          throw IoError("cannot rename " + target + " to " + path + ": " +
                            ec.message(),
                        errno_is_transient(ec.value()));
        }
      },
      policy);
}

std::string read_file(const char* site, const std::string& path,
                      const RetryPolicy& policy) {
  std::string text;
  with_retries(
      site,
      [&] {
        FBIST_FAILPOINT(site);
        errno = 0;
        std::ifstream in(path, std::ios::binary);
        if (!in) {
          throw IoError("cannot open " + path + errno_suffix(errno),
                        errno_is_transient(errno));
        }
        // A failed read(2) marks `in` bad: a directory opens fine and
        // fails here with EISDIR.  (Streaming in.rdbuf() into a string
        // stream would swallow that error and return "".)
        std::string got;
        char chunk[1 << 16];
        while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
          got.append(chunk, static_cast<std::size_t>(in.gcount()));
        }
        if (in.bad()) {
          const int err = errno;
          throw IoError("cannot read " + path + errno_suffix(err),
                        errno_is_transient(err));
        }
        text = std::move(got);
      },
      policy);
  return text;
}

}  // namespace fbist::util::io
