// Failpoints: named, seeded fault-injection sites for chaos testing.
//
// A long-running sweep service meets failures no unit test provokes
// naturally: a write that hits ENOSPC halfway, a cache directory that
// starts returning EIO, a run that stalls.  Failpoints let tests and CI
// *inject* those failures deterministically at the exact production
// code paths — no mock filesystems, no LD_PRELOAD — so the hardened
// responses (retry, degrade, deadline) are exercised against the real
// code.
//
// Each durable-I/O site is marked once:
//
//   FBIST_FAILPOINT("checkpoint.write");
//
// Most sites are named by what they guard; two cover a whole class of
// files, since every file goes through util::io (util/guarded_io.h):
// spec.read covers every operator-named input (campaign spec files,
// .bench circuits, the ROM of `replay`, the .scp of `solve`), and
// report.write every CLI output file (`--json` reports, `--out` ROMs
// and .scp instances).
//
// which is a no-op unless that site was armed at process start via the
// environment (or configure() in tests):
//
//   FBIST_FAILPOINTS="checkpoint.write=err(0.4,7);cache.disk_read=enospc(1)"
//
// Grammar — `site=action` pairs separated by `;`:
//
//   site=err(p[,seed[,max]])     transient I/O error, probability p
//   site=perm(p[,seed[,max]])    permanent I/O error
//   site=enospc(p[,seed[,max]])  ENOSPC-shaped permanent error
//   site=delay(ms[,max])         sleep ms milliseconds
//   site=off                     explicitly inert
//
// Firing is *deterministic*: each site keeps an evaluation counter and
// fires iff hash(seed, site, n) < p — independent of thread schedule
// for p=1 or p=0, and reproducible across runs for any p because the
// decision depends only on (seed, site, evaluation ordinal).  `max`
// caps total fires at a site (e.g. err(1,0,2): exactly the first two
// evaluations fail — the canonical "transient error, retry recovers"
// script).  Sites must come from known_sites(); arming a typo is a
// spec error, not a silent no-op.
//
// Compile-time kill switch: built with -DFBIST_FAILPOINTS=OFF (CMake
// option, same discipline as the obs layer) the FBIST_FAILPOINT macro
// expands to nothing — zero instructions at every site.  The registry
// functions themselves always compile (eval() stays testable), and
// configure_from_env() warns-and-ignores an armed environment so an
// OFF build behaves identically to an unset one.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#ifndef FBIST_FAILPOINTS
#define FBIST_FAILPOINTS 1
#endif

namespace fbist::util::failpoint {

/// Thrown by a firing err/perm/enospc action.  `transient()` drives the
/// guarded-I/O layer's classification: transient errors are retried
/// with backoff, permanent ones fail the operation immediately.
class InjectedError : public std::runtime_error {
 public:
  InjectedError(const std::string& site, const std::string& what,
                bool transient)
      : std::runtime_error(what), site_(site), transient_(transient) {}
  const std::string& site() const { return site_; }
  bool transient() const { return transient_; }

 private:
  std::string site_;
  bool transient_;
};

/// True when FBIST_FAILPOINT sites are compiled in.  Tests that need an
/// injection to travel through product code GTEST_SKIP when false.
constexpr bool compiled_in() {
#if FBIST_FAILPOINTS
  return true;
#else
  return false;
#endif
}

/// Every registered site name, sorted.  The spec parser rejects
/// anything else, and `fbist failpoints` prints this list so the CI
/// chaos job can assert it covers every site.
const std::vector<std::string>& known_sites();

/// Arms sites from a spec string (see grammar above).  Replaces any
/// previous configuration.  Throws std::runtime_error on malformed
/// specs — the message names every valid action form — and on unknown
/// site names.
void configure(const std::string& spec);

/// Arms from $FBIST_FAILPOINTS if set and non-empty.  Returns true when
/// at least one site is armed.  In a compiled-out build a set variable
/// is diagnosed (warn) and ignored.  Parse errors propagate.
bool configure_from_env();

/// Disarms everything and zeroes fire counts.
void clear();

/// True when any site is armed with a non-off action.
bool armed();

/// Times the action at `site` has fired (thrown or slept) since the
/// last configure()/clear().
std::uint64_t fires(const std::string& site);

/// Total fires across all sites (mirrors the failpoint.injected
/// counter, but available with observability compiled out).
std::uint64_t injected_count();

namespace detail {
extern std::atomic<bool> g_armed;
/// Out-of-line slow path: looks up `site`, decides, fires.
void eval_slow(const char* site);
}  // namespace detail

/// Evaluates the failpoint at `site`: no-op when nothing is armed
/// (one relaxed load), else may throw InjectedError or sleep.  This is
/// what the FBIST_FAILPOINT macro compiles to; callers with the macro
/// compiled out can still invoke it directly (tests do).
inline void eval(const char* site) {
  if (detail::g_armed.load(std::memory_order_relaxed)) {
    detail::eval_slow(site);
  }
}

}  // namespace fbist::util::failpoint

#if FBIST_FAILPOINTS
#define FBIST_FAILPOINT(site) ::fbist::util::failpoint::eval(site)
#else
#define FBIST_FAILPOINT(site) ((void)0)
#endif
