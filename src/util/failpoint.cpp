#include "util/failpoint.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>

#include "obs/diag.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace fbist::util::failpoint {

namespace {

enum class Kind { kOff, kErr, kPerm, kEnospc, kDelay };

struct Site {
  Kind kind = Kind::kOff;
  double p = 0.0;           // firing probability (err/perm/enospc)
  std::uint64_t seed = 0;   // decision-hash seed
  std::uint64_t max = ~std::uint64_t{0};  // fire cap
  std::uint64_t delay_ms = 0;
  std::atomic<std::uint64_t> evals{0};
  std::atomic<std::uint64_t> fired{0};
};

// Armed sites.  configure() swaps the whole map under the mutex;
// eval_slow takes the same mutex for its lookup — firing sits on error
// paths and cold I/O paths, never inside a compute loop, so contention
// is irrelevant next to determinism.
std::mutex g_mu;
std::map<std::string, std::unique_ptr<Site>>& sites() {
  static auto* m = new std::map<std::string, std::unique_ptr<Site>>();
  return *m;
}

// Deterministic firing decision for evaluation ordinal n at a site:
// depends only on (seed, site name, n), never on time or threads.
bool decides_to_fire(const Site& s, const std::string& name,
                     std::uint64_t n) {
  if (s.p >= 1.0) return true;
  if (s.p <= 0.0) return false;
  Fnv1a site(Fnv1a::kShortBasis);
  site.bytes(name);
  std::uint64_t state = s.seed ^ site.h ^ (n * 0x9e3779b97f4a7c15ull);
  const std::uint64_t h = splitmix64(state);
  return static_cast<double>(h) <
         s.p * 18446744073709551616.0;  // p * 2^64
}

const char* grammar_help() {
  return "valid forms: site=err(p[,seed[,max]]) | site=perm(p[,seed[,max]])"
         " | site=enospc(p[,seed[,max]]) | site=delay(ms[,max]) | site=off;"
         " pairs separated by ';'";
}

[[noreturn]] void bad_spec(const std::string& why) {
  throw std::runtime_error("FBIST_FAILPOINTS: " + why + "; " + grammar_help());
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

double parse_double(const std::string& tok, const std::string& pair) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(tok, &pos);
    if (pos != tok.size()) bad_spec("trailing junk in number '" + tok + "' in '" + pair + "'");
    return v;
  } catch (const std::invalid_argument&) {
    bad_spec("expected a number, got '" + tok + "' in '" + pair + "'");
  } catch (const std::out_of_range&) {
    bad_spec("number '" + tok + "' out of range in '" + pair + "'");
  }
}

std::uint64_t parse_u64(const std::string& tok, const std::string& pair) {
  if (tok.empty() || tok[0] == '-') {
    bad_spec("expected a non-negative integer, got '" + tok + "' in '" + pair + "'");
  }
  try {
    std::size_t pos = 0;
    const unsigned long long v = std::stoull(tok, &pos);
    if (pos != tok.size()) bad_spec("trailing junk in number '" + tok + "' in '" + pair + "'");
    return v;
  } catch (const std::invalid_argument&) {
    bad_spec("expected a non-negative integer, got '" + tok + "' in '" + pair + "'");
  } catch (const std::out_of_range&) {
    bad_spec("number '" + tok + "' out of range in '" + pair + "'");
  }
}

// Parses "name(arg[,arg...])" → (name, args).  "off" has no parens.
std::unique_ptr<Site> parse_action(const std::string& action,
                                   const std::string& pair) {
  auto site = std::make_unique<Site>();
  if (action == "off") {
    site->kind = Kind::kOff;
    return site;
  }
  const std::size_t open = action.find('(');
  if (open == std::string::npos || action.back() != ')') {
    bad_spec("malformed action '" + action + "' in '" + pair + "'");
  }
  const std::string name = action.substr(0, open);
  const std::string inner = action.substr(open + 1, action.size() - open - 2);
  std::vector<std::string> args;
  for (const auto& a : split(inner, ',')) args.push_back(trim(a));
  if (args.size() == 1 && args[0].empty()) args.clear();

  if (name == "err" || name == "perm" || name == "enospc") {
    if (args.empty() || args.size() > 3) {
      bad_spec("'" + name + "' takes (p[,seed[,max]]) in '" + pair + "'");
    }
    site->kind = name == "err" ? Kind::kErr
                               : (name == "perm" ? Kind::kPerm : Kind::kEnospc);
    site->p = parse_double(args[0], pair);
    if (site->p < 0.0 || site->p > 1.0) {
      bad_spec("probability " + args[0] + " outside [0,1] in '" + pair + "'");
    }
    if (args.size() >= 2) site->seed = parse_u64(args[1], pair);
    if (args.size() >= 3) site->max = parse_u64(args[2], pair);
  } else if (name == "delay") {
    if (args.empty() || args.size() > 2) {
      bad_spec("'delay' takes (ms[,max]) in '" + pair + "'");
    }
    site->kind = Kind::kDelay;
    site->p = 1.0;
    site->delay_ms = parse_u64(args[0], pair);
    if (args.size() >= 2) site->max = parse_u64(args[1], pair);
  } else {
    bad_spec("unknown action '" + name + "' in '" + pair + "'");
  }
  return site;
}

void refresh_armed_flag() {
  bool any = false;
  for (const auto& [name, s] : sites()) {
    (void)name;
    if (s->kind != Kind::kOff) any = true;
  }
  detail::g_armed.store(any, std::memory_order_relaxed);
}

}  // namespace

namespace detail {
std::atomic<bool> g_armed{false};

void eval_slow(const char* site_name) {
  Kind kind = Kind::kOff;
  std::uint64_t delay_ms = 0;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    auto it = sites().find(site_name);
    if (it == sites().end()) return;
    Site& s = *it->second;
    if (s.kind == Kind::kOff) return;
    const std::uint64_t n = s.evals.fetch_add(1, std::memory_order_relaxed);
    if (s.fired.load(std::memory_order_relaxed) >= s.max) return;
    if (!decides_to_fire(s, it->first, n)) return;
    s.fired.fetch_add(1, std::memory_order_relaxed);
    kind = s.kind;
    delay_ms = s.delay_ms;
  }
  OBS_COUNTER(c_injected, "failpoint.injected");
  OBS_COUNT(c_injected, 1);
  switch (kind) {
    case Kind::kErr:
      throw InjectedError(site_name,
                          "injected transient I/O error at " +
                              std::string(site_name),
                          /*transient=*/true);
    case Kind::kPerm:
      throw InjectedError(site_name,
                          "injected permanent I/O error at " +
                              std::string(site_name),
                          /*transient=*/false);
    case Kind::kEnospc:
      throw InjectedError(site_name,
                          "injected error at " + std::string(site_name) +
                              ": No space left on device",
                          /*transient=*/false);
    case Kind::kDelay:
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      return;
    case Kind::kOff:
      return;
  }
}
}  // namespace detail

const std::vector<std::string>& known_sites() {
  // Every FBIST_FAILPOINT site in the tree, sorted.  The CI chaos job
  // diffs `fbist failpoints` against its chaos spec, so adding a site
  // here without covering it there fails the build — the list cannot
  // silently drift.
  static const std::vector<std::string> kSites = {
      "builder.pack",     "cache.disk_read", "cache.disk_write",
      "checkpoint.read",  "checkpoint.write", "metrics.write",
      "report.write",     "spec.read",        "trace.write",
  };
  return kSites;
}

void configure(const std::string& spec) {
  std::map<std::string, std::unique_ptr<Site>> parsed;
  for (const auto& raw : split(spec, ';')) {
    const std::string pair = trim(raw);
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos || eq == 0) {
      bad_spec("expected site=action, got '" + pair + "'");
    }
    const std::string site = trim(pair.substr(0, eq));
    const std::string action = trim(pair.substr(eq + 1));
    const auto& known = known_sites();
    if (std::find(known.begin(), known.end(), site) == known.end()) {
      bad_spec("unknown failpoint site '" + site +
               "' (run `fbist failpoints` for the list)");
    }
    if (parsed.count(site) != 0) {
      bad_spec("site '" + site + "' configured twice");
    }
    parsed.emplace(site, parse_action(action, pair));
  }
  {
    std::lock_guard<std::mutex> lock(g_mu);
    sites() = std::move(parsed);
    refresh_armed_flag();
  }
}

bool configure_from_env() {
  const char* env = std::getenv("FBIST_FAILPOINTS");
  if (env == nullptr || *env == '\0') return false;
  if (!compiled_in()) {
    obs::diag(obs::Severity::kWarn, "failpoint",
              "FBIST_FAILPOINTS is set but injection sites are compiled out "
              "(-DFBIST_FAILPOINTS=OFF); ignoring");
    return false;
  }
  configure(env);
  return armed();
}

void clear() {
  std::lock_guard<std::mutex> lock(g_mu);
  sites().clear();
  refresh_armed_flag();
}

bool armed() {
  return detail::g_armed.load(std::memory_order_relaxed);
}

std::uint64_t fires(const std::string& site) {
  std::lock_guard<std::mutex> lock(g_mu);
  auto it = sites().find(site);
  return it == sites().end()
             ? 0
             : it->second->fired.load(std::memory_order_relaxed);
}

std::uint64_t injected_count() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::uint64_t total = 0;
  for (const auto& [name, s] : sites()) {
    (void)name;
    total += s->fired.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace fbist::util::failpoint
