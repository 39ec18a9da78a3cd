// Deterministic pseudo-random number generation (xoshiro256**).
//
// Every stochastic choice in the library (random ATPG patterns, random
// seeds sigma, GA mutations) flows from an explicitly seeded Rng so that
// experiments are exactly reproducible run-to-run and machine-to-machine.
#pragma once

#include <cstdint>
#include <string>

namespace fbist::util {

/// xoshiro256** generator.  Not thread-safe; use one stream per thread.
class Rng {
 public:
  /// Seeds from a 64-bit value via splitmix64 expansion.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);
  /// Seeds from a string (e.g. a circuit name) so each experiment has a
  /// stable, independent stream.
  static Rng from_string(const std::string& name, std::uint64_t salt = 0);

  std::uint64_t next_u64();
  /// Uniform in [0, bound).  bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);
  /// Uniform double in [0, 1).
  double next_double();
  /// Bernoulli(p).
  bool next_bool(double p = 0.5);

 private:
  std::uint64_t s_[4];
};

/// splitmix64 step — also useful as a cheap string/int mixer.
std::uint64_t splitmix64(std::uint64_t& state);

/// FNV-1a 64-bit accumulator, the one FNV in the library: hash_string,
/// the campaign spec hash, the matrix-cache key and failpoint firing
/// all fold through it.  str() frames a string with its length, so
/// moving a byte between adjacent fields changes the hash.
struct Fnv1a {
  /// The standard FNV-1a offset basis (hash_string's).
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
  /// The basis the spec hash, the matrix-cache key and failpoint firing
  /// start from: the standard one, 14695981039346656037, with its last
  /// decimal digit dropped.  Kept so that checkpoint directories, cache
  /// entries and failpoint firing sequences from before stay valid.
  static constexpr std::uint64_t kShortBasis = 1469598103934665603ull;

  std::uint64_t h;

  explicit Fnv1a(std::uint64_t basis = kOffsetBasis) : h(basis) {}

  void byte(std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  /// Eight bytes, least significant first.
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  /// The string's bytes, unframed.
  void bytes(const std::string& s) {
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
  /// The length as u64, then the bytes.
  void str(const std::string& s) {
    u64(s.size());
    bytes(s);
  }
};

/// FNV-1a 64-bit hash of a string's bytes (no length frame).
std::uint64_t hash_string(const std::string& s);

}  // namespace fbist::util
