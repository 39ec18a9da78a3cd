// Test Pattern Generator (TPG) abstraction.
//
// In the Functional BIST scheme the TPG is an existing system module —
// typically an accumulator wrapped around an adder, subtracter or
// multiplier — reused for testing.  The behavioural contract the
// reseeding flow needs is minimal: an n-bit state register, an n-bit
// held input operand sigma, and a deterministic step function
// state <- f(state, sigma) applied once per clock.  Patterns observed at
// the TPG outputs are the successive state values.  A TPG implements
// f as advance(), which updates a state in place: triplet expansion
// clocks the register that way, one call per pattern and no allocation
// on the built-in TPGs.  step() returns f(state, sigma) as a new value.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "util/wideword.h"

namespace fbist::tpg {

class Tpg {
 public:
  virtual ~Tpg() = default;

  /// State/operand/pattern width in bits.
  virtual std::size_t width() const = 0;

  /// One clock in place: state := f(state, sigma).  Triplet expansion
  /// calls it once per pattern; the built-in TPGs allocate nothing.
  virtual void advance(util::WideWord& state,
                       const util::WideWord& sigma) const = 0;

  /// One clock on a copy: returns f(state, sigma).
  util::WideWord step(const util::WideWord& state,
                      const util::WideWord& sigma) const {
    util::WideWord next = state;
    advance(next, sigma);
    return next;
  }

  /// Canonicalises a caller-chosen sigma into one this TPG accepts
  /// (e.g. the multiplier accumulator forces sigma odd so stepping stays
  /// a bijection).  Default: identity.
  virtual util::WideWord legalize_sigma(const util::WideWord& sigma) const {
    return sigma;
  }

  /// Short display name: "adder", "multiplier", ...
  virtual std::string name() const = 0;

  /// Configuration fingerprint beyond (name, width) that changes the
  /// pattern sequence — e.g. LFSR tap polynomials.  Folded into
  /// cross-run cache keys (reseed/matrix_cache.h); two TPGs with equal
  /// name, width and config_string must generate identical sequences.
  virtual std::string config_string() const { return ""; }
};

/// TPG kinds evaluated in the paper (plus the LFSR extension).
enum class TpgKind { kAdder, kSubtracter, kMultiplier, kLfsr };

const char* tpg_kind_name(TpgKind k);

/// Factory: builds a TPG of `kind` with the given pattern width.
std::unique_ptr<Tpg> make_tpg(TpgKind kind, std::size_t width);

}  // namespace fbist::tpg
