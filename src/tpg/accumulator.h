// Accumulator-based TPGs (adder, subtracter, multiplier).
//
// These model the three arithmetic units the paper evaluates:
//   adder:       state <- (state + sigma) mod 2^n
//   subtracter:  state <- (state - sigma) mod 2^n
//   multiplier:  state <- (state * sigma) mod 2^n, sigma forced odd
//
// With sigma odd, all three step functions are bijections on Z_{2^n},
// so the generated state orbit does not collapse; the adder/subtracter
// with odd sigma enumerate all 2^n states (a full-period counter), the
// multiplier walks the orbit of the unit group.
#pragma once

#include "tpg/tpg.h"

namespace fbist::tpg {

class AdderTpg final : public Tpg {
 public:
  explicit AdderTpg(std::size_t width) : width_(width) {}
  std::size_t width() const override { return width_; }
  void advance(util::WideWord& state,
               const util::WideWord& sigma) const override;
  std::string name() const override { return "adder"; }

 private:
  std::size_t width_;
};

class SubtracterTpg final : public Tpg {
 public:
  explicit SubtracterTpg(std::size_t width) : width_(width) {}
  std::size_t width() const override { return width_; }
  void advance(util::WideWord& state,
               const util::WideWord& sigma) const override;
  std::string name() const override { return "subtracter"; }

 private:
  std::size_t width_;
};

class MultiplierTpg final : public Tpg {
 public:
  explicit MultiplierTpg(std::size_t width) : width_(width) {}
  std::size_t width() const override { return width_; }
  void advance(util::WideWord& state,
               const util::WideWord& sigma) const override;
  util::WideWord legalize_sigma(const util::WideWord& sigma) const override;
  std::string name() const override { return "multiplier"; }

 private:
  std::size_t width_;
};

}  // namespace fbist::tpg
