// LFSR-based TPG (the classic reseeding substrate, included as the
// natural extension: the paper's method is TPG-agnostic, and LFSR
// reseeding is the technique [3][4] it generalises).
//
// Fibonacci-style LFSR over GF(2): each step shifts the state left by
// one and feeds back the XOR of the tap positions.  The held operand
// sigma is XORed into the state every step ("additive input"), which
// mirrors how a functional unit with an input port would perturb the
// register — and makes (delta, sigma, T) triplets meaningful for LFSRs
// too (sigma = 0 gives the autonomous LFSR).
#pragma once

#include <vector>

#include "tpg/tpg.h"

namespace fbist::tpg {

class LfsrTpg final : public Tpg {
 public:
  /// Taps are bit positions contributing to the feedback bit.  When
  /// empty, a default primitive-flavoured tap set {0, 1, 3, width-1}
  /// (clamped to width) is used.
  explicit LfsrTpg(std::size_t width, std::vector<std::size_t> taps = {});

  std::size_t width() const override { return width_; }
  void advance(util::WideWord& state,
               const util::WideWord& sigma) const override;
  std::string name() const override { return "lfsr"; }
  std::string config_string() const override;

  const std::vector<std::size_t>& taps() const { return taps_; }

 private:
  std::size_t width_;
  std::vector<std::size_t> taps_;
};

}  // namespace fbist::tpg
