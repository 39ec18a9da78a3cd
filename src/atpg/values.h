// Five-valued D-algebra for deterministic test generation.
//
// PODEM reasons over {0, 1, X, D, D'} where D means "1 in the good
// circuit, 0 in the faulty circuit" and D' the opposite.  A value is one
// two-rail byte, two rails per side:
//
//   bit 0: good is 0      bit 2: faulty is 0
//   bit 1: good is 1      bit 3: faulty is 1
//
// A side with neither of its bits set is X.  Per side, two-rail AND/OR
// is the ternary algebra: an AND is 0 when any fanin's 0-rail is set and
// 1 when every fanin's 1-rail is, X otherwise; an OR is the dual.  So
// AND, NAND, OR, NOR, BUF and NOT evaluate both sides at once as one
// AND-reduce and one OR-reduce over the fanin bytes, a per-gate rail
// select, and a rail swap for an inverting gate; XOR and XNOR are a
// two-rail fold (RailOp, eval_rails).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "netlist/netlist.h"

namespace fbist::atpg {

/// Ternary scalar: 0, 1 or unknown.
enum class Tern : std::uint8_t { k0 = 0, k1 = 1, kX = 2 };

Tern tern_not(Tern a);

/// Rail masks of the two-rail byte.
inline constexpr std::uint8_t kZeroRails = 0b0101;  // good is 0, faulty is 0
inline constexpr std::uint8_t kOneRails = 0b1010;   // good is 1, faulty is 1
inline constexpr std::uint8_t kGoodRails = 0b0011;
inline constexpr std::uint8_t kFaultyRails = 0b1100;

/// Exchanges each side's 0- and 1-rail: the output of an inverter.
constexpr std::uint8_t swap_rails(std::uint8_t r) {
  return static_cast<std::uint8_t>(((r & kZeroRails) << 1) |
                                   ((r >> 1) & kZeroRails));
}

/// Five-valued signal: a (good, faulty) pair of ternary values as one
/// two-rail byte (see the file comment).
struct Val5 {
  std::uint8_t rails = 0;  // X/X

  constexpr Val5() = default;
  constexpr Val5(Tern good, Tern faulty)
      : rails(static_cast<std::uint8_t>(side_rails(good) |
                                        side_rails(faulty) << 2)) {}
  static constexpr Val5 from_rails(std::uint8_t r) {
    Val5 v;
    v.rails = r;
    return v;
  }

  constexpr Tern good() const { return rails_tern(rails & kGoodRails); }
  constexpr Tern faulty() const { return rails_tern(rails >> 2); }

  constexpr bool operator==(const Val5& o) const { return rails == o.rails; }

  bool is_x() const { return rails == 0; }
  /// Some side still undetermined — the net can still be driven by
  /// further PI assignments (inside a fault cone one side may already
  /// be pinned while the other is X).
  bool has_x() const {
    return (rails & kGoodRails) == 0 || (rails & kFaultyRails) == 0;
  }
  /// True for D (good=1/faulty=0) or D' (good=0/faulty=1).
  bool is_d_or_dbar() const { return rails == 0b0110 || rails == 0b1001; }
  /// Both sides known and equal.
  bool is_definite_equal() const {
    return rails == kZeroRails || rails == kOneRails;
  }

 private:
  static constexpr std::uint8_t side_rails(Tern t) {
    return t == Tern::kX ? 0
                         : static_cast<std::uint8_t>(1u << static_cast<int>(t));
  }
  static constexpr Tern rails_tern(unsigned side) {
    return side == 0 ? Tern::kX : static_cast<Tern>(side >> 1);
  }
};

/// Canonical constants.
inline constexpr Val5 kV0{Tern::k0, Tern::k0};
inline constexpr Val5 kV1{Tern::k1, Tern::k1};
inline constexpr Val5 kVX{Tern::kX, Tern::kX};
inline constexpr Val5 kVD{Tern::k1, Tern::k0};
inline constexpr Val5 kVDbar{Tern::k0, Tern::k1};

/// How one gate type evaluates on two-rail bytes.
struct RailOp {
  /// Rails taken from the AND-reduce of the fanin bytes; the others come
  /// from the OR-reduce.  kOneRails for AND, NAND, BUF and NOT (a
  /// one-fanin AND), kZeroRails for OR and NOR.
  std::uint8_t select = kOneRails;
  bool xor_fold = false;  // XOR, XNOR
  bool invert = false;    // NAND, NOR, NOT, XNOR: swap rails at the end
};

/// The RailOp of a gate type; throws on kInput.
RailOp rail_op(netlist::GateType type);

/// Evaluates one gate over `n` fanin bytes, the i-th read by `read(i)`.
/// XOR and XNOR fold each side as "known" (every fanin's side has a rail
/// set) and parity (the XOR of the 1-rails); an unknown side stays X.
template <typename Read>
inline std::uint8_t eval_rails(const RailOp& op, std::size_t n, Read read) {
  std::uint8_t out;
  if (!op.xor_fold) {
    std::uint8_t all = 0xF, any = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint8_t r = read(i);
      all &= r;
      any |= r;
    }
    out = static_cast<std::uint8_t>((all & op.select) | (any & ~op.select));
  } else {
    std::uint8_t known = 0xF, parity = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint8_t r = read(i);
      known &= r | r >> 1;
      parity ^= r >> 1;
    }
    known &= kZeroRails;
    parity &= known;
    out = static_cast<std::uint8_t>(parity << 1 | (known ^ parity));
  }
  return op.invert ? swap_rails(out) : out;
}

/// Evaluates a gate over Val5 fanins.
Val5 eval_gate5(netlist::GateType type, const Val5* fanin, std::size_t n);

/// "0", "1", "X", "D", "D'" (or "g/f" for mixed partial values).
std::string val5_name(const Val5& v);

}  // namespace fbist::atpg
