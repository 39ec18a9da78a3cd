#include "atpg/values.h"

#include <stdexcept>

namespace fbist::atpg {

using netlist::GateType;

Tern tern_not(Tern a) {
  switch (a) {
    case Tern::k0: return Tern::k1;
    case Tern::k1: return Tern::k0;
    default: return Tern::kX;
  }
}

RailOp rail_op(GateType type) {
  switch (type) {
    case GateType::kBuf:
    case GateType::kAnd:
      return RailOp{};
    case GateType::kNot:
    case GateType::kNand:
      return RailOp{kOneRails, false, true};
    case GateType::kOr:
      return RailOp{kZeroRails, false, false};
    case GateType::kNor:
      return RailOp{kZeroRails, false, true};
    case GateType::kXor:
      return RailOp{kOneRails, true, false};
    case GateType::kXnor:
      return RailOp{kOneRails, true, true};
    case GateType::kInput:
      break;
  }
  throw std::logic_error("rail_op on primary input");
}

Val5 eval_gate5(GateType type, const Val5* fanin, std::size_t n) {
  return Val5::from_rails(eval_rails(
      rail_op(type), n, [fanin](std::size_t i) { return fanin[i].rails; }));
}

std::string val5_name(const Val5& v) {
  if (v == kV0) return "0";
  if (v == kV1) return "1";
  if (v == kVX) return "X";
  if (v == kVD) return "D";
  if (v == kVDbar) return "D'";
  auto t = [](Tern x) {
    return x == Tern::k0 ? "0" : x == Tern::k1 ? "1" : "X";
  };
  return std::string(t(v.good())) + "/" + t(v.faulty());
}

}  // namespace fbist::atpg
