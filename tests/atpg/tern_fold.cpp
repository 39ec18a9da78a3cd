#include "atpg/tern_fold.h"

#include <stdexcept>

namespace fbist::atpg {

using netlist::GateType;

Tern tern_and(Tern a, Tern b) {
  if (a == Tern::k0 || b == Tern::k0) return Tern::k0;
  if (a == Tern::k1 && b == Tern::k1) return Tern::k1;
  return Tern::kX;
}

Tern tern_or(Tern a, Tern b) {
  if (a == Tern::k1 || b == Tern::k1) return Tern::k1;
  if (a == Tern::k0 && b == Tern::k0) return Tern::k0;
  return Tern::kX;
}

Tern tern_xor(Tern a, Tern b) {
  if (a == Tern::kX || b == Tern::kX) return Tern::kX;
  return a == b ? Tern::k0 : Tern::k1;
}

Val5 fold_gate5(GateType type, const Val5* fanin, std::size_t n) {
  auto fold = [&](Tern (Val5::*side)() const) -> Tern {
    switch (type) {
      case GateType::kBuf:
        return (fanin[0].*side)();
      case GateType::kNot:
        return tern_not((fanin[0].*side)());
      case GateType::kAnd:
      case GateType::kNand: {
        Tern v = (fanin[0].*side)();
        for (std::size_t i = 1; i < n; ++i) v = tern_and(v, (fanin[i].*side)());
        return type == GateType::kNand ? tern_not(v) : v;
      }
      case GateType::kOr:
      case GateType::kNor: {
        Tern v = (fanin[0].*side)();
        for (std::size_t i = 1; i < n; ++i) v = tern_or(v, (fanin[i].*side)());
        return type == GateType::kNor ? tern_not(v) : v;
      }
      case GateType::kXor:
      case GateType::kXnor: {
        Tern v = (fanin[0].*side)();
        for (std::size_t i = 1; i < n; ++i) v = tern_xor(v, (fanin[i].*side)());
        return type == GateType::kXnor ? tern_not(v) : v;
      }
      case GateType::kInput:
        throw std::logic_error("fold_gate5 on primary input");
    }
    return Tern::kX;
  };
  return Val5{fold(&Val5::good), fold(&Val5::faulty)};
}

}  // namespace fbist::atpg
