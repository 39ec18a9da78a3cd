#include "tpg/accumulator.h"

namespace fbist::tpg {

void AdderTpg::advance(util::WideWord& state,
                       const util::WideWord& sigma) const {
  state.add(sigma);
}

void SubtracterTpg::advance(util::WideWord& state,
                            const util::WideWord& sigma) const {
  state.sub(sigma);
}

void MultiplierTpg::advance(util::WideWord& state,
                            const util::WideWord& sigma) const {
  state.mul(sigma);
}

util::WideWord MultiplierTpg::legalize_sigma(const util::WideWord& sigma) const {
  util::WideWord s = sigma;
  s.make_odd();
  return s;
}

}  // namespace fbist::tpg
