#include "tpg/expand_oracle.h"

namespace fbist::tpg {

sim::PatternSet oracle_expand(const Tpg& tpg, const Triplet& t,
                              util::WideWord* next) {
  sim::PatternSet ps(tpg.width(), 0);
  const util::WideWord sigma = tpg.legalize_sigma(t.sigma);
  util::WideWord state = t.delta;
  for (std::size_t i = 0; i < t.cycles; ++i) {
    ps.append(state);
    state = tpg.step(state, sigma);
  }
  if (next != nullptr) *next = state;
  return ps;
}

}  // namespace fbist::tpg
