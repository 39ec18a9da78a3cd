#include "tpg/triplet.h"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>

namespace fbist::tpg {

std::string Triplet::to_string() const {
  std::ostringstream ss;
  ss << "(delta=0x" << delta.to_hex() << ", sigma=0x" << sigma.to_hex()
     << ", T=" << cycles << ")";
  return ss.str();
}

sim::PatternSet expand_triplet_prefix(const Tpg& tpg, const Triplet& t,
                                      std::size_t prefix) {
  Triplet clipped = t;
  clipped.cycles = std::min(prefix, t.cycles);
  sim::PatternSet ps(tpg.width(), clipped.cycles);
  expand_triplet_into(tpg, clipped, ps, 0);
  return ps;
}

sim::PatternSet expand_triplet(const Tpg& tpg, const Triplet& t) {
  return expand_triplet_prefix(tpg, t, t.cycles);
}

util::WideWord expand_triplet_into(const Tpg& tpg, const Triplet& t,
                                   sim::PatternSet& ps, std::size_t base) {
  const std::size_t n = t.cycles;
  if (n > 0 && t.delta.bits() != ps.num_inputs()) {
    throw std::invalid_argument("expand_triplet_into: width mismatch");
  }
  const util::WideWord sigma = tpg.legalize_sigma(t.sigma);
  util::WideWord state = t.delta;
  // One tile holds the states of the patterns that share a 64-pattern
  // slice word; it is handed over at each word boundary and at the end.
  const std::size_t words = state.words().size();
  std::vector<std::uint64_t> tile(std::min<std::size_t>(n, 64) * words);
  std::size_t first = base;  // first pattern of the tile
  for (std::size_t p = base; p < base + n; ++p) {
    std::copy(state.words().begin(), state.words().end(),
              tile.begin() + (p - first) * words);
    tpg.advance(state, sigma);
    if (p % 64 == 63 || p + 1 == base + n) {
      ps.write_tile(first, p + 1 - first, tile.data());
      first = p + 1;
    }
  }
  return state;
}

sim::PatternSet expand_all(const Tpg& tpg, const std::vector<Triplet>& ts) {
  sim::PatternSet all(tpg.width(), 0);
  for (const auto& t : ts) {
    all.append_all(expand_triplet(tpg, t));
  }
  return all;
}

}  // namespace fbist::tpg
