#include "sim/logic_sim.h"

#include <cassert>

#include "sim/gate_eval.h"

namespace fbist::sim {

void LogicSim::simulate_word(const PatternSet& patterns, std::size_t base,
                             std::vector<Word>& values) const {
  assert(patterns.num_inputs() == cc_.num_inputs());
  assert(base % 64 == 0);
  values.assign(cc_.num_nets(), 0);
  const std::size_t block = base / 64;
  detail::simulate_blocks<1>(cc_, patterns, block, block + 1, values.data());
}

std::vector<std::vector<Word>> LogicSim::simulate(const PatternSet& patterns) const {
  const std::size_t blocks = (patterns.size() + 63) / 64;
  std::vector<std::vector<Word>> result(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    simulate_word(patterns, b * 64, result[b]);
  }
  return result;
}

std::vector<bool> LogicSim::simulate_single(const util::WideWord& pattern) const {
  PatternSet ps(cc_.num_inputs(), 0);
  ps.append(pattern);
  std::vector<Word> values;
  simulate_word(ps, 0, values);
  std::vector<bool> out(values.size());
  for (std::size_t n = 0; n < out.size(); ++n) out[n] = values[n] & 1u;
  return out;
}

util::WideWord LogicSim::output_response(const util::WideWord& pattern) const {
  const auto values = simulate_single(pattern);
  util::WideWord resp(cc_.num_outputs());
  const auto& outs = cc_.outputs();
  for (std::size_t i = 0; i < outs.size(); ++i) {
    resp.set_bit(i, values[outs[i]]);
  }
  return resp;
}

}  // namespace fbist::sim
