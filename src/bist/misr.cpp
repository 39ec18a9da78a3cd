#include "bist/misr.h"

#include <algorithm>
#include <stdexcept>

#include "sim/gate_eval.h"
#include "sim/logic_sim.h"

namespace fbist::bist {

using netlist::GateType;
using netlist::NetId;

Misr::Misr(std::size_t width, std::vector<std::size_t> taps)
    : width_(width), taps_(std::move(taps)) {
  if (width_ == 0) throw std::invalid_argument("Misr: zero width");
  if (taps_.empty()) {
    for (const std::size_t t : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
      if (t < width_) taps_.push_back(t);
    }
    if (width_ > 1) taps_.push_back(width_ - 1);
  }
  std::sort(taps_.begin(), taps_.end());
  taps_.erase(std::unique(taps_.begin(), taps_.end()), taps_.end());
  for (const std::size_t t : taps_) {
    if (t >= width_) throw std::invalid_argument("Misr: tap beyond width");
  }
}

util::WideWord Misr::step(const util::WideWord& state,
                          const util::WideWord& response) const {
  if (state.bits() != width_ || response.bits() > width_) {
    throw std::invalid_argument("Misr::step: width mismatch");
  }
  bool feedback = false;
  for (const std::size_t t : taps_) feedback ^= state.get_bit(t);
  util::WideWord next = state;
  next.shl1(feedback);
  // Zero-extend narrower responses (register wider than the UUT's PO
  // vector lowers the aliasing probability to ~2^-width).
  util::WideWord inject(width_);
  for (std::size_t i = 0; i < response.bits(); ++i) {
    inject.set_bit(i, response.get_bit(i));
  }
  next.bxor(inject);
  return next;
}

util::WideWord Misr::signature(const std::vector<util::WideWord>& responses) const {
  util::WideWord state(width_);
  for (const auto& r : responses) state = step(state, r);
  return state;
}

std::vector<util::WideWord> golden_responses(const netlist::CompiledCircuit& cc,
                                             const sim::PatternSet& patterns) {
  const sim::LogicSim sim(cc);
  std::vector<util::WideWord> out;
  out.reserve(patterns.size());
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    out.push_back(sim.output_response(patterns.pattern(p)));
  }
  return out;
}

util::WideWord golden_signature(const netlist::CompiledCircuit& cc,
                                const sim::PatternSet& patterns,
                                const Misr& misr) {
  return misr.signature(golden_responses(cc, patterns));
}

namespace {

/// Output response of the faulty circuit for one pattern: the schedule
/// evaluated one pattern per Word (bit 0 carries it) with the fault net
/// forced.  `v` is per-net scratch.
util::WideWord faulty_response(const netlist::CompiledCircuit& cc,
                               const fault::Fault& f,
                               const util::WideWord& pattern,
                               std::vector<sim::Word>& v) {
  const sim::Word stuck = f.stuck_value ? ~sim::Word{0} : 0;
  for (std::size_t i = 0; i < cc.num_inputs(); ++i) {
    v[cc.inputs()[i]] = pattern.get_bit(i) ? ~sim::Word{0} : 0;
  }
  if (cc.type(f.net) == GateType::kInput) v[f.net] = stuck;
  const auto load = [&v](NetId n) { return v[n]; };
  for (const NetId id : cc.schedule()) {
    v[id] = sim::detail::eval_compiled_gate<sim::Word>(cc.type(id), cc.fanin(id),
                                                       load);
    if (id == f.net) v[id] = stuck;
  }
  util::WideWord resp(cc.num_outputs());
  for (std::size_t i = 0; i < cc.num_outputs(); ++i) {
    resp.set_bit(i, v[cc.outputs()[i]] & 1);
  }
  return resp;
}

}  // namespace

std::vector<std::size_t> aliased_faults(const netlist::CompiledCircuit& cc,
                                        const fault::FaultList& faults,
                                        const std::vector<std::size_t>& fault_ids,
                                        const sim::PatternSet& patterns,
                                        const Misr& misr) {
  const auto golden_resp = golden_responses(cc, patterns);
  const util::WideWord golden = misr.signature(golden_resp);

  std::vector<sim::Word> values(cc.num_nets());
  std::vector<std::size_t> aliased;
  for (const std::size_t fid : fault_ids) {
    const fault::Fault& f = faults[fid];
    std::vector<util::WideWord> responses;
    responses.reserve(patterns.size());
    bool any_diff = false;
    for (std::size_t p = 0; p < patterns.size(); ++p) {
      responses.push_back(faulty_response(cc, f, patterns.pattern(p), values));
      if (!(responses.back() == golden_resp[p])) any_diff = true;
    }
    if (!any_diff) continue;  // fault not detected at the outputs at all
    if (misr.signature(responses) == golden) aliased.push_back(fid);
  }
  return aliased;
}

}  // namespace fbist::bist
