#include "sim/reference_sim.h"

#include <cassert>
#include <stdexcept>

#include "util/parallel.h"

namespace fbist::sim {

using netlist::GateType;
using netlist::NetId;

Word eval_gate(GateType type, const Word* fanin_values, std::size_t fanin_count) {
  switch (type) {
    case GateType::kInput:
      throw std::logic_error("eval_gate on primary input");
    case GateType::kBuf:
      return fanin_values[0];
    case GateType::kNot:
      return ~fanin_values[0];
    case GateType::kAnd: {
      Word v = fanin_values[0];
      for (std::size_t i = 1; i < fanin_count; ++i) v &= fanin_values[i];
      return v;
    }
    case GateType::kNand: {
      Word v = fanin_values[0];
      for (std::size_t i = 1; i < fanin_count; ++i) v &= fanin_values[i];
      return ~v;
    }
    case GateType::kOr: {
      Word v = fanin_values[0];
      for (std::size_t i = 1; i < fanin_count; ++i) v |= fanin_values[i];
      return v;
    }
    case GateType::kNor: {
      Word v = fanin_values[0];
      for (std::size_t i = 1; i < fanin_count; ++i) v |= fanin_values[i];
      return ~v;
    }
    case GateType::kXor: {
      Word v = fanin_values[0];
      for (std::size_t i = 1; i < fanin_count; ++i) v ^= fanin_values[i];
      return v;
    }
    case GateType::kXnor: {
      Word v = fanin_values[0];
      for (std::size_t i = 1; i < fanin_count; ++i) v ^= fanin_values[i];
      return ~v;
    }
  }
  return 0;
}

void ReferenceLogicSim::simulate_word(const PatternSet& patterns, std::size_t base,
                                      std::vector<Word>& values) const {
  assert(patterns.num_inputs() == nl_.num_inputs());
  values.assign(nl_.num_nets(), 0);

  const auto& inputs = nl_.inputs();
  const std::size_t word_index = base / 64;
  assert(base % 64 == 0);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto& slice_words = patterns.slice(i).words();
    values[inputs[i]] = word_index < slice_words.size() ? slice_words[word_index] : 0;
  }

  Word fanin_buf[8];
  for (NetId id = 0; id < nl_.num_nets(); ++id) {
    const auto& g = nl_.gate(id);
    if (g.type == GateType::kInput) continue;
    const std::size_t k = g.fanin.size();
    if (k <= 8) {
      for (std::size_t i = 0; i < k; ++i) fanin_buf[i] = values[g.fanin[i]];
      values[id] = eval_gate(g.type, fanin_buf, k);
    } else {
      std::vector<Word> wide(k);
      for (std::size_t i = 0; i < k; ++i) wide[i] = values[g.fanin[i]];
      values[id] = eval_gate(g.type, wide.data(), k);
    }
  }
}

std::vector<std::vector<Word>> ReferenceLogicSim::simulate(
    const PatternSet& patterns) const {
  const std::size_t blocks = (patterns.size() + 63) / 64;
  std::vector<std::vector<Word>> result(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    simulate_word(patterns, b * 64, result[b]);
  }
  return result;
}

ReferenceFaultSim::ReferenceFaultSim(const netlist::Netlist& nl,
                                     const fault::FaultList& faults)
    : nl_(nl), faults_(faults), good_sim_(nl), cones_(nl) {}

FaultSimResult ReferenceFaultSim::run(const PatternSet& patterns,
                                      bool parallel) const {
  std::vector<bool> all(faults_.size(), true);
  return run_subset(patterns, all, parallel);
}

FaultSimResult ReferenceFaultSim::run_subset(const PatternSet& patterns,
                                             const std::vector<bool>& active,
                                             bool parallel) const {
  assert(active.size() == faults_.size());
  const std::size_t nf = faults_.size();
  const std::size_t blocks = (patterns.size() + 63) / 64;

  FaultSimResult result;
  result.detected = util::BitVector(nf);
  result.earliest.assign(nf, kNotDetected);
  if (patterns.empty() || nf == 0) return result;

  std::vector<std::uint8_t> detected_flag(nf, 0);

  std::vector<std::vector<Word>> good(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    good_sim_.simulate_word(patterns, b * 64, good[b]);
  }
  const std::size_t tail = patterns.size() % 64;
  const Word tail_mask = tail == 0 ? ~Word{0} : ((Word{1} << tail) - 1);

  const auto& outs = nl_.outputs();

  struct Scratch {
    std::vector<Word> value;
    std::vector<std::uint32_t> epoch;
    std::uint32_t current = 0;
  };
  const std::size_t workers = parallel ? util::parallel_workers() : 1;
  std::vector<Scratch> scratches(workers);
  for (auto& s : scratches) {
    s.value.assign(nl_.num_nets(), 0);
    s.epoch.assign(nl_.num_nets(), 0);
  }

  auto simulate_fault = [&](std::size_t fid, std::size_t worker) {
    if (!active[fid]) return;
    const fault::Fault& f = faults_[fid];
    const netlist::Cone& cone = cones_.cone(f.net);
    Scratch& sc = scratches[worker];

    for (std::size_t b = 0; b < blocks; ++b) {
      const std::vector<Word>& g = good[b];
      const Word lanes = b + 1 == blocks ? tail_mask : ~Word{0};

      const Word forced = f.stuck_value ? ~Word{0} : Word{0};
      if (((forced ^ g[f.net]) & lanes) == 0) continue;  // not activated

      ++sc.current;
      sc.value[f.net] = forced;
      sc.epoch[f.net] = sc.current;

      Word diff_at_outputs = 0;
      Word fanin_buf[8];
      std::vector<Word> wide_buf;
      for (const NetId gate_id : cone.gates) {
        const auto& gate = nl_.gate(gate_id);
        const std::size_t k = gate.fanin.size();
        const Word* vals;
        if (k <= 8) {
          for (std::size_t i = 0; i < k; ++i) {
            const NetId fin = gate.fanin[i];
            fanin_buf[i] = sc.epoch[fin] == sc.current ? sc.value[fin] : g[fin];
          }
          vals = fanin_buf;
        } else {
          wide_buf.resize(k);
          for (std::size_t i = 0; i < k; ++i) {
            const NetId fin = gate.fanin[i];
            wide_buf[i] = sc.epoch[fin] == sc.current ? sc.value[fin] : g[fin];
          }
          vals = wide_buf.data();
        }
        const Word v = eval_gate(gate.type, vals, k);
        sc.value[gate_id] = v;
        sc.epoch[gate_id] = sc.current;
      }

      for (const std::size_t pos : cone.output_positions) {
        const NetId o = outs[pos];
        const Word fv = sc.epoch[o] == sc.current ? sc.value[o] : g[o];
        diff_at_outputs |= (fv ^ g[o]);
      }
      diff_at_outputs &= lanes;

      if (diff_at_outputs != 0) {
        const int lane = __builtin_ctzll(diff_at_outputs);
        detected_flag[fid] = 1;
        result.earliest[fid] = static_cast<std::uint32_t>(b * 64 + lane);
        return;
      }
    }
  };

  if (parallel && workers > 1) {
    util::parallel_for_workers(nf, simulate_fault);
  } else {
    for (std::size_t fid = 0; fid < nf; ++fid) simulate_fault(fid, 0);
  }
  for (std::size_t fid = 0; fid < nf; ++fid) {
    if (detected_flag[fid]) result.detected.set(fid);
  }
  return result;
}

}  // namespace fbist::sim
