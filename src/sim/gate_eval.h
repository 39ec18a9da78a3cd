// Internal: inlined bit-parallel gate evaluation over compiled fanin
// spans, and the one good-value schedule evaluator.
//
// eval_compiled_gate reads fanins through `load`, so one body serves
// any value width and layout with no fanin buffer to copy into (the
// seed path's main per-gate overhead).  The fault-cone walk
// (fault_sim.cpp) reuses WordV and keeps its own program decoder.
//
// simulate_blocks evaluates the flat topological schedule over N
// consecutive 64-pattern blocks at once, N words per net:
// LogicSim::simulate_word runs it at N = 1, and a multi-block fault-sim
// campaign at kChunkBlocks, straight into the block-interleaved layout
// its chunk walks read.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "netlist/compiled.h"
#include "sim/pattern.h"

namespace fbist::sim::detail {

using Word = std::uint64_t;

/// N 64-pattern blocks of one net, one word per block.  The bitwise ops
/// compile to 64-bit or 128-bit SSE2 instructions on the baseline ISA,
/// never AVX.
template <int N>
struct WordV {
  Word w[N];
};

template <int N>
inline WordV<N> operator~(const WordV<N>& a) {
  WordV<N> r;
  for (int i = 0; i < N; ++i) r.w[i] = ~a.w[i];
  return r;
}
template <int N>
inline WordV<N> operator&(const WordV<N>& a, const WordV<N>& b) {
  WordV<N> r;
  for (int i = 0; i < N; ++i) r.w[i] = a.w[i] & b.w[i];
  return r;
}
template <int N>
inline WordV<N> operator|(const WordV<N>& a, const WordV<N>& b) {
  WordV<N> r;
  for (int i = 0; i < N; ++i) r.w[i] = a.w[i] | b.w[i];
  return r;
}
template <int N>
inline WordV<N> operator^(const WordV<N>& a, const WordV<N>& b) {
  WordV<N> r;
  for (int i = 0; i < N; ++i) r.w[i] = a.w[i] ^ b.w[i];
  return r;
}

/// One gate over values of type V (a Word or a WordV<N>), each fanin
/// read through `load(net)`.
template <typename V, typename LoadFn>
inline V eval_compiled_gate(netlist::GateType type,
                            netlist::Span<netlist::NetId> fin, LoadFn load) {
  using netlist::GateType;
  switch (type) {
    case GateType::kBuf:
      return load(fin[0]);
    case GateType::kNot:
      return ~load(fin[0]);
    case GateType::kAnd: {
      V v = load(fin[0]);
      for (std::size_t i = 1; i < fin.size(); ++i) v = v & load(fin[i]);
      return v;
    }
    case GateType::kNand: {
      V v = load(fin[0]);
      for (std::size_t i = 1; i < fin.size(); ++i) v = v & load(fin[i]);
      return ~v;
    }
    case GateType::kOr: {
      V v = load(fin[0]);
      for (std::size_t i = 1; i < fin.size(); ++i) v = v | load(fin[i]);
      return v;
    }
    case GateType::kNor: {
      V v = load(fin[0]);
      for (std::size_t i = 1; i < fin.size(); ++i) v = v | load(fin[i]);
      return ~v;
    }
    case GateType::kXor: {
      V v = load(fin[0]);
      for (std::size_t i = 1; i < fin.size(); ++i) v = v ^ load(fin[i]);
      return v;
    }
    case GateType::kXnor: {
      V v = load(fin[0]);
      for (std::size_t i = 1; i < fin.size(); ++i) v = v ^ load(fin[i]);
      return ~v;
    }
    case GateType::kInput:
      break;
  }
  return V{};  // unreachable: inputs never appear in a schedule
}

/// Good values of blocks [first, first + N) of `patterns`, N words per
/// net: block first + j of net n lands in values[n * N + j] (cc.num_nets()
/// * N words).  A block at or past `num_blocks` (>= 1) replicates block
/// num_blocks - 1, so a chunk padded past the last real block carries
/// that block's values; a block past a slice's stored words reads 0.
template <int N>
void simulate_blocks(const netlist::CompiledCircuit& cc,
                     const PatternSet& patterns, std::size_t first,
                     std::size_t num_blocks, Word* values) {
  const auto& inputs = cc.inputs();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto& words = patterns.slice(i).words();
    Word* const v = values + static_cast<std::size_t>(inputs[i]) * N;
    for (int j = 0; j < N; ++j) {
      const std::size_t b =
          std::min(first + static_cast<std::size_t>(j), num_blocks - 1);
      v[j] = b < words.size() ? words[b] : 0;
    }
  }
  const auto load = [values](netlist::NetId f) {
    WordV<N> r;
    for (int j = 0; j < N; ++j) {
      r.w[j] = values[static_cast<std::size_t>(f) * N + j];
    }
    return r;
  };
  for (const netlist::NetId id : cc.schedule()) {
    const WordV<N> r =
        eval_compiled_gate<WordV<N>>(cc.type(id), cc.fanin(id), load);
    Word* const out = values + static_cast<std::size_t>(id) * N;
    for (int j = 0; j < N; ++j) out[j] = r.w[j];
  }
}

}  // namespace fbist::sim::detail
