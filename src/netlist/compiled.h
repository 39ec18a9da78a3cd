// Compiled netlist core: the flat, immutable form every hot layer walks.
//
// `Netlist` is the mutable construction-time model: one heap-allocated
// fanin vector and name string per gate, fanout/levels/cones recomputed
// on demand.  That layout is convenient to build but hostile to the
// paper's dominant cost — fault simulation of candidate triplets — which
// spends its time streaming the structure.  `CompiledCircuit` is built
// once per circuit and snapshots everything the simulators and ATPG
// need into CSR (compressed sparse row) arrays:
//
//   * fanin / fanout adjacency      (offsets[] + flat NetId[])
//   * per-net gate type and level   (flat arrays)
//   * topologically ordered gate schedule (non-input nets)
//   * per-net transitive fanout-cone programs (one record per cone gate,
//     fanins as cone-local slots), including the positions of the
//     primary outputs each cone reaches (offsets[] + flat arrays)
//   * O(1) input/output position lookup and output-reachability flags
//
// One circuit handle.  reseed::Pipeline is the one place in the
// library that compiles; every engine and analysis below it takes
// `const CompiledCircuit&` and borrows the caller's snapshot, keeping a
// reference for as long as it lives (the engines that store one —
// sim::FaultSim, sim::LogicSim, atpg::Podem, atpg::SatEngine — refuse a
// temporary).  Callers that hold only a netlist compile it once
// themselves and pass it along.  sim::LogicSim evaluates the flat
// schedule, sim::FaultSim walks the cone programs (PPSFP), atpg::Podem
// and atpg::compute_scoap run implication and controllability passes
// over the same arrays, and the pipeline shares its one compile across
// collapsing, ATPG, and every TPG/T evaluation.
//
// The structure-only form, CompiledCircuit(nl, false), skips the cone
// programs, by far the dominant compile cost (s15850 in Release: about
// 0.2 ms without them, 30 ms with them).  Callers that never walk a cone use
// it: `fbist info` (stats, collapsing, SCOAP), logic simulation, the
// MISR and structural-TPG checks, the examples and many tests.  The
// three engines that walk cones (FaultSim, Podem, SatEngine) throw
// std::invalid_argument when handed one.
//
// The reference walkers (the test-only tests/netlist/levelize.h and
// cone.h) are independent implementations; equivalence tests in
// tests/netlist/compiled_test.cpp pin this compiler to them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "netlist/netlist.h"

namespace fbist::netlist {

/// Non-owning view over a contiguous id slice of a CompiledCircuit.
template <typename T>
struct Span {
  const T* data = nullptr;
  std::size_t count = 0;

  const T* begin() const { return data; }
  const T* end() const { return data + count; }
  std::size_t size() const { return count; }
  bool empty() const { return count == 0; }
  T operator[](std::size_t i) const { return data[i]; }
  T front() const { return data[0]; }
};

/// Forward view over the gates of one cone, read off the gate ids of
/// its program's records (encodings: CompiledCircuit::cone_program).
class ConeGates {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = NetId;
    using difference_type = std::ptrdiff_t;
    using pointer = const NetId*;
    using reference = NetId;

    iterator() = default;
    iterator(const std::uint32_t* record, bool narrow) : p_(record), narrow_(narrow) {}
    NetId operator*() const { return narrow_ ? p_[0] >> 16 : p_[1]; }
    iterator& operator++() {
      p_ += narrow_ ? 1 + (((p_[0] >> 4) & 0xfff) + 1) / 2 : 2 + (p_[0] >> 8);
      return *this;
    }
    iterator operator++(int) {
      const iterator at = *this;
      ++*this;
      return at;
    }
    bool operator==(const iterator& o) const { return p_ == o.p_; }
    bool operator!=(const iterator& o) const { return p_ != o.p_; }

   private:
    const std::uint32_t* p_ = nullptr;
    bool narrow_ = false;
  };

  ConeGates(const std::uint32_t* begin, const std::uint32_t* end, std::size_t count,
            bool narrow)
      : begin_(begin), end_(end), count_(count), narrow_(narrow) {}
  iterator begin() const { return {begin_, narrow_}; }
  iterator end() const { return {end_, narrow_}; }
  std::size_t size() const { return count_; }

 private:
  const std::uint32_t* begin_;
  const std::uint32_t* end_;
  std::size_t count_;
  bool narrow_;
};

/// Immutable flat-array snapshot of one netlist's structure.
class CompiledCircuit {
 public:
  /// `build_cone_slices` controls the per-net cone programs and outputs —
  /// the dominant compile cost (O(sum of cone sizes)).  Consumers that
  /// only stream structure (stats, collapsing, SCOAP, logic simulation)
  /// pass false; the fault simulator, PODEM and the SAT engine need the
  /// full form.
  explicit CompiledCircuit(const Netlist& nl, bool build_cone_slices = true);

  std::size_t num_nets() const { return type_.size(); }
  std::size_t num_inputs() const { return inputs_.size(); }
  std::size_t num_outputs() const { return outputs_.size(); }
  std::size_t num_gates() const { return schedule_.size(); }

  GateType type(NetId id) const { return type_[id]; }

  /// Driving nets of `id`, construction order (empty for inputs).
  Span<NetId> fanin(NetId id) const {
    return {fanin_.data() + fanin_offset_[id], fanin_offset_[id + 1] - fanin_offset_[id]};
  }
  /// Gates reading `id`, ascending NetId.
  Span<NetId> fanout(NetId id) const {
    return {fanout_.data() + fanout_offset_[id],
            fanout_offset_[id + 1] - fanout_offset_[id]};
  }

  /// All non-input nets in evaluation (topological) order.
  Span<NetId> schedule() const { return {schedule_.data(), schedule_.size()}; }

  /// Logic depth of one net (inputs are 0).
  std::uint32_t level(NetId id) const { return level_[id]; }
  const std::vector<std::uint32_t>& levels() const { return level_; }
  /// Maximum level over all nets (circuit depth).
  std::uint32_t depth() const { return depth_; }

  /// Transitive fanout cone of `root` (excluding the root), ascending
  /// NetId == evaluation order.  Matches netlist::fanout_cone().  Read
  /// off the records of cone_program(root), so the cone is stored once.
  ConeGates cone_gates(NetId root) const {
    const Span<std::uint32_t> prog = cone_program(root);
    return ConeGates(prog.begin(), prog.end(),
                     cone_offset_[root + 1] - cone_offset_[root], narrow_programs_);
  }
  /// Positions into outputs() of the primary outputs reachable from
  /// `root` (including the root itself when it is a PO), ascending.
  Span<std::uint32_t> cone_outputs(NetId root) const {
    return {cone_outputs_.data() + cone_out_offset_[root],
            cone_out_offset_[root + 1] - cone_out_offset_[root]};
  }
  /// Precompiled evaluation program of `root`'s cone: a flat uint32
  /// stream with one record per cone gate in evaluation order.  A
  /// record names its gate and, per fanin in fanin(gate) order, the
  /// fanin's cone-local slot; the fanin's net id is fanin(gate)[i],
  /// read from the CSR, not from the program.
  ///
  /// Wide encoding (always valid):
  ///   record := header gate_id slot{fanin_count}
  ///   header := (fanin_count << 8) | gate_type
  ///
  /// Narrow encoding (used when every net id, slot, and fanin count
  /// fits 16/12 bits — true for all registry-scale circuits; about half
  /// the words of the wide stream, which the PPSFP walk is bound by;
  /// narrow_programs() says which one is in effect):
  ///   record := ((gate_id << 16) | (fanin_count << 4) | gate_type)
  ///             (slot[2j] | (slot[2j+1] << 16)){ceil(fanin_count / 2)}
  /// i.e. 16-bit slots two per word, the low half first, and the high
  /// half of the last word 0 when fanin_count is odd.
  ///
  /// Cone-local *slots* number the cone densely: slot 0 is the root,
  /// slot i+1 is the i-th cone gate (== the i-th record), and slot
  /// cone_gates(root).size()+1 is a sentinel standing for every fanin
  /// outside the cone.  The PPSFP inner loop (sim/fault_sim.cpp) keeps
  /// faulty values in a slot-indexed scratch that fits in cache and a
  /// differs-flag per slot; the sentinel's flag is never set, so an
  /// outside fanin — which can never carry a fault effect — falls
  /// through to the good value of its CSR net id with the same
  /// branchless select as an unaffected in-cone fanin.
  Span<std::uint32_t> cone_program(NetId root) const {
    return {cone_prog_.data() + cone_prog_offset_[root],
            cone_prog_offset_[root + 1] - cone_prog_offset_[root]};
  }

  /// False for the structure-only form, which has no cone programs,
  /// outputs or slots.
  bool has_cone_programs() const { return !cone_prog_offset_.empty(); }

  /// True when cone programs use the narrow (packed 16-bit) encoding.
  bool narrow_programs() const { return narrow_programs_; }

  /// Cone-local slots of the reachable POs, parallel to cone_outputs().
  Span<std::uint32_t> cone_output_slots(NetId root) const {
    return {cone_out_slot_.data() + cone_out_offset_[root],
            cone_out_offset_[root + 1] - cone_out_offset_[root]};
  }

  /// Largest cone size in gates (scratch sizing for the cone walkers).
  std::size_t max_cone_gates() const { return max_cone_gates_; }

  const std::vector<NetId>& inputs() const { return inputs_; }
  const std::vector<NetId>& outputs() const { return outputs_; }

  /// Position of `net` in inputs(), or SIZE_MAX — O(1), unlike
  /// Netlist::input_index which scans.
  std::size_t input_index(NetId net) const {
    return input_pos_[net] == kNoPos ? static_cast<std::size_t>(-1) : input_pos_[net];
  }
  /// Position of `net` in outputs(), or SIZE_MAX — O(1).
  std::size_t output_index(NetId net) const {
    return output_pos_[net] == kNoPos ? static_cast<std::size_t>(-1) : output_pos_[net];
  }

  /// True if `net` lies on some path to a primary output.
  bool reaches_output(NetId net) const { return reach_[net] != 0; }

 private:
  static constexpr std::uint32_t kNoPos = static_cast<std::uint32_t>(-1);

  std::vector<GateType> type_;
  std::vector<std::uint32_t> fanin_offset_;   // size num_nets + 1
  std::vector<NetId> fanin_;
  std::vector<std::uint32_t> fanout_offset_;  // size num_nets + 1
  std::vector<NetId> fanout_;
  std::vector<NetId> schedule_;
  std::vector<std::uint32_t> level_;
  std::uint32_t depth_ = 0;
  std::vector<std::uint64_t> cone_offset_;     // size num_nets + 1: cone sizes, summed
  std::vector<std::uint64_t> cone_out_offset_; // size num_nets + 1
  std::vector<std::uint32_t> cone_outputs_;
  std::vector<std::uint32_t> cone_out_slot_;   // parallel to cone_outputs_
  std::vector<std::uint64_t> cone_prog_offset_; // size num_nets + 1
  std::vector<std::uint32_t> cone_prog_;
  std::size_t max_cone_gates_ = 0;
  bool narrow_programs_ = false;
  std::vector<NetId> inputs_;
  std::vector<NetId> outputs_;
  std::vector<std::uint32_t> input_pos_;   // per net, kNoPos if not a PI
  std::vector<std::uint32_t> output_pos_;  // per net, kNoPos if not a PO
  std::vector<std::uint8_t> reach_;
};

}  // namespace fbist::netlist
