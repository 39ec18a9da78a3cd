#include "atpg/podem.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"

namespace fbist::atpg {

using netlist::CompiledCircuit;
using netlist::GateType;
using netlist::NetId;

namespace {

std::uint8_t sat_add(std::uint8_t a, std::uint8_t b) {
  const unsigned s = static_cast<unsigned>(a) + b;
  return s > 250 ? 250 : static_cast<std::uint8_t>(s);
}

}  // namespace

Podem::Podem(const CompiledCircuit& cc, PodemOptions opts) : cc_(cc), opts_(opts) {
  if (!cc.has_cone_programs()) {
    throw std::invalid_argument("Podem: circuit compiled without cone programs");
  }
  // SCOAP-flavoured controllability: cost of setting each net to 0/1.
  // Saturated small integers are plenty for backtrace tie-breaking.
  const std::size_t n = cc.num_nets();
  cc0_.assign(n, 0);
  cc1_.assign(n, 0);
  buckets_.resize(cc.depth() + 1);
  queued_.assign(n, 0);
  region_.assign(n, 0);
  value_.assign(n, kVX);
  node_.resize(n);
  for (NetId id = 0; id < n; ++id) {
    const auto fin = cc.fanin(id);
    Node& node = node_[id];
    node.fanin = fin;
    if (cc.type(id) != GateType::kInput) node.op = rail_op(cc.type(id));
    node.readers_begin = static_cast<std::uint32_t>(readers_.size());
    for (const NetId reader : cc.fanout(id)) {
      readers_.push_back(Reader{reader, cc.level(reader)});
    }
    node.readers_end = static_cast<std::uint32_t>(readers_.size());
    switch (cc.type(id)) {
      case GateType::kInput:
        cc0_[id] = cc1_[id] = 1;
        break;
      case GateType::kBuf:
        cc0_[id] = sat_add(cc0_[fin[0]], 1);
        cc1_[id] = sat_add(cc1_[fin[0]], 1);
        break;
      case GateType::kNot:
        cc0_[id] = sat_add(cc1_[fin[0]], 1);
        cc1_[id] = sat_add(cc0_[fin[0]], 1);
        break;
      case GateType::kAnd:
      case GateType::kNand: {
        std::uint8_t all1 = 1, min0 = 250;
        for (const NetId f : fin) {
          all1 = sat_add(all1, cc1_[f]);
          min0 = std::min(min0, cc0_[f]);
        }
        const std::uint8_t out0 = sat_add(min0, 1);
        if (cc.type(id) == GateType::kAnd) {
          cc0_[id] = out0;
          cc1_[id] = all1;
        } else {
          cc1_[id] = out0;
          cc0_[id] = all1;
        }
        break;
      }
      case GateType::kOr:
      case GateType::kNor: {
        std::uint8_t all0 = 1, min1 = 250;
        for (const NetId f : fin) {
          all0 = sat_add(all0, cc0_[f]);
          min1 = std::min(min1, cc1_[f]);
        }
        const std::uint8_t out1 = sat_add(min1, 1);
        if (cc.type(id) == GateType::kOr) {
          cc1_[id] = out1;
          cc0_[id] = all0;
        } else {
          cc0_[id] = out1;
          cc1_[id] = all0;
        }
        break;
      }
      case GateType::kXor:
      case GateType::kXnor: {
        // Approximate: either parity costs roughly the sum of cheaper sides.
        std::uint8_t acc = 1;
        for (const NetId f : fin) {
          acc = sat_add(acc, std::min(cc0_[f], cc1_[f]));
        }
        cc0_[id] = cc1_[id] = acc;
        break;
      }
    }
  }
}

inline void Podem::set(NetId net, Val5 v) {
  if (net == site_) {  // the stuck side never moves
    v = Val5::from_rails(
        static_cast<std::uint8_t>((v.rails & kGoodRails) | pinned_));
  }
  Val5& cur = value_[net];
  if (cur == v) return;
  trail_.push_back(TrailEntry{net, cur});
  cur = v;
  const Node& node = node_[net];
  for (std::uint32_t i = node.readers_begin; i < node.readers_end; ++i) {
    const Reader r = readers_[i];
    if (queued_[r.net] || region_[r.net] != region_stamp_) continue;
    queued_[r.net] = 1;
    buckets_[r.level].push_back(r.net);
    queue_hi_ = std::max(queue_hi_, r.level);
  }
}

void Podem::imply(NetId net, Val5 v) {
  // Readers sit at strictly higher levels than the nets they read, so
  // draining the buckets in ascending level evaluates each gate once,
  // after all of its changed fanins, and never appends to the bucket
  // being drained.  set() pins the fault site's faulty side right after
  // its gate is evaluated, so every reader sees the pinned value.
  set(net, v);
  for (std::uint32_t lv = cc_.level(net) + 1; lv <= queue_hi_; ++lv) {
    std::vector<NetId>& bucket = buckets_[lv];
    for (const NetId id : bucket) {
      queued_[id] = 0;
      const Node& node = node_[id];
      const std::uint8_t out =
          eval_rails(node.op, node.fanin.size(), [&](std::size_t i) {
            return value_[node.fanin[i]].rails;
          });
      ++implications_;
      set(id, Val5::from_rails(out));
    }
    bucket.clear();
  }
  queue_hi_ = 0;
}

void Podem::undo_to(std::size_t mark) {
  while (trail_.size() > mark) {
    value_[trail_.back().net] = trail_.back().previous;
    trail_.pop_back();
  }
}

bool Podem::fault_activated(const fault::Fault& f) const {
  // Activated when the good value is the complement of the stuck value.
  return value_[f.net].good() == (f.stuck_value ? Tern::k0 : Tern::k1);
}

bool Podem::d_at_output() const {
  for (const NetId o : cc_.outputs()) {
    if (value_[o].is_d_or_dbar()) return true;
  }
  return false;
}

std::optional<std::pair<NetId, Tern>> Podem::objective(const fault::Fault& f) const {
  // Objective 1: activate the fault — drive the site's good value to the
  // complement of the stuck value.
  if (value_[f.net].good() == Tern::kX) {
    return std::make_pair(f.net, f.stuck_value ? Tern::k0 : Tern::k1);
  }
  if (!fault_activated(f)) return std::nullopt;  // good value fixed wrong

  // Objective 2: advance the D-frontier gate (a gate with an X side
  // reading a D or D') closest to an output.
  const CompiledCircuit& cc = cc_;
  NetId best_gate = netlist::kNullNet;
  std::uint32_t best_level = 0;
  for (const NetId id : cone_nets_) {
    if (!value_[id].is_d_or_dbar()) continue;
    const Node& node = node_[id];
    for (std::uint32_t i = node.readers_begin; i < node.readers_end; ++i) {
      const Reader r = readers_[i];
      if (!value_[r.net].has_x()) continue;
      if (best_gate == netlist::kNullNet || r.level > best_level) {
        best_gate = r.net;
        best_level = r.level;
      }
    }
  }
  if (best_gate == netlist::kNullNet) return std::nullopt;

  // Set one X fanin of the frontier gate to the non-controlling value.
  const GateType gt = cc.type(best_gate);
  Tern want;
  if (netlist::has_controlling_value(gt)) {
    want = netlist::controlling_value(gt) ? Tern::k0 : Tern::k1;
  } else {
    // XOR/XNOR/NOT/BUF: any definite value propagates; aim for the
    // cheaper side of the first X fanin.
    want = Tern::k0;
  }
  // A fanin is assignable while *either* side is X — inside the fault
  // cone one side is often pinned by the stuck value while the other
  // is still free (e.g. a frontier gate whose good output is blocked
  // can still come up D' by driving the faulty side non-controlling).
  // Requiring is_x() (both sides X) skips such nets and turns
  // reachable objectives into false conflicts — and ultimately false
  // kUntestable claims; the differential suite (DifferentialAtpg)
  // cross-checks exactly this against the SAT engine.
  for (const NetId fin : cc.fanin(best_gate)) {
    if (value_[fin].has_x()) {
      if (!netlist::has_controlling_value(gt)) {
        want = cc0_[fin] <= cc1_[fin] ? Tern::k0 : Tern::k1;
      }
      return std::make_pair(fin, want);
    }
  }
  return std::nullopt;  // frontier gate has no X fanin to set
}

std::pair<NetId, Tern> Podem::backtrace(NetId net, Tern value) const {
  // Walk from the objective toward a PI, choosing at each gate the
  // easiest fanin per controllability, flipping the target value through
  // inversions.
  const CompiledCircuit& cc = cc_;
  NetId cur = net;
  Tern want = value;
  while (cc.type(cur) != GateType::kInput) {
    const GateType gt = cc.type(cur);
    const auto fin = cc.fanin(cur);
    const bool inv = netlist::is_inverting(gt);
    Tern child_want = want;
    if (gt == GateType::kNot || gt == GateType::kBuf) {
      child_want = inv ? tern_not(want) : want;
      cur = fin[0];
      want = child_want;
      continue;
    }
    if (gt == GateType::kXor || gt == GateType::kXnor) {
      // Pick the first X fanin; required value depends on the others,
      // which may be X — aim for the cheaper side (heuristic only; the
      // implication pass validates).
      NetId pick = fin[0];
      for (const NetId fi : fin) {
        if (value_[fi].has_x()) {
          pick = fi;
          break;
        }
      }
      want = cc0_[pick] <= cc1_[pick] ? Tern::k0 : Tern::k1;
      cur = pick;
      continue;
    }
    // AND/NAND/OR/NOR.
    const Tern base_want = inv ? tern_not(want) : want;  // want at gate "core"
    const bool need_all = (gt == GateType::kAnd || gt == GateType::kNand)
                              ? base_want == Tern::k1
                              : base_want == Tern::k0;
    // need_all: every fanin must take the non-controlling value -> pick
    // the *hardest* X fanin first (fail fast).  Otherwise one fanin at
    // the controlling value suffices -> pick the easiest.
    const Tern child = (gt == GateType::kAnd || gt == GateType::kNand)
                           ? (need_all ? Tern::k1 : Tern::k0)
                           : (need_all ? Tern::k0 : Tern::k1);
    NetId pick = netlist::kNullNet;
    std::uint8_t best_cost = 0;
    for (const NetId fi : fin) {
      // has_x(), not is_x(): cone nets with one side pinned are still
      // assignable through the other (see objective()).
      if (!value_[fi].has_x()) continue;
      const std::uint8_t cost = child == Tern::k0 ? cc0_[fi] : cc1_[fi];
      if (pick == netlist::kNullNet ||
          (need_all ? cost > best_cost : cost < best_cost)) {
        pick = fi;
        best_cost = cost;
      }
    }
    if (pick == netlist::kNullNet) {
      // No X fanin left; fall back to first fanin (implication will
      // surface the conflict).
      pick = fin[0];
    }
    cur = pick;
    want = child;
  }
  return {cur, want};
}

struct Podem::Frame {
  NetId pi;
  Tern value;
  bool tried_both;
  std::size_t mark;  // trail length before this decision's assignment
};

PodemResult Podem::generate(const fault::Fault& f) {
  return generate(f, opts_.backtrack_limit);
}

PodemResult Podem::generate(const fault::Fault& f,
                            std::size_t backtrack_limit) {
  OBS_COUNTER(c_calls, "atpg.podem_calls");
  OBS_COUNTER(c_decisions, "atpg.podem_decisions");
  OBS_COUNTER(c_backtracks, "atpg.podem_backtracks");
  OBS_COUNTER(c_aborts, "atpg.podem_aborts");
  OBS_COUNTER(c_implications, "atpg.podem_implications");
  implications_ = 0;
  const PodemResult result = search(f, backtrack_limit);
  undo_to(0);  // every net back to X for the next fault
  OBS_COUNT(c_calls, 1);
  OBS_COUNT(c_decisions, result.decisions);
  OBS_COUNT(c_backtracks, result.backtracks);
  OBS_COUNT(c_aborts, result.status == PodemStatus::kAborted ? 1 : 0);
  OBS_COUNT(c_implications, implications_);
  return result;
}

PodemResult Podem::search(const fault::Fault& f,
                          std::size_t backtrack_limit) {
  const CompiledCircuit& cc = cc_;
  PodemResult result;
  result.pattern = util::WideWord(cc.num_inputs());
  result.care = util::WideWord(cc.num_inputs());

  // Precompiled cone slice — the seed recomputed this BFS per fault.
  const auto cone = cc.cone_gates(f.net);
  cone_nets_.clear();
  cone_nets_.reserve(cone.size() + 1);
  cone_nets_.push_back(f.net);
  cone_nets_.insert(cone_nets_.end(), cone.begin(), cone.end());

  // Mark the region: the cone nets and every net in their fanin.
  if (++region_stamp_ == 0) {  // wrapped: no stale entry may match
    std::fill(region_.begin(), region_.end(), 0);
    region_stamp_ = 1;
  }
  region_walk_.clear();
  for (const NetId id : cone_nets_) {
    region_[id] = region_stamp_;
    region_walk_.push_back(id);
  }
  while (!region_walk_.empty()) {
    const NetId id = region_walk_.back();
    region_walk_.pop_back();
    for (const NetId fin : node_[id].fanin) {
      if (region_[fin] == region_stamp_) continue;
      region_[fin] = region_stamp_;
      region_walk_.push_back(fin);
    }
  }

  // Start state: every net X (the previous call ended by undoing its
  // whole trail) except the site's faulty side (set() pins it), implied
  // through its cone.  A gate whose fanins are all X evaluates to X, so
  // this equals a full forward pass over an all-X circuit.
  site_ = f.net;
  pinned_ = kFaultyRails & (f.stuck_value ? kOneRails : kZeroRails);
  imply(f.net, kVX);

  std::vector<Frame> stack;
  while (true) {
    if (fault_activated(f) && d_at_output()) {
      result.status = PodemStatus::kTestFound;
      for (const auto& fr : stack) {
        const std::size_t idx = cc.input_index(fr.pi);
        result.pattern.set_bit(idx, fr.value == Tern::k1);
        result.care.set_bit(idx, true);
      }
      return result;
    }

    // No D reaches an output here, so an empty D-frontier leaves
    // objective() without an answer, and the search backtracks.
    if (const auto obj = objective(f)) {
      const auto [pi, v] = backtrace(obj->first, obj->second);
      // A PI is free iff its good value is unassigned.  (Checking is_x()
      // would wrongly treat a fault site PI as assigned: its faulty side
      // is pinned to the stuck value.)
      if (value_[pi].good() == Tern::kX) {
        stack.push_back(Frame{pi, v, false, trail_.size()});
        ++result.decisions;
        imply(pi, v == Tern::k1 ? kV1 : kV0);
        continue;
      }
      // Backtrace landed on an assigned PI — treat as a conflict.
    }

    // Backtrack: undo the top decision; flip it if its other value is
    // still untried, otherwise pop it and continue with the one below.
    bool recovered = false;
    while (!stack.empty()) {
      Frame& top = stack.back();
      undo_to(top.mark);
      if (!top.tried_both) {
        top.tried_both = true;
        top.value = tern_not(top.value);
        ++result.backtracks;
        if (result.backtracks > backtrack_limit) {
          result.status = PodemStatus::kAborted;
          return result;
        }
        imply(top.pi, top.value == Tern::k1 ? kV1 : kV0);
        recovered = true;
        break;
      }
      stack.pop_back();
    }
    if (!recovered) {
      result.status = PodemStatus::kUntestable;
      return result;
    }
  }
}

}  // namespace fbist::atpg
