#include "netlist/compiled.h"

#include <algorithm>

namespace fbist::netlist {

CompiledCircuit::CompiledCircuit(const Netlist& nl, bool build_cone_slices) {
  const std::size_t n = nl.num_nets();
  inputs_ = nl.inputs();
  outputs_ = nl.outputs();

  // --- gate types + CSR fanin (construction order preserved) -----------
  type_.resize(n);
  fanin_offset_.assign(n + 1, 0);
  for (NetId id = 0; id < n; ++id) {
    const Gate& g = nl.gate(id);
    type_[id] = g.type;
    fanin_offset_[id + 1] = fanin_offset_[id] + static_cast<std::uint32_t>(g.fanin.size());
  }
  fanin_.resize(fanin_offset_[n]);
  for (NetId id = 0; id < n; ++id) {
    std::copy(nl.gate(id).fanin.begin(), nl.gate(id).fanin.end(),
              fanin_.begin() + fanin_offset_[id]);
  }

  // --- CSR fanout: readers sorted ascending by construction ------------
  fanout_offset_.assign(n + 1, 0);
  for (const NetId f : fanin_) ++fanout_offset_[f + 1];
  for (std::size_t i = 1; i <= n; ++i) fanout_offset_[i] += fanout_offset_[i - 1];
  fanout_.resize(fanin_.size());
  {
    std::vector<std::uint32_t> cursor(fanout_offset_.begin(), fanout_offset_.end() - 1);
    for (NetId id = 0; id < n; ++id) {
      for (std::uint32_t i = fanin_offset_[id]; i < fanin_offset_[id + 1]; ++i) {
        fanout_[cursor[fanin_[i]]++] = id;
      }
    }
  }

  // --- schedule + levels (net numbering is already topological) --------
  schedule_.reserve(n - inputs_.size());
  level_.assign(n, 0);
  for (NetId id = 0; id < n; ++id) {
    if (type_[id] == GateType::kInput) continue;
    schedule_.push_back(id);
    std::uint32_t lv = 0;
    for (std::uint32_t i = fanin_offset_[id]; i < fanin_offset_[id + 1]; ++i) {
      lv = std::max(lv, level_[fanin_[i]] + 1);
    }
    level_[id] = lv;
    depth_ = std::max(depth_, lv);
  }

  // --- PI/PO position tables + output reachability ---------------------
  input_pos_.assign(n, kNoPos);
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    input_pos_[inputs_[i]] = static_cast<std::uint32_t>(i);
  }
  output_pos_.assign(n, kNoPos);
  for (std::size_t i = 0; i < outputs_.size(); ++i) {
    output_pos_[outputs_[i]] = static_cast<std::uint32_t>(i);
  }
  reach_.assign(n, 0);
  for (const NetId o : outputs_) reach_[o] = 1;
  for (NetId id = static_cast<NetId>(n); id-- > 0;) {
    if (!reach_[id]) continue;
    for (std::uint32_t i = fanin_offset_[id]; i < fanin_offset_[id + 1]; ++i) {
      reach_[fanin_[i]] = 1;
    }
  }

  // --- per-net fanout-cone programs and outputs -----------------------
  // Bit-parallel forward reachability, one pass per 64 consecutive roots
  // [r0, r0 + 64): bit i of roots_of[v] says root r0 + i reaches v (a
  // root reaches itself).  Net ids are topological, so a pass that
  // visits its pending nets in ascending id meets every net after all
  // its fanins, and each cone in evaluation order; it visits only the
  // nets its roots reach.  A counting sweep over every pass sizes each
  // output list and program exactly, and a filling sweep writes them in
  // place.
  if (!build_cone_slices) return;
  std::vector<std::uint64_t> roots_of(n, 0);
  std::vector<std::uint64_t> pending((n + 63) / 64, 0);
  // Calls visit(v, bits) for every net v the roots [r0, r0 + 64) reach,
  // ascending, after pushing `bits` = roots_of[v] onto v's readers.
  const auto reach_pass = [&](NetId r0, auto&& visit) {
    const NetId r_end = static_cast<NetId>(std::min<std::size_t>(n, r0 + std::size_t{64}));
    for (NetId r = r0; r < r_end; ++r) {
      roots_of[r] |= std::uint64_t{1} << (r - r0);
      pending[r >> 6] |= std::uint64_t{1} << (r & 63);
    }
    std::size_t last = (r_end - 1) >> 6;
    for (std::size_t wi = r0 >> 6; wi <= last; ++wi) {
      while (pending[wi] != 0) {
        const NetId v = static_cast<NetId>(wi * 64 + __builtin_ctzll(pending[wi]));
        pending[wi] &= pending[wi] - 1;
        const std::uint64_t bits = roots_of[v];
        for (std::uint32_t e = fanout_offset_[v]; e < fanout_offset_[v + 1]; ++e) {
          const NetId r = fanout_[e];
          roots_of[r] |= bits;
          pending[r >> 6] |= std::uint64_t{1} << (r & 63);
          last = std::max<std::size_t>(last, r >> 6);
        }
        visit(v, bits);
      }
    }
  };
  // The bit of v's own root among `bits` (0 when v is no pass root).
  const auto own_bit = [](NetId v, NetId r0) {
    return v - r0 < 64 ? std::uint64_t{1} << (v - r0) : 0;
  };

  // Counting sweep: per root, its cone gates, the POs among the root and
  // its cone, and its program's words in either encoding (a record is
  // 1 + ceil(k / 2) words narrow and 2 + k wide; compiled.h).
  // `slot_words` is the most (net, cone) pairs one pass visits.
  cone_offset_.assign(n + 1, 0);
  cone_out_offset_.assign(n + 1, 0);
  cone_prog_offset_.assign(n + 1, 0);
  std::vector<std::uint64_t> wide_words(n + 1, 0);
  std::size_t slot_words = 0;
  std::size_t max_fanin = 0;
  for (NetId r0 = 0; r0 < n; r0 += 64) {
    std::size_t pairs = 0;
    reach_pass(r0, [&](NetId v, std::uint64_t bits) {
      roots_of[v] = 0;
      const std::uint32_t k = fanin_offset_[v + 1] - fanin_offset_[v];
      const bool is_po = output_pos_[v] != kNoPos;
      const std::uint64_t own = own_bit(v, r0);
      if (is_po && own != 0) ++cone_out_offset_[v + 1];
      ++pairs;
      for (std::uint64_t w = bits & ~own; w != 0; w &= w - 1) {
        const NetId root = r0 + static_cast<NetId>(__builtin_ctzll(w));
        ++cone_offset_[root + 1];
        cone_prog_offset_[root + 1] += 1 + (k + 1) / 2;
        wide_words[root + 1] += 2 + k;
        if (is_po) ++cone_out_offset_[root + 1];
        ++pairs;
      }
    });
    slot_words = std::max(slot_words, pairs);
  }
  for (NetId id = 0; id < n; ++id) {
    max_cone_gates_ = std::max<std::size_t>(max_cone_gates_, cone_offset_[id + 1]);
    max_fanin = std::max<std::size_t>(max_fanin, fanin_offset_[id + 1] - fanin_offset_[id]);
  }
  // Narrow packs (id, slot, fanin count) into 16/16/12 bits; wide spends
  // two words on each header and one on each slot.
  narrow_programs_ = n < (1u << 16) && max_cone_gates_ + 2 < (1u << 16) &&
                     max_fanin < (1u << 12);
  if (!narrow_programs_) cone_prog_offset_.swap(wide_words);
  std::vector<std::uint64_t>().swap(wide_words);
  for (std::size_t i = 1; i <= n; ++i) {
    cone_offset_[i] += cone_offset_[i - 1];
    cone_out_offset_[i] += cone_out_offset_[i - 1];
    cone_prog_offset_[i] += cone_prog_offset_[i - 1];
  }
  cone_outputs_.resize(cone_out_offset_[n]);
  cone_out_slot_.resize(cone_out_offset_[n]);
  cone_prog_.resize(cone_prog_offset_[n]);

  // Filling sweep.  A visited net's slots in the cones that hold it sit
  // at slots[slot_at[v]...], one per bit of roots_of[v] in bit order
  // (0 in its own root's cone), so a reader finds its fanin's slot in
  // cone i by walking both nets' bits together.  Programs start zeroed,
  // so narrow slots are OR-ed into their half-words.
  std::vector<std::uint32_t> slots(slot_words);
  std::vector<std::uint32_t> slot_at(n);
  std::vector<NetId> visited(n);
  std::vector<std::uint64_t> po_pending((outputs_.size() + 63) / 64, 0);
  for (NetId r0 = 0; r0 < n; r0 += 64) {
    const std::size_t roots = std::min<std::size_t>(64, n - r0);
    std::uint64_t prog_at[64] = {}, out_at[64] = {};
    std::uint32_t count[64] = {}, sentinel[64] = {};
    std::uint32_t cones[64] = {};  // per visited net: the roots whose cone holds it
    for (std::size_t i = 0; i < roots; ++i) {
      prog_at[i] = cone_prog_offset_[r0 + i];
      out_at[i] = cone_out_offset_[r0 + i];
      sentinel[i] =
          static_cast<std::uint32_t>(cone_offset_[r0 + i + 1] - cone_offset_[r0 + i] + 1);
    }
    std::size_t used = 0;
    std::size_t num_visited = 0;
    reach_pass(r0, [&](NetId v, std::uint64_t bits) {
      visited[num_visited++] = v;
      if (output_pos_[v] != kNoPos) {
        po_pending[output_pos_[v] >> 6] |= std::uint64_t{1} << (output_pos_[v] & 63);
      }
      slot_at[v] = static_cast<std::uint32_t>(used);
      const std::uint64_t own = own_bit(v, r0);
      std::uint32_t m = 0;
      for (std::uint64_t w = bits; w != 0; w &= w - 1) {
        const std::uint32_t i = static_cast<std::uint32_t>(__builtin_ctzll(w));
        if ((std::uint64_t{1} << i) == own) {
          slots[used++] = 0;
          continue;
        }
        cones[m++] = i;
        slots[used++] = ++count[i];
      }
      const std::uint32_t k = fanin_offset_[v + 1] - fanin_offset_[v];
      const std::uint32_t type = static_cast<std::uint32_t>(type_[v]);
      for (std::uint32_t q = 0; q < m; ++q) {
        std::uint32_t* rec = cone_prog_.data() + prog_at[cones[q]];
        if (narrow_programs_) {
          rec[0] = (static_cast<std::uint32_t>(v) << 16) | (k << 4) | type;
        } else {
          rec[0] = (k << 8) | type;
          rec[1] = v;
        }
      }
      for (std::uint32_t j = 0; j < k; ++j) {
        const NetId f = fanin_[fanin_offset_[v] + j];
        const std::uint64_t f_bits = roots_of[f];
        const std::uint32_t* f_slot = f_bits != 0 ? slots.data() + slot_at[f] : nullptr;
        for (std::uint32_t q = 0; q < m; ++q) {
          const std::uint32_t i = cones[q];
          std::uint32_t* rec = cone_prog_.data() + prog_at[i];
          std::uint32_t slot = sentinel[i];
          if ((f_bits >> i) & 1) slot = *f_slot++;
          if (narrow_programs_) {
            rec[1 + j / 2] |= slot << (16 * (j & 1));
          } else {
            rec[2 + j] = slot;
          }
        }
      }
      const std::uint32_t record = narrow_programs_ ? 1 + (k + 1) / 2 : 2 + k;
      for (std::uint32_t q = 0; q < m; ++q) prog_at[cones[q]] += record;
    });
    // Cone outputs in position order, each with its slot in the cone.
    for (std::size_t wi = 0; wi < po_pending.size(); ++wi) {
      for (; po_pending[wi] != 0; po_pending[wi] &= po_pending[wi] - 1) {
        const std::uint32_t pos =
            static_cast<std::uint32_t>(wi * 64 + __builtin_ctzll(po_pending[wi]));
        const NetId po = outputs_[pos];
        const std::uint32_t* po_slot = slots.data() + slot_at[po];
        for (std::uint64_t w = roots_of[po]; w != 0; w &= w - 1) {
          const std::size_t i = static_cast<std::size_t>(__builtin_ctzll(w));
          cone_outputs_[out_at[i]] = pos;
          cone_out_slot_[out_at[i]++] = *po_slot++;
        }
      }
    }
    for (std::size_t i = 0; i < num_visited; ++i) roots_of[visited[i]] = 0;
  }
}

}  // namespace fbist::netlist
