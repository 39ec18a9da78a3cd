#include "sim/fault_sim.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "sim/gate_eval.h"
#include "util/parallel.h"

namespace fbist::sim {

using netlist::CompiledCircuit;
using netlist::GateType;
using netlist::NetId;

namespace {

/// N 64-pattern blocks per cone walk (sim/gate_eval.h): a campaign
/// instantiates N = 1 when it holds one block and N = kChunkBlocks = 16
/// (sim/pattern.h) otherwise, amortizing one structure walk over
/// N * 64 patterns instead of N walks over 64.
using detail::WordV;

template <int N>
inline bool differs(const WordV<N>& a, const WordV<N>& b) {
  Word acc = 0;
  for (int i = 0; i < N; ++i) acc |= a.w[i] ^ b.w[i];
  return acc != 0;
}

inline bool test_flag(const std::uint8_t* flags, std::uint32_t slot) {
  return flags[slot] != 0;
}

/// Slot i of a narrow record's references: 16-bit slots two per word,
/// the low half first (netlist/compiled.h), read as one half-word load.
/// A big-endian host stores a word's low half second.
inline std::uint32_t narrow_slot(const std::uint32_t* refs, std::uint32_t i) {
  constexpr std::uint32_t kHalfSwap = __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__ ? 1 : 0;
  std::uint16_t slot;
  std::memcpy(&slot, reinterpret_cast<const unsigned char*>(refs) + 2 * (i ^ kHalfSwap),
              sizeof slot);
  return slot;
}

/// Runs one precompiled cone program (encoding: netlist/compiled.h).
///
/// `local[slot]` holds the faulty value of cone slot `slot`;
/// `diff_flag` flags the slots whose faulty value currently differs
/// from good (slot 0 = forced fault site, pre-set by the caller).  A
/// gate none of whose fanins differ is skipped — its value is the good
/// value, which readers fetch through the fanin's net id — so the walk
/// touches only the fault's active region, in scratch that stays
/// cache-resident (cone-dense slots, not net ids).  A record holds
/// only its fanins' slots; fanin i's net id is cc.fanin(gate)[i], whose
/// base the walk takes when it decodes the header.  Both the
/// touched-scan and the loads are branchless selects.
///
/// `kNarrow` selects the packed 16-bit program encoding (see
/// compiled.h), which halves the stream bytes the walk is bound by.
template <typename V, bool kNarrow, typename GoodFn>
inline void walk_cone_program(const CompiledCircuit& cc,
                              netlist::Span<std::uint32_t> prog, V* local,
                              std::uint8_t* diff_flag, GoodFn good_of) {
  const std::uint32_t* p = prog.begin();
  const std::uint32_t* const p_end = prog.end();
  std::uint32_t slot_self = 1;
  while (p != p_end) {
    const std::uint32_t header = *p++;
    NetId self;
    std::uint32_t k;
    GateType type;
    if (kNarrow) {
      self = header >> 16;
      k = (header >> 4) & 0xfff;
      type = static_cast<GateType>(header & 0xf);
    } else {
      self = *p++;
      k = header >> 8;
      type = static_cast<GateType>(header & 0xff);
    }
    const NetId* const fin = cc.fanin(self).data;
    const std::uint32_t* const refs = p;
    p += kNarrow ? (k + 1) / 2 : k;

    const auto ref_slot = [refs](std::uint32_t i) -> std::uint32_t {
      return kNarrow ? narrow_slot(refs, i) : refs[i];
    };

    bool touched = test_flag(diff_flag, ref_slot(0));
    for (std::uint32_t i = 1; i < k; ++i) {
      touched |= test_flag(diff_flag, ref_slot(i));
    }
    if (!touched) {
      ++slot_self;
      continue;
    }

    const auto load = [&](std::uint32_t i) -> V {
      const std::uint32_t slot = ref_slot(i);
      return test_flag(diff_flag, slot) ? local[slot] : good_of(fin[i]);
    };
    V v = load(0);
    switch (type) {
      case GateType::kBuf:
        break;
      case GateType::kNot:
        v = ~v;
        break;
      case GateType::kAnd:
        for (std::uint32_t i = 1; i < k; ++i) v = v & load(i);
        break;
      case GateType::kNand:
        for (std::uint32_t i = 1; i < k; ++i) v = v & load(i);
        v = ~v;
        break;
      case GateType::kOr:
        for (std::uint32_t i = 1; i < k; ++i) v = v | load(i);
        break;
      case GateType::kNor:
        for (std::uint32_t i = 1; i < k; ++i) v = v | load(i);
        v = ~v;
        break;
      case GateType::kXor:
        for (std::uint32_t i = 1; i < k; ++i) v = v ^ load(i);
        break;
      case GateType::kXnor:
        for (std::uint32_t i = 1; i < k; ++i) v = v ^ load(i);
        v = ~v;
        break;
      case GateType::kInput:
        break;  // unreachable: inputs never appear in a cone
    }
    local[slot_self] = v;
    // Byte flags, not a bitset: distinct addresses per gate keep the
    // walk free of read-modify-write chains through shared words.
    diff_flag[slot_self] = differs(v, good_of(self)) ? 1 : 0;
    ++slot_self;
  }
}

/// Reads the interleaved (N words per net) good-value layout of one
/// N-block chunk.
template <int N>
struct GoodV {
  const Word* gT;
  WordV<N> operator()(NetId n) const {
    WordV<N> r;
    for (int i = 0; i < N; ++i) r.w[i] = gT[n * N + i];
    return r;
  }
};

/// The N-wide walk of one cone program, kept out of line: inlined into
/// chunk_site_walk it ran about 5% slower on a matrix build over
/// tradeoff-mid's seven circuits (x86-64, AVX-512 host, one pinned CPU).
template <int N, bool kNarrow>
[[gnu::noinline]] void walk_chunk(const CompiledCircuit& cc,
                                  netlist::Span<std::uint32_t> prog,
                                  WordV<N>* local, std::uint8_t* diff_flag,
                                  const Word* gT) {
  walk_cone_program<WordV<N>, kNarrow>(cc, prog, local, diff_flag, GoodV<N>{gT});
}

/// One faulty walk of `site_net`'s cone over one chunk's interleaved
/// good values `gT` (N words per net), with the site forced to its good
/// value ^ act; returns the per-block PO difference words (nonzero only
/// in flipped lanes: a lane the site is not flipped in carries good
/// values through the whole cone).
///
/// Kept out of line: inlined into the per-site loop, the cone walks ran
/// 8-12% slower on a 1024-pattern s9234 campaign and the
/// BM_InitialMatrixBuild/4 row (x86-64, AVX-512 host).
template <int N>
[[gnu::noinline]] WordV<N> chunk_site_walk(const CompiledCircuit& cc,
                                           NetId site_net, const Word* gT,
                                           const WordV<N>& act, WordV<N>* local,
                                           std::uint8_t* diff_flag) {
  const netlist::Span<std::uint32_t> prog = cc.cone_program(site_net);
  const GoodV<N> good_of{gT};
  std::fill(diff_flag, diff_flag + cc.cone_gates(site_net).size() + 2, 0);
  local[0] = good_of(site_net) ^ act;
  diff_flag[0] = 1;
  if (cc.narrow_programs()) {
    walk_chunk<N, true>(cc, prog, local, diff_flag, gT);
  } else {
    walk_chunk<N, false>(cc, prog, local, diff_flag, gT);
  }
  const netlist::Span<std::uint32_t> cone_outs = cc.cone_outputs(site_net);
  const netlist::Span<std::uint32_t> cone_slots = cc.cone_output_slots(site_net);
  const auto& outs = cc.outputs();
  WordV<N> diff{};
  for (std::size_t i = 0; i < cone_outs.size(); ++i) {
    const std::uint32_t slot = cone_slots[i];
    if (!test_flag(diff_flag, slot)) continue;
    diff = diff | (local[slot] ^ good_of(outs[cone_outs[i]]));
  }
  return diff;
}

/// Per-worker cone-walk scratch, sized by the largest cone (slot-dense,
/// so it stays small and hot even on circuits whose per-net arrays do
/// not fit in cache).  max_slots must cover the root slot and the
/// outside-sentinel slot (+2), which branchless selects may load
/// speculatively.  `local` backs the WordV<N> walk (N words per slot).
/// `walks` tallies the worker's cone walks for the campaign's
/// sim.site_walks count; the alignment keeps one worker's tally off
/// every other worker's lines.
struct alignas(64) WalkScratch {
  std::vector<Word> local;
  std::vector<std::uint8_t> diff_flag;
  std::uint64_t walks = 0;
};

/// The one campaign walk at N blocks per cone walk, over the packed
/// set's `blocks` >= 1 blocks: records every row's earliest indices in
/// `results` (one per packing.rows entry, every index kNotDetected on
/// entry) and returns the number of cone walks taken.  `sites` is
/// FaultSim's site list, a template argument only because its element
/// type is private.
///
/// Good values for every packed block are computed once — the 64/T-fold
/// saving over per-row campaigns at small T — by one schedule pass per
/// N-block chunk, straight into the layout the walk reads (chunk c's
/// N words per net at good + c * num_nets * N).  Padding blocks past the
/// last real one carry its good values (detail::simulate_blocks) and are
/// never flipped, so they cannot trip the touched-gate skip.  Each site
/// then walks chunk after chunk from block 0 until no row still seeks
/// either of its faults.  Blocks are visited in ascending pattern order,
/// so a row's earliest index is the lowest set lane of its first
/// detecting block whatever N is; only the early-exit granularity (one
/// chunk) depends on it.
template <int N, typename Sites>
std::uint64_t walk_campaign(const CompiledCircuit& cc, const Sites& sites,
                            const PatternSet& packed, std::size_t blocks,
                            const LanePacking& packing,
                            const std::vector<util::BitVector>* seek,
                            std::vector<FaultSimResult>& results) {
  const std::size_t nf = results.front().earliest.size();
  const std::size_t chunks = (blocks + N - 1) / N;
  const std::size_t chunk_words = cc.num_nets() * N;
  std::vector<Word> good(chunks * chunk_words);
  {
    OBS_COUNTER(c_good_ns, "sim.good_ns");
    OBS_SCOPED_NS(good_timer, c_good_ns);
    for (std::size_t c = 0; c < chunks; ++c) {
      detail::simulate_blocks<N>(cc, packed, c * N, blocks,
                                 good.data() + c * chunk_words);
    }
  }

  // Per-block demux plan: which rows overlap the block, at which lanes.
  struct RowLanes {
    std::uint32_t pos;  // index into packing.rows / results
    Word mask;          // this row's lanes within the block
    std::size_t base;   // the row's global base pattern index
  };
  std::vector<std::vector<RowLanes>> rows_in_block(blocks);
  std::vector<Word> union_lanes(blocks, 0);
  std::vector<std::uint32_t> live_rows;  // rows that can detect at all
  for (std::size_t i = 0; i < packing.rows.size(); ++i) {
    const LanePacking::Row& pr = packing.rows[i];
    if (pr.length == 0) continue;
    live_rows.push_back(static_cast<std::uint32_t>(i));
    const std::size_t end = pr.base + pr.length;
    assert(end <= blocks * 64);
    assert(pr.length > 64 || pr.base / 64 == (end - 1) / 64);
    for (std::size_t b = pr.base / 64; b * 64 < end; ++b) {
      const std::size_t lo = std::max(pr.base, b * 64) - b * 64;
      const std::size_t hi = std::min(end, (b + 1) * 64) - b * 64;
      const Word mask = (hi - lo == 64 ? ~Word{0} : ((Word{1} << (hi - lo)) - 1))
                        << lo;
      rows_in_block[b].push_back(
          {static_cast<std::uint32_t>(i), mask, pr.base});
      union_lanes[b] |= mask;
    }
  }

  const std::size_t max_slots = cc.max_cone_gates() + 2;
  std::vector<WalkScratch> scratches(util::parallel_workers());
  for (WalkScratch& sc : scratches) {
    sc.local.assign(N * max_slots, 0);
    sc.diff_flag.assign(max_slots, 0);
  }

  // With seek masks, the faults some live row seeks: a site with neither
  // fault in it costs one bit test per fault, before any per-row scan.
  util::BitVector sought;
  if (seek != nullptr) {
    sought = util::BitVector(nf);
    for (const std::uint32_t pos : live_rows) sought |= (*seek)[pos];
  }

  const auto seeks = [seek](std::size_t pos, std::size_t fid) {
    return seek == nullptr || (*seek)[pos].get(fid);
  };
  const auto seekers = [&](std::size_t fid) -> std::size_t {
    if (seek == nullptr) return live_rows.size();
    std::size_t n = 0;
    for (const std::uint32_t pos : live_rows) n += seeks(pos, fid) ? 1 : 0;
    return n;
  };
  constexpr std::size_t kNoFault = static_cast<std::size_t>(-1);
  const auto is_sought = [&](std::size_t fid) {
    return fid != kNoFault && (seek == nullptr || sought.get(fid));
  };
  const auto simulate_site = [&](std::size_t sid, std::size_t worker) {
    const auto& site = sites[sid];
    if (!is_sought(site.fid[0]) && !is_sought(site.fid[1])) return;
    // left[s]: live rows that seek the stuck-at-s fault on this net and
    // have not yet detected it (zero for an absent fault).  Rows are
    // independent campaigns: a detection in one row's lanes never drops
    // the fault from another, so a polarity is flipped while any row
    // still needs it (in those rows' lanes only) and the site stops once
    // no row needs either.
    std::size_t left[2];
    for (int s = 0; s < 2; ++s) {
      left[s] = site.fid[s] != kNoFault ? seekers(site.fid[s]) : 0;
    }

    // The lanes of block b that polarity s flips: those of the rows that
    // seek the stuck-at-s fault and have not detected it yet.  While
    // every live row still needs it (stage 0's first chunk), that is the
    // block's union of row lanes, with no per-row scan.
    const auto seek_lanes = [&](int s, std::size_t b) -> Word {
      if (left[s] == 0) return 0;
      if (left[s] == live_rows.size()) return union_lanes[b];
      const std::size_t fid = site.fid[s];
      Word m = 0;
      for (const RowLanes& rl : rows_in_block[b]) {
        if (seeks(rl.pos, fid) &&
            results[rl.pos].earliest[fid] == kNotDetected) {
          m |= rl.mask;
        }
      }
      return m;
    };
    // Demuxes one block's faulty-vs-good output difference word back to
    // the per-row results (row-local earliest indices).
    const auto demux = [&](std::size_t b, Word diff, Word gs) {
      for (int s = 0; s < 2; ++s) {
        if (left[s] == 0) continue;
        const Word ds = diff & (s == 0 ? gs : ~gs);
        if (ds == 0) continue;
        const std::size_t fid = site.fid[s];
        for (const RowLanes& rl : rows_in_block[b]) {
          if (!seeks(rl.pos, fid)) continue;
          std::uint32_t& earliest = results[rl.pos].earliest[fid];
          if (earliest != kNotDetected) continue;  // an earlier block won
          const Word d = ds & rl.mask;
          if (d == 0) continue;
          earliest = static_cast<std::uint32_t>(
              b * 64 + static_cast<std::size_t>(__builtin_ctzll(d)) - rl.base);
          --left[s];
        }
      }
    };

    WalkScratch& sc = scratches[worker];
    WordV<N>* const local = reinterpret_cast<WordV<N>*>(sc.local.data());
    for (std::size_t c = 0; c < chunks && (left[0] != 0 || left[1] != 0);
         ++c) {
      const Word* const gT = good.data() + c * chunk_words;
      const WordV<N> gs = GoodV<N>{gT}(site.net);
      // sa0 flips the site where the good value is 1, sa1 where it is 0
      // — disjoint lanes, so one walk with the site complemented on
      // exactly those lanes simulates both faults (bitwise ops are
      // lane-independent).
      WordV<N> act;
      for (int j = 0; j < N; ++j) {
        const std::size_t b = c * N + j;
        act.w[j] = b < blocks ? (gs.w[j] & seek_lanes(0, b)) |
                                    (~gs.w[j] & seek_lanes(1, b))
                              : Word{0};
      }
      if (!differs(act, WordV<N>{})) continue;

      const WordV<N> diff = chunk_site_walk<N>(cc, site.net, gT, act, local,
                                               sc.diff_flag.data());
      ++sc.walks;
      for (int j = 0; j < N; ++j) {
        const std::size_t b = c * N + j;
        if (b < blocks && diff.w[j] != 0) demux(b, diff.w[j], gs.w[j]);
      }
    }
  };
  util::parallel_for_workers(sites.size(), simulate_site);

  std::uint64_t walks = 0;
  for (const WalkScratch& sc : scratches) walks += sc.walks;
  return walks;
}

/// The packing of one row spanning the whole pattern set.
LanePacking whole_set(const PatternSet& patterns) {
  return LanePacking{{{0, 0, patterns.size()}}, patterns.size()};
}

}  // namespace

FaultSim::FaultSim(const CompiledCircuit& cc, const fault::FaultList& faults)
    : cc_(cc), faults_(faults) {
  if (!cc_.has_cone_programs()) {
    throw std::invalid_argument(
        "FaultSim: circuit compiled without cone programs");
  }
  // Pair opposite-polarity faults on the same net into one site; each
  // site costs one cone walk per block.  A stray duplicate polarity
  // (never produced by FaultList::full/collapsed) gets its own site.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> site_of(cc_.num_nets(), kNone);
  for (std::size_t fid = 0; fid < faults_.size(); ++fid) {
    const fault::Fault& f = faults_[fid];
    const std::size_t pol = f.stuck_value ? 1 : 0;
    std::size_t s = site_of[f.net];
    if (s == kNone || sites_[s].fid[pol] != kNone) {
      s = sites_.size();
      sites_.push_back(Site{f.net, {kNone, kNone}});
      site_of[f.net] = s;
    }
    sites_[s].fid[pol] = fid;
  }
}

FaultSimResult FaultSim::run(const PatternSet& patterns) const {
  return std::move(run_packed(patterns, whole_set(patterns))[0]);
}

FaultSimResult FaultSim::run_subset(const PatternSet& patterns,
                                    const util::BitVector& seek) const {
  assert(seek.size() == faults_.size());
  const std::vector<util::BitVector> rows(1, seek);
  return std::move(run_packed(patterns, whole_set(patterns), &rows)[0]);
}

std::vector<FaultSimResult> FaultSim::run_packed(
    const PatternSet& packed, const LanePacking& packing,
    const std::vector<util::BitVector>* seek) const {
  const CompiledCircuit& cc = cc_;
  const std::size_t nf = faults_.size();
  const std::size_t nrows = packing.rows.size();
  assert(packing.num_patterns <= packed.size());
  assert(seek == nullptr || seek->size() == nrows);

  std::vector<FaultSimResult> results(nrows);
  for (auto& r : results) {
    r.detected = util::BitVector(nf);
    r.earliest.assign(nf, kNotDetected);
  }
  if (packed.empty() || nf == 0 || nrows == 0) return results;
  assert(packed.num_inputs() == cc.num_inputs());

  // One walk, two widths: a one-block campaign walks one block per cone
  // visit, a longer one kChunkBlocks-block chunks from block 0 on (one
  // structure walk per kChunkBlocks * 64 patterns, padded past the last
  // block).
  const std::size_t blocks = (packed.size() + 63) / 64;
  const std::uint64_t walks =
      blocks == 1 ? walk_campaign<1>(cc, sites_, packed, blocks, packing,
                                     seek, results)
                  : walk_campaign<kChunkBlocks>(cc, sites_, packed, blocks,
                                                packing, seek, results);

  // Assemble packed detection bits outside the parallel section (sites
  // write distinct earliest slots; BitVector words would be shared), one
  // 64-fault word at a time.  Each detection stops that row's later
  // blocks for the fault.
  std::uint64_t dropped = 0;
  for (FaultSimResult& res : results) {
    for (std::size_t w = 0; w * 64 < nf; ++w) {
      const std::uint32_t* const e = res.earliest.data() + w * 64;
      const std::size_t n = std::min<std::size_t>(64, nf - w * 64);
      Word bits = 0;
      for (std::size_t i = 0; i < n; ++i) {
        bits |= Word{e[i] != kNotDetected} << i;
      }
      res.detected.write_word(w, ~Word{0}, bits);
      dropped += static_cast<std::uint64_t>(__builtin_popcountll(bits));
    }
  }

  // Campaign-grain counters only (one shard add per campaign, never per
  // site or block): the cone walk itself stays instrumentation-free.
  OBS_COUNTER(c_campaigns, "sim.campaigns");
  OBS_COUNTER(c_blocks, "sim.blocks");
  OBS_COUNTER(c_narrow, "sim.tier_narrow");
  OBS_COUNTER(c_chunked, "sim.tier_chunked");
  OBS_COUNTER(c_dropped, "sim.faults_dropped");
  OBS_COUNTER(c_walks, "sim.site_walks");
  OBS_COUNT(c_campaigns, 1);
  OBS_COUNT(c_blocks, blocks);
  OBS_COUNT(blocks == 1 ? c_narrow : c_chunked, 1);
  OBS_COUNT(c_dropped, dropped);
  OBS_COUNT(c_walks, walks);
  (void)dropped;  // both read only in observability builds
  (void)walks;
  return results;
}

}  // namespace fbist::sim
