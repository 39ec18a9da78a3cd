#include "sim/fault_sim.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/metrics.h"
#include "sim/gate_eval.h"
#include "util/parallel.h"

namespace fbist::sim {

using netlist::CompiledCircuit;
using netlist::GateType;
using netlist::NetId;

namespace {

/// N 64-pattern blocks per chunk walk (sim/gate_eval.h): a multi-block
/// campaign amortizes one structure walk over N * 64 patterns instead of
/// N walks over 64.  Campaigns instantiate N = kChunkBlocks = 16 only
/// (sim/pattern.h).
using detail::WordV;

inline bool differs(Word a, Word b) { return a != b; }
template <int N>
inline bool differs(const WordV<N>& a, const WordV<N>& b) {
  Word acc = 0;
  for (int i = 0; i < N; ++i) acc |= a.w[i] ^ b.w[i];
  return acc != 0;
}

inline bool test_flag(const std::uint8_t* flags, std::uint32_t slot) {
  return flags[slot] != 0;
}

/// Runs one precompiled cone program (encoding: netlist/compiled.h).
///
/// `local[slot]` holds the faulty value of cone slot `slot`;
/// `diff_flag` flags the slots whose faulty value currently differs
/// from good (slot 0 = forced fault site, pre-set by the caller).  A
/// gate none of whose fanins differ is skipped — its value is the good
/// value, which readers fetch through the inline global id — so the
/// walk touches only the fault's active region, in scratch that stays
/// cache-resident (cone-dense slots, not net ids).  Fanin references
/// are fixed-width (slot, global) pairs, so both the touched-scan and
/// the loads are branchless selects.
///
/// `kScan` enables the skip of gates none of whose fanins differ.  It
/// pays off when the active region is a small share of the cone (deep
/// circuits, late blocks); on small dense cones the scan is overhead
/// and a skipped gate evaluates to its good value anyway.
///
/// `kNarrow` selects the packed 16-bit program encoding (see
/// compiled.h), which halves the stream bytes the walk is bound by.
///
/// `kPrecopy` assumes the caller pre-filled `local` with the cone's
/// good values (so skipped gates hold good values too).  Loads then
/// select on `slot != sentinel` — a register compare available as soon
/// as the ref word is decoded — instead of on a diff_flag byte load,
/// shortening the per-fanin dependency chain.
template <typename V, bool kScan, bool kNarrow, bool kPrecopy, typename GoodFn>
inline void walk_cone_program(netlist::Span<std::uint32_t> prog, V* local,
                              std::uint8_t* diff_flag, GoodFn good_of,
                              std::uint32_t sentinel = 0) {
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
    const std::uint32_t* const refs = p;
    p += kNarrow ? k : 2 * k;

    const auto ref_slot = [refs](std::uint32_t i) -> std::uint32_t {
      return kNarrow ? refs[i] >> 16 : refs[2 * i];
    };
    const auto ref_glob = [refs](std::uint32_t i) -> NetId {
      return kNarrow ? (refs[i] & 0xffff) : refs[2 * i + 1];
    };

    if (kScan) {
      bool touched = test_flag(diff_flag, ref_slot(0));
      for (std::uint32_t i = 1; i < k; ++i) {
        touched |= test_flag(diff_flag, ref_slot(i));
      }
      if (!touched) {
        ++slot_self;
        continue;
      }
    }

    const auto load = [&](std::uint32_t i) -> V {
      const std::uint32_t slot = ref_slot(i);
      if (kPrecopy) {
        return slot != sentinel ? local[slot] : good_of(ref_glob(i));
      }
      return test_flag(diff_flag, slot) ? local[slot] : good_of(ref_glob(i));
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
[[gnu::noinline]] void walk_chunk(netlist::Span<std::uint32_t> prog,
                                  WordV<N>* local, std::uint8_t* diff_flag,
                                  const Word* gT) {
  walk_cone_program<WordV<N>, true, kNarrow, false>(prog, local, diff_flag,
                                                    GoodV<N>{gT});
}

/// One narrow (single-block) faulty walk of `site_net`'s cone with the
/// site forced to g[site_net] ^ act, returning the cone's PO difference
/// word (unmasked — the caller applies its lane mask and demuxes).
/// Pre-fills the cone's good values so loads select on the slot (see
/// walk_cone_program kPrecopy).
///
/// This walk and chunk_site_walk stay out of line: inlined into their
/// one caller, the per-site loop, they ran 8-12% slower on a narrow
/// 1024-pattern s9234 campaign and the BM_InitialMatrixBuild/4 row
/// (x86-64, AVX-512 host).
[[gnu::noinline]] Word narrow_site_walk(const CompiledCircuit& cc,
                                        NetId site_net, const Word* g,
                                        Word act, Word* local,
                                        std::uint8_t* diff_flag) {
  const netlist::Span<std::uint32_t> prog = cc.cone_program(site_net);
  const netlist::Span<NetId> cone = cc.cone_gates(site_net);
  std::fill(diff_flag, diff_flag + cone.size() + 2, 0);
  for (std::size_t i = 0; i < cone.size(); ++i) local[i + 1] = g[cone[i]];
  local[0] = g[site_net] ^ act;
  diff_flag[0] = 1;
  const std::uint32_t sentinel = static_cast<std::uint32_t>(cone.size() + 1);
  const auto good_of = [g](NetId n) { return g[n]; };
  // Small cones are cheapest fully evaluated (the skip branch
  // mispredicts); deep cones win by skipping the inactive region.
  const bool scan = prog.size() >= kScanMinProgWords;
  if (cc.narrow_programs()) {
    if (scan) {
      walk_cone_program<Word, true, true, true>(prog, local, diff_flag, good_of,
                                                sentinel);
    } else {
      walk_cone_program<Word, false, true, true>(prog, local, diff_flag,
                                                 good_of, sentinel);
    }
  } else {
    if (scan) {
      walk_cone_program<Word, true, false, true>(prog, local, diff_flag,
                                                 good_of, sentinel);
    } else {
      walk_cone_program<Word, false, false, true>(prog, local, diff_flag,
                                                  good_of, sentinel);
    }
  }
  const netlist::Span<std::uint32_t> cone_outs = cc.cone_outputs(site_net);
  const netlist::Span<std::uint32_t> cone_slots = cc.cone_output_slots(site_net);
  const auto& outs = cc.outputs();
  Word diff = 0;
  for (std::size_t i = 0; i < cone_outs.size(); ++i) {
    const std::uint32_t slot = cone_slots[i];
    if (!test_flag(diff_flag, slot)) continue;
    diff |= local[slot] ^ g[outs[cone_outs[i]]];
  }
  return diff;
}

/// N-wide counterpart of narrow_site_walk over one chunk's interleaved
/// good values `gT` (N words per net); returns the unmasked per-block
/// PO difference words.
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
    walk_chunk<N, true>(prog, local, diff_flag, gT);
  } else {
    walk_chunk<N, false>(prog, local, diff_flag, gT);
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

/// Walks every chunk of one site's cone over the campaign's good values
/// `goodT` (chunk c's N-words-per-net layout at goodT + c * num_nets *
/// N), demuxing nonzero per-block difference words through
/// `demux(block, diff, gs)`, and returns the number of chunk walks
/// taken.  `activation(chunk, gs, act)` fills the chunk's per-block
/// site-flip lanes (zero past the last real block) from the site's good
/// values `gs`, or returns false once nothing is sought, which stops the
/// site.  Padding blocks past the last real one carry its good values
/// (detail::simulate_blocks) and are never flipped, so they cannot trip
/// the per-gate differs() check that drives the touched-scan skip.
/// Blocks are visited in ascending pattern order, so a row's earliest
/// index is the lowest set lane of its first detecting block, exactly
/// as one narrow walk per block finds it — only the early-exit
/// granularity (one chunk) differs.  A lane the site is not flipped in
/// carries good values through the whole cone, so it never shows a
/// difference.
template <int N, typename ActFn, typename DemuxFn>
std::size_t walk_site_chunks(const CompiledCircuit& cc, NetId site_net,
                             std::size_t blocks, const Word* goodT,
                             WordV<N>* local, std::uint8_t* diff_flag,
                             ActFn activation, DemuxFn demux) {
  const std::size_t chunks = (blocks + N - 1) / N;
  std::size_t walks = 0;
  for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
    const Word* const gT = goodT + chunk * cc.num_nets() * N;
    const WordV<N> gs = GoodV<N>{gT}(site_net);
    WordV<N> act;
    if (!activation(chunk, gs, act)) break;
    if (!differs(act, WordV<N>{})) continue;

    const WordV<N> diff =
        chunk_site_walk<N>(cc, site_net, gT, act, local, diff_flag);
    ++walks;
    for (std::size_t j = 0; j < static_cast<std::size_t>(N); ++j) {
      const std::size_t b = chunk * N + j;
      if (b >= blocks || diff.w[j] == 0) continue;
      demux(b, diff.w[j], gs.w[j]);
    }
  }
  return walks;
}

/// Per-worker cone-walk scratch, sized by the largest cone (slot-dense,
/// so it stays small and hot even on circuits whose per-net arrays do
/// not fit in cache).  max_slots must cover the root slot and the
/// outside-sentinel slot (+2), which branchless selects may load
/// speculatively.  `local1` backs a one-block campaign's narrow walk,
/// `localv` a longer campaign's WordV<kChunkBlocks> chunk walk
/// (kChunkBlocks = 16 words per slot).  `walks` tallies the
/// worker's cone walks for the campaign's sim.site_walks count; the
/// alignment keeps one worker's tally off every other worker's lines.
struct alignas(64) WalkScratch {
  std::vector<Word> local1;
  std::vector<Word> localv;
  std::vector<std::uint8_t> diff_flag;
  std::uint64_t walks = 0;
};

std::vector<WalkScratch> make_scratches(std::size_t workers,
                                        std::size_t max_slots, bool chunked) {
  std::vector<WalkScratch> scratches(workers);
  for (auto& s : scratches) {
    s.local1.assign(chunked ? 0 : max_slots, 0);
    s.localv.assign(chunked ? kChunkBlocks * max_slots : 0, 0);
    s.diff_flag.assign(max_slots, 0);
  }
  return scratches;
}

/// The packing of one row spanning the whole pattern set.
LanePacking whole_set(const PatternSet& patterns) {
  return LanePacking{{{0, 0, patterns.size()}}, patterns.size()};
}

}  // namespace

FaultSim::FaultSim(const netlist::Netlist& nl, const fault::FaultList& faults)
    : FaultSim(nl, faults, std::make_shared<CompiledCircuit>(nl)) {}

FaultSim::FaultSim(const netlist::Netlist& nl, const fault::FaultList& faults,
                   std::shared_ptr<const CompiledCircuit> compiled)
    : nl_(nl), faults_(faults), cc_(std::move(compiled)) {
  // Pair opposite-polarity faults on the same net into one site; each
  // site costs one cone walk per block.  A stray duplicate polarity
  // (never produced by FaultList::full/collapsed) gets its own site.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> site_of(cc_->num_nets(), kNone);
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

FaultSimResult FaultSim::run(const PatternSet& patterns, bool parallel) const {
  return std::move(
      run_packed(patterns, whole_set(patterns), nullptr, parallel)[0]);
}

FaultSimResult FaultSim::run_subset(const PatternSet& patterns,
                                    const util::BitVector& seek,
                                    bool parallel) const {
  assert(seek.size() == faults_.size());
  const std::vector<util::BitVector> rows(1, seek);
  return std::move(
      run_packed(patterns, whole_set(patterns), &rows, parallel)[0]);
}

bool FaultSim::detects(const util::WideWord& pattern, std::size_t fault_id) const {
  PatternSet ps(nl_.num_inputs(), 0);
  ps.append(pattern);
  util::BitVector seek(faults_.size());
  seek.set(fault_id);
  return run_subset(ps, seek, /*parallel=*/false).detected.get(fault_id);
}

std::vector<FaultSimResult> FaultSim::run_packed(
    const PatternSet& packed, const LanePacking& packing,
    const std::vector<util::BitVector>* seek, bool parallel) const {
  const CompiledCircuit& cc = *cc_;
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

  const std::size_t blocks = (packed.size() + 63) / 64;

  // Block layout: a one-block campaign takes the cheaper narrow walk; a
  // longer one walks kChunkBlocks-block chunks from block 0 on (one
  // structure walk per kChunkBlocks * 64 patterns, padded past the last
  // block).
  const bool chunked = blocks > 1;
  using Chunk = WordV<kChunkBlocks>;

  // Good values for every packed block, computed once — this is the
  // 64/T-fold saving over per-row campaigns at small T — by one schedule
  // pass per chunk, straight into the layout the walk reads: one word
  // per net for a one-block campaign, kChunkBlocks block-interleaved
  // words per net per chunk otherwise.  sim.good_ns times it, once per
  // campaign.
  const std::size_t chunk_words =
      cc.num_nets() * (chunked ? kChunkBlocks : 1);
  std::vector<Word> good(((blocks + kChunkBlocks - 1) / kChunkBlocks) *
                         chunk_words);
  {
    OBS_COUNTER(c_good_ns, "sim.good_ns");
    OBS_SCOPED_NS(good_timer, c_good_ns);
    if (chunked) {
      for (std::size_t b = 0; b < blocks; b += kChunkBlocks) {
        Word* const chunk_goods = good.data() + b / kChunkBlocks * chunk_words;
        detail::simulate_blocks<kChunkBlocks>(cc, packed, b, blocks,
                                              chunk_goods);
      }
    } else {
      detail::simulate_blocks<1>(cc, packed, 0, 1, good.data());
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
  for (std::size_t i = 0; i < nrows; ++i) {
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

  // Campaign-grain counters only (one shard add per campaign, never per
  // site or block): the cone walk itself stays instrumentation-free.
  OBS_COUNTER(c_campaigns, "sim.campaigns");
  OBS_COUNTER(c_blocks, "sim.blocks");
  OBS_COUNTER(c_narrow, "sim.tier_narrow");
  OBS_COUNTER(c_chunked, "sim.tier_chunked");
  OBS_COUNT(c_campaigns, 1);
  OBS_COUNT(c_blocks, blocks);
  OBS_COUNT(chunked ? c_chunked : c_narrow, 1);

  const std::size_t max_slots = cc.max_cone_gates() + 2;
  const std::size_t workers = parallel ? util::parallel_workers() : 1;
  std::vector<WalkScratch> scratches =
      make_scratches(workers, max_slots, chunked);

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
  auto simulate_site = [&](std::size_t sid, std::size_t worker) {
    const Site& site = sites_[sid];
    if (!is_sought(site.fid[0]) && !is_sought(site.fid[1])) return;
    // left[s]: live rows that seek the stuck-at-s fault on this net and
    // have not yet detected it (zero for an absent fault).  Rows are
    // independent campaigns: a detection in one row's lanes never drops
    // the fault from another, so a polarity is flipped while any row
    // still needs it (a chunk flips it in those rows' lanes only) and
    // the site stops once no row needs either.
    std::size_t left[2];
    for (int s = 0; s < 2; ++s) {
      left[s] = site.fid[s] != kNoFault ? seekers(site.fid[s]) : 0;
    }
    if (left[0] == 0 && left[1] == 0) return;

    WalkScratch& sc = scratches[worker];
    std::uint8_t* const diff_flag = sc.diff_flag.data();

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

    if (!chunked) {
      const Word* const g = good.data();
      const Word lanes = union_lanes[0];
      const Word gs = g[site.net];
      // sa0 flips the site where the good value is 1, sa1 where it is 0
      // — disjoint lanes, so one walk with the site complemented on
      // exactly those lanes simulates both faults (bitwise ops are
      // lane-independent).
      const Word act =
          ((left[0] > 0 ? gs : Word{0}) | (left[1] > 0 ? ~gs : Word{0})) &
          lanes;
      if (act == 0) return;  // no sought fault activated
      const Word diff =
          narrow_site_walk(cc, site.net, g, act, sc.local1.data(),
                           diff_flag) &
          lanes;
      ++sc.walks;
      if (diff != 0) demux(0, diff, gs);
      return;
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
    const auto activation = [&](std::size_t chunk, const Chunk& gs,
                                Chunk& act) {
      if (left[0] == 0 && left[1] == 0) return false;
      for (std::size_t j = 0; j < kChunkBlocks; ++j) {
        const std::size_t b = chunk * kChunkBlocks + j;
        act.w[j] = b < blocks ? (gs.w[j] & seek_lanes(0, b)) |
                                    (~gs.w[j] & seek_lanes(1, b))
                              : Word{0};
      }
      return true;
    };
    sc.walks += walk_site_chunks<kChunkBlocks>(
        cc, site.net, blocks, good.data(),
        reinterpret_cast<Chunk*>(sc.localv.data()), diff_flag, activation,
        demux);
  };

  if (parallel && workers > 1) {
    util::parallel_for_workers(sites_.size(), simulate_site);
  } else {
    for (std::size_t sid = 0; sid < sites_.size(); ++sid) simulate_site(sid, 0);
  }
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
  std::uint64_t walks = 0;
  for (const WalkScratch& sc : scratches) walks += sc.walks;
  OBS_COUNTER(c_dropped, "sim.faults_dropped");
  OBS_COUNTER(c_walks, "sim.site_walks");
  OBS_COUNT(c_dropped, dropped);
  OBS_COUNT(c_walks, walks);
  (void)dropped;  // both read only in observability builds
  (void)walks;
  return results;
}

}  // namespace fbist::sim
