// Lane-packed fault simulation (sim::pack_rows + FaultSim::run_packed):
// every packed row must match the seed reference simulator run on that
// row alone — detection bits *and* earliest indices — for every T regime
// the paper sweeps, odd batch remainders, paired sa0/sa1 sites, every
// campaign size, and any worker count.
#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/scheduler.h"
#include "circuits/generator.h"
#include "circuits/registry.h"
#include "fault/fault.h"
#include "sim/fault_sim.h"
#include "sim/pattern.h"
#include "sim/reference_sim.h"
#include "tpg/lfsr.h"
#include "tpg/triplet.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace fbist::sim {
namespace {

std::vector<PatternSet> random_rows(std::size_t num_rows, std::size_t cycles,
                                    std::size_t width, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<PatternSet> rows;
  rows.reserve(num_rows);
  for (std::size_t i = 0; i < num_rows; ++i) {
    rows.push_back(PatternSet::random(width, cycles, rng));
  }
  return rows;
}

/// Simulates independent rows the way reseed::build_initial_reseeding
/// does: packs them into shared blocks (one simulation chunk per
/// packing), copies each row into its lane range and runs every
/// packing — the packings on the shared pool when `parallel`, one after
/// another otherwise (each campaign puts its sites on the pool either
/// way).  With `seek`, row i looks only for the faults flagged in
/// (*seek)[i].
/// Returns one result per row.
std::vector<FaultSimResult> run_rows(
    const FaultSim& fsim, const std::vector<PatternSet>& rows,
    bool parallel = true, const std::vector<util::BitVector>* seek = nullptr) {
  std::vector<std::size_t> lengths;
  for (const PatternSet& r : rows) lengths.push_back(r.size());
  const std::vector<LanePacking> packings = pack_rows(lengths);
  std::vector<FaultSimResult> results(rows.size());
  const auto run_one = [&](std::size_t p) {
    const LanePacking& pk = packings[p];
    PatternSet packed(fsim.compiled().num_inputs(), pk.num_patterns);
    std::vector<util::BitVector> pk_seek;
    for (const LanePacking::Row& pr : pk.rows) {
      if (pr.length > 0) packed.write_patterns(pr.base, rows[pr.row]);
      if (seek != nullptr) pk_seek.push_back((*seek)[pr.row]);
    }
    std::vector<FaultSimResult> rs =
        fsim.run_packed(packed, pk, seek != nullptr ? &pk_seek : nullptr);
    for (std::size_t i = 0; i < pk.rows.size(); ++i) {
      results[pk.rows[i].row] = std::move(rs[i]);
    }
  };
  if (parallel) {
    util::parallel_for(packings.size(), run_one);
  } else {
    for (std::size_t p = 0; p < packings.size(); ++p) run_one(p);
  }
  return results;
}

void expect_identical(const FaultSimResult& a, const FaultSimResult& b,
                      const char* what, std::size_t row) {
  EXPECT_EQ(a.detected, b.detected) << what << " row " << row;
  ASSERT_EQ(a.earliest.size(), b.earliest.size());
  for (std::size_t f = 0; f < a.earliest.size(); ++f) {
    ASSERT_EQ(a.earliest[f], b.earliest[f])
        << what << " row " << row << " fault " << f;
  }
}

/// Checks every packed row against the reference simulator.
void expect_rows_match_reference(const ReferenceFaultSim& ref,
                                 const std::vector<PatternSet>& rows,
                                 const std::vector<FaultSimResult>& got,
                                 const char* what) {
  ASSERT_EQ(got.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    expect_identical(got[i], ref.run(rows[i], /*parallel=*/false), what, i);
  }
}

void check_batched_equivalence(const std::string& circuit, bool collapsed,
                               std::size_t num_rows, std::size_t cycles) {
  const auto nl = circuits::make_circuit(circuit);
  const netlist::CompiledCircuit cc(nl);
  const auto fl = collapsed ? fault::FaultList::collapsed(cc)
                            : fault::FaultList::full(cc);
  FaultSim fsim(cc, fl);
  ReferenceFaultSim ref(nl, fl);
  const auto rows = random_rows(num_rows, cycles, nl.num_inputs(),
                                /*seed=*/cycles * 977 + num_rows);
  for (const bool parallel : {false, true}) {
    expect_rows_match_reference(ref, rows, run_rows(fsim, rows, parallel),
                                parallel ? "parallel" : "serial");
  }
}

// The full T sweep of the paper: T=1 (64 rows per block), T=7 (9 rows
// per block, odd remainder lanes), T=63/64 (one row per block, full and
// near-full lanes), T=100 (multi-block rows sharing packings at
// block-aligned bases).
TEST(BatchedSim, BitIdenticalAcrossCycleRegimes) {
  for (const std::size_t cycles : {1, 7, 63, 64, 100}) {
    SCOPED_TRACE("T=" + std::to_string(cycles));
    check_batched_equivalence("c432", /*collapsed=*/true, /*num_rows=*/11,
                              cycles);
  }
}

// Uncollapsed fault lists pair every sa0/sa1 site; the packed walk must
// keep the per-lane complement injection per polarity correct.
TEST(BatchedSim, BitIdenticalWithPairedSites) {
  check_batched_equivalence("c432", /*collapsed=*/false, /*num_rows=*/9,
                            /*cycles=*/7);
  check_batched_equivalence("c880", /*collapsed=*/false, /*num_rows=*/13,
                            /*cycles=*/5);
}

// Odd batch remainder: a row count that does not divide ⌊64/T⌋ leaves a
// partial final batch and hole lanes inside blocks.
TEST(BatchedSim, OddRemaindersAndMixedLengths) {
  const auto nl = circuits::make_circuit("c880");
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::collapsed(cc);
  FaultSim fsim(cc, fl);
  ReferenceFaultSim ref(nl, fl);

  util::Rng rng(42);
  std::vector<PatternSet> rows;
  for (const std::size_t len : {5, 1, 40, 40, 0, 64, 7, 100, 3}) {
    rows.push_back(PatternSet::random(nl.num_inputs(), len, rng));
  }
  expect_rows_match_reference(ref, rows, run_rows(fsim, rows), "mixed");
}

// Per-row seek masks: each row looks only for its own faults, so it must
// match the reference run_subset on that row and mask.  The lengths mix
// one-block rows with rows of 100 to 256 patterns that share packings at
// block-aligned bases.
TEST(BatchedSim, PerRowSeekMasksMatchReferenceSubset) {
  const auto nl = circuits::make_circuit("c880");
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::collapsed(cc);
  FaultSim fsim(cc, fl);
  ReferenceFaultSim ref(nl, fl);

  util::Rng rng(61);
  std::vector<PatternSet> rows;
  std::vector<util::BitVector> seek;
  std::vector<std::vector<bool>> active;
  for (const std::size_t len : {7, 100, 64, 128, 7, 256, 100, 7, 128, 64}) {
    rows.push_back(PatternSet::random(nl.num_inputs(), len, rng));
    util::BitVector mask(fl.size());
    std::vector<bool> flags(fl.size());
    for (std::size_t f = 0; f < fl.size(); ++f) {
      flags[f] = rng.next_bool();
      mask.set(f, flags[f]);
    }
    seek.push_back(std::move(mask));
    active.push_back(std::move(flags));
  }
  std::vector<std::size_t> lengths;
  for (const PatternSet& r : rows) lengths.push_back(r.size());
  // The 100-pattern row shares the first packing.
  ASSERT_EQ(pack_rows(lengths)[0].rows[1].length, 100u);

  const auto got = run_rows(fsim, rows, /*parallel=*/true, &seek);
  ASSERT_EQ(got.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    expect_identical(got[i],
                     ref.run_subset(rows[i], active[i], /*parallel=*/false),
                     "seek", i);
  }
}

TEST(BatchedSim, EmptyInputs) {
  const auto nl = circuits::make_circuit("c432");
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::collapsed(cc);
  FaultSim fsim(cc, fl);
  EXPECT_TRUE(
      fsim.run_packed(PatternSet(nl.num_inputs(), 0), LanePacking{}).empty());

  const std::vector<PatternSet> rows(3, PatternSet(nl.num_inputs(), 0));
  const auto batched = run_rows(fsim, rows);
  ASSERT_EQ(batched.size(), 3u);
  for (const auto& r : batched) {
    EXPECT_EQ(r.num_detected(), 0u);
    for (const auto e : r.earliest) EXPECT_EQ(e, kNotDetected);
  }
}

// Bit-identical at any worker count: packings and sites distribute over
// the shared pool but write disjoint result slots.  The circuit is deep
// enough that the one packing's site loop outlasts the pool's start-up,
// so sites run on every loop slot (on c880 the campaign ended before a
// second slot ran one).
TEST(BatchedSim, BitIdenticalAcrossWorkerCounts) {
  circuits::GeneratorSpec spec;
  spec.num_inputs = 16;
  spec.num_outputs = 8;
  spec.num_gates = 1600;
  spec.layers = 14;
  spec.seed = 15;
  const auto nl = circuits::generate(spec);
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::collapsed(cc);
  FaultSim fsim(cc, fl);
  ReferenceFaultSim ref(nl, fl);
  const auto rows = random_rows(17, 7, nl.num_inputs(), 11);

  campaign::Scheduler::global().set_workers(1);
  const auto one = run_rows(fsim, rows);
  campaign::Scheduler::global().set_workers(4);
  const auto four = run_rows(fsim, rows);
  campaign::Scheduler::global().set_workers(0);  // restore default
  expect_rows_match_reference(ref, rows, one, "1 worker");
  expect_rows_match_reference(ref, rows, four, "4 workers");
}

/// A hand-made packing's rows and seek masks, for checks against the
/// reference run_subset: random rows written into a packed set whose
/// other lanes are random too, and for each row a mask that holds each
/// fault with probability 1/2 unless `unsought` flags its net, or every
/// fault for a row of length 0.  Row `repeat_row` repeats its first
/// pattern throughout.
struct SeekRows {
  PatternSet packed;
  std::vector<PatternSet> rows;
  std::vector<util::BitVector> seek;
  std::vector<std::vector<bool>> active;
};

SeekRows make_seek_rows(const netlist::Netlist& nl, const fault::FaultList& fl,
                        const LanePacking& pk, std::uint64_t seed,
                        const std::vector<bool>& unsought = {},
                        std::size_t repeat_row = SIZE_MAX) {
  util::Rng holes(seed + 1);
  SeekRows sr{PatternSet::random(nl.num_inputs(), pk.num_patterns, holes),
              {}, {}, {}};
  util::Rng rng(seed);
  for (std::size_t i = 0; i < pk.rows.size(); ++i) {
    const LanePacking::Row& pr = pk.rows[i];
    PatternSet row = PatternSet::random(nl.num_inputs(), pr.length, rng);
    if (i == repeat_row) {
      const util::WideWord one = row.pattern(0);
      row = PatternSet(nl.num_inputs(), 0);
      for (std::size_t k = 0; k < pr.length; ++k) row.append(one);
    }
    sr.packed.write_patterns(pr.base, row);
    sr.rows.push_back(std::move(row));
    util::BitVector mask(fl.size());
    std::vector<bool> flags(fl.size());
    for (std::size_t f = 0; f < fl.size(); ++f) {
      flags[f] = pr.length == 0 ||
                 (rng.next_bool() && (unsought.empty() || !unsought[fl[f].net]));
      mask.set(f, flags[f]);
    }
    sr.seek.push_back(std::move(mask));
    sr.active.push_back(std::move(flags));
  }
  return sr;
}

/// Checks every row of `got` against the reference run_subset on that
/// row and its mask alone.
void expect_rows_match_subset(const ReferenceFaultSim& ref, const SeekRows& sr,
                              const std::vector<FaultSimResult>& got,
                              const char* what) {
  ASSERT_EQ(got.size(), sr.rows.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_identical(
        got[i], ref.run_subset(sr.rows[i], sr.active[i], /*parallel=*/false),
        what, i);
  }
}

// Per-row seek masks over a hand-made packing of three chunks (pack_rows
// caps a packing at one): a chunk flips the site only in the lanes of
// rows that seek the fault and have not found it.  Row 2 spans the first
// two chunks and finds most faults in the first; row 4 repeats one
// pattern in the second and third, so most faults it seeks it never
// finds.  Every row must equal the reference run_subset on that row
// alone, on a 1- and a 4-worker pool.
TEST(BatchedSim, MultiChunkSeekMasksMatchReferenceSubset) {
  const auto nl = circuits::make_circuit("c880");
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::full(cc);  // paired sa0/sa1 sites
  FaultSim fsim(cc, fl);
  ReferenceFaultSim ref(nl, fl);
  constexpr std::size_t kChunk = kChunkBlocks * 64;

  LanePacking pk;
  pk.rows = {{0, 0, 7},
             {1, 7, 50},
             {2, 64, kChunk + 300},
             {3, kChunk + 448, 64},
             {4, kChunk + 512, 600},
             {5, 2 * kChunk + 128, 30},
             {6, 2 * kChunk + 192, 36}};
  pk.num_patterns = 2 * kChunk + 228;
  ASSERT_EQ((pk.num_blocks() + kChunkBlocks - 1) / kChunkBlocks, 3u);

  const SeekRows sr = make_seek_rows(nl, fl, pk, /*seed=*/23, /*unsought=*/{},
                                     /*repeat_row=*/4);
  for (const std::size_t workers : {1, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    campaign::Scheduler::global().set_workers(workers);
    const auto got = fsim.run_packed(sr.packed, pk, &sr.seek);
    campaign::Scheduler::global().set_workers(0);  // restore default
    expect_rows_match_subset(ref, sr, got, "multi-chunk seek");
    // The case the lane masks decide: a fault both long rows seek that
    // row 2 finds in the first chunk and row 4 never finds.
    std::size_t split = 0;
    for (std::size_t f = 0; f < fl.size(); ++f) {
      if (sr.seek[2].get(f) && sr.seek[4].get(f) &&
          got[2].earliest[f] < kChunk - 64 && !got[4].detected.get(f)) {
        ++split;
      }
    }
    EXPECT_GT(split, 0u);
  }
}

/// A packing of `blocks` blocks whose last block holds 55 lanes.  Rows
/// alternate: 23 patterns inside one block, then 150 to 406 patterns
/// from the next block boundary, ending 22 lanes into a block (the last
/// row is cut at the packing's end) — so rows end mid-block, mid-chunk,
/// and some cross a chunk boundary.  Lanes between rows are holes.
LanePacking staggered_packing(std::size_t blocks) {
  LanePacking pk;
  pk.num_patterns = blocks * 64 - 9;
  std::size_t at = 0;
  for (std::size_t i = 0;; ++i) {
    const bool shortrow = i % 2 == 0;
    const std::size_t len = shortrow ? 23 : 150 + 64 * (i % 5);
    if (!shortrow || at % 64 + len > 64) at = (at + 63) / 64 * 64;
    if (at >= pk.num_patterns) break;
    pk.rows.push_back({i, at, std::min(len, pk.num_patterns - at)});
    at += pk.rows.back().length;
  }
  return pk;
}

// Good values come from one 16-block schedule pass per chunk, straight
// into the chunk layout, with blocks past the last real one replicating
// it.  Multi-row packings of one to three chunks — 2, 15, 16, 17, 31 and
// 33 blocks, so the last chunk carries 14, 1, 0, 15, 1 and 15 padding
// blocks — must give every row exactly the reference run_subset.
TEST(BatchedSim, ChunkGoodValuesMatchReferenceAcrossBlockCounts) {
  const auto nl = circuits::make_circuit("c880");
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::full(cc);  // paired sa0/sa1 sites
  FaultSim fsim(cc, fl);
  ReferenceFaultSim ref(nl, fl);
  for (const std::size_t blocks : {2, 15, 16, 17, 31, 33}) {
    SCOPED_TRACE("blocks=" + std::to_string(blocks));
    const LanePacking pk = staggered_packing(blocks);
    ASSERT_EQ(pk.num_blocks(), blocks);
    ASSERT_GE(pk.rows.size(), 2u);
    const SeekRows sr = make_seek_rows(nl, fl, pk, /*seed=*/blocks);
    expect_rows_match_subset(ref, sr, fsim.run_packed(sr.packed, pk, &sr.seek),
                             "chunk goods");
  }
}

// A site that no live row seeks is skipped with one test of the union of
// the live rows' masks.  Here no live row seeks either fault of every
// third net, and the rows of length 0 seek every fault and must detect
// nothing.  Every row must equal the reference run_subset — in a
// many-row campaign, in a campaign with one live row, in a one-block
// campaign of several rows (whose one-block walk flips only the lanes
// of the rows that seek the fault), and through run_subset.
TEST(BatchedSim, UnsoughtSitesMatchReferenceSubset) {
  const auto nl = circuits::make_circuit("c880");
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::full(cc);
  std::vector<bool> unsought(nl.num_nets(), false);
  for (std::size_t n = 0; n < unsought.size(); n += 3) unsought[n] = true;

  LanePacking many;
  many.rows = {{0, 0, 7}, {1, 7, 0}, {2, 64, 300}, {3, 448, 64},
               {4, 512, 40}, {5, 552, 0}};
  many.num_patterns = 552;
  LanePacking one_live;
  one_live.rows = {{0, 0, 0}, {1, 0, 700}, {2, 700, 0}};
  one_live.num_patterns = 700;
  LanePacking one_block;
  one_block.rows = {{0, 0, 7}, {1, 7, 0}, {2, 7, 25}, {3, 32, 32}};
  one_block.num_patterns = 64;
  FaultSim fsim(cc, fl);
  ReferenceFaultSim ref(nl, fl);
  for (const LanePacking* pk : {&many, &one_live, &one_block}) {
    const SeekRows sr = make_seek_rows(nl, fl, *pk, /*seed=*/71, unsought);
    const auto got = fsim.run_packed(sr.packed, *pk, &sr.seek);
    expect_rows_match_subset(ref, sr, got, "unsought");
    for (std::size_t i = 0; i < pk->rows.size() && i < got.size(); ++i) {
      if (pk->rows[i].length == 0) EXPECT_EQ(got[i].num_detected(), 0u);
    }
  }

  util::Rng rng(73);
  const PatternSet patterns = PatternSet::random(nl.num_inputs(), 200, rng);
  util::BitVector mask(fl.size());
  std::vector<bool> flags(fl.size());
  for (std::size_t f = 0; f < fl.size(); ++f) {
    flags[f] = !unsought[fl[f].net] && rng.next_bool(0.5);
    mask.set(f, flags[f]);
  }
  expect_identical(fsim.run_subset(patterns, mask),
                   ref.run_subset(patterns, flags, /*parallel=*/false),
                   "run_subset", 0);
}

// Detection bits are assembled one 64-fault word at a time from the
// earliest indices.  On fault lists of 63, 65 and 129 faults the last
// word is partial: for every row, detected must be exactly the faults
// with an earliest index, and equal the reference.
TEST(BatchedSim, DetectedWordsMatchEarliestOnPartialWords) {
  const auto nl = circuits::make_circuit("c880");
  const netlist::CompiledCircuit cc(nl);
  const auto all = fault::FaultList::collapsed(cc);
  for (const std::size_t keep : {63, 65, 129}) {
    SCOPED_TRACE("faults=" + std::to_string(keep));
    // Every stride-th fault, so the kept faults spread over the circuit.
    const std::size_t stride = all.size() / keep;
    std::vector<bool> drop(all.size(), true);
    for (std::size_t k = 0; k < keep; ++k) drop[k * stride] = false;
    const fault::FaultList fl = all.without(drop);
    ASSERT_EQ(fl.size(), keep);

    FaultSim fsim(cc, fl);
    ReferenceFaultSim ref(nl, fl);
    const auto rows = random_rows(9, 100, nl.num_inputs(), keep);
    const auto got = run_rows(fsim, rows);
    expect_rows_match_reference(ref, rows, got, "partial words");
    std::size_t detections = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].detected.size(), keep);
      for (std::size_t f = 0; f < keep; ++f) {
        ASSERT_EQ(got[i].detected.get(f), got[i].earliest[f] != kNotDetected)
            << "row " << i << " fault " << f;
      }
      detections += got[i].num_detected();
    }
    EXPECT_GT(detections, 0u);
  }
}

// run_packed consumes pre-packed sets (tpg::expand_triplet_into writes
// triplets straight into their lane ranges — no intermediate per-row
// PatternSet) and must match expand_triplet + a per-row campaign.
TEST(BatchedSim, PackedTripletExpansionMatchesPerRow) {
  const auto nl = circuits::make_circuit("c432");
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::collapsed(cc);
  FaultSim fsim(cc, fl);
  ReferenceFaultSim ref(nl, fl);
  tpg::LfsrTpg tpg(nl.num_inputs());

  util::Rng rng(5);
  std::vector<tpg::Triplet> triplets(10);
  std::vector<std::size_t> lengths;
  for (auto& t : triplets) {
    t.delta = util::WideWord::random(tpg.width(), rng);
    t.sigma = tpg.legalize_sigma(util::WideWord::random(tpg.width(), rng));
    t.cycles = 6;
    lengths.push_back(t.cycles);
  }

  const auto packings = pack_rows(lengths);
  for (const auto& pk : packings) {
    PatternSet packed(tpg.width(), pk.num_patterns);
    for (const auto& pr : pk.rows) {
      tpg::expand_triplet_into(tpg, triplets[pr.row], packed, pr.base);
    }
    const auto rs = fsim.run_packed(packed, pk);
    ASSERT_EQ(rs.size(), pk.rows.size());
    for (std::size_t i = 0; i < pk.rows.size(); ++i) {
      const auto ts = tpg::expand_triplet(tpg, triplets[pk.rows[i].row]);
      expect_identical(rs[i], ref.run(ts), "packed-triplet", pk.rows[i].row);
    }
  }
}

// ---- chunk walks by campaign size -------------------------------------

// A one-block campaign walks one block per cone visit; a longer one
// walks kChunkBlocks-block chunks from block 0 on.  The sizes cover one block,
// a padded chunk, full chunks, several chunks and partial tail blocks.
TEST(ChunkWalk, BitIdenticalAcrossCampaignSizes) {
  const auto nl = circuits::make_circuit("c432");
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::collapsed(cc);
  FaultSim fsim(cc, fl);
  ReferenceFaultSim ref(nl, fl);
  util::Rng rng(19);
  for (const std::size_t n : {1, 64, 65, 128, 200, 511, 512, 513, 600, 1023,
                              1024, 1025, 1100, 2048, 2049, 2100}) {
    SCOPED_TRACE("patterns=" + std::to_string(n));
    const PatternSet patterns = PatternSet::random(nl.num_inputs(), n, rng);
    expect_identical(fsim.run(patterns), ref.run(patterns), "run", 0);
  }
}

// ---- pack_rows unit behavior --------------------------------------------

TEST(PackRows, PacksFloorOf64OverT) {
  const std::vector<std::size_t> lengths(20, 7);  // ⌊64/7⌋ = 9 per block
  const auto packings = pack_rows(lengths);
  ASSERT_FALSE(packings.empty());
  const auto& first = packings.front();
  // 9 rows in block 0 (lanes 0..62), 9 in block 1, ... kChunkBlocks
  // blocks per packing at most.
  EXPECT_EQ(first.rows[8].base, 56u);
  EXPECT_EQ(first.rows[9].base, 64u);  // row 10 starts a fresh block
  EXPECT_LE(first.num_blocks(), kChunkBlocks);
  std::size_t total = 0;
  for (const auto& pk : packings) total += pk.rows.size();
  EXPECT_EQ(total, lengths.size());
}

TEST(PackRows, RowsNeverStraddleBlocks) {
  const auto packings = pack_rows({40, 40, 40});
  ASSERT_EQ(packings.size(), 1u);
  EXPECT_EQ(packings[0].rows[0].base, 0u);
  EXPECT_EQ(packings[0].rows[1].base, 64u);   // 24 hole lanes in block 0
  EXPECT_EQ(packings[0].rows[2].base, 128u);
}

// A row of 65 to kChunkBlocks * 64 patterns shares its packing and
// starts at the next block boundary; only a longer row gets blocks of its
// own.
TEST(PackRows, LongRowsShareBlockAlignedPackings) {
  constexpr std::size_t kChunk = kChunkBlocks * 64;
  const auto packings = pack_rows({7, 100, 7, kChunk, kChunk + 88, 7});
  ASSERT_EQ(packings.size(), 4u);
  ASSERT_EQ(packings[0].rows.size(), 3u);
  EXPECT_EQ(packings[0].rows[1].base, 64u);  // after row 0's block
  EXPECT_EQ(packings[0].rows[2].base, 164u);  // fills row 1's tail block
  EXPECT_EQ(packings[0].num_blocks(), 3u);
  // A whole chunk of patterns fills a packing, so it starts a new one.
  ASSERT_EQ(packings[1].rows.size(), 1u);
  EXPECT_EQ(packings[1].rows[0].base, 0u);
  EXPECT_EQ(packings[1].num_blocks(), kChunkBlocks);
  // Longer than a chunk: dedicated, spanning every block it needs.
  ASSERT_EQ(packings[2].rows.size(), 1u);
  EXPECT_EQ(packings[2].rows[0].row, 4u);
  EXPECT_EQ(packings[2].num_blocks(), kChunkBlocks + 2);
  EXPECT_EQ(packings[3].rows[0].row, 5u);

  // Stage segments of 128 patterns: kChunkBlocks / 2 per packing,
  // block-aligned.
  const auto segs =
      pack_rows(std::vector<std::size_t>(kChunkBlocks / 2 + 1, 128));
  ASSERT_EQ(segs.size(), 2u);
  ASSERT_EQ(segs[0].rows.size(), kChunkBlocks / 2);
  for (std::size_t i = 0; i < kChunkBlocks / 2; ++i) {
    EXPECT_EQ(segs[0].rows[i].base, 128 * i);
  }
  EXPECT_EQ(segs[1].rows.size(), 1u);
}

TEST(PackRows, MaxBlocksBoundsEachPacking) {
  const std::vector<std::size_t> lengths(2 * kChunkBlocks + 4, 64);
  const auto packings = pack_rows(lengths);
  ASSERT_EQ(packings.size(), 3u);  // a chunk, a chunk, 4 blocks
  EXPECT_EQ(packings[0].rows.size(), kChunkBlocks);
  EXPECT_EQ(packings[1].rows.size(), kChunkBlocks);
  EXPECT_EQ(packings[2].rows.size(), 4u);
  EXPECT_EQ(packings[2].num_blocks(), 4u);
}

}  // namespace
}  // namespace fbist::sim
