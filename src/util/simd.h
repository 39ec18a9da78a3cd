// Runtime chunk-width tier for the word-parallel simulators.
//
// The PPSFP fault simulator walks cone programs over 1, 4 or 8
// 64-pattern blocks per structure walk (sim/fault_sim.cpp).  The tiers
// are chunk widths, not instruction sets: the walk is compiled once, for
// the baseline ISA (no AVX code), and a wider chunk amortizes one
// structure walk over more patterns.  Which width runs is a *runtime*
// decision: this module answers "which chunk width should a campaign of
// B blocks use on this machine?".  The tier names keep the register
// widths they are sized after (4 words = 256 bits, 8 words = 512 bits).
//
// The tier can be forced — FBIST_SIMD=narrow|avx2|avx512|auto in the
// environment, or set_simd_tier() from code — which the dispatch
// equivalence tests and the BM_PackedWalk benches use to pin every
// tier to bit-identical results on one machine.
#pragma once

#include <cstddef>

namespace fbist::util {

enum class SimdTier {
  kAuto,    ///< Widest tier the CPU supports that fits the campaign.
  kNarrow,  ///< Single-block walks only (no chunking).
  kWide4,   ///< 4-block chunks (256 patterns per structure walk).
  kWide8,   ///< 8-block chunks (512 patterns per structure walk).
};

/// True when the CPU supports AVX-512F (always false off x86-64).
bool cpu_has_avx512();

/// The active tier.  Defaults to kAuto unless FBIST_SIMD overrode it at
/// process start.
SimdTier simd_tier();

/// Forces a tier (tests/benches); kAuto restores hardware dispatch.
void set_simd_tier(SimdTier tier);

/// Chunk width (in 64-pattern blocks) a campaign of `chunk_blocks`
/// chunkable blocks should use: 0 = narrow walks only, else 4 or 8.
/// Under kAuto the 8-wide tier engages only when the CPU reports
/// AVX-512F (the wide-core hosts it was tuned on; the walk itself runs
/// no AVX-512 code) and the campaign is long enough (> 4 blocks) to
/// fill it.
std::size_t chunk_width_for(std::size_t chunk_blocks);

/// Lane-packing span (in blocks) matching the active tier: one packed
/// group should fill one simulation chunk (8 on an engaged 8-wide
/// tier, else 4).
std::size_t preferred_pack_blocks();

}  // namespace fbist::util
