#include "reseed/initial_builder.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "reseed/matrix_cache.h"
#include "util/failpoint.h"
#include "util/parallel.h"

namespace fbist::reseed {

namespace {

/// The candidate triplets a build simulates — one per ATPG pattern,
/// deterministic in (tpg, atpg_patterns, opts).
std::vector<tpg::Triplet> make_candidate_triplets(
    const tpg::Tpg& tpg, const sim::PatternSet& atpg_patterns,
    const BuilderOptions& opts) {
  const std::size_t M = atpg_patterns.size();
  std::vector<tpg::Triplet> triplets;
  triplets.reserve(M);
  util::Rng rng(opts.seed);
  util::WideWord shared =
      tpg.legalize_sigma(util::WideWord::random(tpg.width(), rng));
  for (std::size_t i = 0; i < M; ++i) {
    tpg::Triplet t;
    t.delta = atpg_patterns.pattern(i);
    t.sigma = opts.shared_sigma
                  ? shared
                  : tpg.legalize_sigma(util::WideWord::random(tpg.width(), rng));
    t.cycles = opts.cycles_per_triplet == 0 ? 1 : opts.cycles_per_triplet;
    triplets.push_back(std::move(t));
  }
  return triplets;
}

}  // namespace

InitialReseeding build_initial_reseeding(const sim::FaultSim& fsim,
                                         const tpg::Tpg& tpg,
                                         const sim::PatternSet& atpg_patterns,
                                         const BuilderOptions& opts,
                                         MatrixCache* cache,
                                         const util::Deadline* deadline) {
  assert(atpg_patterns.num_inputs() == tpg.width());
  if (opts.cycles_per_triplet > cover::DetectionMatrix::kMaxCycles) {
    throw std::invalid_argument(
        "build_initial_reseeding: T " +
        std::to_string(opts.cycles_per_triplet) + " exceeds the limit of " +
        std::to_string(cover::DetectionMatrix::kMaxCycles) +
        " patterns per triplet");
  }
  const std::size_t M = atpg_patterns.size();
  const std::size_t F = fsim.faults().size();

  InitialReseeding out;
  out.triplets = make_candidate_triplets(tpg, atpg_patterns, opts);

  // The triplets determine the pattern sets and the fault list the
  // columns measure, so together with the circuit and TPG semantics
  // they content-address the matrix across runs and processes.
  MatrixCache::Key key = 0;
  if (cache != nullptr) {
    key = MatrixCache::key(fsim.compiled(), fsim.faults(), tpg, out.triplets);
    if (auto cached = cache->lookup(key)) {
      out.matrix = std::move(*cached);  // the fault simulator never runs
      return out;
    }
  }

  out.matrix = cover::DetectionMatrix(M, F);
  out.matrix.track_earliest();

  // Rows are independent fault-sim campaigns, run in stages over
  // doubling pattern windows: stage 0 simulates each row's patterns
  // [0, 64), later stages [64, 128), [128, 256), ... capped at the row's
  // T.  A stage segment is itself a triplet (the row's TPG state at the
  // segment start, sigma, length) expanded straight into its lane range
  // (the expansion returns the state the row's next segment starts
  // from), and a stage's segments share blocks (sim::pack_rows): ⌊64/T⌋
  // rows per block at small T, several segments per chunk beyond 64.  After
  // stage 0 a row seeks only the faults it has not detected, and a row
  // with nothing left to seek drops out.  Stages run in pattern order
  // and a row stops seeking a fault only after its first detection, so
  // earliest = stage start + index within the stage, exactly as one
  // walk over the whole row finds it.  A packing spans one simulation
  // chunk (sim::kChunkBlocks = 16 blocks, 1024 patterns); a stage's
  // packings run on the shared work-stealing pool and write their rows'
  // bits and earliest indices in place (packings of one stage hold
  // disjoint rows), and the matrix is bit-identical at any worker count.
  OBS_COUNTER(c_packings, "builder.packings");
  OBS_COUNTER(c_expand_ns, "builder.expand_ns");
  // A packing body may throw (a deadline expiry, an injected builder
  // failure): parallel_for stops handing out packings and rethrows the
  // first exception on this thread after the stage's join, so the
  // build unwinds before any partial matrix is returned or cached.
  std::vector<util::WideWord> state(M);  // start of each row's next segment
  std::vector<std::size_t> stage_rows;   // matrix row of each stage row
  std::vector<std::size_t> lengths;
  for (std::size_t lo = 0, hi = 64;; lo = hi, hi *= 2) {
    stage_rows.clear();
    lengths.clear();
    for (std::size_t r = 0; r < M; ++r) {
      const std::size_t cycles = out.triplets[r].cycles;
      if (cycles <= lo) continue;
      if (lo > 0 && out.matrix.row(r).count() == F) continue;  // all found
      stage_rows.push_back(r);
      lengths.push_back(std::min(cycles, hi) - lo);
    }
    if (stage_rows.empty()) break;
    const std::vector<sim::LanePacking> packings = sim::pack_rows(lengths);
    util::parallel_for(packings.size(), [&](std::size_t p) {
      FBIST_FAILPOINT("builder.pack");
      if (deadline != nullptr) deadline->check("matrix build");
      OBS_SPAN("packing");
      OBS_COUNT(c_packings, 1);
      const sim::LanePacking& pk = packings[p];
      sim::PatternSet packed(tpg.width(), pk.num_patterns);
      {
        OBS_SCOPED_NS(expand_timer, c_expand_ns);
        for (const sim::LanePacking::Row& pr : pk.rows) {
          const std::size_t r = stage_rows[pr.row];
          const tpg::Triplet& t = out.triplets[r];
          util::WideWord next = tpg::expand_triplet_into(
              tpg,
              tpg::Triplet{lo == 0 ? t.delta : state[r], t.sigma, pr.length},
              packed, pr.base);
          if (lo + pr.length < t.cycles) state[r] = std::move(next);
        }
      }
      if (lo == 0) {
        std::vector<sim::FaultSimResult> rs = fsim.run_packed(packed, pk);
        for (std::size_t i = 0; i < pk.rows.size(); ++i) {
          const std::size_t r = stage_rows[pk.rows[i].row];
          rs[i].detected.for_each_set([&](std::size_t f) {
            out.matrix.set_earliest(r, f, rs[i].earliest[f]);
          });
          out.matrix.set_row(r, std::move(rs[i].detected));
        }
        return;
      }
      std::vector<util::BitVector> seek;
      seek.reserve(pk.rows.size());
      for (const sim::LanePacking::Row& pr : pk.rows) {
        seek.emplace_back(F, true);
        seek.back().and_not(out.matrix.row(stage_rows[pr.row]));
      }
      const std::vector<sim::FaultSimResult> rs =
          fsim.run_packed(packed, pk, &seek);
      for (std::size_t i = 0; i < pk.rows.size(); ++i) {
        const std::size_t r = stage_rows[pk.rows[i].row];
        rs[i].detected.for_each_set([&](std::size_t f) {
          out.matrix.set(r, f);
          out.matrix.set_earliest(
              r, f, static_cast<std::uint32_t>(lo + rs[i].earliest[f]));
        });
      }
    });
  }
  // Final poll before the matrix becomes durable state: an expired
  // deadline must never let a (complete but over-budget) matrix be
  // cached after the run is already doomed to a timeout failure.
  if (deadline != nullptr) deadline->check("matrix build");

  if (cache != nullptr) cache->store(key, out.matrix);
  return out;
}

InitialReseeding at_cycles(const InitialReseeding& family, std::size_t cycles) {
  if (cycles == 0) cycles = 1;
  const cover::DetectionMatrix& m = family.matrix;
  if (m.num_rows() != 0 && !m.has_earliest()) {
    throw std::invalid_argument("at_cycles: matrix has no earliest indices");
  }
  InitialReseeding out;
  out.triplets = family.triplets;
  out.matrix = cover::DetectionMatrix(m.num_rows(), m.num_cols());
  out.matrix.track_earliest();
  for (std::size_t r = 0; r < m.num_rows(); ++r) {
    if (cycles > out.triplets[r].cycles) {
      throw std::invalid_argument(
          "at_cycles: T " + std::to_string(cycles) + " exceeds the family's " +
          std::to_string(out.triplets[r].cycles));
    }
    out.triplets[r].cycles = cycles;
    m.row(r).for_each_set([&](std::size_t c) {
      const std::uint32_t e = m.earliest(r, c);
      if (e >= cycles) return;
      out.matrix.set(r, c);
      out.matrix.set_earliest(r, c, e);
    });
  }
  return out;
}

}  // namespace fbist::reseed
