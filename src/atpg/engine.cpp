#include "atpg/engine.h"

#include <memory>

#include "obs/diag.h"
#include "obs/metrics.h"

namespace fbist::atpg {

namespace {

/// Random phase: at most this many 64-pattern blocks ...
constexpr std::size_t kMaxRandomBlocks = 64;
/// ... and it stops after this many consecutive blocks detect nothing.
constexpr std::size_t kUnproductiveBlockLimit = 3;

}  // namespace

double AtpgResult::testable_coverage_percent() const {
  std::size_t detected = 0, total = verdict.size(), redundant = 0;
  for (const auto v : verdict) {
    if (v == FaultVerdict::kDetected) ++detected;
    if (v == FaultVerdict::kRedundant) ++redundant;
  }
  const std::size_t testable = total - redundant;
  return testable == 0 ? 100.0
                       : 100.0 * static_cast<double>(detected) /
                             static_cast<double>(testable);
}

AtpgResult run_atpg(const netlist::Netlist& nl, const fault::FaultList& faults,
                    const AtpgOptions& opts) {
  return run_atpg(nl, faults, opts,
                  std::make_shared<netlist::CompiledCircuit>(nl));
}

AtpgResult run_atpg(const netlist::Netlist& nl, const fault::FaultList& faults,
                    const AtpgOptions& opts,
                    std::shared_ptr<const netlist::CompiledCircuit> compiled) {
  AtpgResult result;
  result.verdict.assign(faults.size(), FaultVerdict::kAborted);

  sim::FaultSim fsim(nl, faults, compiled);
  util::Rng rng(opts.seed);

  // The faults still without a verdict; settle() is the one place a
  // fault leaves it.
  util::BitVector remaining(faults.size(), true);
  auto settle = [&](std::size_t fid, FaultVerdict verdict) {
    remaining.reset(fid);
    result.verdict[fid] = verdict;
  };

  // Working pattern list (uncompacted); compaction re-simulates at the end.
  sim::PatternSet pool(nl.num_inputs(), 0);

  // ---- Phase 1: random patterns with fault dropping -------------------
  std::size_t dry_blocks = 0;
  for (std::size_t b = 0; b < kMaxRandomBlocks && remaining.any(); ++b) {
    sim::PatternSet block = sim::PatternSet::random(nl.num_inputs(), 64, rng);
    const sim::FaultSimResult r = fsim.run_subset(block, remaining);
    if (r.detected.none()) {
      if (++dry_blocks >= kUnproductiveBlockLimit) break;
      continue;
    }
    dry_blocks = 0;
    // Keep only patterns that first-detected something (cheap pre-compaction).
    util::BitVector keep(block.size());
    r.detected.for_each_set([&](std::size_t fid) {
      keep.set(r.earliest[fid]);
      settle(fid, FaultVerdict::kDetected);
    });
    keep.for_each_set([&](std::size_t p) { pool.append(block.pattern(p)); });
  }
  result.random_patterns_used = pool.size();

  // ---- Phase 2: PODEM on remaining faults -----------------------------
  // Fault-simulates one deterministic pattern against the remaining
  // faults.  If it detects `target`, every fault it detects is dropped
  // and the pattern joins the pool; otherwise nothing changes.  Returns
  // whether it detected `target`.
  auto add_pattern = [&](const util::WideWord& pat, std::size_t target) {
    sim::PatternSet one(nl.num_inputs(), 0);
    one.append(pat);
    const sim::FaultSimResult r = fsim.run_subset(one, remaining);
    if (!r.detected.get(target)) return false;
    r.detected.for_each_set(
        [&](std::size_t hit) { settle(hit, FaultVerdict::kDetected); });
    pool.append(pat);
    ++result.deterministic_patterns;
    return true;
  };

  Podem podem(compiled, opts.podem);
  // SAT escalation target (lazy: built on the first PODEM abort only —
  // clean runs never pay the good-circuit CNF emission).
  std::unique_ptr<SatEngine> sat;
  OBS_COUNTER(c_sat_detected, "atpg.sat_detected");
  OBS_COUNTER(c_sat_redundant, "atpg.sat_redundant");
  // Ascending fault id; `remaining` is re-read before each fault, so a
  // fault an earlier pattern dropped is skipped.
  for (std::size_t fid = remaining.find_first(); fid < faults.size();
       fid = remaining.find_next(fid + 1)) {
    const PodemResult pr = podem.generate(faults[fid]);
    if (pr.status == PodemStatus::kUntestable) {
      settle(fid, FaultVerdict::kRedundant);
      ++result.redundant_faults;
      continue;
    }
    if (pr.status == PodemStatus::kTestFound) {
      // Random X-fill, then drop every remaining fault the pattern catches.
      util::WideWord pat = pr.pattern;
      for (std::size_t i = 0; i < pat.bits(); ++i) {
        if (!pr.care.get_bit(i) && rng.next_bool()) pat.set_bit(i, true);
      }
      if (add_pattern(pat, fid)) continue;
      // A PODEM test the fault simulator rejects means implication and
      // the simulator disagree about the circuit — never silent.
      obs::diag(obs::Severity::kError, "atpg",
                "PODEM pattern failed fault-simulation validation; "
                "counting an abort");
    } else if (opts.sat_escalate) {
      if (!sat) sat = std::make_unique<SatEngine>(*compiled, opts.sat);
      const SatResult sr = sat->generate(faults[fid]);
      if (sr.status == SatStatus::kRedundant) {
        settle(fid, FaultVerdict::kRedundant);
        ++result.redundant_faults;
        ++result.sat_redundant_faults;
        OBS_COUNT(c_sat_redundant, 1);
        continue;
      }
      if (sr.status == SatStatus::kDetected) {
        // The model is fully specified — no X-fill.
        if (add_pattern(sr.pattern, fid)) {
          ++result.sat_detected_faults;
          OBS_COUNT(c_sat_detected, 1);
          continue;
        }
        // A SAT model the fault simulator rejects means the CNF and
        // the simulator disagree about the circuit — never silent.
        obs::diag(obs::Severity::kError, "atpg",
                  "SAT model failed fault-simulation validation; "
                  "keeping abort verdict");
      }
    }
    settle(fid, FaultVerdict::kAborted);  // stop retrying
    ++result.aborted_faults;
  }

  // ---- Phase 3: reverse-order compaction ------------------------------
  // Scanning the pool backwards and keeping a pattern iff it detects a
  // detected fault that no kept pattern detects keeps exactly each
  // detected fault's first detector in reverse order.  One campaign over
  // the reversed pool finds all of them: reversed index e is pool
  // pattern size - 1 - e.
  if (pool.size() > 1) {
    util::BitVector detected(faults.size());
    for (std::size_t fid = 0; fid < faults.size(); ++fid) {
      if (result.verdict[fid] == FaultVerdict::kDetected) detected.set(fid);
    }
    sim::PatternSet reversed(nl.num_inputs(), 0);
    for (std::size_t p = pool.size(); p-- > 0;) reversed.append(pool.pattern(p));
    const sim::FaultSimResult r = fsim.run_subset(reversed, detected);
    util::BitVector keep(pool.size());
    r.detected.for_each_set(
        [&](std::size_t fid) { keep.set(pool.size() - 1 - r.earliest[fid]); });
    sim::PatternSet compacted(nl.num_inputs(), 0);
    keep.for_each_set([&](std::size_t p) { compacted.append(pool.pattern(p)); });
    pool = std::move(compacted);
  }
  result.patterns = std::move(pool);
  return result;
}

}  // namespace fbist::atpg
