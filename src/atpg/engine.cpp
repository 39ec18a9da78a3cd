#include "atpg/engine.h"

#include <algorithm>
#include <memory>

#include "obs/diag.h"
#include "obs/metrics.h"

namespace fbist::atpg {

namespace {

/// Random phase: at most this many 64-pattern blocks ...
constexpr std::size_t kMaxRandomBlocks = 64;
/// ... and it stops after this many consecutive blocks detect nothing.
constexpr std::size_t kUnproductiveBlockLimit = 3;
/// With SAT escalation, PODEM's first try at a fault gets this many
/// backtracks; a fault it does not settle goes to the structural miter.
constexpr std::size_t kPodemFirstTry = 20;

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

AtpgResult run_atpg(const netlist::CompiledCircuit& cc,
                    const fault::FaultList& faults, const AtpgOptions& opts) {
  AtpgResult result;
  result.verdict.assign(faults.size(), FaultVerdict::kAborted);

  sim::FaultSim fsim(cc, faults);
  util::Rng rng(opts.seed);

  // The faults still without a verdict; settle() is the one place a
  // fault leaves it.
  util::BitVector remaining(faults.size(), true);
  auto settle = [&](std::size_t fid, FaultVerdict verdict) {
    remaining.reset(fid);
    result.verdict[fid] = verdict;
  };

  // Phase times (exact sums; counters, not spans, so the `atpg` span
  // keeps its self time).
  OBS_COUNTER(c_random_ns, "atpg.random_ns");
  OBS_COUNTER(c_podem_ns, "atpg.podem_ns");
  OBS_COUNTER(c_drop_sim_ns, "atpg.drop_sim_ns");
  OBS_COUNTER(c_compact_ns, "atpg.compact_ns");

  // Working pattern list (uncompacted); compaction re-simulates at the end.
  sim::PatternSet pool(cc.num_inputs(), 0);

  // ---- Phase 1: random patterns with fault dropping -------------------
  {
    OBS_SCOPED_NS(random_timer, c_random_ns);
    std::size_t dry_blocks = 0;
    for (std::size_t b = 0; b < kMaxRandomBlocks && remaining.any(); ++b) {
      sim::PatternSet block = sim::PatternSet::random(cc.num_inputs(), 64, rng);
      const sim::FaultSimResult r = fsim.run_subset(block, remaining);
      if (r.detected.none()) {
        if (++dry_blocks >= kUnproductiveBlockLimit) break;
        continue;
      }
      dry_blocks = 0;
      // Keep only patterns that first-detected something (cheap
      // pre-compaction).
      util::BitVector keep(block.size());
      r.detected.for_each_set([&](std::size_t fid) {
        keep.set(r.earliest[fid]);
        settle(fid, FaultVerdict::kDetected);
      });
      keep.for_each_set([&](std::size_t p) { pool.append(block.pattern(p)); });
    }
  }
  result.random_patterns_used = pool.size();

  // ---- Phase 2: PODEM on remaining faults -----------------------------
  // Fault-simulates one deterministic pattern against the remaining
  // faults.  If it detects `target`, every fault it detects is dropped
  // and the pattern joins the pool; otherwise nothing changes.  Returns
  // whether it detected `target`.
  auto add_pattern = [&](const util::WideWord& pat, std::size_t target) {
    OBS_SCOPED_NS(drop_sim_timer, c_drop_sim_ns);
    sim::PatternSet one(cc.num_inputs(), 0);
    one.append(pat);
    const sim::FaultSimResult r = fsim.run_subset(one, remaining);
    if (!r.detected.get(target)) return false;
    r.detected.for_each_set(
        [&](std::size_t hit) { settle(hit, FaultVerdict::kDetected); });
    pool.append(pat);
    ++result.deterministic_patterns;
    return true;
  };

  Podem podem(cc, opts.podem);
  auto run_podem = [&](const fault::Fault& f, std::size_t budget) {
    OBS_SCOPED_NS(podem_timer, c_podem_ns);
    return podem.generate(f, budget);
  };
  const std::size_t budget = opts.podem.backtrack_limit;
  // SAT escalation target (lazy: built on the first PODEM abort only —
  // clean runs never pay the good-circuit CNF emission).
  std::unique_ptr<SatEngine> sat;
  OBS_COUNTER(c_sat_detected, "atpg.sat_detected");
  OBS_COUNTER(c_sat_redundant, "atpg.sat_redundant");
  OBS_COUNTER(c_podem_reruns, "atpg.podem_reruns");
  OBS_COUNTER(c_podem_rerun_ns, "atpg.podem_rerun_ns");
  auto settle_sat_redundant = [&](std::size_t fid) {
    settle(fid, FaultVerdict::kRedundant);
    ++result.redundant_faults;
    ++result.sat_redundant_faults;
    OBS_COUNT(c_sat_redundant, 1);
  };
  // Ascending fault id; `remaining` is re-read before each fault, so a
  // fault an earlier pattern dropped is skipped.
  for (std::size_t fid = remaining.find_first(); fid < faults.size();
       fid = remaining.find_next(fid + 1)) {
    const fault::Fault& f = faults[fid];
    // With escalation, a short first try; a fault it leaves open is
    // either proved redundant by the structural miter or searched again
    // at the full budget (engine.h says why the result is unchanged).
    PodemResult pr = run_podem(
        f, opts.sat_escalate ? std::min(budget, kPodemFirstTry) : budget);
    if (pr.status == PodemStatus::kAborted && opts.sat_escalate) {
      if (!sat) sat = std::make_unique<SatEngine>(cc, opts.sat);
      if (sat->proves_redundant(f)) {
        settle_sat_redundant(fid);
        continue;
      }
      if (budget > kPodemFirstTry) {
        // Not proved redundant: PODEM's full search keeps precedence
        // over a SAT model.
        OBS_COUNT(c_podem_reruns, 1);
        OBS_SCOPED_NS(rerun_timer, c_podem_rerun_ns);  // part of podem_ns
        pr = run_podem(f, budget);
      }
    }
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
      // PODEM aborted at the full budget: the plain miter's model is the
      // pattern.  (It is redundant here only if the structural miter ran
      // out of conflicts.)
      const SatResult sr = sat->generate(f);
      if (sr.status == SatStatus::kRedundant) {
        settle_sat_redundant(fid);
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
    OBS_SCOPED_NS(compact_timer, c_compact_ns);
    util::BitVector detected(faults.size());
    for (std::size_t fid = 0; fid < faults.size(); ++fid) {
      if (result.verdict[fid] == FaultVerdict::kDetected) detected.set(fid);
    }
    sim::PatternSet reversed(cc.num_inputs(), 0);
    for (std::size_t p = pool.size(); p-- > 0;) reversed.append(pool.pattern(p));
    const sim::FaultSimResult r = fsim.run_subset(reversed, detected);
    util::BitVector keep(pool.size());
    r.detected.for_each_set(
        [&](std::size_t fid) { keep.set(pool.size() - 1 - r.earliest[fid]); });
    sim::PatternSet compacted(cc.num_inputs(), 0);
    keep.for_each_set([&](std::size_t p) { compacted.append(pool.pattern(p)); });
    pool = std::move(compacted);
  }
  result.patterns = std::move(pool);
  return result;
}

}  // namespace fbist::atpg
