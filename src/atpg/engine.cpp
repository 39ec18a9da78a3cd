#include "atpg/engine.h"

#include <algorithm>
#include <memory>

#include "obs/diag.h"
#include "obs/metrics.h"

namespace fbist::atpg {

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

  std::vector<bool> remaining(faults.size(), true);
  std::size_t num_remaining = faults.size();

  // Working pattern list (uncompacted); compaction re-simulates at the end.
  sim::PatternSet pool(nl.num_inputs(), 0);

  // ---- Phase 1: random patterns with fault dropping -------------------
  std::size_t dry_blocks = 0;
  for (std::size_t b = 0; b < opts.max_random_blocks && num_remaining > 0; ++b) {
    sim::PatternSet block = sim::PatternSet::random(nl.num_inputs(), 64, rng);
    const sim::FaultSimResult r = fsim.run_subset(block, remaining);
    std::vector<std::size_t> hits;
    r.detected.for_each_set([&](std::size_t fid) { hits.push_back(fid); });
    if (hits.empty()) {
      if (++dry_blocks >= opts.unproductive_block_limit) break;
      continue;
    }
    dry_blocks = 0;
    // Keep only patterns that first-detected something (cheap pre-compaction).
    std::vector<bool> keep(block.size(), false);
    for (const std::size_t fid : hits) {
      keep[r.earliest[fid]] = true;
      remaining[fid] = false;
      result.verdict[fid] = FaultVerdict::kDetected;
      --num_remaining;
    }
    for (std::size_t p = 0; p < block.size(); ++p) {
      if (keep[p]) pool.append(block.pattern(p));
    }
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
    r.detected.for_each_set([&](std::size_t hit) {
      remaining[hit] = false;
      result.verdict[hit] = FaultVerdict::kDetected;
      --num_remaining;
    });
    pool.append(pat);
    ++result.deterministic_patterns;
    return true;
  };

  Podem podem(nl, compiled, opts.podem);
  // SAT escalation target (lazy: built on the first PODEM abort only —
  // clean runs never pay the good-circuit CNF emission).
  std::unique_ptr<SatEngine> sat;
  OBS_COUNTER(c_sat_detected, "atpg.sat_detected");
  OBS_COUNTER(c_sat_redundant, "atpg.sat_redundant");
  for (std::size_t fid = 0; fid < faults.size() && num_remaining > 0; ++fid) {
    if (!remaining[fid]) continue;
    const PodemResult pr = podem.generate(faults[fid]);
    if (pr.status == PodemStatus::kUntestable) {
      remaining[fid] = false;
      result.verdict[fid] = FaultVerdict::kRedundant;
      ++result.redundant_faults;
      --num_remaining;
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
        remaining[fid] = false;
        result.verdict[fid] = FaultVerdict::kRedundant;
        ++result.redundant_faults;
        ++result.sat_redundant_faults;
        OBS_COUNT(c_sat_redundant, 1);
        --num_remaining;
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
    remaining[fid] = false;  // stop retrying; verdict stays kAborted
    ++result.aborted_faults;
    --num_remaining;
  }

  // ---- Phase 3: reverse-order compaction ------------------------------
  if (opts.compact && pool.size() > 1) {
    // Re-simulate patterns one at a time in reverse order against the
    // detected fault set; keep a pattern only if it detects a fault not
    // yet covered by the patterns kept so far.
    std::vector<bool> need(faults.size(), false);
    for (std::size_t fid = 0; fid < faults.size(); ++fid) {
      need[fid] = result.verdict[fid] == FaultVerdict::kDetected;
    }
    std::vector<std::size_t> kept_order;
    for (std::size_t p = pool.size(); p-- > 0;) {
      sim::PatternSet one(nl.num_inputs(), 0);
      one.append(pool.pattern(p));
      const sim::FaultSimResult r = fsim.run_subset(one, need);
      std::size_t fresh = 0;
      r.detected.for_each_set([&](std::size_t fid) {
        need[fid] = false;
        ++fresh;
      });
      if (fresh > 0) kept_order.push_back(p);
    }
    std::sort(kept_order.begin(), kept_order.end());
    sim::PatternSet compacted(nl.num_inputs(), 0);
    for (const std::size_t p : kept_order) compacted.append(pool.pattern(p));
    result.patterns = std::move(compacted);
  } else {
    result.patterns = std::move(pool);
  }

  return result;
}

}  // namespace fbist::atpg
