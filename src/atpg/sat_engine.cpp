#include "atpg/sat_engine.h"

#include <stdexcept>

#include "obs/metrics.h"

namespace fbist::atpg {

SatEngine::SatEngine(const netlist::CompiledCircuit& cc, SatEngineOptions opts)
    : cc_(cc),
      opts_(opts),
      image_(SolverOptions{opts.conflict_limit}),
      faulty_(cc.num_nets(), kShared),
      d_var_(cc.num_nets(), kShared) {
  if (!cc.has_cone_programs()) {
    throw std::invalid_argument(
        "SatEngine: circuit compiled without cone programs");
  }
  OBS_COUNTER(c_build_ns, "atpg.sat_build_ns");
  OBS_SCOPED_NS(build_timer, c_build_ns);
  // One combinational timeframe straight into the fresh image: net n's
  // variable is exactly n (see CircuitCnf), so the engine needs no
  // variable map for the good circuit.
  CircuitCnf(cc_, image_).add_timeframe();
}

SatResult SatEngine::generate(const fault::Fault& f) {
  OBS_COUNTER(c_plain_ns, "atpg.sat_plain_ns");
  OBS_SCOPED_NS(plain_timer, c_plain_ns);
  const SolveStatus status = solve_miter(f, /*structural=*/false);

  SatResult result;
  if (cc_.reaches_output(f.net)) {  // dead logic is settled unsolved
    result.conflicts = scratch_.stats().conflicts;
    result.decisions = scratch_.stats().decisions;
    result.propagations = scratch_.stats().propagations;
  }
  switch (status) {
    case SolveStatus::kUnsat:
      result.status = SatStatus::kRedundant;
      return result;
    case SolveStatus::kAborted:
      result.status = SatStatus::kAborted;
      return result;
    case SolveStatus::kSat:
      break;
  }

  // Read the test vector off the model.  The model assigns every
  // variable, so the pattern is fully specified (care = all ones).
  const std::size_t num_inputs = cc_.num_inputs();
  result.pattern = util::WideWord(num_inputs);
  result.care = util::WideWord(num_inputs);
  for (std::size_t i = 0; i < num_inputs; ++i) {
    result.pattern.set_bit(
        i, scratch_.value(static_cast<SatVar>(cc_.inputs()[i])));
    result.care.set_bit(i, true);
  }
  result.status = SatStatus::kDetected;
  return result;
}

bool SatEngine::proves_redundant(const fault::Fault& f) {
  return solve_miter(f, /*structural=*/true) == SolveStatus::kUnsat;
}

SolveStatus SatEngine::solve_miter(const fault::Fault& f, bool structural) {
  OBS_COUNTER(c_calls, "atpg.sat_calls");
  OBS_COUNTER(c_conflicts, "atpg.sat_conflicts");
  OBS_COUNTER(c_decisions, "atpg.sat_decisions");
  OBS_COUNTER(c_heap_pops, "atpg.sat_heap_pops");
  OBS_COUNTER(c_propagations, "atpg.sat_propagations");
  OBS_COUNTER(c_build_ns, "atpg.sat_build_ns");
  OBS_COUNTER(c_solve_ns, "atpg.sat_solve_ns");
  OBS_COUNT(c_calls, 1);

  if (!cc_.reaches_output(f.net)) {
    // Dead logic: no path to observe the effect.  Certified without a
    // solver call (the UNSAT proof would be immediate anyway).
    return SolveStatus::kUnsat;
  }

  Solver& solver = scratch_;
  {
    OBS_SCOPED_NS(build_timer, c_build_ns);
    // The copy is the state a fresh solver reaches after loading the
    // good circuit.  The solver is flat arrays, so once the scratch has
    // held a miter as large the copy frees and allocates nothing.
    solver = image_;

    // Faulty copy: variables only for the fault site and its fanout
    // cone.  Everything outside the cone is shared with the good circuit.
    //
    // The stuck site: a fresh variable pinned to the stuck value.
    faulty_[f.net] = solver.new_var();
    solver.add_unit(mk_lit(faulty_[f.net], /*neg=*/!f.stuck_value));
    // Activation: the good circuit must drive the site to the opposite
    // value.  (For an uncontrollable site this makes the formula UNSAT —
    // exactly the redundancy answer.)
    solver.add_unit(mk_lit(static_cast<SatVar>(f.net), /*neg=*/f.stuck_value));

    // cone_gates() is ascending NetId == evaluation order, so fanins are
    // always defined (either earlier in the cone, the site, or shared).
    const auto cone = cc_.cone_gates(f.net);
    for (const netlist::NetId g : cone) {
      faulty_[g] = solver.new_var();
      clause_.clear();
      for (const netlist::NetId in : cc_.fanin(g)) {
        clause_.push_back(mk_lit(faulty_[in] == kShared ? static_cast<SatVar>(in)
                                                        : faulty_[in]));
      }
      emit_gate_cnf(solver, cc_.type(g), mk_lit(faulty_[g]), clause_.data(),
                    clause_.size());
    }

    // Miter: one XOR difference per cone-reachable PO, then "some output
    // differs" as a single disjunction.
    clause_.clear();
    for (const std::uint32_t pos : cc_.cone_outputs(f.net)) {
      const netlist::NetId po = cc_.outputs()[pos];
      const SatLit d = mk_lit(solver.new_var());
      emit_xor_cnf(solver, d, mk_lit(static_cast<SatVar>(po)), mk_lit(faulty_[po]));
      clause_.push_back(d);
    }
    solver.add_clause(clause_.data(), clause_.size());

    if (structural) {
      // D-chain: d_n means "net n carries the fault effect".  It needs
      // good and faulty values to differ, and off a primary output it
      // needs some reader to carry the effect on (every reader of a cone
      // net is in the cone).  The site carries the effect.
      d_var_[f.net] = solver.new_var();
      for (const netlist::NetId g : cone) d_var_[g] = solver.new_var();
      auto chain = [&](netlist::NetId n) {
        const SatLit d = mk_lit(d_var_[n]);
        const SatLit good = mk_lit(static_cast<SatVar>(n));
        const SatLit bad = mk_lit(faulty_[n]);
        solver.add_clause({~d, good, bad});
        solver.add_clause({~d, ~good, ~bad});
        if (cc_.output_index(n) != static_cast<std::size_t>(-1)) return;
        clause_.assign(1, ~d);
        for (const netlist::NetId r : cc_.fanout(n)) {
          clause_.push_back(mk_lit(d_var_[r]));
        }
        solver.add_clause(clause_.data(), clause_.size());
      };
      chain(f.net);
      for (const netlist::NetId g : cone) chain(g);
      solver.add_unit(mk_lit(d_var_[f.net]));
    }

    faulty_[f.net] = kShared;
    for (const netlist::NetId g : cone) faulty_[g] = kShared;
  }

  OBS_SCOPED_NS(solve_timer, c_solve_ns);
  const SolveStatus status = solver.solve();
  OBS_COUNT(c_conflicts, solver.stats().conflicts);
  OBS_COUNT(c_decisions, solver.stats().decisions);
  OBS_COUNT(c_heap_pops, solver.stats().heap_pops);
  OBS_COUNT(c_propagations, solver.stats().propagations);
  return status;
}

}  // namespace fbist::atpg
