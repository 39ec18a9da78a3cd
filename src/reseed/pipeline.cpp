#include "reseed/pipeline.h"

#include <stdexcept>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fbist::reseed {

Pipeline::Pipeline(const std::string& circuit_name, PipelineOptions opts)
    : name_(circuit_name),
      opts_(opts),
      nl_(circuits::make_circuit(circuit_name)) {
  init();
}

Pipeline::Pipeline(netlist::Netlist nl, std::string name, PipelineOptions opts)
    : name_(std::move(name)), opts_(opts), nl_(std::move(nl)) {
  init();
}

PreparedCircuit Pipeline::prepare(const std::string& circuit_name,
                                  PipelineOptions opts) {
  return std::make_shared<const Pipeline>(circuit_name, opts);
}

PreparedCircuit Pipeline::prepare(netlist::Netlist nl, std::string name,
                                  PipelineOptions opts) {
  return std::make_shared<const Pipeline>(std::move(nl), std::move(name), opts);
}

void Pipeline::init() {
  OBS_HISTOGRAM(h_compile, "pipeline.compile_ns");
  OBS_HISTOGRAM(h_collapse, "pipeline.collapse_ns");
  OBS_HISTOGRAM(h_atpg, "pipeline.atpg_ns");
  // Compile the circuit once; fault collapsing, ATPG, PODEM, and every
  // fault-simulation campaign below (and across all TPG kinds / T
  // values) share it — the structure is derived exactly once.
  {
    OBS_SPAN("compile", name_);
    [[maybe_unused]] const std::uint64_t t0 = obs::Clock::now_ns();
    compiled_ = std::make_unique<const netlist::CompiledCircuit>(nl_);
    OBS_OBSERVE(h_compile, obs::Clock::now_ns() - t0);
  }

  // TestGen substitute: deterministic ATPG provides the complete test
  // set ATPGTS and implicitly defines the target fault list F — the
  // faults it detects.  Redundant and aborted faults leave the target
  // list (the paper's F is the ATPG tool's detected-fault list, and
  // coverable fault coverage is measured against it).
  {
    fault::FaultList all;
    {
      OBS_SPAN("collapse", name_);
      [[maybe_unused]] const std::uint64_t t0 = obs::Clock::now_ns();
      all = fault::FaultList::collapsed(*compiled_);
      OBS_OBSERVE(h_collapse, obs::Clock::now_ns() - t0);
    }
    atpg::AtpgOptions aopts = opts_.atpg;
    aopts.seed ^= util::hash_string(name_);
    {
      OBS_SPAN("atpg", name_);
      [[maybe_unused]] const std::uint64_t t0 = obs::Clock::now_ns();
      atpg_ = atpg::run_atpg(*compiled_, all, aopts);
      OBS_OBSERVE(h_atpg, obs::Clock::now_ns() - t0);
    }

    std::vector<bool> drop(all.size(), false);
    for (std::size_t f = 0; f < all.size(); ++f) {
      drop[f] = atpg_.verdict[f] != atpg::FaultVerdict::kDetected;
    }
    faults_ = all.without(drop);
  }
  if (faults_.size() == 0) {
    throw std::runtime_error("pipeline: ATPG detected no faults on " + name_);
  }
  fsim_ = std::make_unique<sim::FaultSim>(*compiled_, faults_);
}

InitialReseeding Pipeline::build(tpg::TpgKind kind, std::size_t cycles,
                                 const util::Deadline* deadline) const {
  OBS_HISTOGRAM(h_build, "pipeline.matrix_build_ns");
  if (deadline != nullptr) deadline->check("pipeline");
  const auto tpg = tpg::make_tpg(kind, nl_.num_inputs());
  BuilderOptions b = opts_.builder;
  if (cycles != 0) b.cycles_per_triplet = cycles;
  b.seed ^= util::hash_string(name_) ^ static_cast<std::uint64_t>(kind);
  OBS_SPAN("matrix_build", name_);
  [[maybe_unused]] const std::uint64_t t0 = obs::Clock::now_ns();
  InitialReseeding initial = build_initial_reseeding(
      *fsim_, *tpg, atpg_.patterns, b, opts_.matrix_cache.get(), deadline);
  OBS_OBSERVE(h_build, obs::Clock::now_ns() - t0);
  return initial;
}

ReseedingSolution Pipeline::solve(const InitialReseeding& initial,
                                  const OptimizerOptions& optimizer,
                                  const util::Deadline* deadline) const {
  OBS_HISTOGRAM(h_solve, "pipeline.cover_solve_ns");
  OBS_SPAN("cover_solve", name_);
  [[maybe_unused]] const std::uint64_t t0 = obs::Clock::now_ns();
  ReseedingSolution sol = optimize(initial, optimizer, deadline);
  OBS_OBSERVE(h_solve, obs::Clock::now_ns() - t0);
  return sol;
}

std::pair<InitialReseeding, ReseedingSolution> Pipeline::run_detailed(
    tpg::TpgKind kind, std::size_t cycles) const {
  InitialReseeding initial = build(kind, cycles);
  ReseedingSolution sol = solve(initial, opts_.optimizer);
  return {std::move(initial), std::move(sol)};
}

ReseedingSolution Pipeline::run(tpg::TpgKind kind, std::size_t cycles,
                                const OptimizerOptions& optimizer) const {
  return solve(build(kind, cycles), optimizer);
}

ReseedingSolution Pipeline::run(tpg::TpgKind kind, std::size_t cycles) const {
  return run(kind, cycles, opts_.optimizer);
}

}  // namespace fbist::reseed
