// Substrate micro-benchmarks (google-benchmark).
//
// Not a paper table: these quantify the throughput of the building
// blocks that make the table benches affordable — the 64-way parallel
// fault simulator, the matrix reduction and the exact solver.
//
// The BM_*Reference variants run the retained seed implementations
// (tests/sim/reference_sim.h: per-gate Netlist walk + ConeIndex) on the same
// inputs, so the compiled-core speedup can be read off one run as
// items_per_second(BM_FaultSim) / items_per_second(BM_FaultSimReference)
// — within-run ratios are robust against background load.
#include <benchmark/benchmark.h>

#include "atpg/engine.h"
#include "atpg/scoap.h"
#include "bist/misr.h"
#include "campaign/runner.h"
#include "circuits/registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "reseed/initial_builder.h"
#include "tpg/accumulator.h"
#include "tpg/triplet.h"
#include "cover/exact.h"
#include "cover/greedy.h"
#include "cover/reduce.h"
#include "sim/fault_sim.h"
#include "sim/reference_sim.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace {

using namespace fbist;

void BM_LogicSim(benchmark::State& state) {
  const auto nl = circuits::make_circuit("c880");
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  sim::LogicSim sim(cc);
  util::Rng rng(1);
  const auto ps = sim::PatternSet::random(nl.num_inputs(), 1024, rng);
  for (auto _ : state) {
    auto blocks = sim.simulate(ps);
    benchmark::DoNotOptimize(blocks);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_LogicSim)->Unit(benchmark::kMicrosecond);

void BM_LogicSimReference(benchmark::State& state) {
  const auto nl = circuits::make_circuit("c880");
  sim::ReferenceLogicSim sim(nl);
  util::Rng rng(1);
  const auto ps = sim::PatternSet::random(nl.num_inputs(), 1024, rng);
  for (auto _ : state) {
    auto blocks = sim.simulate(ps);
    benchmark::DoNotOptimize(blocks);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_LogicSimReference)->Unit(benchmark::kMicrosecond);

void run_fault_sim_bench(benchmark::State& state, const std::string& circuit,
                         bool reference) {
  const auto nl = circuits::make_circuit(circuit);
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::collapsed(cc);
  util::Rng rng(2);
  const auto ps = sim::PatternSet::random(
      nl.num_inputs(), static_cast<std::size_t>(state.range(0)), rng);
  if (reference) {
    sim::ReferenceFaultSim fsim(nl, fl);
    for (auto _ : state) {
      auto r = fsim.run(ps);
      benchmark::DoNotOptimize(r);
    }
  } else {
    sim::FaultSim fsim(cc, fl);
    for (auto _ : state) {
      auto r = fsim.run(ps);
      benchmark::DoNotOptimize(r);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * static_cast<std::int64_t>(fl.size()));
}

void BM_FaultSim(benchmark::State& state) {
  run_fault_sim_bench(state, "c880", /*reference=*/false);
}
BENCHMARK(BM_FaultSim)->Arg(64)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_FaultSimReference(benchmark::State& state) {
  run_fault_sim_bench(state, "c880", /*reference=*/true);
}
BENCHMARK(BM_FaultSimReference)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_FaultSimLarge(benchmark::State& state) {
  run_fault_sim_bench(state, "s9234", /*reference=*/false);
}
BENCHMARK(BM_FaultSimLarge)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_FaultSimLargeReference(benchmark::State& state) {
  run_fault_sim_bench(state, "s9234", /*reference=*/true);
}
BENCHMARK(BM_FaultSimLargeReference)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

cover::DetectionMatrix random_matrix(std::size_t R, std::size_t C,
                                     double density, std::uint64_t seed) {
  util::Rng rng(seed);
  cover::DetectionMatrix m(R, C);
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t c = 0; c < C; ++c) {
      if (rng.next_bool(density)) m.set(r, c);
    }
  }
  for (std::size_t c = 0; c < C; ++c) m.set(rng.next_below(R), c);
  return m;
}

void BM_Reduce(benchmark::State& state) {
  const auto m = random_matrix(static_cast<std::size_t>(state.range(0)),
                               static_cast<std::size_t>(state.range(0)) * 8,
                               0.05, 3);
  for (auto _ : state) {
    auto r = cover::reduce(m);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Reduce)->Arg(50)->Arg(150)->Unit(benchmark::kMillisecond);

void BM_ExactSolver(benchmark::State& state) {
  const auto m = random_matrix(static_cast<std::size_t>(state.range(0)),
                               static_cast<std::size_t>(state.range(0)) * 2,
                               0.15, 4);
  for (auto _ : state) {
    auto s = cover::solve_exact(m);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_ExactSolver)->Arg(20)->Arg(40)->Unit(benchmark::kMillisecond);

void BM_GreedySolver(benchmark::State& state) {
  const auto m = random_matrix(static_cast<std::size_t>(state.range(0)),
                               static_cast<std::size_t>(state.range(0)) * 2,
                               0.15, 4);
  for (auto _ : state) {
    auto s = cover::solve_greedy(m);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_GreedySolver)->Arg(20)->Arg(40)->Unit(benchmark::kMicrosecond);

void BM_Atpg(benchmark::State& state) {
  const auto nl = circuits::make_circuit("c432");
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::collapsed(cc);
  for (auto _ : state) {
    auto r = atpg::run_atpg(cc, fl);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Atpg)->Unit(benchmark::kMillisecond);

void BM_Scoap(benchmark::State& state) {
  const auto nl = circuits::make_circuit("s9234");
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  for (auto _ : state) {
    auto s = atpg::compute_scoap(cc);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_Scoap)->Unit(benchmark::kMillisecond);

void BM_MisrSignature(benchmark::State& state) {
  const bist::Misr misr(64);
  util::Rng rng(5);
  std::vector<util::WideWord> stream;
  for (int i = 0; i < 4096; ++i) {
    stream.push_back(util::WideWord::random(64, rng));
  }
  for (auto _ : state) {
    auto sig = misr.signature(stream);
    benchmark::DoNotOptimize(sig);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_MisrSignature)->Unit(benchmark::kMicrosecond);

// ---- Campaign scaling ----------------------------------------------------
//
// Wall-clock of one registry sweep (3 circuits x 2 TPG kinds = 6 runs
// sharing 3 prepared circuits) at 1/2/4/8 workers.  The speedup is the
// ratio of the real_time rows; results are bit-identical at every
// worker count (the determinism tests pin that), so this isolates pure
// scheduling behavior.  Near-linear scaling requires real cores —
// ratios read on a 1-2 core container only show composition overhead.
void BM_CampaignSweep(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  campaign::Scheduler::global().set_workers(jobs);
  campaign::CampaignSpec spec;
  spec.circuits = {"c432", "c880", "c1355"};
  spec.tpgs = {tpg::TpgKind::kAdder, tpg::TpgKind::kLfsr};
  spec.cycle_values = {32};
  for (auto _ : state) {
    auto report = campaign::run_campaign(spec);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 6);
  campaign::Scheduler::global().set_workers(0);  // restore the default
}
BENCHMARK(BM_CampaignSweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Single prepared circuit, N runs fanned out over the shared handle —
// the within-circuit scaling path (no ATPG in the timed region).
void BM_CampaignSharedPipeline(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  campaign::Scheduler::global().set_workers(jobs);
  const auto prepared = reseed::Pipeline::prepare("c880");
  const std::vector<tpg::TpgKind> kinds = {
      tpg::TpgKind::kAdder, tpg::TpgKind::kSubtracter,
      tpg::TpgKind::kMultiplier, tpg::TpgKind::kLfsr};
  for (auto _ : state) {
    campaign::TaskGroup group(campaign::Scheduler::global());
    std::vector<reseed::ReseedingSolution> sols(kinds.size());
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      group.run([&prepared, &sols, &kinds, i] {
        sols[i] = prepared->run(kinds[i], 32);
      });
    }
    group.wait();
    benchmark::DoNotOptimize(sols);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kinds.size()));
  campaign::Scheduler::global().set_workers(0);
}
BENCHMARK(BM_CampaignSharedPipeline)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---- Lane-packed detection-matrix build ----------------------------------
//
// The reseeding pipeline's dominant cost is the detection-matrix build:
// one fault-simulation campaign per candidate triplet.  At the paper's
// small T values a lone candidate fills only T of the 64 lanes of every
// PPSFP block, so the builder lane-packs ⌊64/T⌋ candidates into shared
// blocks (sim::pack_rows + FaultSim::run_packed).  BM_InitialMatrixBuild
// times the packed build; its T=256 and T=1024 rows take the staged
// path, where candidates simulate their first 64 patterns packed and
// then doubling windows seeking only the faults they have not yet
// detected.  BM_InitialMatrixBuildPerRow is the seed shape
// (expand_triplet + one FaultSim::run per candidate) on identical
// inputs, so the per-row/batched real_time ratio at each shared T is
// the measured matrix-build speedup.
void run_matrix_build_bench(benchmark::State& state, bool batched) {
  const auto cycles = static_cast<std::size_t>(state.range(0));
  const auto nl = circuits::make_circuit("s9234");
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::collapsed(cc);
  sim::FaultSim fsim(cc, fl);
  tpg::AdderTpg tpg(nl.num_inputs());
  util::Rng rng(3);
  const std::size_t M = 64;  // candidate triplets (stand-in ATPG set)
  const auto atpg_patterns = sim::PatternSet::random(nl.num_inputs(), M, rng);
  reseed::BuilderOptions opts;
  opts.cycles_per_triplet = cycles;

  if (batched) {
    for (auto _ : state) {
      auto init = reseed::build_initial_reseeding(fsim, tpg, atpg_patterns, opts);
      benchmark::DoNotOptimize(init);
    }
  } else {
    const auto init =
        reseed::build_initial_reseeding(fsim, tpg, atpg_patterns, opts);
    for (auto _ : state) {
      cover::DetectionMatrix m(M, fl.size());
      m.track_earliest();
      util::parallel_for(M, [&](std::size_t i) {
        const auto ts = tpg::expand_triplet(tpg, init.triplets[i]);
        const auto r = fsim.run(ts);
        r.detected.for_each_set(
            [&](std::size_t f) { m.set_earliest(i, f, r.earliest[f]); });
        m.set_row(i, r.detected);
      });
      benchmark::DoNotOptimize(m);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(M));
}

void BM_InitialMatrixBuild(benchmark::State& state) {
  run_matrix_build_bench(state, /*batched=*/true);
}
BENCHMARK(BM_InitialMatrixBuild)
    ->Arg(4)
    ->Arg(8)
    ->Arg(32)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_InitialMatrixBuildPerRow(benchmark::State& state) {
  run_matrix_build_bench(state, /*batched=*/false);
}
BENCHMARK(BM_InitialMatrixBuildPerRow)
    ->Arg(4)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---- Observability overhead ----------------------------------------------
//
// BM_ObsOverhead is the instrumented-vs-compiled-out guard: the same
// packed matrix build as BM_InitialMatrixBuild (T=8), under whatever
// FBIST_OBSERVABILITY the binary was built with and tracing disabled
// (the production shape — counters live, spans idle).  The baseline row
// is recorded from an FBIST_OBSERVABILITY=OFF build, so CI's comparison
// of an ON build against it measures the full instrumentation cost;
// tools/bench_compare flags a >20% regression, the target is <2%.
// BM_ObsCounterAdd / BM_ObsSpanIdle price the primitives themselves.
void BM_ObsOverhead(benchmark::State& state) {
  state.range(0);  // keep the Arg-shaped row name stable
  run_matrix_build_bench(state, /*batched=*/true);
}
BENCHMARK(BM_ObsOverhead)->Arg(8)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ObsCounterAdd(benchmark::State& state) {
#if FBIST_OBSERVABILITY
  OBS_COUNTER(c, "bench.counter");
  for (auto _ : state) {
    OBS_COUNT(c, 1);
  }
#else
  for (auto _ : state) {
    benchmark::DoNotOptimize(state.iterations());
  }
#endif
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsSpanIdle(benchmark::State& state) {
  obs::Tracer::global().disable();
  for (auto _ : state) {
    OBS_SPAN("bench_idle");
    benchmark::DoNotOptimize(state.iterations());
  }
}
BENCHMARK(BM_ObsSpanIdle);

void BM_TripletExpansion(benchmark::State& state) {
  const auto t = tpg::make_tpg(tpg::TpgKind::kMultiplier, 256);
  util::Rng rng(9);
  tpg::Triplet trip;
  trip.delta = util::WideWord::random(256, rng);
  trip.sigma = t->legalize_sigma(util::WideWord::random(256, rng));
  trip.cycles = 1024;
  for (auto _ : state) {
    auto ps = tpg::expand_triplet(*t, trip);
    benchmark::DoNotOptimize(ps);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_TripletExpansion)->Unit(benchmark::kMicrosecond);

}  // namespace
