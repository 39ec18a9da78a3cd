// Benchmark driver for the fbist reseeding flow (see README.md).
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --work-dir DIR --raw FILE
//
// Generates the workload's netlists from the seed, sets up, then runs as
// many of the workload's fixed closed batches (one process, one client)
// as fit in S seconds, checking every output after each batch, outside
// its timed window.  With --trace 1 one more set-up +
// batch + checks runs with obs::Tracer on; its Chrome trace and registry
// delta land next to FILE.  FILE receives the raw measurements as JSON;
// perfbench/run.py turns them into the benchmark's metrics.
//
// Everything that reaches the library runs on a private Scheduler whose
// size is the workload's thread budget, so neither FBIST_JOBS nor the
// host's core count leaks in and Scheduler::global() never starts.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "campaign/runner.h"
#include "campaign/scheduler.h"
#include "circuits/registry.h"
#include "netlist/bench_io.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "reseed/matrix_cache.h"
#include "reseed/pipeline.h"
#include "reseed/serialize.h"
#include "tpg/triplet.h"
#include "util/guarded_io.h"
#include "util/json.h"
#include "util/rng.h"

namespace fs = std::filesystem;
using namespace fbist;

namespace {

constexpr tpg::TpgKind kTpgs[] = {tpg::TpgKind::kAdder,
                                  tpg::TpgKind::kSubtracter,
                                  tpg::TpgKind::kMultiplier};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string raw;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--work-dir") {
      a.work_dir = v;
    } else if (flag == "--raw") {
      a.raw = v;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || a.work_dir.empty() || a.raw.empty() ||
      a.seconds <= 0) {
    throw std::runtime_error(
        "usage: perfbench_driver --workload NAME --seed N --seconds S "
        "--trace 0|1 --work-dir DIR --raw FILE");
  }
  return a;
}

double now_s() { return static_cast<double>(obs::Clock::now_ns()) * 1e-9; }

/// User + system CPU time of the whole process.
double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Runs `fn` as one task on `pool` and waits.  The caller blocks without
/// joining the pool, so the pool's worker count is the thread budget
/// (called on main instead, util::parallel_for would let main join every
/// loop, and off-pool loops start Scheduler::global()).
void on_pool(campaign::Scheduler& pool, const std::function<void()>& fn) {
  campaign::TaskGroup group(pool);
  group.run(fn);
  group.wait();
}

/// Instance `seed` of registry circuit `name`: the registry netlist with
/// its primary inputs, primary outputs, gates (in a random topological
/// order) and each gate's fanins shuffled.  The circuit stays the same,
/// but ATPG, PODEM and the builder meet it in another order, so their
/// results differ from seed to seed.  Seed 0 is the registry netlist.
///
/// The seed deliberately does not reach circuits::generate: a fresh
/// random netlist per seed moved ATPG time on one s5378-profile circuit
/// between 9.0 and 14.1 s over five seeds, so the spread across seeds
/// measured circuit luck, not the program (README.md).
netlist::Netlist make_instance(const std::string& name, std::uint64_t seed) {
  netlist::Netlist nl = circuits::make_circuit(name);
  if (seed == 0) return nl;
  util::Rng rng(seed ^ util::hash_string(name));
  const auto shuffle = [&rng](std::vector<netlist::NetId>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng.next_u64() % i]);
    }
  };
  constexpr auto kUnmapped = static_cast<netlist::NetId>(-1);
  std::vector<netlist::NetId> map(nl.num_nets(), kUnmapped);
  netlist::Netlist out;
  std::vector<netlist::NetId> order = nl.inputs();
  shuffle(order);
  for (const netlist::NetId id : order) map[id] = out.add_input(nl.gate(id).name);

  // Kahn's algorithm, drawing the next gate at random among the ready ones.
  const auto& fanouts = nl.fanouts();
  std::vector<std::size_t> missing(nl.num_nets(), 0);
  std::vector<netlist::NetId> ready;
  for (netlist::NetId id = 0; id < nl.num_nets(); ++id) {
    if (map[id] != kUnmapped) continue;
    missing[id] = nl.gate(id).fanin.size();
    if (missing[id] == 0) ready.push_back(id);
  }
  const auto release = [&](netlist::NetId id) {
    for (const netlist::NetId f : fanouts[id]) {
      if (--missing[f] == 0) ready.push_back(f);
    }
  };
  for (const netlist::NetId id : order) release(id);
  while (!ready.empty()) {
    const std::size_t k = rng.next_u64() % ready.size();
    const netlist::NetId id = ready[k];
    ready[k] = ready.back();
    ready.pop_back();
    std::vector<netlist::NetId> fanin;
    for (const netlist::NetId f : nl.gate(id).fanin) fanin.push_back(map[f]);
    shuffle(fanin);
    map[id] = out.add_gate(nl.gate(id).type, nl.gate(id).name, fanin);
    release(id);
  }
  order = nl.outputs();
  shuffle(order);
  for (const netlist::NetId id : order) out.mark_output(map[id]);
  out.validate();
  return out;
}

/// Order-free form of a netlist: one sorted line per net and output, with
/// sorted fanin names (every gate type is commutative in its fanins).
std::vector<std::string> canonical(const netlist::Netlist& nl) {
  std::vector<std::string> lines;
  for (netlist::NetId id = 0; id < nl.num_nets(); ++id) {
    const netlist::Gate& g = nl.gate(id);
    std::vector<std::string> fanin;
    for (const netlist::NetId f : g.fanin) fanin.push_back(nl.gate(f).name);
    std::sort(fanin.begin(), fanin.end());
    std::string line = g.name + "=" + netlist::gate_type_name(g.type);
    for (const std::string& f : fanin) line += " " + f;
    lines.push_back(std::move(line));
  }
  for (const netlist::NetId id : nl.outputs()) {
    lines.push_back("OUTPUT " + nl.gate(id).name);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

/// What one batch produced.  The three sums are deterministic at a fixed
/// seed and must repeat exactly from batch to batch.
struct Batch {
  double wall_s = 0, cpu_s = 0;
  std::size_t runs = 0, failed = 0;
  std::size_t reseedings = 0, test_length = 0, faults_targeted = 0;
};

/// Per-layer data of the traced iteration: counts read from the result
/// structs, and the registry delta from set-up start to the end of the
/// timed window (the output checks stay out of it).
struct Traced {
  std::map<std::string, std::uint64_t> counts;
  obs::MetricsSnapshot before;
  obs::MetricsSnapshot delta;
};

struct Failures {
  std::vector<std::string> messages;  // the first few, for the log

  void add(Batch& b, std::string msg) {
    ++b.failed;
    if (messages.size() < 20) messages.push_back(std::move(msg));
  }
};

/// Runs `body` as the batch's timed window.
void timed(Batch& b, Traced* t, const std::function<void()>& body) {
  const double w0 = now_s(), c0 = cpu_s();
  {
    obs::Span span("bench.timed");
    body();
  }
  b.wall_s = now_s() - w0;
  b.cpu_s = cpu_s() - c0;
  if (t != nullptr) {
    t->delta = obs::Registry::global().snapshot().delta_from(t->before);
  }
}

void count_circuit(Traced* t, const reseed::Pipeline& p) {
  if (t == nullptr) return;
  auto& c = t->counts;
  const atpg::AtpgResult& a = p.atpg_result();
  c["netlist.gates"] += p.circuit().num_gates();
  c["fault.collapsed"] += a.verdict.size();
  c["atpg.patterns"] += a.patterns.size();
  // Every PODEM call ends as a pattern, a redundancy proof or an abort,
  // and with SAT escalation each abort as a SAT pattern, a SAT proof or
  // a final abort (src/atpg/engine.cpp).
  c["atpg.podem_attempts"] +=
      a.deterministic_patterns + a.redundant_faults + a.aborted_faults;
  c["atpg.podem_aborts"] +=
      a.sat_detected_faults + a.sat_redundant_faults + a.aborted_faults;
  c["atpg.redundant"] += a.redundant_faults;
}

void count_run(Traced* t, const reseed::ReseedingSolution& s,
               std::size_t cycles) {
  if (t == nullptr) return;
  auto& c = t->counts;
  c["reseed.rows"] += s.initial_rows;
  c["reseed.candidate_patterns"] += s.initial_rows * cycles;
  c["cover.reduction_iterations"] += s.reduction_iterations;
  c["cover.necessary"] += s.necessary_count;
  c["cover.residual_cells"] += s.residual_rows * s.residual_cols;
  c["cover.exact_nodes"] += s.solver_nodes;
}

/// One Pipeline run of a batch, with its output checks.  A run that
/// throws (or whose circuit failed to prepare, p == nullptr) keeps the
/// message in `error` and fails its check.
struct Run {
  std::string circuit;
  const reseed::Pipeline* p = nullptr;
  tpg::TpgKind kind = tpg::TpgKind::kAdder;
  std::size_t cycles = 0;
  std::string error;
  std::pair<reseed::InitialReseeding, reseed::ReseedingSolution> result;

  void execute() {
    if (p == nullptr) return;
    obs::Span span("bench.run_detailed");
    try {
      result = p->run_detailed(kind, cycles);
    } catch (const std::exception& e) {
      error = e.what();
    }
  }

  /// Returns "" when every check passes.  The ROM replay expands the
  /// image triplet by triplet and simulates it with FaultSim::run,
  /// independent of the builder's lane-packed path.
  std::string check(Traced* t) const {
    const auto& [initial, sol] = result;
    const std::string label = circuit + "/" + tpg::tpg_kind_name(kind) +
                              "/T" + std::to_string(cycles);
    if (!error.empty()) return label + ": " + error;
    if (p->atpg_result().aborted_faults != 0) {
      return label + ": ATPG aborted " +
             std::to_string(p->atpg_result().aborted_faults) + " faults";
    }
    if (sol.faults_covered != sol.faults_targeted) {
      return label + ": covers " + std::to_string(sol.faults_covered) +
             " of " + std::to_string(sol.faults_targeted) + " targeted faults";
    }
    if (!reseed::solution_is_minimal(initial, sol)) {
      return label + ": solution is not minimal";
    }
    obs::Span span("bench.replay");
    const std::size_t width = p->circuit().num_inputs();
    const reseed::RomImage rom =
        reseed::to_rom_image(sol, p->name(), tpg::tpg_kind_name(kind), width);
    const auto gen = tpg::make_tpg(kind, width);
    sim::PatternSet patterns(width, 0);
    for (const tpg::Triplet& trip : rom.triplets) {
      patterns.append_all(tpg::expand_triplet(*gen, trip));
    }
    if (t != nullptr) t->counts["sim.replay_patterns"] += patterns.size();
    const std::size_t detected = p->fault_sim().run(patterns).num_detected();
    if (detected != p->faults().size()) {
      return label + ": ROM replay detects " + std::to_string(detected) +
             " of " + std::to_string(p->faults().size()) + " targeted faults";
    }
    return "";
  }
};

/// Checks every run on `pool` and adds their sums to `b`.
void check_runs(campaign::Scheduler& pool, const std::vector<Run>& runs,
                Batch& b, Traced* t, Failures& failures) {
  on_pool(pool, [&] {
    obs::Span span("bench.check");
    for (const Run& run : runs) {
      std::string err = run.check(t);
      if (!err.empty()) failures.add(b, std::move(err));
    }
  });
  for (const Run& run : runs) {
    count_run(t, run.result.second, run.cycles);
    b.reseedings += run.result.second.num_triplets();
    b.test_length += run.result.second.test_length;
  }
}

/// A workload: set-up builds the timed phase's inputs; batch runs the
/// timed phase once and checks it; a non-null Traced asks for per-layer
/// counts.
struct Workload {
  /// (registry circuit, instance seed) of every netlist the set-up makes.
  std::vector<std::pair<std::string, std::uint64_t>> instances;
  std::function<void()> setup;
  std::function<Batch(Traced*, Failures&)> batch;
  /// Runs after the traced window closes (sweep-mid only).
  std::function<void(Traced&, Batch&, Failures&)> after_trace;
};

/// `copies` instances of each registry circuit of at most 700 gates
/// (c432 ... s1423), consecutive per circuit.
std::vector<std::pair<std::string, std::uint64_t>> mid_instances(
    std::uint64_t seed, std::uint64_t copies) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& prof : circuits::benchmark_profiles()) {
    if (prof.name == "c17" || prof.num_gates > 700) continue;
    for (std::uint64_t i = 0; i < copies; ++i) {
      out.emplace_back(prof.name, seed * copies + i);
    }
  }
  return out;
}

// -- flow-mid: netlist to ROM per TPG, one thread (ATPG-bound) ----------

Workload flow_mid(campaign::Scheduler& pool, std::uint64_t seed) {
  auto netlists = std::make_shared<std::vector<netlist::Netlist>>();
  Workload w;
  // Two instances per circuit: one instance's test length moves by ~20%
  // from seed to seed, and a batch runs only once per run.
  w.instances = mid_instances(seed, 2);
  w.setup = [netlists, inst = w.instances] {
    netlists->clear();
    for (const auto& [name, s] : inst) netlists->push_back(make_instance(name, s));
  };
  w.batch = [&pool, netlists, inst = w.instances](Traced* t,
                                                  Failures& failures) {
    std::vector<netlist::Netlist> inputs = *netlists;
    std::vector<reseed::PreparedCircuit> prepared(inputs.size());
    std::vector<Run> runs;
    Batch b;
    b.runs = inputs.size() * std::size(kTpgs);
    timed(b, t, [&] {
      on_pool(pool, [&] {
        for (std::size_t i = 0; i < inputs.size(); ++i) {
          const std::string& name = inst[i].first;
          std::string error;
          try {
            obs::Span span("bench.prepare");
            prepared[i] = reseed::Pipeline::prepare(std::move(inputs[i]), name);
          } catch (const std::exception& e) {
            error = std::string("prepare: ") + e.what();
          }
          for (const tpg::TpgKind kind : kTpgs) {
            runs.push_back({name, prepared[i].get(), kind, 64, error, {}});
            runs.back().execute();
          }
        }
      });
    });
    check_runs(pool, runs, b, t, failures);
    for (const auto& p : prepared) {
      if (p == nullptr) continue;
      count_circuit(t, *p);
      b.faults_targeted += p->faults().size();
    }
    return b;
  };
  return w;
}

// -- tradeoff-mid: Figure 2's T axis x Table 1's TPG axis (builder-bound) -

Workload tradeoff_mid(campaign::Scheduler& pool, std::uint64_t seed) {
  static const std::size_t kCycles[] = {1, 4, 16, 64, 128, 256, 512, 1024};
  auto prepared = std::make_shared<std::vector<reseed::PreparedCircuit>>();
  Workload w;
  // s1238 is the paper's Figure 2 circuit.  Seven circuits, not three:
  // one circuit's test length at high T moves by ~20% between instances.
  for (const char* name :
       {"c2670", "s1238", "s1423", "s838", "s953", "s641", "c1355"}) {
    w.instances.emplace_back(name, seed);
  }
  w.setup = [&pool, prepared, inst = w.instances] {
    prepared->clear();
    for (const auto& [name, s] : inst) {
      netlist::Netlist nl = make_instance(name, s);
      on_pool(pool, [&] {
        obs::Span span("bench.prepare");
        prepared->push_back(reseed::Pipeline::prepare(std::move(nl), name));
      });
    }
  };
  w.batch = [&pool, prepared](Traced* t, Failures& failures) {
    std::vector<Run> runs;
    for (const auto& p : *prepared) {
      for (const tpg::TpgKind kind : kTpgs) {
        for (const std::size_t c : kCycles) {
          runs.push_back({p->name(), p.get(), kind, c, {}, {}});
        }
      }
    }
    Batch b;
    b.runs = runs.size();
    timed(b, t, [&] {
      on_pool(pool, [&] {
        for (Run& run : runs) run.execute();
      });
    });
    check_runs(pool, runs, b, t, failures);
    for (const auto& p : *prepared) {
      count_circuit(t, *p);
      b.faults_targeted += p->faults().size();
    }
    return b;
  };
  return w;
}

// -- sweep-mid: Table 1 through the campaign layer on two workers -------

/// Report checks: every run ok with complete coverage, and on each
/// (circuit, TPG) an optimal exact solve selects no more than greedy.
void check_report(const campaign::Report& report, Batch& b,
                  Failures& failures) {
  std::map<std::pair<std::string, int>, const campaign::RunResult*> exact;
  for (const campaign::RunResult& r : report.runs) {
    const std::string label = campaign::run_label(r.spec);
    if (!r.ok) {
      failures.add(b, label + ": " + r.error);
    } else if (r.faults_covered != r.faults_targeted) {
      failures.add(b, label + ": incomplete coverage");
    }
    if (r.spec.solver == reseed::SolverChoice::kExact) {
      exact[{r.spec.circuit, static_cast<int>(r.spec.tpg)}] = &r;
    }
  }
  for (const campaign::RunResult& r : report.runs) {
    if (r.spec.solver != reseed::SolverChoice::kGreedy) continue;
    const auto it = exact.find({r.spec.circuit, static_cast<int>(r.spec.tpg)});
    if (it != exact.end() && it->second->solver_optimal &&
        it->second->num_triplets > r.num_triplets) {
      failures.add(b, campaign::run_label(r.spec) +
                          ": greedy beats an optimal exact solve");
    }
  }
  if (report.checkpoint.written != report.runs.size()) {
    failures.add(b, "wrote " + std::to_string(report.checkpoint.written) +
                        " checkpoints for " +
                        std::to_string(report.runs.size()) + " runs");
  }
}

Workload sweep_mid(campaign::Scheduler& pool, std::uint64_t seed,
                   const std::string& work_dir) {
  const std::string dir = work_dir + "/sweep-mid";
  auto spec = std::make_shared<campaign::CampaignSpec>();
  spec->tpgs.assign(std::begin(kTpgs), std::end(kTpgs));
  spec->cycle_values = {64};
  spec->solvers = {reseed::SolverChoice::kExact, reseed::SolverChoice::kGreedy};
  auto report = std::make_shared<campaign::Report>();
  Workload w;
  w.instances = mid_instances(seed, 1);
  for (const auto& inst : w.instances) {
    // A campaign names a .bench circuit by its path, and Pipeline seeds
    // ATPG and sigma from the name: the path string must never change.
    spec->circuits.push_back(dir + "/" + inst.first + ".bench");
  }
  w.setup = [dir, spec, inst = w.instances] {
    fs::remove_all(dir);
    fs::create_directories(dir);
    for (std::size_t i = 0; i < inst.size(); ++i) {
      util::io::write_file_atomic(
          "bench.write", spec->circuits[i],
          netlist::to_bench_string(make_instance(inst[i].first, inst[i].second)));
    }
  };
  w.batch = [&pool, spec, dir, report](Traced* t, Failures& failures) {
    // Start clean: leftover checkpoints would resume and skip the work.
    const std::string cache_dir = dir + "/cache", ckpt_dir = dir + "/ckpt";
    for (const std::string& d : {cache_dir, ckpt_dir}) {
      fs::remove_all(d);
      fs::create_directories(d);
    }
    campaign::CampaignOptions opts;
    reseed::MatrixCacheOptions mopts;
    mopts.dir = cache_dir;
    opts.matrix_cache = std::make_shared<reseed::MatrixCache>(mopts);
    opts.checkpoint_dir = ckpt_dir;
    // Called from main like a user's program: main waits in the
    // campaign's TaskGroup while the two workers run every task.
    Batch b;
    timed(b, t, [&] {
      {
        obs::Span span("bench.campaign");
        *report = campaign::run_campaign(*spec, opts, &pool);
      }
      obs::Span span("bench.report_write");
      util::io::write_file_atomic("report.write", dir + "/report.json",
                                  report->to_json());
    });
    if (t != nullptr) {
      t->counts["matrix_cache.hits"] += report->cache.hits;
      t->counts["matrix_cache.misses"] += report->cache.misses;
    }
    b.runs = report->runs.size();
    {
      obs::Span span("bench.check");
      check_report(*report, b, failures);
    }
    std::map<std::string, std::size_t> targeted;
    for (const campaign::RunResult& r : report->runs) {
      b.reseedings += r.num_triplets;
      b.test_length += r.test_length;
      targeted[r.spec.circuit] = r.faults_targeted;
    }
    for (const auto& entry : targeted) b.faults_targeted += entry.second;
    return b;
  };
  // The report carries neither AtpgResult nor the cover diagnostics, so
  // the traced run prepares and runs every point again through Pipeline,
  // after the traced window, and requires the campaign's solutions.
  w.after_trace = [&pool, spec, report](Traced& t, Batch& b,
                                        Failures& failures) {
    std::vector<reseed::PreparedCircuit> prepared(spec->circuits.size());
    on_pool(pool, [&] {
      campaign::TaskGroup group(pool);
      for (std::size_t i = 0; i < prepared.size(); ++i) {
        group.run([&, i] {
          prepared[i] = reseed::Pipeline::prepare(
              campaign::load_circuit(spec->circuits[i]), spec->circuits[i],
              spec->pipeline);
        });
      }
      group.wait();
    });
    for (const auto& p : prepared) count_circuit(&t, *p);
    on_pool(pool, [&] {
      for (const campaign::RunResult& r : report->runs) {
        const auto ci = std::find(spec->circuits.begin(), spec->circuits.end(),
                                  r.spec.circuit) -
                        spec->circuits.begin();
        reseed::OptimizerOptions oopt = spec->pipeline.optimizer;
        oopt.solver = r.spec.solver;
        const reseed::ReseedingSolution sol =
            prepared[ci]->run(r.spec.tpg, r.spec.cycles, oopt);
        count_run(&t, sol, r.spec.cycles);
        if (sol.num_triplets() != r.num_triplets ||
            sol.test_length != r.test_length ||
            sol.faults_targeted != r.faults_targeted) {
          failures.add(b, campaign::run_label(r.spec) +
                              ": campaign result differs from Pipeline::run");
        }
      }
    });
  };
  return w;
}

// -- output ------------------------------------------------------------

void write_batch(util::JsonWriter& j, const Batch& b) {
  j.begin_object();
  j.key("wall_s");
  j.value_fixed(b.wall_s, 9);
  j.key("cpu_s");
  j.value_fixed(b.cpu_s, 6);
  const std::pair<const char*, std::size_t> counts[] = {
      {"runs", b.runs},
      {"failed", b.failed},
      {"reseedings", b.reseedings},
      {"test_length", b.test_length},
      {"faults_targeted", b.faults_targeted}};
  for (const auto& [k, v] : counts) {
    j.key(k);
    j.value(static_cast<std::uint64_t>(v));
  }
  j.end_object();
}

int run(const Args& a) {
  const std::size_t threads = a.workload == "sweep-mid" ? 2 : 1;
  campaign::Scheduler pool(threads);
  Workload w;
  if (a.workload == "flow-mid") {
    w = flow_mid(pool, a.seed);
  } else if (a.workload == "tradeoff-mid") {
    w = tradeoff_mid(pool, a.seed);
  } else if (a.workload == "sweep-mid") {
    w = sweep_mid(pool, a.seed, a.work_dir);
  } else {
    throw std::runtime_error("unknown workload " + a.workload);
  }

  // Self-test of the input generator: an instance is its registry
  // circuit in another order, never another circuit.
  Failures failures;
  Batch selftest;
  for (const auto& [name, s] : w.instances) {
    if (canonical(make_instance(name, s)) !=
        canonical(circuits::make_circuit(name))) {
      failures.add(selftest, "selftest: instance " + std::to_string(s) +
                                 " of " + name + " is another circuit");
    }
  }

  // setup_s is the median of several set-ups.  flow-mid's and sweep-mid's
  // take ~15 ms, where one slow repetition is common; tradeoff-mid's runs
  // ATPG on seven circuits, so it repeats only twice.
  const std::size_t setup_reps = a.workload == "tradeoff-mid" ? 2 : 15;
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < setup_reps; ++i) {
    const double t0 = now_s();
    w.setup();
    setup_s.push_back(now_s() - t0);
  }

  // As many whole batches as fit in --seconds, and at least one.
  std::vector<Batch> batches;
  double timed_total = 0;
  while (batches.empty() || timed_total + batches.back().wall_s <= a.seconds) {
    batches.push_back(w.batch(nullptr, failures));
    timed_total += batches.back().wall_s;
    std::cerr << "[perfbench] " << a.workload << " batch " << batches.size()
              << ": " << batches.back().wall_s << " s wall, "
              << batches.back().cpu_s << " s cpu\n";
  }
  const double rss_mb = peak_rss_mb();

  util::JsonWriter j;
  j.begin_object();
  j.key("workload");
  j.value(a.workload);
  j.key("threads");
  j.value(static_cast<std::uint64_t>(threads));
  j.key("selftest_failed");
  j.value(static_cast<std::uint64_t>(selftest.failed));
  j.key("setup_s");
  j.begin_array();
  for (const double s : setup_s) j.value_fixed(s, 9);
  j.end_array();
  j.key("peak_rss_mb");
  j.value_fixed(rss_mb, 3);
  j.key("batches");
  j.begin_array();
  for (const Batch& b : batches) write_batch(j, b);
  j.end_array();

  if (a.trace) {
    // One more iteration (set-up, batch, checks) with the tracer on.
    obs::Tracer& tracer = obs::Tracer::global();
    Traced t;
    tracer.clear();
    tracer.set_thread_name("main");
    t.before = obs::Registry::global().snapshot();
    tracer.enable();
    {
      obs::Span span("bench.setup");
      w.setup();
    }
    Batch traced = w.batch(&t, failures);
    tracer.disable();
    if (w.after_trace) w.after_trace(t, traced, failures);
    util::io::write_file_atomic("trace.write", a.raw + ".trace.json",
                                tracer.to_chrome_json());
    util::io::write_file_atomic("metrics.write", a.raw + ".metrics.json",
                                obs::metrics_to_json(t.delta));
    j.key("traced");
    write_batch(j, traced);
    j.key("counts");
    j.begin_object();
    for (const auto& [k, v] : t.counts) {
      j.key(k);
      j.value(v);
    }
    j.end_object();
  }

  j.key("failures");
  j.begin_array();
  for (const std::string& f : failures.messages) j.value(f);
  j.end_array();
  j.end_object();
  util::io::write_file_atomic("raw.write", a.raw, j.str() + "\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // The tracer and the registry must outlive every pool worker, so they
  // are built before the first pool starts: a function-local static built
  // after the workers is destroyed while they may still use it.
  obs::Tracer::global();
  obs::Registry::global();
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
}
