// fbist — command-line front end for the reseeding library.
//
// Subcommands:
//   info <circuit|file.bench>                circuit + fault statistics
//   atpg <circuit|file.bench>                run ATPG, print test set stats
//   reseed <circuit|file.bench> [options]    compute optimal reseeding
//       --tpg adder|subtracter|multiplier|lfsr   (default adder)
//       --cycles N                               (default 64)
//       --solver exact|greedy                    (default exact)
//       --out FILE                               write the ROM image
//   replay <circuit|file.bench> <rom-file>   reload a ROM image, expand it
//                                            and re-verify fault coverage
//   tradeoff <circuit|file.bench> [--tpg K]  print the T sweep curve
//   campaign [spec.txt] [options]            run a multi-circuit sweep on
//                                            the work-stealing pool
//       --circuits a,b,c     registry names and/or .bench paths
//       --tpgs k1,k2         TPG kinds               (default adder)
//       --cycles n1,n2       T values                (default 64)
//       --solvers s1,s2      exact|greedy            (default exact)
//       --jobs N             worker threads          (default: all cores)
//       --json FILE          write the campaign report as JSON
//       --timings            include wall-clock + jobs in the JSON
//       --cache DIR          detection-matrix cache directory: repeated
//                            campaigns reuse the on-disk matrices
//                            instead of re-simulating (within one
//                            campaign each circuit and TPG is built
//                            once, at its largest T, anyway)
//       --checkpoint DIR     persist each completed run as a versioned
//                            blob in DIR and, on startup, skip runs that
//                            already have one — a killed sweep resumes
//                            where it left off (blobs from a different
//                            spec are rejected; corrupt blobs are
//                            ignored and re-executed)
//       --shard I/N          execute only the I-th of N deterministic
//                            contiguous slices of the canonical run
//                            order (1-based); shards run on different
//                            processes/hosts and are folded by `merge`
//       --run-timeout MS     per-run wall-clock budget; each circuit and
//                            TPG's matrix build gets one such budget
//                            (an expired build fails all of its runs)
//                            and each run's solve its own; an expired
//                            run records the canonical failure
//                            "run timeout: exceeded MS ms", checkpoints
//                            like any other run, and the sweep continues
//       --sat-escalate on|off  SAT escalation of PODEM-aborted faults
//                            (default on): aborts become validated test
//                            patterns or redundancy certificates; the
//                            report's redundant/sat_detected columns
//                            stay deterministic at any --jobs value
//       --trace FILE         record scoped spans (pipeline stages, per-
//                            worker tasks, steals, cache/checkpoint
//                            events) and write a Chrome trace_event
//                            JSON loadable in Perfetto/chrome://tracing
//       --metrics FILE       write the campaign's metrics delta
//                            (scheduler/cache/simulator counters and
//                            latency histograms) as standalone JSON
//                            Neither flag changes the canonical report
//                            bytes.
//     Flags extend/override the spec file; each circuit is compiled and
//     ATPG-prepared once and shared by all of its runs.  Determinism
//     contract: the report is bit-identical for any --jobs value,
//     cached or not, resumed or not — and a report merged from shard
//     checkpoints is byte-identical to an uninterrupted single-process
//     run of the same spec.
//   merge <spec> --checkpoint DIR...         fold shard/checkpoint sets
//                                            into the complete report
//                                            (every run must have a blob
//                                            in some DIR; overlap is ok)
//   cache list|clear <dir>                   inspect / empty a cache dir
//   cache evict <dir> <key>                  drop one entry (16-hex key)
//   failpoints                               list fault-injection site names
//   gen <pi> <po> <gates> <seed>             emit a synthetic .bench to stdout
//   list                                     registry circuit names
//
// Fault injection: set FBIST_FAILPOINTS="site=err(p[,seed[,max]]);..."
// (see util/failpoint.h for the grammar; `fbist failpoints` lists the
// sites) to deterministically inject I/O failures and delays at the
// durable-I/O paths — the chaos CI job drives the whole sweep this way
// and asserts the report stays byte-identical.  Every file goes through
// util::io: output files (`--out`, `--json`) are written atomically
// under report.write, so a failed write exits 1 and leaves no file, and
// operator-named inputs (.bench circuits, ROMs, .scp instances, spec
// files) are read under spec.read.
//
// Circuit arguments name either a registry benchmark (c432, s1238, ...)
// or a path to an ISCAS .bench file (sequential files are scan-flattened).
// A flag or argument a subcommand does not read exits 1 naming it
// ("matrix does not take --solver"); none is silently dropped.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iostream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "atpg/scoap.h"
#include "campaign/checkpoint.h"
#include "campaign/runner.h"
#include "obs/diag.h"
#include "circuits/generator.h"
#include "circuits/registry.h"
#include "cover/greedy.h"
#include "cover/instance_io.h"
#include "netlist/bench_io.h"
#include "netlist/compiled.h"
#include "netlist/stats.h"
#include "reseed/matrix_cache.h"
#include "reseed/pipeline.h"
#include "reseed/report.h"
#include "reseed/serialize.h"
#include "reseed/tradeoff.h"
#include "util/failpoint.h"
#include "util/guarded_io.h"
#include "util/parse.h"
#include "util/table.h"

namespace {

using namespace fbist;

int usage() {
  std::cerr <<
      "usage: fbist <command> [args]\n"
      "  info <circuit>\n"
      "  atpg <circuit> [--sat-escalate on|off]\n"
      "  reseed <circuit> [--tpg K] [--cycles N] [--solver exact|greedy] [--out FILE]\n"
      "  replay <circuit> <rom-file>\n"
      "  tradeoff <circuit> [--tpg K]\n"
      "  matrix <circuit> [--tpg K] [--cycles N] [--out FILE]\n"
      "  solve <instance.scp> [--solver exact|greedy]\n"
      "  campaign [spec.txt] [--circuits a,b,c] [--tpgs k1,k2] [--cycles n1,n2]\n"
      "           [--solvers exact|greedy] [--jobs N] [--json FILE] [--timings]\n"
      "           [--cache DIR] [--checkpoint DIR] [--shard I/N]\n"
      "           [--run-timeout MS] [--sat-escalate on|off]\n"
      "           [--trace FILE] [--metrics FILE]\n"
      "  merge <spec.txt | --circuits ...> --checkpoint DIR [--checkpoint DIR2 ...]\n"
      "        [--json FILE] [--timings]\n"
      "  cache list <dir> | clear <dir> | evict <dir> <key>\n"
      "  failpoints\n"
      "  gen <pi> <po> <gates> <seed>\n"
      "  list\n"
      "circuit = registry name (see 'list') or a .bench file path\n"
      "env FBIST_FAILPOINTS = site=err(p[,seed[,max]]) | perm(...) | enospc(...)\n"
      "    | delay(ms[,max]) | off, pairs ';'-separated ('failpoints' lists sites)\n";
  return 2;
}

netlist::Netlist load_circuit(const std::string& arg) {
  return campaign::load_circuit(arg);
}

tpg::TpgKind parse_tpg(const std::string& name) {
  return campaign::parse_tpg_kind(name);
}

using util::parse_count;
using util::parse_unsigned;

/// Value of an on|off flag.
bool parse_on_off(const std::string& v, const char* flag) {
  if (v != "on" && v != "off") {
    throw std::runtime_error(std::string(flag) + ": expected on|off");
  }
  return v == "on";
}

struct Flags {
  std::string tpg = "adder";
  std::size_t cycles = 64;
  reseed::SolverChoice solver = reseed::SolverChoice::kExact;
  std::string out;
};

/// Parses the flags after `<cmd> <circuit>`.  A flag the subcommand
/// does not read (one outside `accepted`) is an error naming it, never
/// silently dropped.
Flags parse_flags(const std::vector<std::string>& args,
                  std::initializer_list<const char*> accepted) {
  Flags f;
  for (std::size_t i = 3; i < args.size(); i += 2) {
    const std::string& flag = args[i];
    if (flag != "--tpg" && flag != "--cycles" && flag != "--solver" &&
        flag != "--out") {
      throw std::runtime_error("unknown flag: " + flag);
    }
    if (std::find(accepted.begin(), accepted.end(), flag) == accepted.end()) {
      throw std::runtime_error(args[1] + " does not take " + flag);
    }
    if (i + 1 >= args.size()) throw std::runtime_error(flag + " needs a value");
    const std::string& value = args[i + 1];
    if (flag == "--tpg") f.tpg = value;
    else if (flag == "--cycles") f.cycles = parse_count(value, "--cycles");
    else if (flag == "--solver") f.solver = campaign::parse_solver(value);
    else f.out = value;
  }
  return f;
}

/// Rejects any argument past the `count` a subcommand reads.
void no_more_args(const std::vector<std::string>& args, std::size_t count) {
  if (args.size() > count) {
    throw std::runtime_error(args[1] + " does not take " + args[count]);
  }
}

int cmd_list() {
  for (const auto& p : circuits::benchmark_profiles()) {
    std::cout << p.name << "  (" << p.num_inputs << " PI, " << p.num_outputs
              << " PO, ~" << p.num_gates << " gates"
              << (p.sequential_origin ? ", full-scan" : "") << ")\n";
  }
  return 0;
}

int cmd_info(const std::string& arg) {
  const auto nl = load_circuit(arg);
  // One compile, structure only: stats, collapsing and SCOAP walk no
  // cone.
  const netlist::CompiledCircuit cc(nl, /*build_cone_slices=*/false);
  std::cout << netlist::stats_to_string(netlist::compute_stats(cc), arg);
  const auto faults = fault::FaultList::collapsed(cc);
  std::cout << "  collapsed stuck-at faults: " << faults.size() << "\n";
  const auto scoap = atpg::compute_scoap(cc);
  std::cout << "  " << atpg::scoap_summary(scoap) << "\n";
  // The five hardest faults (SCOAP proxy) — the ones random testing
  // stalls on.
  const auto order = atpg::hardest_first(scoap, faults);
  std::cout << "  hardest faults:";
  for (std::size_t i = 0; i < order.size() && i < 5; ++i) {
    std::cout << " " << fault_name(nl, faults[order[i]]) << "(cost "
              << scoap.fault_difficulty(faults[order[i]]) << ")";
  }
  std::cout << "\n";
  return 0;
}

int cmd_atpg(const std::string& arg, const std::vector<std::string>& args) {
  reseed::PipelineOptions opts;
  for (std::size_t i = 3; i < args.size(); ++i) {
    if (args[i] != "--sat-escalate") {
      throw std::runtime_error("unknown flag: " + args[i]);
    }
    if (i + 1 >= args.size()) {
      throw std::runtime_error("--sat-escalate needs a value");
    }
    opts.atpg.sat_escalate = parse_on_off(args[++i], "--sat-escalate");
  }
  reseed::Pipeline p(load_circuit(arg), arg, opts);
  const auto& r = p.atpg_result();
  std::cout << arg << ": " << p.atpg_patterns().size() << " patterns ("
            << r.random_patterns_used << " random-phase, "
            << r.deterministic_patterns << " PODEM or SAT)\n"
            << "  testable coverage: "
            << util::Table::fmt(r.testable_coverage_percent(), 2) << "%\n"
            << "  redundant faults: " << r.redundant_faults
            << ", aborted: " << r.aborted_faults << "\n"
            << "  SAT escalation: " << r.sat_detected_faults
            << " detected, " << r.sat_redundant_faults
            << " of the redundant certified by SAT\n";
  return 0;
}

int cmd_reseed(const std::string& arg, const Flags& f) {
  reseed::PipelineOptions opts;
  opts.optimizer.solver = f.solver;
  reseed::Pipeline p(load_circuit(arg), arg, opts);
  const auto sol = p.run(parse_tpg(f.tpg), f.cycles);
  std::cout << reseed::solution_to_string(
      sol, arg + " / " + f.tpg + " TPG / T=" + std::to_string(f.cycles) + ":");
  if (!f.out.empty()) {
    const auto rom = reseed::to_rom_image(sol, arg, f.tpg,
                                          p.circuit().num_inputs());
    util::io::write_file_atomic("report.write", f.out,
                                reseed::rom_to_string(rom));
    std::cout << "ROM image written to " << f.out << " (" << rom.rom_bits()
              << " bits)\n";
  }
  return sol.faults_covered == sol.faults_targeted ? 0 : 1;
}

int cmd_replay(const std::string& arg, const std::string& rom_path) {
  const auto rom =
      reseed::rom_from_string(util::io::read_file("spec.read", rom_path));
  reseed::Pipeline p(load_circuit(arg), arg);
  if (rom.width != p.circuit().num_inputs()) {
    obs::diag(obs::Severity::kError, "replay",
              "ROM width " + std::to_string(rom.width) +
                  " != circuit PI count " +
                  std::to_string(p.circuit().num_inputs()));
    return 1;
  }
  const auto tpg = tpg::make_tpg(parse_tpg(rom.tpg_name), rom.width);
  sim::PatternSet all(rom.width, 0);
  for (const auto& t : rom.triplets) {
    all.append_all(tpg::expand_triplet(*tpg, t));
  }
  const auto r = p.fault_sim().run(all);
  std::cout << "replayed " << rom.triplets.size() << " triplets ("
            << all.size() << " patterns): " << r.num_detected() << "/"
            << p.faults().size() << " target faults detected ("
            << util::Table::fmt(r.coverage_percent(p.faults().size()), 2)
            << "%)\n";
  return r.num_detected() == p.faults().size() ? 0 : 1;
}

int cmd_tradeoff(const std::string& arg, const Flags& f) {
  reseed::Pipeline p(load_circuit(arg), arg);
  const auto tpg = tpg::make_tpg(parse_tpg(f.tpg), p.circuit().num_inputs());
  reseed::TradeoffOptions topts;
  topts.cycle_values = {1, 4, 16, 64, 256, 1024};
  topts.builder.shared_sigma = true;
  const auto points =
      reseed::tradeoff_sweep(p.fault_sim(), *tpg, p.atpg_patterns(), topts);
  util::Table table(arg + " trade-off (" + f.tpg + ")");
  table.set_header({"T", "#reseedings", "test length"});
  for (const auto& pt : points) {
    table.add_row({std::to_string(pt.cycles_per_triplet),
                   std::to_string(pt.num_triplets),
                   std::to_string(pt.test_length)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_matrix(const std::string& arg, const Flags& f) {
  reseed::Pipeline p(load_circuit(arg), arg);
  const auto init = p.build(parse_tpg(f.tpg), f.cycles);
  if (f.out.empty()) {
    std::cout << cover::instance_to_string(init.matrix);
  } else {
    util::io::write_file_atomic("report.write", f.out,
                                cover::instance_to_string(init.matrix));
    std::cout << "detection matrix (" << init.matrix.num_rows() << "x"
              << init.matrix.num_cols() << ") written to " << f.out << "\n";
  }
  return 0;
}

int cmd_solve(const std::string& path, const Flags& f) {
  const auto m =
      cover::instance_from_string(util::io::read_file("spec.read", path));
  if (!m.all_columns_coverable()) {
    obs::diag(obs::Severity::kError, "solve",
              "instance has uncoverable columns");
    return 1;
  }
  if (f.solver == reseed::SolverChoice::kGreedy) {
    const auto s = cover::solve_greedy(m);
    std::cout << "greedy cover: " << s.rows.size() << " rows\n";
  } else {
    const auto s = cover::solve_exact(m);
    std::cout << "exact cover: " << s.rows.size() << " rows ("
              << s.nodes << " nodes, "
              << (s.proven_optimal ? "optimal" : "budget-limited") << ")\nrows:";
    for (const auto r : s.rows) std::cout << ' ' << r;
    std::cout << "\n";
  }
  return 0;
}

std::vector<std::string> split_commas(const std::string& arg) {
  std::vector<std::string> out;
  std::istringstream ss(arg);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Everything the campaign-family subcommands (`campaign`, `merge`)
/// parse from the command line.
struct CampaignArgs {
  campaign::CampaignSpec spec;
  campaign::CampaignOptions copts;
  std::string json_path;
  bool timings = false;
  std::vector<std::string> checkpoint_dirs;  // repeatable for `merge`
};

CampaignArgs parse_campaign_args(const std::vector<std::string>& args) {
  CampaignArgs out;
  // Pass 1: a positional spec file (if any) provides the base spec;
  // --flags then extend the circuit list and override the other lists
  // regardless of argument order.  A second positional argument is an
  // error, not a spec file that replaces the first.
  const std::string* spec_file = nullptr;
  for (std::size_t i = 2; i < args.size(); ++i) {
    if (args[i].rfind("--", 0) == 0) {
      if (args[i] != "--timings") ++i;  // skip the flag's value
      continue;
    }
    if (spec_file != nullptr) {
      throw std::runtime_error(args[1] + " does not take " + args[i]);
    }
    spec_file = &args[i];
  }
  if (spec_file != nullptr) out.spec = campaign::parse_spec_file(*spec_file);

  for (std::size_t i = 2; i < args.size(); ++i) {
    auto need_value = [&](const char* flag) -> const std::string& {
      if (i + 1 >= args.size()) {
        throw std::runtime_error(std::string(flag) + " needs a value");
      }
      return args[++i];
    };
    if (args[i] == "--circuits") {
      for (auto& c : split_commas(need_value("--circuits"))) {
        out.spec.circuits.push_back(c);
      }
    } else if (args[i] == "--tpgs") {
      out.spec.tpgs.clear();
      for (auto& t : split_commas(need_value("--tpgs"))) {
        out.spec.tpgs.push_back(campaign::parse_tpg_kind(t));
      }
    } else if (args[i] == "--cycles") {
      out.spec.cycle_values.clear();
      for (auto& c : split_commas(need_value("--cycles"))) {
        out.spec.cycle_values.push_back(parse_count(c, "--cycles"));
      }
    } else if (args[i] == "--solvers" || args[i] == "--solver") {
      out.spec.solvers.clear();
      for (auto& s : split_commas(need_value("--solvers"))) {
        out.spec.solvers.push_back(campaign::parse_solver(s));
      }
    } else if (args[i] == "--jobs") {
      out.copts.jobs = parse_count(need_value("--jobs"), "--jobs");
      if (out.copts.jobs > 256) {
        throw std::runtime_error("--jobs: more than 256 workers requested");
      }
    } else if (args[i] == "--json") {
      out.json_path = need_value("--json");
    } else if (args[i] == "--timings") {
      out.timings = true;
    } else if (args[i] == "--cache") {
      reseed::MatrixCacheOptions mopts;
      mopts.dir = need_value("--cache");
      out.copts.matrix_cache = std::make_shared<reseed::MatrixCache>(mopts);
    } else if (args[i] == "--checkpoint") {
      out.checkpoint_dirs.push_back(need_value("--checkpoint"));
    } else if (args[i] == "--trace") {
      out.copts.trace_file = need_value("--trace");
    } else if (args[i] == "--metrics") {
      out.copts.metrics_file = need_value("--metrics");
    } else if (args[i] == "--shard") {
      // "I/N", 1-based: --shard 2/3 executes the second of three
      // deterministic contiguous slices of the canonical run order.
      std::tie(out.copts.shard_index, out.copts.shard_count) =
          campaign::parse_shard_arg(need_value("--shard"));
    } else if (args[i] == "--sat-escalate") {
      out.spec.pipeline.atpg.sat_escalate =
          parse_on_off(need_value("--sat-escalate"), "--sat-escalate");
    } else if (args[i] == "--run-timeout") {
      out.copts.run_timeout_ms =
          campaign::parse_run_timeout_arg(need_value("--run-timeout"));
    } else if (args[i].rfind("--", 0) == 0) {
      throw std::runtime_error("unknown flag: " + args[i]);
    }
  }
  return out;
}

void print_report(const campaign::Report& report, const std::string& json_path,
                  bool timings) {
  std::cout << report.summary();
  if (report.cache.enabled) {
    std::cout << "matrix cache: " << report.cache.hits << " hits, "
              << report.cache.misses << " misses, " << report.cache.stores
              << " stored\n";
  }
  if (report.checkpoint.enabled) {
    std::cout << "checkpoints: " << report.checkpoint.resumed << " resumed, "
              << report.checkpoint.executed << " executed, "
              << report.checkpoint.written << " written";
    if (report.checkpoint.corrupt != 0) {
      std::cout << " (" << report.checkpoint.corrupt << " corrupt ignored)";
    }
    std::cout << "\n";
  }
  if (report.shard_count > 1) {
    std::cout << "shard " << report.shard_index + 1 << "/"
              << report.shard_count << ": " << report.runs.size()
              << " of the sweep's runs\n";
  }
  if (!json_path.empty()) {
    // Atomic + retried ("report.write" failpoint): a torn report file
    // would defeat the byte-identity checks downstream tooling runs.
    util::io::write_file_atomic("report.write", json_path,
                                report.to_json(timings));
    std::cout << "campaign report written to " << json_path << " ("
              << report.runs.size() << " runs)\n";
  }
}

int cmd_campaign(const std::vector<std::string>& args) {
  CampaignArgs a = parse_campaign_args(args);
  if (a.checkpoint_dirs.size() > 1) {
    throw std::runtime_error(
        "campaign: one --checkpoint directory per process (merge folds "
        "several)");
  }
  if (!a.checkpoint_dirs.empty()) {
    a.copts.checkpoint_dir = a.checkpoint_dirs.front();
  }
  const campaign::Report report = campaign::run_campaign(a.spec, a.copts);
  print_report(report, a.json_path, a.timings);
  return report.all_ok() ? 0 : 1;
}

int cmd_merge(const std::vector<std::string>& args) {
  const CampaignArgs a = parse_campaign_args(args);
  if (a.checkpoint_dirs.empty()) {
    throw std::runtime_error(
        "merge: at least one --checkpoint DIR is required");
  }
  if (a.copts.jobs != 0 || a.copts.shard_count != 1 ||
      a.copts.matrix_cache != nullptr || a.copts.run_timeout_ms != 0 ||
      !a.copts.trace_file.empty() || !a.copts.metrics_file.empty()) {
    throw std::runtime_error(
        "merge folds existing checkpoints; --jobs/--shard/--cache/"
        "--run-timeout/--trace/--metrics do not apply");
  }
  // Determinism contract: the merged report is byte-identical to an
  // uninterrupted single-process run of the same spec.
  const campaign::Report report =
      campaign::merge_checkpoints(a.spec, a.checkpoint_dirs);
  print_report(report, a.json_path, a.timings);
  return report.all_ok() ? 0 : 1;
}

int cmd_cache(const std::vector<std::string>& args) {
  if (args.size() < 4) return usage();
  const std::string& action = args[2];
  const std::string& dir = args[3];
  if (action == "list" || action == "clear") no_more_args(args, 4);
  if (action == "list") {
    const auto entries = reseed::MatrixCache::list_dir(dir);
    std::uintmax_t total = 0;
    for (const auto& e : entries) {
      std::cout << reseed::MatrixCache::key_hex(e.key) << "  " << e.bytes
                << " bytes\n";
      total += e.bytes;
    }
    std::cout << entries.size() << " entries, " << total << " bytes in " << dir
              << "\n";
    return 0;
  }
  if (action == "clear") {
    std::cout << "evicted " << reseed::MatrixCache::clear_dir(dir)
              << " entries from " << dir << "\n";
    return 0;
  }
  if (action == "evict") {
    if (args.size() < 5) return usage();
    no_more_args(args, 5);
    const std::string& hex = args[4];
    if (hex.size() != 16 ||
        hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
      throw std::runtime_error("cache evict: key must be 16 lowercase hex digits");
    }
    const auto key = static_cast<reseed::MatrixCache::Key>(
        std::stoull(hex, nullptr, 16));
    if (!reseed::MatrixCache::evict_file(dir, key)) {
      throw std::runtime_error("cache evict: no entry " + hex + " in " + dir);
    }
    std::cout << "evicted " << hex << " from " << dir << "\n";
    return 0;
  }
  return usage();
}

int cmd_failpoints() {
  // One site per line, sorted — the chaos CI job diffs this against the
  // spec it arms, so adding a site without chaos coverage fails CI.
  if (!util::failpoint::compiled_in()) {
    obs::diag(obs::Severity::kWarn, "failpoint",
              "this build has failpoints compiled out (FBIST_FAILPOINTS=OFF); "
              "the sites below are inert");
  }
  for (const auto& site : util::failpoint::known_sites()) {
    std::cout << site << "\n";
  }
  return 0;
}

int cmd_gen(const std::vector<std::string>& args) {
  if (args.size() < 6) return usage();
  no_more_args(args, 6);
  circuits::GeneratorSpec spec;
  spec.num_inputs = parse_count(args[2], "<pi>");
  spec.num_outputs = parse_count(args[3], "<po>");
  spec.num_gates = parse_count(args[4], "<gates>");
  spec.seed = parse_unsigned(args[5], "<seed>");
  spec.layers = 8 + spec.num_gates / 150;
  std::cout << netlist::to_bench_string(circuits::generate(spec));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv, argv + argc);
  // Arm fault injection before any subcommand touches the disk; a
  // malformed spec is a usage error (exit 2), reported with the full
  // grammar so the operator can fix it without reading the header.
  try {
    fbist::util::failpoint::configure_from_env();
  } catch (const std::exception& e) {
    fbist::obs::diag(fbist::obs::Severity::kError, "failpoint", e.what());
    return 2;
  }
  if (args.size() < 2) return usage();
  const std::string& cmd = args[1];
  try {
    if (cmd == "list" || cmd == "failpoints") {
      no_more_args(args, 2);
      return cmd == "list" ? cmd_list() : cmd_failpoints();
    }
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "campaign") return cmd_campaign(args);
    if (cmd == "merge") return cmd_merge(args);
    if (cmd == "cache") return cmd_cache(args);
    if (args.size() < 3) return usage();
    const std::string& circuit = args[2];
    if (cmd == "info") {
      no_more_args(args, 3);
      return cmd_info(circuit);
    }
    if (cmd == "atpg") return cmd_atpg(circuit, args);
    if (cmd == "reseed") {
      return cmd_reseed(circuit,
                        parse_flags(args, {"--tpg", "--cycles", "--solver", "--out"}));
    }
    if (cmd == "replay") {
      if (args.size() < 4) return usage();
      no_more_args(args, 4);
      return cmd_replay(circuit, args[3]);
    }
    // tradeoff runs a fixed T series with the exact solver and prints
    // its table, so it reads only --tpg.
    if (cmd == "tradeoff") return cmd_tradeoff(circuit, parse_flags(args, {"--tpg"}));
    if (cmd == "matrix") {
      return cmd_matrix(circuit, parse_flags(args, {"--tpg", "--cycles", "--out"}));
    }
    if (cmd == "solve") return cmd_solve(circuit, parse_flags(args, {"--solver"}));
    return usage();
  } catch (const std::exception& e) {
    obs::diag(obs::Severity::kError, "cli", e.what());
    return 1;
  }
}
