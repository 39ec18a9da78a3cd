// Run the full reseeding flow on any ISCAS .bench file.
//
// Sequential files are accepted: `Q = DFF(D)` flip-flops are scan-
// flattened on the fly (Q -> scan-in PI, D -> scan-out PO), which is the
// full-scan treatment the paper applies to the ISCAS'89 circuits.  Point
// this at a real c432.bench / s1238.bench if you have the ISCAS files.
// The file is loaded the way campaigns load circuits
// (campaign::load_circuit, read through util::io), so a registry name
// such as c432 works too.
//
//   $ ./bench_file_flow ../data/demo_seq.bench adder 32
#include <cstdlib>
#include <iostream>
#include <string>

#include "campaign/spec.h"
#include "netlist/stats.h"
#include "reseed/pipeline.h"
#include "reseed/report.h"

int main(int argc, char** argv) {
  using namespace fbist;

  if (argc < 2) {
    std::cerr << "usage: bench_file_flow <file.bench> [tpg] [cycles]\n";
    return 1;
  }
  const std::string path = argv[1];
  const std::string tpg_name = argc > 2 ? argv[2] : "adder";
  const std::size_t cycles =
      argc > 3 ? static_cast<std::size_t>(std::atoi(argv[3])) : 32;

  tpg::TpgKind kind = tpg::TpgKind::kAdder;
  if (tpg_name == "subtracter") kind = tpg::TpgKind::kSubtracter;
  else if (tpg_name == "multiplier") kind = tpg::TpgKind::kMultiplier;
  else if (tpg_name == "lfsr") kind = tpg::TpgKind::kLfsr;

  netlist::Netlist nl;
  try {
    nl = campaign::load_circuit(path);
  } catch (const std::exception& e) {
    std::cerr << "failed to load " << path << ": " << e.what() << "\n";
    return 1;
  }

  reseed::Pipeline pipeline(std::move(nl), path);
  std::cout << netlist::stats_to_string(
      netlist::compute_stats(pipeline.compiled()), path);
  std::cout << "target faults (collapsed, ATPG-detected): "
            << pipeline.faults().size() << "\n"
            << "ATPG test set: " << pipeline.atpg_patterns().size()
            << " patterns\n\n";

  const auto sol = pipeline.run(kind, cycles);
  std::cout << reseed::solution_to_string(
      sol, "Reseeding solution (" + tpg_name + " TPG, T=" +
               std::to_string(cycles) + "):");
  return sol.faults_covered == sol.faults_targeted ? 0 : 1;
}
