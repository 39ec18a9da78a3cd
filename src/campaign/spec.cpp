#include "campaign/spec.h"

#include <sstream>
#include <stdexcept>

#include "circuits/registry.h"
#include "cover/detection_matrix.h"
#include "netlist/bench_io.h"
#include "util/guarded_io.h"
#include "util/parse.h"

namespace fbist::campaign {

std::string run_label(const RunSpec& rs) {
  return rs.circuit + "/" + tpg::tpg_kind_name(rs.tpg) + "/T" +
         std::to_string(rs.cycles) + "/" + solver_name(rs.solver);
}

std::vector<RunSpec> CampaignSpec::expand() const {
  std::vector<RunSpec> runs;
  runs.reserve(circuits.size() * tpgs.size() * cycle_values.size() *
               solvers.size());
  for (const auto& circuit : circuits) {
    for (const auto kind : tpgs) {
      for (const auto cycles : cycle_values) {
        for (const auto solver : solvers) {
          runs.push_back(RunSpec{circuit, kind, cycles, solver});
        }
      }
    }
  }
  return runs;
}

std::vector<std::size_t> CampaignSpec::shard(std::size_t index,
                                             std::size_t count) const {
  if (count == 0) {
    throw std::invalid_argument("campaign shard: count must be >= 1");
  }
  if (index >= count) {
    throw std::invalid_argument(
        "campaign shard: index " + std::to_string(index) +
        " out of range for " + std::to_string(count) + " shards");
  }
  const std::size_t total =
      circuits.size() * tpgs.size() * cycle_values.size() * solvers.size();
  const std::size_t begin = index * total / count;
  const std::size_t end = (index + 1) * total / count;
  std::vector<std::size_t> positions;
  positions.reserve(end - begin);
  for (std::size_t p = begin; p < end; ++p) positions.push_back(p);
  return positions;
}

void CampaignSpec::validate() const {
  if (circuits.empty()) {
    throw std::invalid_argument("campaign spec: no circuits");
  }
  if (tpgs.empty()) throw std::invalid_argument("campaign spec: no TPG kinds");
  if (cycle_values.empty()) {
    throw std::invalid_argument("campaign spec: no cycle values");
  }
  if (solvers.empty()) throw std::invalid_argument("campaign spec: no solvers");
  for (const auto cycles : cycle_values) {
    if (cycles == 0) {
      throw std::invalid_argument("campaign spec: cycles must be >= 1");
    }
    if (cycles > cover::DetectionMatrix::kMaxCycles) {
      throw std::invalid_argument(
          "campaign spec: T " + std::to_string(cycles) +
          " exceeds the limit of " +
          std::to_string(cover::DetectionMatrix::kMaxCycles) +
          " patterns per triplet");
    }
  }
}

tpg::TpgKind parse_tpg_kind(const std::string& name) {
  if (name == "adder") return tpg::TpgKind::kAdder;
  if (name == "subtracter") return tpg::TpgKind::kSubtracter;
  if (name == "multiplier") return tpg::TpgKind::kMultiplier;
  if (name == "lfsr") return tpg::TpgKind::kLfsr;
  throw std::runtime_error(
      "unknown TPG kind: " + name +
      " (expected adder|subtracter|multiplier|lfsr)");
}

reseed::SolverChoice parse_solver(const std::string& name) {
  if (name == "exact") return reseed::SolverChoice::kExact;
  if (name == "greedy") return reseed::SolverChoice::kGreedy;
  throw std::runtime_error("unknown solver: " + name +
                           " (expected exact|greedy)");
}

const char* solver_name(reseed::SolverChoice s) {
  return s == reseed::SolverChoice::kExact ? "exact" : "greedy";
}

CampaignSpec parse_spec_string(const std::string& text) {
  std::istringstream in(text);
  CampaignSpec spec;
  // The defaulted lists are replaced wholesale by the first matching
  // key; subsequent lines of the same key append.
  bool saw_tpgs = false, saw_cycles = false, saw_solvers = false;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;  // blank / comment-only line
    const auto fail = [&](const std::string& msg) -> std::runtime_error {
      return std::runtime_error("campaign spec line " +
                                std::to_string(lineno) + ": " + msg);
    };
    std::string tok;
    if (key == "circuits" || key == "circuit") {
      while (ls >> tok) spec.circuits.push_back(tok);
    } else if (key == "tpgs" || key == "tpg") {
      if (!saw_tpgs) spec.tpgs.clear();
      saw_tpgs = true;
      while (ls >> tok) spec.tpgs.push_back(parse_tpg_kind(tok));
    } else if (key == "cycles") {
      if (!saw_cycles) spec.cycle_values.clear();
      saw_cycles = true;
      while (ls >> tok) {
        try {
          spec.cycle_values.push_back(util::parse_count(tok, "cycle count"));
        } catch (const std::runtime_error& e) {
          throw fail(e.what());
        }
      }
    } else if (key == "solvers" || key == "solver") {
      if (!saw_solvers) spec.solvers.clear();
      saw_solvers = true;
      while (ls >> tok) spec.solvers.push_back(parse_solver(tok));
    } else {
      throw fail("unknown key '" + key + "'");
    }
  }
  spec.validate();
  return spec;
}

CampaignSpec parse_spec_file(const std::string& path) {
  std::string text;
  try {
    text = util::io::read_file("spec.read", path);
  } catch (const util::io::IoError& e) {
    throw std::runtime_error("cannot read campaign spec " + path + ": " +
                             e.what());
  }
  return parse_spec_string(text);
}

std::pair<std::size_t, std::size_t> parse_shard_arg(const std::string& arg) {
  const auto fail = [&](const std::string& why) -> std::runtime_error {
    return std::runtime_error("--shard: " + why + " (got '" + arg +
                              "'; expected I/N with 1 <= I <= N, e.g. "
                              "--shard 2/3)");
  };
  const std::size_t slash = arg.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= arg.size()) {
    throw fail("malformed shard");
  }
  const std::string i_part = arg.substr(0, slash);
  const std::string n_part = arg.substr(slash + 1);
  if (i_part.find_first_not_of("0123456789") != std::string::npos ||
      n_part.find_first_not_of("0123456789") != std::string::npos) {
    throw fail("shard index and count must be positive integers");
  }
  unsigned long i = 0, n = 0;
  try {
    i = std::stoul(i_part);
    n = std::stoul(n_part);
  } catch (const std::exception&) {
    throw fail("shard index or count out of range");
  }
  if (n == 0) throw fail("shard count must be >= 1");
  if (i == 0) throw fail("shard index is 1-based; use 1/N for the first shard");
  if (i > n) {
    throw fail("shard index " + std::to_string(i) + " out of range for " +
               std::to_string(n) + " shards");
  }
  return {static_cast<std::size_t>(i - 1), static_cast<std::size_t>(n)};
}

std::uint64_t parse_run_timeout_arg(const std::string& arg) {
  try {
    return util::parse_count(arg, "--run-timeout");
  } catch (const std::runtime_error&) {
    throw std::runtime_error(
        "--run-timeout: expected a positive integer millisecond count, got '" +
        arg + "'");
  }
}

bool is_bench_path(const std::string& arg) {
  return arg.find(".bench") != std::string::npos ||
         arg.find('/') != std::string::npos;
}

netlist::Netlist load_circuit(const std::string& arg) {
  if (is_bench_path(arg)) {
    return netlist::parse_bench_string(util::io::read_file("spec.read", arg));
  }
  return circuits::make_circuit(arg);
}

}  // namespace fbist::campaign
