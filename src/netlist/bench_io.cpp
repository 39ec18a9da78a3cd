#include "netlist/bench_io.h"

#include <cctype>
#include <map>
#include <sstream>
#include <stdexcept>

namespace fbist::netlist {

namespace {

std::string strip(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

[[noreturn]] void fail(std::size_t line_no, const std::string& msg) {
  throw std::runtime_error(".bench line " + std::to_string(line_no) + ": " + msg);
}

struct PendingGate {
  std::string out;
  std::string type;
  std::vector<std::string> ins;
  std::size_t line_no;
};

}  // namespace

Netlist parse_bench_string(const std::string& text) {
  std::istringstream in(text);
  std::vector<std::string> input_names;
  std::vector<std::string> output_names;
  std::vector<PendingGate> pending;
  // Scan-flattened flip-flops: Q name -> D expression source name.
  std::vector<std::pair<std::string, std::string>> dffs;

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = strip(line);
    if (line.empty()) continue;

    auto paren_arg = [&](const std::string& kw) -> std::string {
      const std::size_t open = line.find('(');
      const std::size_t close = line.rfind(')');
      if (open == std::string::npos || close == std::string::npos || close < open) {
        fail(line_no, "malformed " + kw + " declaration");
      }
      return strip(line.substr(open + 1, close - open - 1));
    };

    if (line.rfind("INPUT", 0) == 0 || line.rfind("input", 0) == 0) {
      input_names.push_back(paren_arg("INPUT"));
      continue;
    }
    if (line.rfind("OUTPUT", 0) == 0 || line.rfind("output", 0) == 0) {
      output_names.push_back(paren_arg("OUTPUT"));
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) fail(line_no, "expected '='");
    PendingGate g;
    g.out = strip(line.substr(0, eq));
    g.line_no = line_no;
    std::string rhs = strip(line.substr(eq + 1));
    const std::size_t open = rhs.find('(');
    const std::size_t close = rhs.rfind(')');
    if (open == std::string::npos || close == std::string::npos || close < open) {
      fail(line_no, "expected TYPE(args)");
    }
    g.type = strip(rhs.substr(0, open));
    std::string args = rhs.substr(open + 1, close - open - 1);
    std::stringstream as(args);
    std::string tok;
    while (std::getline(as, tok, ',')) {
      tok = strip(tok);
      if (tok.empty()) fail(line_no, "empty fanin name");
      g.ins.push_back(tok);
    }
    if (g.out.empty()) fail(line_no, "empty output name");
    if (g.ins.empty()) fail(line_no, "gate with no fanin");

    // Full-scan flattening: Q = DFF(D) -> Q is a scan-in PI, D a
    // scan-out PO.
    std::string type_upper = g.type;
    for (auto& c : type_upper) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
    if (type_upper == "DFF") {
      if (g.ins.size() != 1) fail(line_no, "DFF needs exactly one data input");
      dffs.emplace_back(g.out, g.ins[0]);
      continue;
    }
    pending.push_back(std::move(g));
  }

  Netlist nl;
  for (const auto& name : input_names) nl.add_input(name);
  // Scanned flip-flop outputs become pseudo primary inputs.
  for (const auto& [q, d] : dffs) {
    (void)d;
    nl.add_input(q);
  }

  // Gates may be declared in any order; resolve by iterating until all
  // fanins are defined (the dependency graph is a DAG for valid files).
  std::vector<bool> done(pending.size(), false);
  std::size_t remaining = pending.size();
  while (remaining > 0) {
    bool progress = false;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (done[i]) continue;
      const PendingGate& g = pending[i];
      bool ready = true;
      std::vector<NetId> fanin;
      fanin.reserve(g.ins.size());
      for (const auto& in_name : g.ins) {
        const NetId id = nl.find(in_name);
        if (id == kNullNet) {
          ready = false;
          break;
        }
        fanin.push_back(id);
      }
      if (!ready) continue;
      GateType type;
      try {
        type = gate_type_from_name(g.type);
      } catch (const std::runtime_error&) {
        fail(g.line_no, "unknown gate type '" + g.type + "' driving net " + g.out);
      }
      if (type == GateType::kInput) fail(g.line_no, "INPUT used as gate type");
      if ((type == GateType::kBuf || type == GateType::kNot) && fanin.size() != 1) {
        fail(g.line_no, "unary gate " + g.out + " needs exactly one fanin, got " +
                            std::to_string(fanin.size()));
      }
      if (type != GateType::kBuf && type != GateType::kNot && fanin.size() == 1) {
        // Some dialects write AND(x) for a buffer; normalise.
        type = GateType::kBuf;
      }
      nl.add_gate(type, g.out, std::move(fanin));
      done[i] = true;
      --remaining;
      progress = true;
    }
    if (!progress) {
      for (std::size_t i = 0; i < pending.size(); ++i) {
        if (!done[i]) {
          fail(pending[i].line_no, "undefined fanin or combinational cycle at " + pending[i].out);
        }
      }
    }
  }

  for (const auto& name : output_names) {
    const NetId id = nl.find(name);
    if (id == kNullNet) throw std::runtime_error("OUTPUT names undefined net: " + name);
    nl.mark_output(id);
  }
  // Scanned flip-flop data inputs become pseudo primary outputs.
  for (const auto& [q, d] : dffs) {
    const NetId id = nl.find(d);
    if (id == kNullNet) {
      throw std::runtime_error("DFF " + q + " has undefined data input " + d);
    }
    nl.mark_output(id);
  }
  nl.validate();
  return nl;
}

std::string to_bench_string(const Netlist& nl) {
  std::ostringstream out;
  out << "# " << nl.summary() << "\n";
  for (const NetId i : nl.inputs()) out << "INPUT(" << nl.gate(i).name << ")\n";
  for (const NetId o : nl.outputs()) out << "OUTPUT(" << nl.gate(o).name << ")\n";
  for (NetId id = 0; id < nl.num_nets(); ++id) {
    const Gate& g = nl.gate(id);
    if (g.type == GateType::kInput) continue;
    out << g.name << " = ";
    std::string type = gate_type_name(g.type);
    for (auto& c : type) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    out << type << "(";
    for (std::size_t i = 0; i < g.fanin.size(); ++i) {
      if (i) out << ", ";
      out << nl.gate(g.fanin[i]).name;
    }
    out << ")\n";
  }
  return out.str();
}

}  // namespace fbist::netlist
