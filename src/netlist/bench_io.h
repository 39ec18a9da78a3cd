// ISCAS `.bench` format reader / writer.
//
// The `.bench` dialect accepted here is the common ISCAS'85 netlist
// exchange format:
//
//   # comment
//   INPUT(G1)
//   OUTPUT(G17)
//   G10 = NAND(G1, G3)
//   G11 = NOT(G10)
//
// Sequential circuits are accepted and *scan-flattened on the fly*:
// a `Q = DFF(D)` line models a scanned flip-flop, so Q becomes a
// pseudo primary input (scan-in) and D a pseudo primary output
// (scan-out).  This is exactly the "full-scan version" treatment the
// paper applies to the ISCAS'89 circuits.
#pragma once

#include <string>

#include "netlist/netlist.h"

namespace fbist::netlist {

/// Parses a `.bench` description.  Throws std::runtime_error with a
/// line-numbered diagnostic on malformed input.  A `.bench` file is
/// read through campaign::load_circuit (campaign/spec.h), which goes
/// through util::io.
Netlist parse_bench_string(const std::string& text);

/// Formats `nl` in `.bench` format (stable order: inputs, gates,
/// outputs).
std::string to_bench_string(const Netlist& nl);

}  // namespace fbist::netlist
