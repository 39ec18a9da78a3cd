// Pins the SAT engine's answers fault by fault.
//
// One SatEngine answers every collapsed fault of a circuit in reverse
// order, through generate() (the plain miter) and proves_redundant()
// (the structural miter).  Status, pattern, conflict and decision
// counts fold into one FNV-1a digest per circuit.  The digests were
// recorded with a fresh solver built and loaded for every call, so each
// call must start from exactly the state a fresh solver reaches after
// loading the good circuit: no learned clause, activity, phase or watch
// may leak from one fault to the next, however the engine prepares
// that state.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "atpg/sat_engine.h"
#include "circuits/registry.h"
#include "util/rng.h"

namespace fbist::atpg {
namespace {

std::uint64_t reverse_order_digest(const netlist::Netlist& nl) {
  const netlist::CompiledCircuit cc(nl);
  const auto fl = fault::FaultList::collapsed(cc);
  SatEngine sat(cc);
  std::string record;
  for (std::size_t fid = fl.size(); fid-- > 0;) {
    const SatResult r = sat.generate(fl[fid]);
    record += std::to_string(static_cast<int>(r.status)) + ' ' +
              r.pattern.to_hex() + ' ' + std::to_string(r.conflicts) + ' ' +
              std::to_string(r.decisions) + ' ' +
              (sat.proves_redundant(fl[fid]) ? "R" : "-") + '\n';
  }
  return util::hash_string(record);
}

TEST(SatPin, ResultIndependentOfFaultOrder) {
  constexpr struct {
    const char* circuit;
    std::uint64_t digest;
  } kPins[] = {
      {"c432", 0x7141cb8cd04c8557},
      {"c1908", 0x957c21253b459207},
  };
  for (const auto& pin : kPins) {
    const std::uint64_t got =
        reverse_order_digest(circuits::make_circuit(pin.circuit));
    EXPECT_EQ(got, pin.digest) << pin.circuit << ": got 0x" << std::hex << got;
  }
}

}  // namespace
}  // namespace fbist::atpg
