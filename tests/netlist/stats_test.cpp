#include "netlist/stats.h"

#include <gtest/gtest.h>

#include "circuits/registry.h"
#include "netlist/compiled.h"

namespace fbist::netlist {
namespace {

TEST(Stats, C17Counts) {
  const Netlist nl = circuits::make_c17();
  const CircuitStats s =
      compute_stats(CompiledCircuit(nl, /*build_cone_slices=*/false));
  EXPECT_EQ(s.num_inputs, 5u);
  EXPECT_EQ(s.num_outputs, 2u);
  EXPECT_EQ(s.num_gates, 6u);
  EXPECT_EQ(s.num_nets, 11u);
  EXPECT_EQ(s.depth, 3u);
  EXPECT_EQ(s.per_type[static_cast<std::size_t>(GateType::kNand)], 6u);
  EXPECT_DOUBLE_EQ(s.avg_fanin, 2.0);
}

TEST(Stats, MaxFanoutPositive) {
  const Netlist nl = circuits::make_c17();
  const CircuitStats s =
      compute_stats(CompiledCircuit(nl, /*build_cone_slices=*/false));
  // G11 and G16 drive two gates each.
  EXPECT_EQ(s.max_fanout, 2u);
}

TEST(Stats, RenderingMentionsEverything) {
  const Netlist nl = circuits::make_c17();
  const CircuitStats s =
      compute_stats(CompiledCircuit(nl, /*build_cone_slices=*/false));
  const std::string text = stats_to_string(s, "c17");
  EXPECT_NE(text.find("c17"), std::string::npos);
  EXPECT_NE(text.find("PI=5"), std::string::npos);
  EXPECT_NE(text.find("nand=6"), std::string::npos);
}

}  // namespace
}  // namespace fbist::netlist
