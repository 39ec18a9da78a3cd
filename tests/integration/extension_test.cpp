// Integration test for the scan-flattening .bench front end driving the
// full set-covering flow.
#include <gtest/gtest.h>

#include "netlist/bench_io.h"
#include "reseed/pipeline.h"

namespace fbist {
namespace {

TEST(Extension, SequentialBenchFileThroughPipeline) {
  const char* text = R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
g1 = NAND(a, b)
g2 = XOR(g1, q0)
g3 = NOR(g2, q1)
q0 = DFF(g2)
q1 = DFF(g3)
y = AND(g2, g3)
)";
  netlist::Netlist nl = netlist::parse_bench_string(text);
  // Flattened: 2 + 2 scan PIs.
  EXPECT_EQ(nl.num_inputs(), 4u);

  reseed::Pipeline p(std::move(nl), "seq-demo");
  const auto sol = p.run(tpg::TpgKind::kAdder, 16);
  EXPECT_EQ(sol.faults_covered, sol.faults_targeted);
}

}  // namespace
}  // namespace fbist
