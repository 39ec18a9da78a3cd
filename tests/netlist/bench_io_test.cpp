#include "netlist/bench_io.h"

#include <gtest/gtest.h>

#include "circuits/registry.h"

namespace fbist::netlist {
namespace {

constexpr const char* kSmall = R"(
# a comment
INPUT(a)
INPUT(b)
OUTPUT(y)
y = NAND(a, b)
)";

TEST(BenchIo, ParsesMinimal) {
  const Netlist nl = parse_bench_string(kSmall);
  EXPECT_EQ(nl.num_inputs(), 2u);
  EXPECT_EQ(nl.num_outputs(), 1u);
  EXPECT_EQ(nl.gate(nl.find("y")).type, GateType::kNand);
}

TEST(BenchIo, HandlesOutOfOrderDefinitions) {
  // z is defined before its fanin y.
  const char* text = R"(
INPUT(a)
OUTPUT(z)
z = NOT(y)
y = BUF(a)
)";
  const Netlist nl = parse_bench_string(text);
  EXPECT_EQ(nl.gate(nl.find("z")).type, GateType::kNot);
  EXPECT_EQ(nl.gate(nl.find("z")).fanin[0], nl.find("y"));
}

TEST(BenchIo, SingleInputAndBecomesBuf) {
  const char* text = R"(
INPUT(a)
OUTPUT(y)
y = AND(a)
)";
  const Netlist nl = parse_bench_string(text);
  EXPECT_EQ(nl.gate(nl.find("y")).type, GateType::kBuf);
}

TEST(BenchIo, RejectsUndefinedFanin) {
  const char* text = R"(
INPUT(a)
OUTPUT(y)
y = AND(a, ghost)
)";
  EXPECT_THROW(parse_bench_string(text), std::runtime_error);
}

TEST(BenchIo, RejectsMalformedLine) {
  EXPECT_THROW(parse_bench_string("INPUT(a)\nOUTPUT(a)\nnonsense line\n"),
               std::runtime_error);
  EXPECT_THROW(parse_bench_string("INPUT a\n"), std::runtime_error);
}

TEST(BenchIo, RejectsUndefinedOutput) {
  EXPECT_THROW(parse_bench_string("INPUT(a)\nOUTPUT(zz)\n"), std::runtime_error);
}

TEST(BenchIo, ErrorsNameLineAndNet) {
  // Undefined fanin: message must carry the .bench line and the net.
  try {
    parse_bench_string("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n");
    FAIL() << "expected parse to throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("y"), std::string::npos) << msg;
  }
  // Unknown gate type: message must carry the type and the driven net.
  try {
    parse_bench_string("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = FROB(a, b)\n");
    FAIL() << "expected parse to throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("FROB"), std::string::npos) << msg;
    EXPECT_NE(msg.find("y"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 4"), std::string::npos) << msg;
  }
}

TEST(BenchIo, RoundTripPreservesStructure) {
  const Netlist orig = circuits::make_c17();
  const std::string text = to_bench_string(orig);
  const Netlist back = parse_bench_string(text);
  EXPECT_EQ(back.num_inputs(), orig.num_inputs());
  EXPECT_EQ(back.num_outputs(), orig.num_outputs());
  EXPECT_EQ(back.num_gates(), orig.num_gates());
  // Same gate types per name.
  for (NetId id = 0; id < orig.num_nets(); ++id) {
    const auto& g = orig.gate(id);
    const NetId bid = back.find(g.name);
    ASSERT_NE(bid, kNullNet) << g.name;
    EXPECT_EQ(back.gate(bid).type, g.type) << g.name;
    EXPECT_EQ(back.gate(bid).fanin.size(), g.fanin.size()) << g.name;
  }
}

TEST(BenchIo, CommentsAndBlankLinesIgnored) {
  const char* text = "\n\n# only comments\nINPUT(a)\n#x\nOUTPUT(y)\ny = NOT(a) # trailing\n";
  EXPECT_NO_THROW(parse_bench_string(text));
}

}  // namespace
}  // namespace fbist::netlist
