#include "reseed/serialize.h"

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "reseed/pipeline.h"
#include "tpg/triplet.h"
#include "util/rng.h"

namespace fbist::reseed {
namespace {

RomImage sample_rom(std::size_t width = 16, std::size_t n = 3) {
  util::Rng rng(5);
  RomImage rom;
  rom.circuit = "c432";
  rom.tpg_name = "adder";
  rom.width = width;
  for (std::size_t i = 0; i < n; ++i) {
    tpg::Triplet t;
    t.delta = util::WideWord::random(width, rng);
    t.sigma = util::WideWord::random(width, rng);
    t.cycles = 10 + i;
    rom.triplets.push_back(std::move(t));
  }
  return rom;
}

TEST(Serialize, RoundTripPreservesEverything) {
  const RomImage rom = sample_rom();
  const RomImage back = rom_from_string(rom_to_string(rom));
  EXPECT_EQ(rom, back);
}

TEST(Serialize, RoundTripWideWidths) {
  // Scan-width registers (odd sizes, multiple words).
  for (const std::size_t w : {1u, 63u, 64u, 65u, 200u, 700u}) {
    const RomImage rom = sample_rom(w, 2);
    EXPECT_EQ(rom, rom_from_string(rom_to_string(rom))) << "width " << w;
  }
}

TEST(Serialize, StatsComputed) {
  const RomImage rom = sample_rom(16, 3);
  EXPECT_EQ(rom.test_length(), 10u + 11u + 12u);
  EXPECT_EQ(rom.rom_bits(), 3u * (2 * 16 + 32));
}

TEST(Serialize, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "fbist-rom v1\n\n# comment\ncircuit x\ntpg adder\nwidth 8\n"
      "# another\ntriplet ff 01 5\n";
  const RomImage rom = rom_from_string(text);
  EXPECT_EQ(rom.triplets.size(), 1u);
  EXPECT_EQ(rom.triplets[0].cycles, 5u);
  EXPECT_EQ(rom.triplets[0].delta, util::WideWord(8, 0xFF));
}

TEST(Serialize, RejectsMissingHeader) {
  EXPECT_THROW(rom_from_string("circuit x\n"), std::runtime_error);
  EXPECT_THROW(rom_from_string(""), std::runtime_error);
  EXPECT_THROW(rom_from_string("fbist-rom v2\n"), std::runtime_error);
}

TEST(Serialize, RejectsTripletBeforeWidth) {
  EXPECT_THROW(
      rom_from_string("fbist-rom v1\ncircuit x\ntpg adder\ntriplet ff 01 5\n"),
      std::runtime_error);
}

TEST(Serialize, RejectsMalformedRecords) {
  const std::string head = "fbist-rom v1\ncircuit x\ntpg adder\nwidth 8\n";
  EXPECT_THROW(rom_from_string(head + "triplet zz 01 5\n"), std::runtime_error);
  EXPECT_THROW(rom_from_string(head + "triplet ff 01 0\n"), std::runtime_error);
  EXPECT_THROW(rom_from_string(head + "bogus record\n"), std::runtime_error);
  EXPECT_THROW(rom_from_string("fbist-rom v1\nwidth 0\n"), std::runtime_error);
}

/// Expects `parse(text)` to throw std::runtime_error naming `want`.
template <typename Parse>
void expect_error(Parse parse, const std::string& text,
                  const std::string& want) {
  try {
    parse(text);
    ADD_FAILURE() << "accepted: " << text;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
        << e.what();
  }
}

// Every unsigned field reads strictly: a sign or trailing junk is the
// line's error, never a wrapped or truncated number.  A triplet is at
// most 65535 patterns long, the longest a detection matrix indexes.
TEST(Serialize, RejectsMalformedNumbers) {
  const auto parse = [](const std::string& t) { return rom_from_string(t); };
  const std::string head = "fbist-rom v1\ncircuit x\ntpg adder\n";
  EXPECT_EQ(rom_from_string(head + "width 8\ntriplet 1f 0d 65535\n")
                .triplets[0]
                .cycles,
            65535u);
  for (const std::string bad : {"-1", "+6", "6junk"}) {
    SCOPED_TRACE(bad);
    expect_error(parse, head + "width " + bad + "\n", "rom line 4: bad width");
    expect_error(parse, head + "width 8\ntriplet 1f 0d " + bad + "\n",
                 "rom line 5: bad triplet record");
  }
  expect_error(parse, head + "width 8\ntriplet 1f 0d 70000\n",
               "rom line 5: triplet length 70000 not in 1..65535");
}

TEST(Serialize, RejectsIncompleteHeader) {
  EXPECT_THROW(rom_from_string("fbist-rom v1\ncircuit x\nwidth 8\n"),
               std::runtime_error);
}

// A future-version blob must fail with a message naming both versions
// (the cache layer relies on loud rejection of stale files).
TEST(Serialize, VersionMismatchNamesBothVersions) {
  try {
    rom_from_string("fbist-rom v2\n");
    FAIL() << "v2 accepted";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("v2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("v1"), std::string::npos) << msg;
  }
}

// ---- detection-matrix persistence ("fbist-dmx v1") ----------------------

cover::DetectionMatrix sample_matrix(std::size_t rows, std::size_t cols,
                                     bool with_earliest, std::uint64_t seed) {
  util::Rng rng(seed);
  cover::DetectionMatrix m(rows, cols);
  if (with_earliest) m.track_earliest();
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (rng.next_below(3) == 0) {
        m.set(r, c);
        const auto e = static_cast<std::uint32_t>(rng.next_below(500));
        if (with_earliest) m.set_earliest(r, c, e);
      }
    }
  }
  return m;
}

void expect_matrices_equal(const cover::DetectionMatrix& a,
                           const cover::DetectionMatrix& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_cols(), b.num_cols());
  ASSERT_EQ(a.has_earliest(), b.has_earliest());
  for (std::size_t r = 0; r < a.num_rows(); ++r) {
    ASSERT_EQ(a.row(r), b.row(r)) << "row " << r;
    if (!a.has_earliest()) continue;
    for (std::size_t c = 0; c < a.num_cols(); ++c) {
      ASSERT_EQ(a.earliest(r, c), b.earliest(r, c)) << r << "," << c;
    }
  }
}

TEST(MatrixSerialize, RoundTripBitsAndEarliest) {
  // Column counts straddling word boundaries, with and without the
  // earliest payload.
  for (const std::size_t cols : {1u, 63u, 64u, 65u, 200u}) {
    for (const bool with_earliest : {false, true}) {
      SCOPED_TRACE("cols=" + std::to_string(cols) +
                   " earliest=" + std::to_string(with_earliest));
      const auto m = sample_matrix(7, cols, with_earliest, cols * 7 + 1);
      expect_matrices_equal(m, matrix_from_string(matrix_to_string(m)));
    }
  }
}

// The blob bytes themselves, not only their round trip: the matrix
// cache keeps blobs on disk across builds.  Recorded with the
// iostream-based writer.
TEST(MatrixSerialize, BytesPinned) {
  std::string blobs;
  for (const std::size_t cols : {1u, 63u, 64u, 65u, 200u}) {
    for (const bool with_earliest : {false, true}) {
      blobs += matrix_to_string(sample_matrix(7, cols, with_earliest, cols * 7 + 1));
    }
  }
  blobs += matrix_to_string(cover::DetectionMatrix(0, 0));
  blobs += matrix_to_string(cover::DetectionMatrix(2, 0));
  const std::uint64_t got = util::hash_string(blobs);
  EXPECT_EQ(got, 0x8d8c7fe2f5e69747ull) << "got 0x" << std::hex << got;
}

TEST(MatrixSerialize, RoundTripEmptyAndDense) {
  expect_matrices_equal(cover::DetectionMatrix(0, 0),
                        matrix_from_string(matrix_to_string(
                            cover::DetectionMatrix(0, 0))));
  cover::DetectionMatrix dense(3, 130);
  dense.track_earliest();
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 130; ++c) {
      dense.set(r, c);
      dense.set_earliest(r, c, static_cast<std::uint32_t>(r * 1000 + c));
    }
  }
  expect_matrices_equal(dense, matrix_from_string(matrix_to_string(dense)));
}

TEST(MatrixSerialize, RejectsBadInput) {
  EXPECT_THROW(matrix_from_string(""), std::runtime_error);
  EXPECT_THROW(matrix_from_string("fbist-rom v1\n"), std::runtime_error);
  EXPECT_THROW(matrix_from_string("fbist-dmx v1\n"), std::runtime_error);
  EXPECT_THROW(matrix_from_string("fbist-dmx v1\ndims 2 4\n"),
               std::runtime_error);  // missing has-earliest
  EXPECT_THROW(
      matrix_from_string("fbist-dmx v1\ndims 1 4\nhas-earliest 0\nrow 5 0\n"),
      std::runtime_error);  // row index out of range
  EXPECT_THROW(matrix_from_string(
                   "fbist-dmx v1\ndims 1 4\nhas-earliest 1\ndims 2 4\n"),
               std::runtime_error);  // a second dims
  EXPECT_THROW(matrix_from_string("fbist-dmx v1\ndims 1 4\nhas-earliest 1\n"
                                  "has-earliest 0\n"),
               std::runtime_error);  // a second has-earliest
}

TEST(MatrixSerialize, RejectsMalformedNumbers) {
  const auto parse = [](const std::string& t) { return matrix_from_string(t); };
  const std::string head = "fbist-dmx v1\ndims 1 4\nhas-earliest 1\n";
  for (const std::string bad : {"-1", "+6", "6junk"}) {
    SCOPED_TRACE(bad);
    expect_error(parse, "fbist-dmx v1\ndims " + bad + " 16\nhas-earliest 0\n",
                 "dmx line 2: bad dims");
    expect_error(parse, "fbist-dmx v1\ndims 1 " + bad + "\nhas-earliest 0\n",
                 "dmx line 2: bad dims");
    expect_error(parse, "fbist-dmx v1\ndims 1 4\nhas-earliest " + bad + "\n",
                 "dmx line 3: bad has-earliest flag");
    expect_error(parse, head + "row " + bad + " 0000000000000001\n",
                 "dmx line 4: bad row index");
    expect_error(parse, head + "edet " + bad + " 0\n",
                 "dmx line 4: bad edet header");
    expect_error(parse, head + "edet 0 1 " + bad + " 3\n",
                 "dmx line 4: bad edet pair");
    expect_error(parse, head + "edet 0 1 0 " + bad + "\n",
                 "dmx line 4: bad edet pair");
  }
}

// An earliest index is below T <= 65535: the largest one a blob can hold
// is 65534, and 65535 (the "none" marker) or more is a malformed blob.
// A tracked matrix with rows and no columns keeps its has-earliest flag.
TEST(MatrixSerialize, EarliestIndexLimit) {
  const std::string head =
      "fbist-dmx v1\ndims 1 2\nhas-earliest 1\nrow 0 0000000000000002\n";
  const cover::DetectionMatrix m =
      matrix_from_string(head + "edet 0 1 1 65534\n");
  EXPECT_EQ(m.earliest(0, 1), 65534u);
  EXPECT_EQ(m.earliest(0, 0), UINT32_MAX);
  for (const char* bad : {"65535", "65536", "4294967295"}) {
    try {
      matrix_from_string(head + "edet 0 1 1 " + bad + "\n");
      FAIL() << bad << " accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("65535"), std::string::npos)
          << e.what();
    }
  }
  cover::DetectionMatrix no_cols(2, 0);
  no_cols.track_earliest();
  const std::string blob = matrix_to_string(no_cols);
  EXPECT_NE(blob.find("has-earliest 1"), std::string::npos) << blob;
  expect_matrices_equal(no_cols, matrix_from_string(blob));
}

TEST(MatrixSerialize, VersionMismatchNamesBothVersions) {
  try {
    matrix_from_string("fbist-dmx v7\n");
    FAIL() << "v7 accepted";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("v7"), std::string::npos) << msg;
    EXPECT_NE(msg.find("v1"), std::string::npos) << msg;
  }
}

TEST(Serialize, CircuitPathWithSpacesRoundTrips) {
  // A .bench path names the circuit; the field is the rest of its line.
  RomImage rom = sample_rom();
  rom.circuit = "my designs/c17 v2.bench";
  const std::string text = rom_to_string(rom);
  EXPECT_NE(text.find("\ncircuit my designs/c17 v2.bench\n"), std::string::npos);
  EXPECT_EQ(rom_from_string(text), rom);
}

TEST(Serialize, EndToEndSolutionReplay) {
  // Compute a solution, serialize, reload, expand the reloaded triplets
  // and confirm identical coverage — the full offline/online split.
  const Pipeline p("c17");
  const auto sol = p.run(tpg::TpgKind::kAdder, 16);
  const RomImage rom =
      to_rom_image(sol, "c17", "adder", p.circuit().num_inputs());
  const RomImage loaded = rom_from_string(rom_to_string(rom));

  const auto tpg = tpg::make_tpg(tpg::TpgKind::kAdder, loaded.width);
  sim::PatternSet all(loaded.width, 0);
  for (const auto& t : loaded.triplets) {
    all.append_all(tpg::expand_triplet(*tpg, t));
  }
  const auto r = p.fault_sim().run(all);
  EXPECT_EQ(r.num_detected(), sol.faults_targeted);
}

}  // namespace
}  // namespace fbist::reseed
