// Persistence of reseeding solutions — the "BIST ROM image".
//
// A reseeding solution is what the BIST controller actually consumes:
// an ordered list of (delta, sigma, T) records plus the TPG
// configuration they target.  This module defines a small line-oriented
// text format so solutions can be computed offline, versioned, diffed
// and loaded back:
//
//   fbist-rom v1
//   circuit s1238
//   tpg adder
//   width 32
//   triplet <delta-hex> <sigma-hex> <cycles>
//   triplet ...
//
// Lines starting with '#' are comments; fields are space-separated.
//
// The same layer persists built detection matrices ("fbist-dmx v1"),
// which back the cross-run matrix cache (reseed/matrix_cache.h):
//
//   fbist-dmx v1
//   dims <rows> <cols>
//   has-earliest <0|1>
//   row <r> <16-hex-digit word>...     one line per row, LSB-first words
//   edet <r> <k> <col> <idx> ...       k detected (col, earliest) pairs
//
// Both formats carry an explicit version in the header line; readers
// reject a blob whose magic matches but whose version does not with a
// message naming both versions, so stale on-disk cache files fail
// loudly instead of being misparsed.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "cover/detection_matrix.h"
#include "reseed/optimizer.h"
#include "tpg/triplet.h"

namespace fbist::reseed {

/// Validates a "<magic> <version>" header line, distinguishing "not one
/// of our files at all" from "ours, but a version this build does not
/// read" — the latter is what a stale on-disk blob looks like after a
/// format bump, and it must fail with a message naming both versions.
/// Shared by every versioned text format in the repo (fbist-rom,
/// fbist-dmx, and the campaign layer's fbist-ckpt run-result records).
void check_version_header(const std::string& key, const std::string& version,
                          const char* magic, const char* want_version);

/// Everything needed to replay a reseeding solution on hardware.
struct RomImage {
  std::string circuit;
  std::string tpg_name;   // "adder", "multiplier", ...
  std::size_t width = 0;  // TPG register width in bits
  std::vector<tpg::Triplet> triplets;

  /// Total pattern count (sum of triplet cycles).
  std::size_t test_length() const;
  /// Storage cost in bits: per triplet 2*width (delta, sigma) + 32 (T).
  std::size_t rom_bits() const;

  bool operator==(const RomImage& o) const;
};

/// Builds the ROM image of a computed solution.
RomImage to_rom_image(const ReseedingSolution& sol, const std::string& circuit,
                      const std::string& tpg_name, std::size_t width);

/// Serialization.  write_rom always succeeds on a good stream; read_rom
/// throws std::runtime_error with a line-numbered message on malformed
/// input.
void write_rom(const RomImage& rom, std::ostream& out);
RomImage read_rom(std::istream& in);

std::string rom_to_string(const RomImage& rom);
RomImage rom_from_string(const std::string& text);

void write_rom_file(const RomImage& rom, const std::string& path);
RomImage read_rom_file(const std::string& path);

/// Detection-matrix persistence ("fbist-dmx v1").  Round-trips the bits
/// and, when attached, the earliest-detection indices exactly;
/// read_matrix throws std::runtime_error with a line-numbered message
/// on malformed input and a version-naming message on a future-version
/// blob.  matrix_to_string formats the blob straight into one string
/// (no stream); write_matrix writes that string.
void write_matrix(const cover::DetectionMatrix& m, std::ostream& out);
cover::DetectionMatrix read_matrix(std::istream& in);

std::string matrix_to_string(const cover::DetectionMatrix& m);
cover::DetectionMatrix matrix_from_string(const std::string& text);

void write_matrix_file(const cover::DetectionMatrix& m,
                       const std::string& path);
cover::DetectionMatrix read_matrix_file(const std::string& path);

}  // namespace fbist::reseed
