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
// An earliest index is below its row's T, and T is at most
// cover::DetectionMatrix::kMaxCycles = 65535, so a reader rejects an
// index of 65535 or more as a malformed blob (which the matrix cache
// treats as a miss).
//
// Both formats carry an explicit version in the header line; readers
// reject a blob whose magic matches but whose version does not with a
// message naming both versions, so stale on-disk cache files fail
// loudly instead of being misparsed.
//
// Each format is one string codec.  Its callers move the text to and
// from disk through util::io (util/guarded_io.h): the CLI's ROM files
// and the matrix cache's blobs are written atomically and checked.
#pragma once

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

/// Rest-of-line field: everything after "<key> ", where `key` is the
/// line's first token (may be empty).  Read this way, a field may
/// contain spaces — circuit paths in fbist-rom and fbist-ckpt, error
/// messages in fbist-ckpt.
std::string rest_of_line(const std::string& line, const std::string& key);

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

/// The ROM codec.  rom_to_string formats the image; rom_from_string
/// throws std::runtime_error with a line-numbered message on malformed
/// input.  Files hold exactly these bytes and are read and written
/// through util::io (util/guarded_io.h).
std::string rom_to_string(const RomImage& rom);
RomImage rom_from_string(const std::string& text);

/// The detection-matrix codec ("fbist-dmx v1").  Round-trips the bits
/// and, when attached, the earliest-detection indices exactly;
/// matrix_from_string throws std::runtime_error with a line-numbered
/// message on malformed input and a version-naming message on a
/// future-version blob.
std::string matrix_to_string(const cover::DetectionMatrix& m);
cover::DetectionMatrix matrix_from_string(const std::string& text);

}  // namespace fbist::reseed
