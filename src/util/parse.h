// Strict unsigned-number parsing for every reader of operator-named and
// on-disk text: CLI arguments, campaign specs, and the ROM (fbist-rom),
// set-covering (.scp), matrix-cache (fbist-dmx) and checkpoint
// (fbist-ckpt) codecs.  Stream extraction alone wraps "-1" to 2^64 - 1
// and stops at the first non-digit ("6junk" reads as 6); these accept
// decimal digits only, without sign, space, trailing junk or 64-bit
// overflow.
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <optional>
#include <string>

namespace fbist::util {

/// Strict unsigned parser.  Throws std::runtime_error
/// "<what>: bad value '<tok>'".
std::uint64_t parse_unsigned(const std::string& tok, const char* what);
/// Strict positive count: parse_unsigned, and 0 is rejected too.
std::size_t parse_count(const std::string& tok, const char* what);

/// Reads the next whitespace-separated token of `in` and parses it as
/// parse_unsigned does; nullopt when the token is missing or malformed,
/// so a codec reports the error with its own line-numbered message.
std::optional<std::uint64_t> read_unsigned(std::istream& in);

}  // namespace fbist::util
