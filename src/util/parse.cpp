#include "util/parse.h"

#include <charconv>
#include <stdexcept>

namespace fbist::util {

namespace {

/// std::from_chars takes no sign or space and reports 64-bit overflow;
/// the whole token must be consumed.
std::optional<std::uint64_t> to_unsigned(const std::string& tok) {
  std::uint64_t v = 0;
  const char* const end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
  if (tok.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

}  // namespace

std::uint64_t parse_unsigned(const std::string& tok, const char* what) {
  const std::optional<std::uint64_t> v = to_unsigned(tok);
  if (!v) {
    throw std::runtime_error(std::string(what) + ": bad value '" + tok + "'");
  }
  return *v;
}

std::size_t parse_count(const std::string& tok, const char* what) {
  const std::uint64_t v = parse_unsigned(tok, what);
  if (v == 0) {
    throw std::runtime_error(std::string(what) + ": bad value '" + tok + "'");
  }
  return v;
}

std::optional<std::uint64_t> read_unsigned(std::istream& in) {
  std::string tok;
  if (!(in >> tok)) return std::nullopt;
  return to_unsigned(tok);
}

}  // namespace fbist::util
