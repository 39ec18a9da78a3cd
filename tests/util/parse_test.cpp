#include "util/parse.h"

#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

namespace fbist::util {
namespace {

TEST(Parse, UnsignedTakesDigitsOnly) {
  EXPECT_EQ(parse_unsigned("0", "n"), 0u);
  EXPECT_EQ(parse_unsigned("007", "n"), 7u);
  EXPECT_EQ(parse_unsigned("18446744073709551615", "n"), UINT64_MAX);
  for (const std::string bad :
       {"", "-1", "+6", "6junk", " 6", "6 ", "0x10", "18446744073709551616"}) {
    try {
      parse_unsigned(bad, "<n>");
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "<n>: bad value '" + bad + "'");
    }
  }
}

TEST(Parse, CountRejectsZero) {
  EXPECT_EQ(parse_count("3", "n"), 3u);
  EXPECT_THROW(parse_count("0", "n"), std::runtime_error);
}

TEST(Parse, ReadUnsignedReadsOneToken) {
  std::istringstream in("12 6junk  34");
  EXPECT_EQ(read_unsigned(in), std::optional<std::uint64_t>(12));
  EXPECT_EQ(read_unsigned(in), std::nullopt);
  EXPECT_EQ(read_unsigned(in), std::optional<std::uint64_t>(34));
  EXPECT_EQ(read_unsigned(in), std::nullopt);  // no token left
}

}  // namespace
}  // namespace fbist::util
