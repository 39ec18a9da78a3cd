#include "cover/instance_io.h"

#include <optional>
#include <sstream>
#include <stdexcept>

#include "util/parse.h"

namespace fbist::cover {

std::string instance_to_string(const DetectionMatrix& m) {
  std::ostringstream out;
  out << "scp " << m.num_rows() << " " << m.num_cols() << "\n";
  for (std::size_t r = 0; r < m.num_rows(); ++r) {
    out << "row";
    m.row(r).for_each_set([&](std::size_t c) { out << ' ' << c; });
    out << "\n";
  }
  return out.str();
}

DetectionMatrix instance_from_string(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  auto fail = [&](const std::string& msg) -> void {
    throw std::runtime_error("scp line " + std::to_string(line_no) + ": " + msg);
  };

  DetectionMatrix m;
  std::size_t rows = 0, cols = 0, next_row = 0;
  bool header_seen = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string key;
    ss >> key;
    if (!header_seen) {
      if (key != "scp") fail("expected 'scp <rows> <cols>' header");
      const std::optional<std::uint64_t> r = util::read_unsigned(ss);
      const std::optional<std::uint64_t> c = util::read_unsigned(ss);
      if (!r || !c) fail("bad header dimensions");
      rows = *r;
      cols = *c;
      m = DetectionMatrix(rows, cols);
      header_seen = true;
      continue;
    }
    if (key != "row") fail("expected 'row' record");
    if (next_row >= rows) fail("more rows than declared");
    while (!(ss >> std::ws).eof()) {
      const std::optional<std::uint64_t> c = util::read_unsigned(ss);
      if (!c) fail("bad column index");
      if (*c >= cols) fail("column index out of range");
      m.set(next_row, *c);
    }
    ++next_row;
  }
  if (!header_seen) throw std::runtime_error("scp: empty input");
  if (next_row != rows) {
    throw std::runtime_error("scp: declared " + std::to_string(rows) +
                             " rows, found " + std::to_string(next_row));
  }
  return m;
}

}  // namespace fbist::cover
