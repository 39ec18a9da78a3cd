#include "reseed/serialize.h"

#include <charconv>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/parse.h"

namespace fbist::reseed {

void check_version_header(const std::string& key, const std::string& version,
                          const char* magic, const char* want_version) {
  if (key != magic) {
    throw std::runtime_error(std::string(magic) + ": expected '" + magic + " " +
                             want_version + "' header, found '" + key + "'");
  }
  if (version != want_version) {
    throw std::runtime_error(std::string(magic) + ": unsupported version '" +
                             version + "' (this build reads '" + want_version +
                             "'); rebuild or evict the blob");
  }
}

std::string rest_of_line(const std::string& line, const std::string& key) {
  // `key` is the line's first token, so its first occurrence is it.
  const std::size_t start = line.find(key) + key.size() + 1;
  return start >= line.size() ? std::string() : line.substr(start);
}

std::size_t RomImage::test_length() const {
  std::size_t n = 0;
  for (const auto& t : triplets) n += t.cycles;
  return n;
}

std::size_t RomImage::rom_bits() const {
  return triplets.size() * (2 * width + 32);
}

bool RomImage::operator==(const RomImage& o) const {
  if (circuit != o.circuit || tpg_name != o.tpg_name || width != o.width ||
      triplets.size() != o.triplets.size()) {
    return false;
  }
  for (std::size_t i = 0; i < triplets.size(); ++i) {
    if (!(triplets[i].delta == o.triplets[i].delta) ||
        !(triplets[i].sigma == o.triplets[i].sigma) ||
        triplets[i].cycles != o.triplets[i].cycles) {
      return false;
    }
  }
  return true;
}

RomImage to_rom_image(const ReseedingSolution& sol, const std::string& circuit,
                      const std::string& tpg_name, std::size_t width) {
  RomImage rom;
  rom.circuit = circuit;
  rom.tpg_name = tpg_name;
  rom.width = width;
  rom.triplets.reserve(sol.selected.size());
  for (const auto& st : sol.selected) rom.triplets.push_back(st.triplet);
  return rom;
}

std::string rom_to_string(const RomImage& rom) {
  std::ostringstream out;
  out << "fbist-rom v1\n";
  out << "circuit " << rom.circuit << "\n";
  out << "tpg " << rom.tpg_name << "\n";
  out << "width " << rom.width << "\n";
  out << "# " << rom.triplets.size() << " triplets, " << rom.test_length()
      << " patterns, " << rom.rom_bits() << " ROM bits\n";
  for (const auto& t : rom.triplets) {
    out << "triplet " << t.delta.to_hex() << " " << t.sigma.to_hex() << " "
        << t.cycles << "\n";
  }
  return out.str();
}

RomImage rom_from_string(const std::string& text) {
  std::istringstream in(text);
  RomImage rom;
  std::string line;
  std::size_t line_no = 0;
  bool header_seen = false;

  auto fail = [&](const std::string& msg) -> void {
    throw std::runtime_error("rom line " + std::to_string(line_no) + ": " + msg);
  };

  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string key;
    ss >> key;
    if (!header_seen) {
      std::string version;
      ss >> version;
      try {
        check_version_header(key, version, "fbist-rom", "v1");
      } catch (const std::runtime_error& e) {
        fail(e.what());
      }
      header_seen = true;
      continue;
    }
    if (key == "circuit") {
      rom.circuit = rest_of_line(line, key);
    } else if (key == "tpg") {
      ss >> rom.tpg_name;
    } else if (key == "width") {
      const std::optional<std::uint64_t> width = util::read_unsigned(ss);
      if (!width || *width == 0) fail("bad width");
      rom.width = *width;
    } else if (key == "triplet") {
      if (rom.width == 0) fail("triplet before width");
      std::string delta_hex, sigma_hex;
      ss >> delta_hex >> sigma_hex;
      const std::optional<std::uint64_t> cycles = util::read_unsigned(ss);
      if (!cycles || *cycles == 0) fail("bad triplet record");
      if (*cycles > cover::DetectionMatrix::kMaxCycles) {
        fail("triplet length " + std::to_string(*cycles) + " not in 1.." +
             std::to_string(cover::DetectionMatrix::kMaxCycles));
      }
      tpg::Triplet t;
      try {
        t.delta = util::WideWord::from_hex(rom.width, delta_hex);
        t.sigma = util::WideWord::from_hex(rom.width, sigma_hex);
      } catch (const std::invalid_argument& e) {
        fail(e.what());
      }
      t.cycles = *cycles;
      rom.triplets.push_back(std::move(t));
    } else {
      fail("unknown record '" + key + "'");
    }
  }
  if (!header_seen) throw std::runtime_error("rom: empty input");
  if (rom.circuit.empty() || rom.tpg_name.empty() || rom.width == 0) {
    throw std::runtime_error("rom: incomplete header (circuit/tpg/width)");
  }
  return rom;
}

namespace {

void append_decimal(std::string& out, std::uint64_t v) {
  char buf[20];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// Appends `w` as 16 lowercase hex digits, zero-padded.
void append_hex_word(std::string& out, std::uint64_t w) {
  static constexpr char kDigits[] = "0123456789abcdef";
  char buf[16];
  for (int i = 15; i >= 0; --i, w >>= 4) buf[i] = kDigits[w & 0xf];
  out.append(buf, sizeof buf);
}

}  // namespace

cover::DetectionMatrix matrix_from_string(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;

  auto fail = [&](const std::string& msg) -> void {
    throw std::runtime_error("dmx line " + std::to_string(line_no) + ": " + msg);
  };

  bool header_seen = false;
  bool dims_seen = false;
  int has_earliest = -1;
  std::size_t rows = 0, cols = 0, row_words = 0;
  cover::DetectionMatrix m;

  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string key;
    ss >> key;
    if (!header_seen) {
      std::string version;
      ss >> version;
      try {
        check_version_header(key, version, "fbist-dmx", "v1");
      } catch (const std::runtime_error& e) {
        fail(e.what());
      }
      header_seen = true;
      continue;
    }
    if (key == "dims") {
      // Earliest cells are written in place, so the shape and the flag
      // are set once.
      if (dims_seen) fail("duplicate dims");
      const std::optional<std::uint64_t> r = util::read_unsigned(ss);
      const std::optional<std::uint64_t> c = util::read_unsigned(ss);
      if (!r || !c) fail("bad dims");
      rows = *r;
      cols = *c;
      m = cover::DetectionMatrix(rows, cols);
      row_words = (cols + 63) / 64;
      dims_seen = true;
    } else if (key == "has-earliest") {
      if (has_earliest != -1) fail("duplicate has-earliest");
      const std::optional<std::uint64_t> flag = util::read_unsigned(ss);
      if (!flag || *flag > 1) fail("bad has-earliest flag");
      has_earliest = static_cast<int>(*flag);
      if (!dims_seen) fail("has-earliest before dims");
      if (has_earliest == 1) m.track_earliest();
    } else if (key == "row") {
      if (!dims_seen) fail("row before dims");
      const std::optional<std::uint64_t> index = util::read_unsigned(ss);
      if (!index || *index >= rows) fail("bad row index");
      const std::size_t r = *index;
      for (std::size_t w = 0; w < row_words; ++w) {
        std::string hex;
        ss >> hex;
        if (ss.fail() || hex.size() != 16) fail("bad row word");
        util::BitVector::Word word = 0;
        for (const char ch : hex) {
          int digit;
          if (ch >= '0' && ch <= '9') {
            digit = ch - '0';
          } else if (ch >= 'a' && ch <= 'f') {
            digit = ch - 'a' + 10;
          } else {
            fail("bad hex digit in row word");
            digit = 0;  // unreachable
          }
          word = (word << 4) | static_cast<util::BitVector::Word>(digit);
        }
        util::BitVector::Word bits = word;
        while (bits != 0) {
          const int b = __builtin_ctzll(bits);
          const std::size_t c = w * 64 + static_cast<std::size_t>(b);
          if (c >= cols) fail("row bit beyond cols");
          m.set(r, c);
          bits &= bits - 1;
        }
      }
    } else if (key == "edet") {
      if (has_earliest != 1) fail("edet record without has-earliest 1");
      const std::optional<std::uint64_t> r = util::read_unsigned(ss);
      const std::optional<std::uint64_t> k = util::read_unsigned(ss);
      if (!r || !k || *r >= rows) fail("bad edet header");
      for (std::uint64_t i = 0; i < *k; ++i) {
        const std::optional<std::uint64_t> c = util::read_unsigned(ss);
        const std::optional<std::uint64_t> e = util::read_unsigned(ss);
        if (!c || !e || *c >= cols) fail("bad edet pair");
        if (*e >= cover::DetectionMatrix::kMaxCycles) {
          fail("edet index " + std::to_string(*e) + " not below " +
               std::to_string(cover::DetectionMatrix::kMaxCycles));
        }
        m.set_earliest(*r, *c, static_cast<std::uint32_t>(*e));
      }
    } else {
      fail("unknown record '" + key + "'");
    }
  }
  if (!header_seen) throw std::runtime_error("dmx: empty input");
  if (!dims_seen) throw std::runtime_error("dmx: missing dims");
  if (has_earliest == -1) throw std::runtime_error("dmx: missing has-earliest");
  return m;
}

std::string matrix_to_string(const cover::DetectionMatrix& m) {
  const std::size_t rows = m.num_rows();
  const std::size_t cols = m.num_cols();
  std::string out = "fbist-dmx v1\ndims ";
  append_decimal(out, rows);
  out += ' ';
  append_decimal(out, cols);
  out += m.has_earliest() ? "\nhas-earliest 1\n" : "\nhas-earliest 0\n";
  out.reserve(out.size() + rows * (26 + 17 * ((cols + 63) / 64)));
  for (std::size_t r = 0; r < rows; ++r) {
    out += "row ";
    append_decimal(out, r);
    for (const util::BitVector::Word w : m.row(r).words()) {
      out += ' ';
      append_hex_word(out, w);
    }
    out += '\n';
  }
  if (!m.has_earliest()) return out;
  // Earliest indices are sparse in practice (only detected pairs carry
  // one), so each row stores its (col, index) pairs, not the full C
  // vector.  Detected bits and earliest entries coincide by
  // construction, but the format does not assume it: pairs round-trip
  // whatever the matrix holds.
  std::vector<std::pair<std::size_t, std::uint32_t>> pairs;
  for (std::size_t r = 0; r < rows; ++r) {
    pairs.clear();
    for (std::size_t c = 0; c < cols; ++c) {
      const std::uint32_t e = m.earliest(r, c);
      if (e != UINT32_MAX) pairs.emplace_back(c, e);
    }
    out += "edet ";
    append_decimal(out, r);
    out += ' ';
    append_decimal(out, pairs.size());
    for (const auto& [c, e] : pairs) {
      out += ' ';
      append_decimal(out, c);
      out += ' ';
      append_decimal(out, e);
    }
    out += '\n';
  }
  return out;
}

}  // namespace fbist::reseed
