#include "sim/pattern.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace fbist::sim {

namespace {

/// In-place transpose of a 64x64 bit matrix, bit c of a[r] being entry
/// (r, c): swaps the off-diagonal 32x32 blocks, then the 16x16 blocks
/// inside each, and so on down to single bits (H. S. Warren, Hacker's
/// Delight, 2nd ed., section 7-3).
void transpose64(std::uint64_t a[64]) {
  std::uint64_t m = 0x00000000FFFFFFFFull;
  for (std::size_t j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (std::size_t k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & m;
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
  }
}

}  // namespace

PatternSet::PatternSet(std::size_t num_inputs, std::size_t num_patterns)
    : num_inputs_(num_inputs), num_patterns_(num_patterns), capacity_(num_patterns) {
  slices_.assign(num_inputs, util::BitVector(num_patterns));
}

bool PatternSet::get(std::size_t pattern, std::size_t input) const {
  assert(pattern < num_patterns_ && input < num_inputs_);
  return slices_[input].get(pattern);
}

void PatternSet::set(std::size_t pattern, std::size_t input, bool value) {
  assert(pattern < num_patterns_ && input < num_inputs_);
  slices_[input].set(pattern, value);
}

void PatternSet::ensure_capacity(std::size_t patterns) {
  if (patterns <= capacity_) return;
  std::size_t new_cap = capacity_ == 0 ? 64 : capacity_;
  while (new_cap < patterns) new_cap *= 2;
  for (auto& slice : slices_) {
    util::BitVector grown(new_cap);
    slice.for_each_set([&grown](std::size_t i) { grown.set(i); });
    slice = std::move(grown);
  }
  capacity_ = new_cap;
}

void PatternSet::append(const util::WideWord& pattern) {
  if (num_inputs_ == 0 && slices_.empty()) {
    num_inputs_ = pattern.bits();
    slices_.assign(num_inputs_, util::BitVector(0));
    capacity_ = 0;
  }
  if (pattern.bits() != num_inputs_) {
    throw std::invalid_argument("PatternSet::append: width mismatch");
  }
  ensure_capacity(num_patterns_ + 1);
  for (std::size_t i = 0; i < num_inputs_; ++i) {
    if (pattern.get_bit(i)) slices_[i].set(num_patterns_);
  }
  ++num_patterns_;
}

void PatternSet::append(const std::vector<bool>& pattern) {
  util::WideWord w(pattern.size());
  for (std::size_t i = 0; i < pattern.size(); ++i) w.set_bit(i, pattern[i]);
  append(w);
}

void PatternSet::append_all(const PatternSet& other) {
  if (other.empty()) return;
  if (num_inputs_ == 0 && num_patterns_ == 0) {
    *this = other;
    return;
  }
  if (other.num_inputs_ != num_inputs_) {
    throw std::invalid_argument("PatternSet::append_all: width mismatch");
  }
  ensure_capacity(num_patterns_ + other.num_patterns_);
  for (std::size_t i = 0; i < num_inputs_; ++i) {
    const std::size_t base = num_patterns_;
    other.slices_[i].for_each_set(
        [&](std::size_t p) { slices_[i].set(base + p); });
  }
  num_patterns_ += other.num_patterns_;
}

util::WideWord PatternSet::pattern(std::size_t p) const {
  assert(p < num_patterns_);
  util::WideWord w(num_inputs_);
  for (std::size_t i = 0; i < num_inputs_; ++i) {
    if (slices_[i].get(p)) w.set_bit(i, true);
  }
  return w;
}

void PatternSet::write_patterns(std::size_t base, const PatternSet& src) {
  if (src.num_inputs_ != num_inputs_) {
    throw std::invalid_argument("PatternSet::write_patterns: width mismatch");
  }
  assert(base + src.num_patterns_ <= num_patterns_);
  for (std::size_t i = 0; i < num_inputs_; ++i) {
    for (std::size_t p = 0; p < src.num_patterns_; ++p) {
      slices_[i].set(base + p, src.slices_[i].get(p));
    }
  }
}

void PatternSet::write_tile(std::size_t base, std::size_t count,
                            const std::uint64_t* rows) {
  assert(base % 64 + count <= 64 && base + count <= num_patterns_);
  if (count == 0) return;
  const std::size_t words = (num_inputs_ + 63) / 64;
  const std::size_t lane0 = base % 64;
  const std::uint64_t lanes =
      (count == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << count) - 1)
      << lane0;
  std::uint64_t block[64];
  for (std::size_t w = 0; w < words; ++w) {
    // block[lane] = inputs [64w, 64w + 64) of the lane's pattern; after
    // the transpose block[b] holds input 64w + b across the 64 lanes.
    std::fill(block, block + 64, std::uint64_t{0});
    for (std::size_t j = 0; j < count; ++j) block[lane0 + j] = rows[j * words + w];
    transpose64(block);
    const std::size_t inputs = std::min<std::size_t>(64, num_inputs_ - 64 * w);
    for (std::size_t b = 0; b < inputs; ++b) {
      slices_[64 * w + b].write_word(base / 64, lanes, block[b]);
    }
  }
}

PatternSet PatternSet::random(std::size_t num_inputs, std::size_t num_patterns,
                              util::Rng& rng) {
  PatternSet ps(num_inputs, num_patterns);
  for (std::size_t p = 0; p < num_patterns; ++p) {
    for (std::size_t i = 0; i < num_inputs; ++i) {
      if (rng.next_bool()) ps.set(p, i, true);
    }
  }
  return ps;
}

std::string PatternSet::pattern_string(std::size_t p) const {
  std::string s(num_inputs_, '0');
  for (std::size_t i = 0; i < num_inputs_; ++i) {
    if (get(p, i)) s[i] = '1';
  }
  return s;
}

std::vector<LanePacking> pack_rows(const std::vector<std::size_t>& lengths) {
  std::vector<LanePacking> packings;
  LanePacking cur;
  const auto flush = [&] {
    if (!cur.rows.empty()) packings.push_back(std::move(cur));
    cur = LanePacking{};
  };
  for (std::size_t r = 0; r < lengths.size(); ++r) {
    const std::size_t len = lengths[r];
    if (len > kChunkBlocks * 64) {
      // Too long for any packing: the row gets blocks of its own.
      flush();
      cur.rows.push_back({r, 0, len});
      cur.num_patterns = len;
      flush();
      continue;
    }
    std::size_t base = cur.num_patterns;
    if (base % 64 != 0 && base % 64 + len > 64) {
      base = (base / 64 + 1) * 64;  // next block
    }
    if ((base + len + 63) / 64 > kChunkBlocks) {
      flush();
      base = 0;
    }
    cur.rows.push_back({r, base, len});
    cur.num_patterns = base + len;
  }
  flush();
  return packings;
}

}  // namespace fbist::sim
