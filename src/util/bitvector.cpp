#include "util/bitvector.h"

#include <cassert>

namespace fbist::util {

namespace {
constexpr std::size_t words_for(std::size_t bits) {
  return (bits + BitVector::kWordBits - 1) / BitVector::kWordBits;
}
}  // namespace

BitVector::BitVector(std::size_t size, bool value)
    : size_(size), words_(words_for(size), value ? ~Word{0} : Word{0}) {
  clear_tail();
}

void BitVector::clear_tail() {
  const std::size_t rem = size_ % kWordBits;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= (Word{1} << rem) - 1;
  }
}

void BitVector::fill(bool value) {
  for (auto& w : words_) w = value ? ~Word{0} : Word{0};
  clear_tail();
}

void BitVector::write_word(std::size_t w, Word mask, Word bits) {
  assert(w < words_.size());
  words_[w] = (words_[w] & ~mask) | (bits & mask);
  if (w + 1 == words_.size()) clear_tail();
}

std::size_t BitVector::count() const {
  std::size_t n = 0;
  for (const Word w : words_) n += static_cast<std::size_t>(__builtin_popcountll(w));
  return n;
}

bool BitVector::none() const {
  for (const Word w : words_) {
    if (w != 0) return false;
  }
  return true;
}

std::size_t BitVector::find_first() const { return find_next(0); }

std::size_t BitVector::find_next(std::size_t from) const {
  if (from >= size_) return size_;
  std::size_t w = from / kWordBits;
  Word word = words_[w] & (~Word{0} << (from % kWordBits));
  while (true) {
    if (word != 0) {
      const std::size_t idx = w * kWordBits + static_cast<std::size_t>(__builtin_ctzll(word));
      return idx < size_ ? idx : size_;
    }
    if (++w == words_.size()) return size_;
    word = words_[w];
  }
}

std::size_t BitVector::find_last() const {
  for (std::size_t w = words_.size(); w-- > 0;) {
    if (words_[w] != 0) {
      const int high = 63 - __builtin_clzll(words_[w]);
      return w * kWordBits + static_cast<std::size_t>(high);
    }
  }
  return size_;
}

BitVector& BitVector::operator|=(const BitVector& o) {
  assert(size_ == o.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= o.words_[i];
  return *this;
}

BitVector& BitVector::operator&=(const BitVector& o) {
  assert(size_ == o.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= o.words_[i];
  return *this;
}

BitVector& BitVector::operator^=(const BitVector& o) {
  assert(size_ == o.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= o.words_[i];
  return *this;
}

BitVector& BitVector::and_not(const BitVector& o) {
  assert(size_ == o.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~o.words_[i];
  return *this;
}

bool BitVector::is_subset_of(const BitVector& o) const {
  assert(size_ == o.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & ~o.words_[i]) != 0) return false;
  }
  return true;
}

bool BitVector::intersects(const BitVector& o) const {
  assert(size_ == o.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & o.words_[i]) != 0) return true;
  }
  return false;
}

std::size_t BitVector::count_and(const BitVector& o) const {
  assert(size_ == o.size_);
  std::size_t n = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    n += static_cast<std::size_t>(__builtin_popcountll(words_[i] & o.words_[i]));
  }
  return n;
}

namespace {

/// Parallel bit extract: packs the bits of `x` selected by `m` into the
/// low bits of the result.  Hardware pext on BMI2 builds; the fallback
/// loops only over the set bits of the mask.
inline BitVector::Word pext_word(BitVector::Word x, BitVector::Word m) {
#if defined(__BMI2__)
  return __builtin_ia32_pext_di(x, m);
#else
  BitVector::Word out = 0;
  int k = 0;
  while (m != 0) {
    const BitVector::Word lowest = m & (~m + 1);
    if (x & lowest) out |= BitVector::Word{1} << k;
    ++k;
    m &= m - 1;
  }
  return out;
#endif
}

}  // namespace

BitVector BitVector::gather(const BitVector& mask) const {
  assert(size_ == mask.size_);
  BitVector out(mask.count());
  std::size_t pos = 0;  // next output bit
  for (std::size_t w = 0; w < words_.size(); ++w) {
    const Word m = mask.words_[w];
    if (m == 0) continue;
    const int k = __builtin_popcountll(m);
    // A full mask word keeps the whole word (the baseline pext_word
    // would loop 64 times for it).
    const Word packed = m == ~Word{0} ? words_[w] : pext_word(words_[w], m);
    const std::size_t off = pos % kWordBits;
    out.words_[pos / kWordBits] |= packed << off;
    if (off != 0 && off + static_cast<std::size_t>(k) > kWordBits) {
      out.words_[pos / kWordBits + 1] |= packed >> (kWordBits - off);
    }
    pos += static_cast<std::size_t>(k);
  }
  return out;
}

bool BitVector::operator==(const BitVector& o) const {
  return size_ == o.size_ && words_ == o.words_;
}

}  // namespace fbist::util
