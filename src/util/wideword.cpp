#include "util/wideword.h"

#include <cassert>
#include <stdexcept>

#include "util/rng.h"

namespace fbist::util {

namespace {
constexpr std::size_t words_for(std::size_t bits) {
  return (bits + WideWord::kWordBits - 1) / WideWord::kWordBits;
}
}  // namespace

WideWord::WideWord(std::size_t bits) : bits_(bits), words_(words_for(bits), 0) {}

WideWord::WideWord(std::size_t bits, std::uint64_t value) : WideWord(bits) {
  if (!words_.empty()) {
    words_[0] = value;
    clear_tail();
  }
}

void WideWord::clear_tail() {
  const std::size_t rem = bits_ % kWordBits;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= (Word{1} << rem) - 1;
  }
}

bool WideWord::get_bit(std::size_t i) const {
  assert(i < bits_);
  return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
}

void WideWord::set_bit(std::size_t i, bool value) {
  assert(i < bits_);
  const Word mask = Word{1} << (i % kWordBits);
  if (value) {
    words_[i / kWordBits] |= mask;
  } else {
    words_[i / kWordBits] &= ~mask;
  }
}

bool WideWord::is_zero() const {
  for (const Word w : words_) {
    if (w != 0) return false;
  }
  return true;
}

WideWord& WideWord::add(const WideWord& o) {
  assert(bits_ == o.bits_);
  unsigned __int128 carry = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    const unsigned __int128 sum =
        static_cast<unsigned __int128>(words_[i]) + o.words_[i] + carry;
    words_[i] = static_cast<Word>(sum);
    carry = sum >> 64;
  }
  clear_tail();
  return *this;
}

WideWord& WideWord::sub(const WideWord& o) {
  assert(bits_ == o.bits_);
  unsigned __int128 borrow = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    const unsigned __int128 lhs = words_[i];
    const unsigned __int128 rhs = static_cast<unsigned __int128>(o.words_[i]) + borrow;
    words_[i] = static_cast<Word>(lhs - rhs);
    borrow = lhs < rhs ? 1 : 0;
  }
  clear_tail();
  return *this;
}

WideWord& WideWord::mul(const WideWord& o) {
  assert(bits_ == o.bits_);
  // Squaring: the loop below reads o while it writes *this.
  if (&o == this) return mul(WideWord(o));
  // Schoolbook, in place, top word first: pass i adds words_[i] * o,
  // shifted by i words and truncated, into words [i, n).  When pass i
  // reads words_[i], every higher word already holds its share of the
  // product and every lower word still holds this operand.
  const std::size_t n = words_.size();
  for (std::size_t i = n; i-- > 0;) {
    const Word a = words_[i];
    if (a == 0) continue;
    words_[i] = 0;
    unsigned __int128 carry = 0;
    for (std::size_t j = 0; i + j < n; ++j) {
      const unsigned __int128 cur =
          static_cast<unsigned __int128>(a) * o.words_[j] + words_[i + j] + carry;
      words_[i + j] = static_cast<Word>(cur);
      carry = cur >> 64;
    }
  }
  clear_tail();
  return *this;
}

WideWord& WideWord::bxor(const WideWord& o) {
  assert(bits_ == o.bits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= o.words_[i];
  return *this;
}

WideWord& WideWord::band(const WideWord& o) {
  assert(bits_ == o.bits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= o.words_[i];
  return *this;
}

bool WideWord::shl1(bool carry_in) {
  const bool out = bits_ > 0 && get_bit(bits_ - 1);
  Word carry = carry_in ? 1 : 0;
  for (auto& w : words_) {
    const Word next_carry = w >> 63;
    w = (w << 1) | carry;
    carry = next_carry;
  }
  clear_tail();
  return out;
}

bool WideWord::shr1(bool carry_in) {
  bool out = bits_ > 0 && (words_[0] & 1u);
  Word carry = 0;
  for (std::size_t i = words_.size(); i-- > 0;) {
    const Word next_carry = words_[i] & 1u;
    words_[i] = (words_[i] >> 1) | (carry << 63);
    carry = next_carry;
  }
  if (carry_in && bits_ > 0) set_bit(bits_ - 1, true);
  return out;
}

std::size_t WideWord::popcount() const {
  std::size_t n = 0;
  for (const Word w : words_) n += static_cast<std::size_t>(__builtin_popcountll(w));
  return n;
}

bool WideWord::operator==(const WideWord& o) const {
  return bits_ == o.bits_ && words_ == o.words_;
}

bool WideWord::operator<(const WideWord& o) const {
  assert(bits_ == o.bits_);
  for (std::size_t i = words_.size(); i-- > 0;) {
    if (words_[i] != o.words_[i]) return words_[i] < o.words_[i];
  }
  return false;
}

std::string WideWord::to_hex() const {
  static const char* digits = "0123456789abcdef";
  const std::size_t nibbles = (bits_ + 3) / 4;
  std::string out(nibbles == 0 ? 1 : nibbles, '0');
  for (std::size_t n = 0; n < nibbles; ++n) {
    const std::size_t bit = n * 4;
    unsigned v = 0;
    for (unsigned b = 0; b < 4 && bit + b < bits_; ++b) {
      if (get_bit(bit + b)) v |= 1u << b;
    }
    out[out.size() - 1 - n] = digits[v];
  }
  return out;
}

WideWord WideWord::from_hex(std::size_t bits, const std::string& hex) {
  WideWord w(bits);
  std::size_t bit = 0;
  for (std::size_t i = hex.size(); i-- > 0 && bit < bits;) {
    const char c = hex[i];
    unsigned v = 0;
    if (c >= '0' && c <= '9') {
      v = static_cast<unsigned>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v = static_cast<unsigned>(c - 'a') + 10;
    } else if (c >= 'A' && c <= 'F') {
      v = static_cast<unsigned>(c - 'A') + 10;
    } else {
      throw std::invalid_argument("WideWord::from_hex: bad digit");
    }
    for (unsigned b = 0; b < 4 && bit < bits; ++b, ++bit) {
      if (v & (1u << b)) w.set_bit(bit, true);
    }
  }
  return w;
}

WideWord WideWord::random(std::size_t bits, Rng& rng) {
  WideWord w(bits);
  for (auto& word : w.words_) word = rng.next_u64();
  w.clear_tail();
  return w;
}

}  // namespace fbist::util
