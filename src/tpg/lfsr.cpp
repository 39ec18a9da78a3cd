#include "tpg/lfsr.h"

#include <algorithm>
#include <stdexcept>

namespace fbist::tpg {

LfsrTpg::LfsrTpg(std::size_t width, std::vector<std::size_t> taps)
    : width_(width), taps_(std::move(taps)) {
  if (width_ == 0) throw std::invalid_argument("LfsrTpg: zero width");
  if (taps_.empty()) {
    for (const std::size_t t : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
      if (t < width_) taps_.push_back(t);
    }
    if (width_ > 1) taps_.push_back(width_ - 1);
  }
  std::sort(taps_.begin(), taps_.end());
  taps_.erase(std::unique(taps_.begin(), taps_.end()), taps_.end());
  for (const std::size_t t : taps_) {
    if (t >= width_) throw std::invalid_argument("LfsrTpg: tap beyond width");
  }
}

std::string LfsrTpg::config_string() const {
  std::string s = "taps:";
  for (std::size_t i = 0; i < taps_.size(); ++i) {
    if (i != 0) s += ',';
    s += std::to_string(taps_[i]);
  }
  return s;
}

void LfsrTpg::advance(util::WideWord& state,
                      const util::WideWord& sigma) const {
  bool feedback = false;
  for (const std::size_t t : taps_) feedback ^= state.get_bit(t);
  state.shl1(feedback);
  state.bxor(sigma);
}

}  // namespace fbist::tpg
