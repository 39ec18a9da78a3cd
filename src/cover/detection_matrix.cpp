#include "cover/detection_matrix.h"

#include <stdexcept>

namespace fbist::cover {

DetectionMatrix::DetectionMatrix(std::size_t rows, std::size_t cols)
    : cols_(cols), rows_(rows, util::BitVector(cols)) {}

void DetectionMatrix::set_row(std::size_t r, util::BitVector bits) {
  if (bits.size() != cols_) {
    throw std::invalid_argument("DetectionMatrix::set_row: width mismatch");
  }
  rows_[r] = std::move(bits);
}

util::BitVector DetectionMatrix::coverable() const {
  util::BitVector u(cols_);
  for (const auto& r : rows_) u |= r;
  return u;
}

bool DetectionMatrix::all_columns_coverable() const {
  return coverable().count() == cols_;
}

std::size_t DetectionMatrix::density() const {
  std::size_t n = 0;
  for (const auto& r : rows_) n += r.count();
  return n;
}

void DetectionMatrix::track_earliest() {
  earliest_.assign(rows_.size() * cols_, kNone);
  tracks_earliest_ = true;
}

}  // namespace fbist::cover
