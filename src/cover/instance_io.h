// Covering-instance exchange format.
//
// Lets detection matrices (or any unicost set-covering instance) be
// dumped, versioned and re-solved offline — e.g. to compare this
// library's exact solver against an external ILP tool, which is exactly
// the role LINGO plays in the paper's flow.
//
// Format (line oriented, '#' comments):
//   scp <rows> <cols>
//   row <col> <col> ...      # one line per row: covered column indices
//
// Empty rows are legal (a triplet that detects nothing); every column
// must be covered by some row for the instance to be solvable.
#pragma once

#include <string>

#include "cover/detection_matrix.h"

namespace fbist::cover {

/// The `.scp` codec.  instance_from_string throws std::runtime_error
/// with a line-numbered message on malformed input.  The CLI writes
/// `matrix --out` files and reads `solve` inputs through util::io
/// (util/guarded_io.h).
std::string instance_to_string(const DetectionMatrix& m);
DetectionMatrix instance_from_string(const std::string& text);

}  // namespace fbist::cover
