#pragma once

/// @file array_geometry.h
/// Geometry of a PIM crossbar array: rows (input/wordlines, the paper's
/// 2^X) and columns (output/bitlines, the paper's 2^Y).

#include <string>
#include <vector>

#include "common/types.h"

namespace vwsdk {

/// rows x cols of memory cells.  The literature's arrays are powers of two
/// (128x128 ... 512x512) but nothing in the model requires it.
struct ArrayGeometry {
  Dim rows = 0;  ///< number of wordlines (2^X in the paper)
  Dim cols = 0;  ///< number of bitlines  (2^Y in the paper)

  /// Total cells.
  Count cell_count() const { return static_cast<Count>(rows) * cols; }

  /// Validate positivity; throws InvalidArgument.
  void validate() const;

  /// "512x512"
  std::string to_string() const;

  bool operator==(const ArrayGeometry&) const = default;
};

/// A packed block of an array's cells: `rows` (strictly ascending) by
/// `cols` (distinct).  A mapping tile has one per column class
/// (column_classes, mapping/mapping_plan.h); a Crossbar stores and
/// multiplies its cells as one dense row-major matrix (pim/crossbar.h).
struct CellBlock {
  std::vector<Dim> rows;  ///< array rows, ascending
  std::vector<Dim> cols;  ///< array columns, in read-out order
};

/// Parse "RxC" (e.g. "512x256", case-insensitive 'x').
ArrayGeometry parse_geometry(const std::string& text);

/// The five array sizes evaluated in Fig. 8(b) of the paper, in its order:
/// 128x128, 128x256, 256x256, 512x256, 512x512.
std::vector<ArrayGeometry> paper_geometries();

}  // namespace vwsdk
