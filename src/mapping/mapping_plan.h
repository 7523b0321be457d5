#pragma once

/// @file mapping_plan.h
/// Physical placement of a convolution onto crossbar arrays.
///
/// A MappingPlan makes the analytic cost model *executable*: it spells out,
/// for every AR x AC array programming ("tile"), what each array row means
/// (which input element relative to the parallel-window base) and what
/// each array column produces (which output channel at which window
/// position).  The functional executor (src/sim/executor.h) runs plans on
/// real tensors; the validator (plan_validate.h) checks their structural
/// invariants.
///
/// Coordinate conventions:
///  * window offsets (dy, dx) are in *padded* input pixels relative to the
///    parallel-window base;
///  * window positions (win_py, win_px) are in kernel-window units inside
///    the parallel window (column `win` computes output at base_window +
///    win);
///  * `dup` identifies the SMD duplicate block (always 0 for im2col / SDK /
///    VW-SDK plans).
///
/// **The cell rule.**  A plan stores no cells: every cell follows from its
/// row and column bindings.  Cell (rb.row, cb.col) holds the weight
/// W[cb.oc][rb.ic][ky][kx] with
///
///     (ky, kx) = (rb.dy - cb.win_py * stride_h, rb.dx - cb.win_px * stride_w)
///
/// iff that offset lies inside the kernel and rb.dup == cb.dup; every other
/// cell is a structural zero and stays unprogrammed.  The column for window
/// (win_py, win_px) thus holds the kernel shifted by the window position
/// (the "shifted and duplicated kernel" of SDK, Fig. 2(c)/(d)).  The same
/// rule covers every PlanKind: im2col columns have window 0 and rows whose
/// offset is the kernel coordinate itself, and SMD blocks differ in `dup`.
/// `cell_weight` is the one implementation of the rule.

#include <optional>
#include <vector>

#include "mapping/cost_model.h"
#include "pim/array_geometry.h"

namespace vwsdk {

/// What one array row carries on its wordline.
struct RowBinding {
  Dim row = 0;     ///< array row index
  Dim ic = 0;      ///< absolute input channel
  Dim dy = 0;      ///< vertical offset inside the parallel window
  Dim dx = 0;      ///< horizontal offset inside the parallel window
  Dim dup = 0;     ///< SMD duplicate block (0 otherwise)

  bool operator==(const RowBinding&) const = default;
};

/// What one array column produces on its bitline.
struct ColBinding {
  Dim col = 0;     ///< array column index
  Dim oc = 0;      ///< absolute output channel
  Dim win_px = 0;  ///< kernel-window x-index inside the parallel window
  Dim win_py = 0;  ///< kernel-window y-index inside the parallel window
  Dim dup = 0;     ///< SMD duplicate block (0 otherwise)

  bool operator==(const ColBinding&) const = default;
};

/// Kernel coordinate of the weight one programmed cell holds.
struct KernelOffset {
  Dim ky = 0;  ///< kernel row
  Dim kx = 0;  ///< kernel column
};

/// One array programming: the (ar_index, ac_index) tile of the mapping.
struct ArrayTile {
  Dim ar_index = 0;
  Dim ac_index = 0;
  std::vector<RowBinding> rows;
  std::vector<ColBinding> cols;
};

/// The cell rule (see the file comment): the kernel offset the cell at
/// (rb.row, cb.col) holds, or nullopt for a structural zero.
inline std::optional<KernelOffset> cell_weight(const ConvShape& shape,
                                               const RowBinding& rb,
                                               const ColBinding& cb) {
  const Dim ky = rb.dy - cb.win_py * shape.stride_h;
  const Dim kx = rb.dx - cb.win_px * shape.stride_w;
  if (rb.dup != cb.dup || ky < 0 || ky >= shape.kernel_h || kx < 0 ||
      kx >= shape.kernel_w) {
    return std::nullopt;
  }
  return KernelOffset{ky, kx};
}

/// The column classes of `tile`, one packed block each, in the order of
/// their first column binding.  A class is the columns that share a
/// window position and duplicate block: the cell rule reads a column
/// binding only through those, so every column of a class programs the
/// same rows, and its cells are exactly its block's `rows x cols` (rows
/// ascending, columns in binding order).  Every column binding lies in
/// exactly one block; a class whose window falls outside the tile's rows
/// has no rows.
std::vector<CellBlock> column_classes(const ConvShape& shape,
                                      const ArrayTile& tile);

/// Calls `fn(row_binding, col_binding, kernel_offset)` for every programmed
/// cell of `tile`, column by column in binding order, rows in binding
/// order within a column.
template <typename Fn>
void for_each_cell(const ConvShape& shape, const ArrayTile& tile, Fn&& fn) {
  for (const ColBinding& cb : tile.cols) {
    for (const RowBinding& rb : tile.rows) {
      if (const std::optional<KernelOffset> k = cell_weight(shape, rb, cb)) {
        fn(rb, cb, *k);
      }
    }
  }
}

/// Flavor of plan layout.
enum class PlanKind {
  kWindowed,      ///< VW-SDK: channel-granular parallel-window tiles
  kWindowedSplit, ///< SDK entire-channel windows: window rows split at
                  ///< element granularity, columns split at column
                  ///< granularity (Eq. (1) semantics)
  kIm2colDense,   ///< im2col: flattened column split at element granularity
  kSmd            ///< sub-matrix duplication: block-diagonal im2col copies
};

/// A complete physical mapping of one conv layer onto one array geometry.
struct MappingPlan {
  ConvShape shape{};
  ArrayGeometry geometry{};
  CycleCost cost{};         ///< the analytic cost this plan realizes
  PlanKind kind = PlanKind::kWindowed;

  /// Parallel-window base positions in padded input pixels, per axis.
  /// The full base grid is the cross product base_y x base_x.  For SMD the
  /// grid is replaced by chunks of `cost.smd_duplicates` windows.
  std::vector<Dim> base_x;
  std::vector<Dim> base_y;

  /// All AR x AC tiles, ar-major (tile(ar, ac) = tiles[ar * AC + ac]).
  std::vector<ArrayTile> tiles;

  /// Bounds-checked tile accessor.
  const ArrayTile& tile(Dim ar, Dim ac) const;

  /// Total computing cycles this plan executes:
  /// base-grid positions (or SMD chunks) x tiles.
  Cycles total_cycles() const;

  /// Total programmed cells across all tiles: the rows x columns of every
  /// tile's column classes.
  Count programmed_cells() const;
};

}  // namespace vwsdk
