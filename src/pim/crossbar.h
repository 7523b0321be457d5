#pragma once

/// @file crossbar.h
/// Functional model of one PIM crossbar array.
///
/// A crossbar stores a weight in each cell (abstracting the conductance of
/// an RRAM device or the stored charge of an SRAM-CIM bitcell; see
/// DESIGN.md §2 for the substitution note).  One *computing cycle* drives a
/// voltage vector on the rows and reads the accumulated currents on the
/// columns:
///
///     current[col] = ADC( Σ_row  input[row] * cell[row][col] )
///
/// which is exactly one analog vector-matrix multiplication.  Every cycle
/// on a programmed array drives the same cells, so a batch of cycles is
/// one matrix product, computed by the shared MVM kernel
/// (`gemm_accumulate`, tensor/gemm_backend.h: a register-tiled kernel,
/// AVX2 where the CPU has it, whose every read-out is the scalar
/// ascending-row sum bit for bit).  The model is functional, not
/// electrical: value types are doubles, non-idealities are injected
/// through ConverterModel (quantization) and NoiseModel (device
/// variation).
///
/// **Compact tiles.**  A mapping tile binds the array's rows and columns
/// from index 0 upwards (mapping/plan_builder.h), so everything it uses
/// lies in the top-left `bound_rows x bound_cols` block.  The crossbar
/// stores and computes that block only: cells outside it are unbound,
/// read as 0 and cannot be programmed, and a cycle drives `bound_rows`
/// inputs and reads `bound_cols` columns.  Dropping the unbound terms is
/// bitwise exact: unbound rows drive 0 into cells that hold 0, and a sum
/// that starts at +0.0 never becomes -0.0, so adding those +0.0 terms
/// never changed a bound column's read-out.
///
/// The crossbar refuses to program a cell twice -- the physical analogue
/// of a mapping bug -- and counts its programmed cells.

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "pim/adc.h"
#include "pim/array_geometry.h"
#include "pim/noise.h"

namespace vwsdk {

/// One functional crossbar array.
class Crossbar {
 public:
  /// A crossbar of `geometry` whose tile binds the top-left
  /// `bound_rows x bound_cols` block, all cells erased (zero, not
  /// programmed); throws InvalidArgument unless the block is non-empty
  /// and inside the array.
  Crossbar(ArrayGeometry geometry, Dim bound_rows, Dim bound_cols);

  const ArrayGeometry& geometry() const { return geometry_; }
  Dim bound_rows() const { return bound_rows_; }
  Dim bound_cols() const { return bound_cols_; }

  /// Program one cell with a weight value.  Programming the same cell
  /// twice, or a cell outside the bound block, throws InvalidArgument:
  /// mapping plans must never collide (each plan owns each cell for
  /// exactly one purpose).  Optional noise is applied at programming
  /// time, as on real hardware.
  void program(Dim row, Dim col, double value, NoiseModel* noise = nullptr);

  /// The stored value of a cell (zero if never programmed or unbound).
  double cell(Dim row, Dim col) const;

  /// A batch of computing cycles on the bound block: `input` holds one
  /// vector of `bound_rows` drives per cycle (entries for idle rows are
  /// 0), so its length must be a positive multiple of bound_rows, and
  /// `output` receives `batch x bound_cols` column values, row-major,
  /// each read-out passed through the ADC model.  Terms accumulate in
  /// ascending row order, so cycle i of a batch is bitwise identical to
  /// computing it alone.
  void compute(std::span<const double> input, std::span<double> output,
               const ConverterModel& adc = {}) const;

  /// Number of programmed cells (utilization numerator, weight-cell
  /// convention of Eq. (9)).
  Count programmed_cell_count() const { return programmed_count_; }

 private:
  /// Index of (row, col) in the bound block, or -1 for an unbound cell;
  /// throws for a cell outside the array.
  Count index(Dim row, Dim col) const;

  ArrayGeometry geometry_;
  Dim bound_rows_;
  Dim bound_cols_;
  std::vector<double> cells_;  // bound_rows x bound_cols, row-major
  std::vector<std::uint64_t> programmed_;  // one bit per bound cell
  Count programmed_count_ = 0;
};

}  // namespace vwsdk
