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
/// one matrix product per packed block (below), computed by the shared
/// MVM kernel (`gemm_accumulate`, tensor/gemm_backend.h: a register-tiled
/// kernel, AVX2 where the CPU has it, whose every read-out is the scalar
/// ascending-row sum bit for bit).  The model is functional, not
/// electrical: value types are doubles, non-idealities are injected
/// through ConverterModel (quantization) and NoiseModel (device
/// variation).
///
/// **Compact tiles.**  A mapping tile binds the array's rows and columns
/// from index 0 upwards (mapping/plan_builder.h), so everything it uses
/// lies in the top-left `bound_rows x bound_cols` block.  A cycle drives
/// `bound_rows` inputs and reads `bound_cols` columns; cells outside that
/// block are unbound, read as 0 and cannot be programmed.
///
/// **Packed blocks.**  Inside the bound block the crossbar stores only
/// the cells a list of packed blocks names: a block is a set of rows, in
/// ascending order, by a set of columns, and no column lies in two
/// blocks.  A mapping tile has one block per column class
/// (`column_classes`, mapping/mapping_plan.h): the rows its shifted
/// kernel covers by the columns that share its window position.  A cell
/// outside every block is a structural zero: it reads 0 and cannot be
/// programmed.  A cycle multiplies each block once, so it costs the sum
/// of the blocks' rows x columns -- for a tile, exactly its programmed
/// cells -- and a column's read-out sums its block's rows in ascending
/// row order before the ADC.  The plain `(geometry, bound_rows,
/// bound_cols)` crossbar is the one-block case, every bound row by every
/// bound column.
///
/// Dropping the cells outside the blocks is bitwise exact for finite
/// inputs.  Each dropped term is a cell holding 0 times a finite drive,
/// i.e. +0.0 or -0.0; a column sum starts at +0.0 and can never become
/// -0.0 (x + y is -0.0 in round-to-nearest only when both are -0.0), and
/// adding a signed zero to any other value leaves it unchanged, so those
/// terms never changed a read-out.  An infinite or NaN drive would break
/// this (0 * inf is NaN), so inputs must be finite.
///
/// The crossbar refuses to program a cell twice -- the physical analogue
/// of a mapping bug -- and counts its programmed cells.

#include <cstdint>
#include <span>
#include <utility>
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
  /// `bound_rows x bound_cols` block, stored as one packed block of every
  /// bound cell, all erased (zero, not programmed); throws
  /// InvalidArgument unless the block is non-empty and inside the array.
  Crossbar(ArrayGeometry geometry, Dim bound_rows, Dim bound_cols);

  /// The same bound block storing only the cells of `blocks`; throws
  /// InvalidArgument unless every block's rows ascend strictly, every
  /// row and column lies in the bound block and no column is in two
  /// blocks.
  Crossbar(ArrayGeometry geometry, Dim bound_rows, Dim bound_cols,
           std::vector<CellBlock> blocks);

  const ArrayGeometry& geometry() const { return geometry_; }
  Dim bound_rows() const { return bound_rows_; }
  Dim bound_cols() const { return bound_cols_; }

  /// Program one cell with a weight value.  Programming the same cell
  /// twice, or a cell outside every packed block, throws
  /// InvalidArgument: mapping plans must never collide (each plan owns
  /// each cell for exactly one purpose).  Optional noise is applied at
  /// programming time, as on real hardware.
  void program(Dim row, Dim col, double value, NoiseModel* noise = nullptr);

  /// The stored value of a cell (zero if never programmed or outside
  /// every block).
  double cell(Dim row, Dim col) const;

  /// A batch of computing cycles on the bound block: `input` holds one
  /// vector of `bound_rows` drives per cycle (entries for idle rows are
  /// 0), so its length must be a positive multiple of bound_rows, and
  /// `output` receives `batch x bound_cols` column values, row-major:
  /// zero, then accumulate() of the batch (a column no block holds
  /// reads 0).  Cycle i of a batch is bitwise identical to computing it
  /// alone.
  void compute(std::span<const double> input, std::span<double> output,
               const ConverterModel& adc = {}) const;

  /// Doubles of scratch accumulate() needs for `batch` cycles.
  Count scratch_size(Count batch) const;

  /// The one compute path: for `batch` cycles, with cycle i's drives at
  /// `input[i * bound_rows + row]`, each block copies its rows' drives
  /// into `scratch`, multiplies them by its cells through the MVM kernel
  /// (gemm_accumulate, terms in ascending row order) and adds each
  /// column's read-out, passed through the ADC, to
  /// `output[i * ld_output + col]`.  Requires ld_output >= bound_cols
  /// and scratch_size(batch) doubles of scratch.
  void accumulate(const double* input, Count batch, double* output,
                  Count ld_output, const ConverterModel& adc,
                  std::span<double> scratch) const;

  /// Cells the packed blocks hold: the multiply-accumulates one cycle
  /// runs.
  Count block_cells() const { return static_cast<Count>(cells_.size()); }

  /// Number of programmed cells (utilization numerator, weight-cell
  /// convention of Eq. (9)).
  Count programmed_cell_count() const { return programmed_count_; }

 private:
  /// A packed block and where its cells start in cells_ (row-major,
  /// rows.size() x cols.size()).
  struct Block {
    CellBlock cells;
    std::size_t offset = 0;
  };

  /// Index of (row, col) in cells_, or -1 for a cell outside every
  /// block; throws for a cell outside the array.
  Count index(Dim row, Dim col) const;

  ArrayGeometry geometry_;
  Dim bound_rows_;
  Dim bound_cols_;
  std::vector<Block> blocks_;
  /// Per bound column: its block and position there, or {-1, -1}.
  std::vector<std::pair<Count, Count>> col_slot_;
  /// Per block, per bound row: the row's position in the block, or -1
  /// (blocks x bound_rows, block-major).
  std::vector<std::int32_t> row_slot_;
  Count max_block_rows_ = 0;
  Count max_block_cols_ = 0;
  std::vector<double> cells_;              // the blocks, one after another
  std::vector<std::uint64_t> programmed_;  // one bit per stored cell
  Count programmed_count_ = 0;
};

}  // namespace vwsdk
