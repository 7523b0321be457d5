#include "pim/crossbar.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"
#include "common/string_util.h"
#include "tensor/gemm_backend.h"

namespace vwsdk {

namespace {

/// Every bound row by every bound column, or no block for a bound block
/// the constructor will reject.
std::vector<CellBlock> whole_block(const ArrayGeometry& geometry,
                                   Dim bound_rows, Dim bound_cols) {
  if (bound_rows <= 0 || bound_rows > geometry.rows || bound_cols <= 0 ||
      bound_cols > geometry.cols) {
    return {};
  }
  CellBlock block;
  block.rows.resize(static_cast<std::size_t>(bound_rows));
  block.cols.resize(static_cast<std::size_t>(bound_cols));
  std::iota(block.rows.begin(), block.rows.end(), 0);
  std::iota(block.cols.begin(), block.cols.end(), 0);
  std::vector<CellBlock> blocks;
  blocks.push_back(std::move(block));
  return blocks;
}

}  // namespace

Crossbar::Crossbar(ArrayGeometry geometry, Dim bound_rows, Dim bound_cols)
    : Crossbar(geometry, bound_rows, bound_cols,
               whole_block(geometry, bound_rows, bound_cols)) {}

Crossbar::Crossbar(ArrayGeometry geometry, Dim bound_rows, Dim bound_cols,
                   std::vector<CellBlock> blocks)
    : geometry_(geometry), bound_rows_(bound_rows), bound_cols_(bound_cols) {
  geometry_.validate();
  VWSDK_REQUIRE(bound_rows > 0 && bound_rows <= geometry_.rows &&
                    bound_cols > 0 && bound_cols <= geometry_.cols,
                cat("bound block ", bound_rows, "x", bound_cols,
                    " outside array ", geometry_.to_string()));
  col_slot_.assign(static_cast<std::size_t>(bound_cols), {-1, -1});
  row_slot_.assign(blocks.size() * static_cast<std::size_t>(bound_rows), -1);
  std::size_t total = 0;
  blocks_.reserve(blocks.size());
  for (CellBlock& cells : blocks) {
    const Count b = static_cast<Count>(blocks_.size());
    for (std::size_t r = 0; r < cells.rows.size(); ++r) {
      const Dim row = cells.rows[r];
      VWSDK_REQUIRE(row >= 0 && row < bound_rows &&
                        (r == 0 || row > cells.rows[r - 1]),
                    cat("block ", b, " row ", row,
                        " is outside the bound rows ", bound_rows,
                        " or out of ascending order"));
      row_slot_[static_cast<std::size_t>(b * bound_rows + row)] =
          static_cast<std::int32_t>(r);
    }
    for (std::size_t j = 0; j < cells.cols.size(); ++j) {
      const Dim col = cells.cols[j];
      VWSDK_REQUIRE(col >= 0 && col < bound_cols,
                    cat("block ", b, " column ", col,
                        " is outside the bound columns ", bound_cols));
      auto& slot = col_slot_[static_cast<std::size_t>(col)];
      VWSDK_REQUIRE(slot.first < 0, cat("column ", col, " is in blocks ",
                                        slot.first, " and ", b));
      slot = {b, static_cast<Count>(j)};
    }
    const auto rows = static_cast<Count>(cells.rows.size());
    const auto cols = static_cast<Count>(cells.cols.size());
    max_block_rows_ = std::max(max_block_rows_, rows);
    max_block_cols_ = std::max(max_block_cols_, cols);
    blocks_.push_back(Block{std::move(cells), total});
    total += static_cast<std::size_t>(rows * cols);
  }
  cells_.assign(total, 0.0);
  programmed_.assign((total + 63) / 64, 0);
}

Count Crossbar::index(Dim row, Dim col) const {
  VWSDK_REQUIRE(row >= 0 && row < geometry_.rows && col >= 0 &&
                    col < geometry_.cols,
                cat("cell (", row, ", ", col, ") outside array ",
                    geometry_.to_string()));
  if (row >= bound_rows_ || col >= bound_cols_) {
    return -1;
  }
  const auto [b, j] = col_slot_[static_cast<std::size_t>(col)];
  if (b < 0) {
    return -1;
  }
  const std::int32_t r =
      row_slot_[static_cast<std::size_t>(b * bound_rows_ + row)];
  if (r < 0) {
    return -1;
  }
  const Block& block = blocks_[static_cast<std::size_t>(b)];
  return static_cast<Count>(block.offset) +
         r * static_cast<Count>(block.cells.cols.size()) + j;
}

void Crossbar::program(Dim row, Dim col, double value, NoiseModel* noise) {
  const Count i = index(row, col);
  VWSDK_REQUIRE(i >= 0, cat("cell (", row, ", ", col,
                            ") is outside every packed block of the bound "
                            "block ", bound_rows_, "x", bound_cols_));
  const auto at = static_cast<std::size_t>(i);
  std::uint64_t& word = programmed_[at / 64];
  const std::uint64_t bit = std::uint64_t{1} << (at % 64);
  VWSDK_REQUIRE((word & bit) == 0,
                cat("cell (", row, ", ", col,
                    ") programmed twice: mapping plans must not collide"));
  cells_[at] = (noise != nullptr) ? noise->apply(value) : value;
  word |= bit;
  ++programmed_count_;
}

double Crossbar::cell(Dim row, Dim col) const {
  const Count i = index(row, col);
  return i < 0 ? 0.0 : cells_[static_cast<std::size_t>(i)];
}

void Crossbar::compute(std::span<const double> input,
                       std::span<double> output,
                       const ConverterModel& adc) const {
  const Count size = static_cast<Count>(input.size());
  VWSDK_REQUIRE(size > 0 && size % bound_rows_ == 0,
                cat("input length ", input.size(),
                    " is not a positive multiple of the bound rows ",
                    bound_rows_));
  const Count batch = size / bound_rows_;
  VWSDK_REQUIRE(static_cast<Count>(output.size()) == batch * bound_cols_,
                cat("output length ", output.size(), " is not ", batch,
                    " cycles x ", bound_cols_, " bound columns"));
  std::fill(output.begin(), output.end(), 0.0);
  std::vector<double> scratch(static_cast<std::size_t>(scratch_size(batch)));
  accumulate(input.data(), batch, output.data(), bound_cols_, adc, scratch);
}

Count Crossbar::scratch_size(Count batch) const {
  return batch * (max_block_rows_ + max_block_cols_);
}

void Crossbar::accumulate(const double* input, Count batch, double* output,
                          Count ld_output, const ConverterModel& adc,
                          std::span<double> scratch) const {
  VWSDK_REQUIRE(batch >= 0 && ld_output >= bound_cols_ &&
                    static_cast<Count>(scratch.size()) >= scratch_size(batch),
                cat("accumulate of ", batch, " cycles: output stride ",
                    ld_output, " or scratch ", scratch.size(),
                    " too small for the ", bound_rows_, "x", bound_cols_,
                    " bound block"));
  const bool ideal = adc.mode() == ConverterMode::kIdeal;
  double* const sums = scratch.data();
  double* const taps = sums + batch * max_block_cols_;
  for (const Block& block : blocks_) {
    const std::vector<Dim>& rows = block.cells.rows;
    const std::vector<Dim>& cols = block.cells.cols;
    const auto n_rows = static_cast<Count>(rows.size());
    const auto n_cols = static_cast<Count>(cols.size());
    for (Count i = 0; i < batch; ++i) {
      const double* drive = input + i * bound_rows_;
      double* tap = taps + i * n_rows;
      for (Count r = 0; r < n_rows; ++r) {
        tap[r] = drive[rows[static_cast<std::size_t>(r)]];
      }
    }
    std::fill(sums, sums + batch * n_cols, 0.0);
    gemm_accumulate(taps, cells_.data() + block.offset, n_cols, sums, n_cols,
                    0, batch, n_rows, n_cols);
    for (Count i = 0; i < batch; ++i) {
      const double* sum = sums + i * n_cols;
      double* out = output + i * ld_output;
      if (ideal) {
        for (Count j = 0; j < n_cols; ++j) {
          out[cols[static_cast<std::size_t>(j)]] += sum[j];
        }
      } else {
        for (Count j = 0; j < n_cols; ++j) {
          out[cols[static_cast<std::size_t>(j)]] += adc.convert(sum[j]);
        }
      }
    }
  }
}

}  // namespace vwsdk
