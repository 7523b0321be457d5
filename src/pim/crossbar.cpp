#include "pim/crossbar.h"

#include <algorithm>

#include "common/error.h"
#include "common/string_util.h"
#include "tensor/gemm_backend.h"

namespace vwsdk {

Crossbar::Crossbar(ArrayGeometry geometry, Dim bound_rows, Dim bound_cols)
    : geometry_(geometry), bound_rows_(bound_rows), bound_cols_(bound_cols) {
  geometry_.validate();
  VWSDK_REQUIRE(bound_rows > 0 && bound_rows <= geometry_.rows &&
                    bound_cols > 0 && bound_cols <= geometry_.cols,
                cat("bound block ", bound_rows, "x", bound_cols,
                    " outside array ", geometry_.to_string()));
  const std::size_t total = static_cast<std::size_t>(bound_rows) *
                            static_cast<std::size_t>(bound_cols);
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
  return static_cast<Count>(row) * bound_cols_ + col;
}

void Crossbar::program(Dim row, Dim col, double value, NoiseModel* noise) {
  const Count i = index(row, col);
  VWSDK_REQUIRE(i >= 0, cat("cell (", row, ", ", col,
                            ") is outside the bound block ", bound_rows_,
                            "x", bound_cols_));
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
  gemm_accumulate(input.data(), cells_.data(), bound_cols_, output.data(),
                  bound_cols_, 0, batch, bound_rows_, bound_cols_);
  if (adc.mode() != ConverterMode::kIdeal) {
    for (double& value : output) {
      value = adc.convert(value);
    }
  }
}

}  // namespace vwsdk
