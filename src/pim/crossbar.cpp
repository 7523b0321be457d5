#include "pim/crossbar.h"

#include "common/error.h"
#include "common/string_util.h"
#include "tensor/gemm_backend.h"

namespace vwsdk {

Crossbar::Crossbar(ArrayGeometry geometry) : geometry_(geometry) {
  geometry_.validate();
  const std::size_t total = static_cast<std::size_t>(geometry_.cell_count());
  cells_.assign(total, 0.0);
  programmed_.assign(total, 0);
}

std::size_t Crossbar::index(Dim row, Dim col) const {
  VWSDK_REQUIRE(row >= 0 && row < geometry_.rows && col >= 0 &&
                    col < geometry_.cols,
                cat("cell (", row, ", ", col, ") outside array ",
                    geometry_.to_string()));
  return static_cast<std::size_t>(row) * static_cast<std::size_t>(
                                             geometry_.cols) +
         static_cast<std::size_t>(col);
}

void Crossbar::program(Dim row, Dim col, double value, NoiseModel* noise) {
  const std::size_t i = index(row, col);
  VWSDK_REQUIRE(programmed_[i] == 0,
                cat("cell (", row, ", ", col,
                    ") programmed twice: mapping plans must not collide"));
  cells_[i] = (noise != nullptr) ? noise->apply(value) : value;
  programmed_[i] = 1;
  ++programmed_count_;
}

double Crossbar::cell(Dim row, Dim col) const { return cells_[index(row, col)]; }

std::vector<double> Crossbar::compute(const std::vector<double>& input,
                                      const ConverterModel& adc) const {
  const Count rows = geometry_.rows;
  const Count size = static_cast<Count>(input.size());
  VWSDK_REQUIRE(size > 0 && size % rows == 0,
                cat("input length ", input.size(),
                    " is not a positive multiple of array rows ", rows));
  const Count batch = size / rows;
  std::vector<double> output(static_cast<std::size_t>(batch * geometry_.cols),
                             0.0);
  gemm_accumulate(input.data(), cells_.data(), output.data(), 0, batch, rows,
                  geometry_.cols);
  if (adc.mode() != ConverterMode::kIdeal) {
    for (double& value : output) {
      value = adc.convert(value);
    }
  }
  return output;
}

}  // namespace vwsdk
